import dataclasses
import tempfile
from functools import cache
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from prodsep.certificates import (
    ProductCertificate,
    emit_certificate,
    parse_certificate,
    verify_certificate,
)
from prodsep import cli, separators
from prodsep.cli import main
from prodsep.covers import expand_to_cover, transition_group
from prodsep.errors import CapExceeded
from prodsep.extensions import ExtensionLevel
from prodsep.graphs import LabeledGraph
from prodsep.groups import DEFAULT_CAP, XGroup
from prodsep.problems import (
    ProblemParseError,
    format_group_spec,
    parse_group_spec,
    parse_problem,
)
from prodsep.rational import member_product
from prodsep.separators import factorize, hall_separator, product_separator
from prodsep.stallings import stallings_graph
from prodsep.words import Alphabet
from tests.helpers import enumerated_claims, spine_doubling_back

A = Alphabet("xy")

HALL_INSTANCE = """\
alphabet: xy
H1: xyXY, yy
word: xyX
"""

PRODUCT = """\
alphabet: xy
H1: xx
H2: yy
word: xy
"""


@pytest.fixture
def hall_file(tmp_path):
    path = tmp_path / "hall.txt"
    path.write_text(HALL_INSTANCE)
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    path = tmp_path / "product.txt"
    path.write_text(PRODUCT)
    return str(path)


class TestParseProblem:
    def test_named_subgroups_and_word(self):
        p = parse_problem(HALL_INSTANCE)
        assert list(p.subgroups) == ["H1"]
        assert p.subgroups["H1"] == (A.parse("xyXY"), A.parse("yy"))
        assert p.word == A.parse("xyX")

    def test_unknown_symbol(self):
        with pytest.raises(ProblemParseError, match="line 2"):
            parse_problem("alphabet: x\nH: z\n")

    def test_duplicate_subgroup_name(self):
        with pytest.raises(ProblemParseError, match="duplicate"):
            parse_problem("alphabet: x\nH: x\nH: xx\n")

    def test_empty_word_token(self):
        p = parse_problem("alphabet: x\nH: 1\n")
        assert p.subgroups["H"] == ((),)

    def test_comments_and_gen_lines(self):
        p = parse_problem("# intro\nalphabet: xy\ngen: xx # tail\ngen: y\n")
        assert p.subgroups["H"] == (A.parse("xx"), A.parse("y"))

    def test_alphabet_must_come_first(self):
        with pytest.raises(ProblemParseError):
            parse_problem("H: x\nalphabet: x\n")

    def test_primes(self):
        p = parse_problem("alphabet: x\nH: x\nprimes: 2, 3\n")
        assert p.primes == (2, 3)


class TestGroupSpec:
    def test_round_trip(self):
        from prodsep.groups import XGroup
        g = XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)])
        spec = format_group_spec(g)
        back = parse_group_spec(spec)
        assert back.carrier == 4
        for x in A.positive_letters():
            assert back.perm(x) == g.perm(x)

    def test_bad_carrier_and_alphabet_name_their_line(self):
        with pytest.raises(ProblemParseError, match="line 2"):
            parse_group_spec("alphabet: x\ncarrier: two\nx: (0 1)\n")
        with pytest.raises(ProblemParseError, match="line 1"):
            parse_group_spec("alphabet: X\ncarrier: 2\nX: (0 1)\n")
        with pytest.raises(ProblemParseError, match="^missing alphabet or carrier$"):
            parse_group_spec("alphabet: x\n")

    def test_huge_carrier_is_an_input_error(self, tmp_path, capsys):
        # rejected on its line before a point is allocated
        spec = tmp_path / "spec.txt"
        for carrier in (10 ** 50, DEFAULT_CAP + 1, -1):
            text = f"alphabet: x\ncarrier: {carrier}\nx: (0 1)\n"
            with pytest.raises(ProblemParseError, match="^line 2: bad carrier: "):
                parse_group_spec(text)
            spec.write_text(text)
            capsys.readouterr()
            assert main(["group", "cayley", str(spec)]) == 3
            assert "line 2: bad carrier: " in capsys.readouterr().err
        assert parse_group_spec("alphabet: x\ncarrier: 2\nx: (0 1)\n").carrier == 2

    def test_repeated_key_names_its_line(self):
        for text, line_no in [("alphabet: x\ncarrier: 2\nx: (0 1)\nx: ()\n", 4),
                              ("alphabet: x\ncarrier: 2\ncarrier: 3\nx: (0 1)\n", 3),
                              ("alphabet: x\nalphabet: xy\ncarrier: 2\nx: (0 1)\n", 2)]:
            with pytest.raises(ProblemParseError, match=f"^line {line_no}: .*twice"):
                parse_group_spec(text)


class TestCertificates:
    def test_hall_round_trip(self):
        cert = hall_separator(A, [A.parse("xyXY"), A.parse("yy")], A.parse("xyX"))
        assert parse_certificate(emit_certificate(cert)) == cert
        ok, _ = verify_certificate(cert)
        assert ok

    def test_product_round_trip(self):
        cert = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"))
        assert parse_certificate(emit_certificate(cert)) == cert
        ok, _ = verify_certificate(cert)
        assert ok

    def test_member_status_verifies(self):
        cert = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"))
        assert cert.status == "member"
        ok, _ = verify_certificate(cert)
        assert ok

    def test_factorization_round_trip(self):
        subgroups = [[A.parse("xx")], [A.parse("yy")]]
        cert = factorize(A, subgroups, A.parse("xxyy"))
        assert parse_certificate(emit_certificate(cert)) == cert
        ok, _ = verify_certificate(cert)
        assert ok

    def test_factor_mutations_rejected(self):
        subgroups = [[A.parse("xx")], [A.parse("yy")]]
        cert = factorize(A, subgroups, A.parse("xxyy"))
        text = emit_certificate(cert)
        line_of_factor = next(l for l in text.splitlines() if l.startswith("factor 1"))
        for repl in ["factor 1: xX", "factor 1: xxx", "factor 1: xy", "factor 1: 1"]:
            mutated = text.replace(line_of_factor, repl)
            ok, _ = verify_certificate(parse_certificate(mutated))
            assert not ok, repl

    @pytest.mark.parametrize("base", ["-1", "3"])
    def test_hall_base_out_of_range_rejected(self, tmp_path, capsys, base):
        # the word x fixes every point: read unchecked, base -1 indexes
        # from the end and verifies, and base 3 raises IndexError
        path = tmp_path / "hall.cert"
        path.write_text("certificate: hall\nalphabet: x\nsubgroup H1: 1\nword: x\n"
                        f"carrier: 3\nbase: {base}\nperm x: ()\n")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == "base vertex out of range\nREJECTED\n"

    def test_hall_tampering_rejected(self):
        wit = hall_separator(A, [A.parse("x")], A.parse("y"))
        text = emit_certificate(wit)
        mutated = text.replace("word: y", "word: x")
        ok, _ = verify_certificate(parse_certificate(mutated))
        assert not ok

    def test_hall_cancelling_pairs_keep_the_verdict(self):
        # a permutation sends a point where the word's free reduction does,
        # so a read word needs no reduction: accepted and rejected alike
        accepted = hall_separator(A, [A.parse("xyXY"), A.parse("yy")], A.parse("xyX"))
        rejected = dataclasses.replace(hall_separator(A, [A.parse("x")], A.parse("y")),
                                       word=A.parse("xx"))
        for cert, verdict in [
                (accepted, (True, ["base vertex fixed by all generators, moved by the word"])),
                (rejected, (False, ["word image fixes the base vertex; nothing is separated"]))]:
            assert verify_certificate(cert) == verdict
            padded = dataclasses.replace(
                cert, generators=tuple((1, -1) + g + (2, -2) for g in cert.generators),
                word=cert.word[:1] + (-2, 2) + cert.word[1:])
            assert verify_certificate(parse_certificate(emit_certificate(padded))) == verdict

    def test_tampered_image_sizes_rejected(self):
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"))
        text = emit_certificate(wit)
        assert "image size 1: 2" in text
        mutated = text.replace("image size 1: 2", "image size 1: 3")
        ok, _ = verify_certificate(parse_certificate(mutated))
        assert not ok

    def test_tampered_product_size_rejected(self):
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"))
        text = emit_certificate(wit)
        assert "product size: 4" in text
        for repl in ["product size: 999", "product size: 2", "product size: 8"]:
            mutated = text.replace("product size: 4", repl)
            ok, _ = verify_certificate(parse_certificate(mutated))
            assert not ok, repl

    def test_tampered_three_factor_product_size_rejected(self):
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")], [A.parse("xx")]],
                                A.parse("xy"))
        text = emit_certificate(wit)
        line = next(l for l in text.splitlines() if l.startswith("product size: "))
        size = int(line.split(":")[1])
        ok, _ = verify_certificate(parse_certificate(text))
        assert ok
        mutated = text.replace(line, f"product size: {size + 1}")
        ok, _ = verify_certificate(parse_certificate(mutated))
        assert not ok

    def test_unknown_status_is_a_parse_error(self):
        text = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        line_no = text.splitlines().index("status: excluded") + 1
        with pytest.raises(ProblemParseError, match=f"line {line_no}: .*'bogus'"):
            parse_certificate(text.replace("status: excluded", "status: bogus"))

    def test_parse_errors_name_their_line(self):
        text = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        lines = text.splitlines()
        for key, bad in [("carrier", "two"), ("primes", "2, x"),
                         ("image size 1", "2.5"), ("product size", "four"),
                         ("perm x", "(0 1"), ("word", "xz")]:
            line_no = next(i for i, l in enumerate(lines, start=1)
                           if l.startswith(key + ":"))
            mutated = "\n".join(
                f"{key}: {bad}" if i == line_no else l
                for i, l in enumerate(lines, start=1)) + "\n"
            with pytest.raises(ProblemParseError, match=f"^line {line_no}: "):
                parse_certificate(mutated)
        hall = emit_certificate(hall_separator(A, [A.parse("x")], A.parse("y")))
        base_line = next(l for l in hall.splitlines() if l.startswith("base:"))
        line_no = hall.splitlines().index(base_line) + 1
        with pytest.raises(ProblemParseError, match=f"^line {line_no}: "):
            parse_certificate(hall.replace(base_line, "base: zero"))

    def test_missing_field_names_no_line(self):
        text = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        for key in ["carrier", "status", "perm y", "word"]:
            cut = "".join(l for l in text.splitlines(keepends=True)
                          if not l.startswith(key + ":"))
            with pytest.raises(ProblemParseError) as info:
                parse_certificate(cut)
            assert str(info.value) == f"missing field {key!r}"
            assert info.value.line_no is None

    def test_huge_carrier_in_certificate_is_an_input_error(self, tmp_path, capsys):
        text = emit_certificate(hall_separator(A, [A.parse("x")], A.parse("y")))
        assert "carrier: 2\n" in text
        line_no = text.splitlines().index("carrier: 2") + 1
        cert = tmp_path / "hall.cert"
        for carrier in (10 ** 50, DEFAULT_CAP + 1):
            cert.write_text(text.replace("carrier: 2\n", f"carrier: {carrier}\n"))
            capsys.readouterr()
            assert main(["verify", str(cert)]) == 3
            assert f"line {line_no}: bad carrier: " in capsys.readouterr().err

    def test_prime_outside_the_cap_is_an_input_error(self, tmp_path, capsys):
        # trial division of 2^61 - 1 would take some 1.5e9 divisions
        text = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        assert "primes: 2\n" in text
        cert = tmp_path / "product.cert"
        for prime in (2 ** 61 - 1, DEFAULT_CAP + 3):
            cert.write_text(text.replace("primes: 2\n", f"primes: {prime}\n"))
            capsys.readouterr()
            assert main(["verify", str(cert)]) == 3
            assert f"prime {prime} is outside 2..{DEFAULT_CAP}" in capsys.readouterr().err

    def test_lines_are_placed_by_their_index(self, tmp_path, capsys):
        # yyxx is not in <xx><yy>: read in file order, the swapped lines
        # would claim the factorization yy * xx of <yy><xx>
        swapped = ("certificate: factorization\nalphabet: xy\n"
                   "subgroup H2: yy\nsubgroup H1: xx\nword: yyxx\n"
                   "factor 2: yy\nfactor 1: xx\n")
        cert = parse_certificate(swapped)
        assert cert.subgroups == ((A.parse("xx"),), (A.parse("yy"),))
        assert cert.factors == (A.parse("xx"), A.parse("yy"))
        path = tmp_path / "f.cert"
        path.write_text(swapped)
        assert main(["verify", str(path)]) == 1
        assert "REJECTED" in capsys.readouterr().out
        text = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        moved = text.replace("image size 1:", "image size 9:")
        assert parse_certificate(text.replace("image size 1: 2\nimage size 2: 2",
                                              "image size 2: 2\nimage size 1: 2")) == \
            parse_certificate(text)
        for bad, line_no in [
                (swapped.replace("H2", "H7").replace("factor 2", "factor 9"), 3),
                (swapped.replace("factor 2", "factor 9"), 6),
                (swapped.replace("factor 2", "factor 01"), 7),
                (swapped.replace("subgroup H1", "subgroup K1"), 4),
                (swapped.replace("factor 2", "factor x"), 6),
                (moved, moved.splitlines().index("image size 9: 2") + 1)]:
            path.write_text(bad)
            capsys.readouterr()
            assert main(["verify", str(path)]) == 3
            assert f"line {line_no}: " in capsys.readouterr().err


class TestCliCommands:
    def test_build_and_dot(self, hall_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["stallings", "build", hall_file, "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 4" in out
        assert "doublecircle" in dot.read_text()

    def test_member_exit_codes(self, hall_file):
        assert main(["stallings", "member", hall_file, "yy"]) == 0
        assert main(["stallings", "member", hall_file, "x"]) == 1

    def test_cover_expand_and_group(self, hall_file, capsys):
        assert main(["cover", "expand", hall_file, "--all"]) == 0
        assert "expansions: 2" in capsys.readouterr().out
        assert main(["cover", "group", hall_file]) == 0
        out = capsys.readouterr().out
        assert "carrier: 4" in out

    def test_group_cayley_from_cover_group_output(self, hall_file, tmp_path, capsys):
        assert main(["cover", "group", hall_file]) == 0
        spec = capsys.readouterr().out
        problem = parse_problem(HALL_INSTANCE)
        h = stallings_graph(problem.alphabet, problem.subgroup_list()[0])
        group = transition_group(expand_to_cover(h.graph))
        assert spec == format_group_spec(group) + f"# order: {group.order()}\n"
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(spec)
        assert main(["group", "cayley", str(spec_path)]) == 0

    def test_ext_eval_and_check_star(self, hall_file, tmp_path, capsys):
        main(["cover", "group", hall_file])
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(capsys.readouterr().out)
        assert main(["ext", "eval", str(spec_path), "xyXY"]) == 0
        assert "group part" in capsys.readouterr().out
        assert main(["ext", "check-star", str(spec_path), "--count", "25"]) == 0
        assert "25/25 passed" in capsys.readouterr().out
        assert main(["ext", "eval", str(spec_path), "x", "--prime", "1" + "0" * 400]) == 3

    @pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--count", "0"),
                                             ("--max-len", "-1")])
    def test_check_star_rejects_bad_counts(self, hall_file, tmp_path, capsys, flag, value):
        main(["cover", "group", hall_file])
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(capsys.readouterr().out)
        assert main(["ext", "check-star", str(spec_path), flag, value]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}:" in err
        assert main(["ext", "check-star", str(spec_path), "--count", "3",
                     "--max-len", "0"]) == 0  # empty words only
        assert "3/3 passed" in capsys.readouterr().out

    def test_check_star_checks_the_group_law(self, hall_file, tmp_path, capsys,
                                            monkeypatch):
        # evaluate does not go through mult, so a broken mult must still fail
        main(["cover", "group", hall_file])
        spec_path = tmp_path / "spec.txt"
        spec_path.write_text(capsys.readouterr().out)
        monkeypatch.setattr(ExtensionLevel, "mult", lambda self, a, b: a)
        assert main(["ext", "check-star", str(spec_path), "--count", "25"]) == 1
        assert "passed" in capsys.readouterr().out

    def test_separate_hall_verify_loop(self, hall_file, tmp_path, capsys):
        cert = tmp_path / "hall.cert"
        assert main(["separate", "hall", hall_file, "--out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_separate_hall_builds_the_subgroup_once(self, hall_file, monkeypatch, capsys):
        builds, folds = [], []
        fold = LabeledGraph.fold_all_tracked

        def built(*args, **kwargs):
            builds.append(1)
            return stallings_graph(*args, **kwargs)

        def folded(self, *args, **kwargs):
            folds.append(1)
            return fold(self, *args, **kwargs)

        monkeypatch.setattr(cli, "stallings_graph", built)
        monkeypatch.setattr(separators, "_read_graph", built)  # the construction's reader
        monkeypatch.setattr(LabeledGraph, "fold_all_tracked", folded)
        assert main(["separate", "hall", hall_file]) == 0
        assert len(builds) == 1  # S(H) once; attaching the word reads
        assert not folds  # both generators read into the graph, no fold
        builds.clear()
        assert main(["separate", "hall", hall_file, "yy"]) == 1
        assert "the word lies in the subgroup" in capsys.readouterr().out
        assert len(builds) == 1  # a member word is told apart without a rebuild

    def test_verify_hall_without_subgroup_is_input_error(self, tmp_path, capsys):
        text = emit_certificate(hall_separator(A, [A.parse("x")], A.parse("y")))
        cert = tmp_path / "hall.cert"
        cert.write_text("".join(l for l in text.splitlines(keepends=True)
                                if not l.startswith("subgroup ")))
        assert main(["verify", str(cert)]) == 3
        assert "subgroup" in capsys.readouterr().err

    def test_verify_hall_with_a_second_subgroup_is_input_error(self, tmp_path, capsys):
        # the parser kept H1 and dropped H2, so a certificate whose H2 moves
        # the base was verified
        problem, cert = tmp_path / "hall.txt", tmp_path / "hall.cert"
        problem.write_text("alphabet: xy\nH: xx\nword: xy\n")
        assert main(["separate", "hall", str(problem), "--out", str(cert)]) == 0
        lines = cert.read_text().splitlines(keepends=True)
        line_no = next(i for i, l in enumerate(lines) if l.startswith("subgroup H1:")) + 2
        lines.insert(line_no - 1, "subgroup H2: y\n")
        cert.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 3
        assert capsys.readouterr() == (
            "", f"error: line {line_no}: a hall certificate states one subgroup, "
                "'subgroup H1'\n")

    @staticmethod
    def assert_unread_lines_rejected(cert, extra, kind, capsys):
        """verify exits 3 on cert with extra appended, naming its first line:
        the parser read only the keys it asked for, so such a file verified."""
        text = cert.read_text()
        line_no = len(text.splitlines()) + 1
        cert.write_text(text + "".join(line + "\n" for line in extra))
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 3
        key = extra[0].split(":")[0]
        assert capsys.readouterr() == (
            "", f"error: line {line_no}: {key}: not a field of a {kind} certificate\n")
        cert.write_text(text)

    def test_verify_product_with_an_unread_field_is_input_error(self, product_file,
                                                               tmp_path, capsys):
        cert = tmp_path / "prod.cert"
        assert main(["separate", "product", product_file, "--out", str(cert)]) == 0
        for extra in ["product_size: 999"], ["factor 1: xx"]:
            self.assert_unread_lines_rejected(cert, extra, "product-separator", capsys)

    def test_verify_hall_with_an_unread_field_is_input_error(self, tmp_path, capsys):
        problem, cert = tmp_path / "hall.txt", tmp_path / "hall.cert"
        problem.write_text("alphabet: xy\nH: xx\nword: xy\n")
        assert main(["separate", "hall", str(problem), "--out", str(cert)]) == 0
        self.assert_unread_lines_rejected(cert, ["primes: 2", "status: member"], "hall", capsys)

    def test_verify_factorization_with_an_unread_field_is_input_error(self, product_file,
                                                                     tmp_path, capsys):
        cert = tmp_path / "fact.cert"
        assert main(["factorize", product_file, "xxyy", "--out", str(cert)]) == 0
        self.assert_unread_lines_rejected(cert, ["status: member"], "factorization", capsys)

    def test_verify_repeated_key_is_input_error(self, tmp_path, capsys):
        hall = emit_certificate(hall_separator(A, [A.parse("x")], A.parse("y")))
        excluded = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        cert = tmp_path / "dup.cert"
        for text, extra in [(hall, ["word: x"]),
                            (excluded, ["status: member", "product size: 999"])]:
            assert verify_certificate(parse_certificate(text))[0]
            line_no = len(text.splitlines()) + 1
            cert.write_text(text + "".join(l + "\n" for l in extra))
            capsys.readouterr()
            assert main(["verify", str(cert)]) == 3
            assert f"line {line_no}: " in capsys.readouterr().err

    def test_separate_product_verify_loop(self, product_file, tmp_path, capsys):
        cert = tmp_path / "prod.cert"
        assert main(["separate", "product", product_file, "--out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0

    def test_verify_unknown_status_is_input_error(self, product_file, tmp_path, capsys):
        cert = tmp_path / "prod.cert"
        assert main(["separate", "product", product_file, "--out", str(cert)]) == 0
        cert.write_text(cert.read_text().replace("status: excluded", "status: bogus"))
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 3
        assert "bogus" in capsys.readouterr().err

    def test_verify_malformed_number_is_input_error(self, product_file, tmp_path, capsys):
        cert = tmp_path / "prod.cert"
        assert main(["separate", "product", product_file, "--out", str(cert)]) == 0
        lines = cert.read_text().splitlines(keepends=True)
        line_no = next(i for i, l in enumerate(lines, start=1) if l.startswith("carrier:"))
        lines[line_no - 1] = "carrier: two\n"
        cert.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 3
        assert f"line {line_no}: bad carrier: " in capsys.readouterr().err

    def test_verify_non_ascii_digits_are_input_errors(self, tmp_path, capsys):
        # int() reads ARABIC-INDIC digits; no emitted certificate contains them
        hall = emit_certificate(
            hall_separator(A, [A.parse("xyXY"), A.parse("yy")], A.parse("xyX")))
        product = emit_certificate(
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        edits = [(hall, "perm x: (0 1)(2 3)(4 5)", "perm x: (0 1)(2 3)(4 \u0663)"),
                 (hall, "base: 0", "base: \u0660"),
                 (hall, "carrier: 6", "carrier: \u0666"),
                 (product, "primes: 2", "primes: \u0662"),
                 (product, "image size 1: 2", "image size 1: \u0662"),
                 (product, "product size: 4", "product size: \u0664"),
                 (product, "subgroup H1:", "subgroup H\u0661:")]
        cert = tmp_path / "digits.cert"
        for text, old, new in edits:
            assert old in text
            cert.write_text(text, encoding="utf-8")
            assert main(["verify", str(cert)]) == 0
            line_no = text.splitlines().index(next(
                l for l in text.splitlines() if l.startswith(old))) + 1
            cert.write_text(text.replace(old, new), encoding="utf-8")
            capsys.readouterr()
            assert main(["verify", str(cert)]) == 3, new
            assert f"line {line_no}: " in capsys.readouterr().err

    def test_kelvin_sign_is_an_input_error(self, tmp_path, capsys):
        # KELVIN SIGN lowercases to k
        path = tmp_path / "kelvin.txt"
        path.write_text("alphabet: kx\nH1: kx\n", encoding="utf-8")
        assert main(["stallings", "member", str(path), "kx"]) == 0
        capsys.readouterr()
        assert main(["stallings", "member", str(path), "\u212ax"]) == 3
        assert "unknown generator symbol" in capsys.readouterr().err
        path.write_text("alphabet: kx\nH1: \u212ax\n", encoding="utf-8")
        assert main(["stallings", "member", str(path), "kx"]) == 3

    def test_three_factor_product_cap_is_partial(self, tmp_path, capsys):
        # images of order 8: under cap 20 the search decides although the
        # product of the image orders passes it; under cap 4 an image does not fit
        path = tmp_path / "three.txt"
        path.write_text("alphabet: xy\nH1: X\nH2: Yx\nH3: x\nword: XY\n")
        cert = tmp_path / "three.cert"
        assert main(["separate", "product", str(path), "--cap", "20",
                     "--out", str(cert)]) == 1
        text = cert.read_text()
        assert "status: member" in text and "image size 3: 8" in text
        assert "product size:" not in text
        assert main(["verify", str(cert)]) == 0
        assert member_product([stallings_graph(A, [A.parse(g)]) for g in ("X", "Yx", "x")],
                              A.parse("XY"))
        capsys.readouterr()
        assert main(["separate", "product", str(path), "--cap", "4"]) == 2
        out = capsys.readouterr().out
        assert "partial" in out and "status: partial" in out

    def test_verify_cap_hits_exit_2_naming_the_stage(self, tmp_path, capsys):
        # images of orders 4, 4 and 12, product 132; a claim that the cap
        # kept from being checked is never rejected
        path = tmp_path / "three.txt"
        path.write_text("alphabet: xy\nH1: yyy\nH2: x\nH3: Y\nword: YYY\n")
        cert = tmp_path / "three.cert"
        assert main(["separate", "product", str(path), "--cap", "20",
                     "--out", str(cert)]) == 1
        assert "status: member" in cert.read_text()
        full = tmp_path / "full.cert"
        assert main(["separate", "product", str(path), "--out", str(full)]) == 1
        assert "product size: 132" in full.read_text()
        member = cert.read_text()
        # the walks run one level below the top, whose base fibres reach 6;
        # only a stated three-factor product size is listed
        for text, cap, stage in [(full.read_text(), "5", "pullback walk"),
                                 (full.read_text(), "20", "product size")]:
            cert.write_text(text)
            with pytest.raises(CapExceeded, match=f"^verify, {stage}: "):
                verify_certificate(parse_certificate(text), cap=int(cap))
            capsys.readouterr()
            assert main(["verify", str(cert), "--cap", cap]) == 2
            captured = capsys.readouterr()
            assert f"verify, {stage}: " in captured.err
            assert "REJECTED" not in captured.out
        assert main(["verify", str(cert)]) == 0
        # membership lists nothing: the cap-20 certificate verifies at cap 20
        cert.write_text(member)
        assert main(["verify", str(cert), "--cap", "20"]) == 0

    def test_factorize_verify_loop(self, product_file, tmp_path, capsys):
        cert = tmp_path / "f.cert"
        assert main(["factorize", product_file, "xxyy", "--out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 0
        assert main(["factorize", product_file, "xy"]) == 1

    def test_factorize_cap_bounds_the_product_automaton(self, tmp_path, capsys):
        # the saturation of S(xx) -> S(xx) adds two epsilon pairs
        path = tmp_path / "xx.txt"
        path.write_text("alphabet: xy\nH1: xx\nH2: xx\n")
        assert main(["factorize", str(path), "xx", "--cap", "1"]) == 2
        assert "product automaton has more than 1 " in capsys.readouterr().err
        assert main(["factorize", str(path), "xx", "--cap", "2"]) == 0

    def test_oracle_member(self, product_file):
        assert main(["oracle", "member", product_file, "xxyy"]) == 0
        assert main(["oracle", "member", product_file, "xy"]) == 1

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("alphabet: x\nH: z\n")
        assert main(["stallings", "build", str(bad)]) == 3
        assert main(["stallings", "build", str(tmp_path / "missing.txt")]) == 3

    @pytest.mark.parametrize("command, text, message", [
        ("stallings build", "alphabet: xy\nalphabet: xy\nH1: x\n",
         "line 2: alphabet declared twice"),
        ("stallings build", "alphabet: xy\nH1: x\nword: x\nword: y\n",
         "line 4: word declared twice"),
        ("stallings build", "alphabet: xy\nH1: x\nprimes: 2\nprimes: 3\n",
         "line 4: primes declared twice"),
        ("stallings build", "alphabet: xy\n1H: x\n", "line 2: bad subgroup name '1H'"),
        ("stallings build", "# no rows\n", "missing alphabet declaration"),
        ("stallings build", "alphabet: xy\nH1: x\nH1: y\n",
         "line 3: duplicate subgroup name 'H1'"),
        ("stallings build", "alphabet: xy\nword: x\n", "the file declares no subgroup"),
        ("group cayley", "alphabet: xy\ncarrier: 2\nx: (0 1)\n",
         "missing permutation for 'y'"),
        ("separate product", "alphabet: xy\nword: x\n", "need at least one subgroup"),
    ], ids=["alphabet-twice", "word-twice", "primes-twice", "bad-name", "no-alphabet",
            "duplicate-name", "no-subgroup", "missing-perm", "product-no-subgroup"])
    def test_malformed_input_exits_3(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert main([*command.split(), str(path)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_cap_exit_code(self, product_file):
        assert main(["separate", "product", product_file, "--cap", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["factorize", "FILE", "--word", "xy"],  # unrecognized arguments
        ["separate", "product", "FILE", "--cap", "abc"],
        ["separate", "product", "FILE", "--cap", "0"],
        ["verify", "FILE", "--cap", "-5"],
        ["cover", "expand", "FILE", "--all", "--cap", "0"],
        ["separate", "nothing", "FILE"],
        [],
    ], ids=["unknown-option", "cap-abc", "cap-0", "cap-negative", "expand-cap-0",
            "unknown-command", "no-command"])
    def test_usage_errors_exit_3(self, product_file, argv, capsys):
        # argparse's own code 2 would read as a cap hit
        argv = [product_file if a == "FILE" else a for a in argv]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["separate", "product", "FILE", "--cap", "١٠٠"],
        ["factorize", "FILE", "--cap", "١٠٠"],
        ["verify", "FILE", "--cap", "١٠٠"],
        ["cover", "expand", "FILE", "--cap", "١٠٠"],
        ["cover", "group", "FILE", "--cap", "١٠٠"],
        ["group", "cayley", "SPEC", "--cap", "١٠٠"],
        ["ext", "check-star", "SPEC", "--prime", "٣"],
        ["ext", "check-star", "SPEC", "--count", "٣"],
        ["ext", "check-star", "SPEC", "--seed", "٣"],
        ["ext", "check-star", "SPEC", "--max-len", "٣"],
    ], ids=lambda argv: "-".join(argv[:2] + [argv[-2]]))
    def test_integer_flags_read_ascii_digits_only(self, product_file, tmp_path, argv,
                                                  capsys):
        # int() reads ARABIC-INDIC digits: --cap ١٠٠ ran with cap 100
        spec = tmp_path / "spec.txt"
        spec.write_text(format_group_spec(XGroup(A, [(1, 0), (0, 1)])))
        subs = {"FILE": product_file, "SPEC": str(spec)}
        flag = argv[-2]
        assert main([subs.get(a, a) for a in argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: invalid" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert main(["separate", "product", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestFactorizeSeeds:
    def test_cli_seeds_path(self, product_file, capsys):
        assert main(["factorize", product_file, "xxyy", "--seeds", "xx,yy"]) == 0
        out = capsys.readouterr().out
        assert "factors: xx * yy" in out

    def test_cli_bad_seeds(self, product_file, capsys):
        assert main(["factorize", product_file, "xxyy", "--seeds", "x,yy"]) == 3

    def test_cli_seed_product_mismatch_is_an_input_error(self, product_file, capsys):
        assert main(["factorize", product_file, "xxyy", "--seeds", "xxxx,yy"]) == 3
        err = capsys.readouterr().err
        assert err == "error: seed product does not match the word in the quotient\n"

    def test_cli_pinch_fault_is_not_an_input_error(self, product_file, monkeypatch, capsys):
        # a spine that doubles back fails its projection inside the pinch:
        # a broken invariant, which exits 4, not 3 (bad input) or 1 (none)
        spine_doubling_back(monkeypatch)
        assert main(["factorize", product_file, "xxyy"]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("internal error: pinch step failed: "
                                "eta must be reduced\n")
        assert captured.out == ""

    def test_cli_seeds_checked_with_one_subgroup(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("alphabet: xy\nH1: xx\nword: xxxx\n")
        assert main(["factorize", str(path), "--seeds", "xx"]) == 0
        assert main(["factorize", str(path), "--seeds", "y,y"]) == 3
        assert main(["factorize", str(path), "--seeds", "y"]) == 3


@cache
def valid_certificates():
    """A hall, a product and a factorization certificate, each verifying."""
    subgroups = [[A.parse("xx")], [A.parse("yy")]]
    return (
        emit_certificate(hall_separator(A, [A.parse("xyXY"), A.parse("yy")],
                                        A.parse("xyX"))),
        emit_certificate(product_separator(A, subgroups, A.parse("xy"))),
        emit_certificate(factorize(A, subgroups, A.parse("xxyy")), alphabet=A,
                         subgroups=subgroups, word=A.parse("xxyy")))


values = st.one_of(
    st.sampled_from([str(10 ** 50), str(DEFAULT_CAP + 1), "", "1", "xX", "yyxx",
                     "(0 1)", "(0 1)(2 3)", "()", "2, 3", "2", "3", "excluded",
                     "member", "partial", "H1", "H3", "subgroup H3", "factor 2"]),
    st.integers(-3, 40).map(str),
    # no digits: a long digit run as a carrier would allocate gigabytes on a
    # build without the carrier bound
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=12))


def mutate(text, index, how, value):
    """The text with one line deleted, repeated, or given a new value, key or body."""
    lines = text.splitlines()
    i = index % len(lines)
    key, _, old = lines[i].partition(":")
    mutated = {"delete": [], "repeat": [lines[i], lines[i]],
               "value": [f"{key}: {value}"], "key": [f"{value}:{old}"],
               "line": [value]}[how]
    return "\n".join(lines[:i] + mutated + lines[i + 1:]) + "\n"


@cache
def product_certificates():
    """Verifying product certificates: two factors excluded and member, one factor."""
    return tuple(
        emit_certificate(product_separator(
            A, [[A.parse(g) for g in gens] for gens in subgroups], A.parse(w)))
        for subgroups, w in [([["xx"], ["yy"]], "xy"), ([["xx"], ["yy"]], "xxyy"),
                             ([["xyX", "yy"]], "xx")])


HOWS = st.sampled_from(["delete", "repeat", "value", "key", "line"])


class TestCertificateFuzz:
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(0, 2), st.integers(0, 20), HOWS, values)
    def test_one_line_mutation_exits_cleanly(self, which, index, how, value):
        # verified, rejected, cap exceeded or input error; never a traceback
        text = mutate(valid_certificates()[which], index, how, value)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mutated.cert"
            # a lone surrogate drawn into the text makes an undecodable file
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            assert main(["verify", str(path), "--cap", "2000"]) in (0, 1, 2, 3)

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(st.integers(0, 2), st.integers(0, 20), HOWS, values)
    def test_accepted_product_mutation_is_true(self, which, index, how, value):
        # a one-line mutation that verify accepts states only true claims,
        # by the enumeration oracle
        text = mutate(product_certificates()[which], index, how, value)
        try:
            cert = parse_certificate(text)
            ok, _ = verify_certificate(cert, cap=2000)
        except (ValueError, CapExceeded):
            return
        if not ok or not isinstance(cert, ProductCertificate) or len(cert.subgroups) > 2:
            return
        try:
            orders, size, member = enumerated_claims(
                XGroup(cert.alphabet, cert.perms), cert.primes, cert.subgroups,
                cert.word, 2000)
        except CapExceeded:
            return
        if cert.image_sizes is not None:
            assert cert.image_sizes == orders
        if cert.product_size is not None:
            assert cert.product_size == size
        if cert.status != "partial":
            assert (cert.status == "member") == member


KEYS = ["alphabet", "H1", "H2", "H", "gen", "word", "primes", "carrier", "x", "y",
        "1H", "", "# note"]
WORD_LISTS = st.lists(st.text("xyXY", max_size=5).map(lambda w: w or "1"),
                      min_size=1, max_size=3).map(", ".join)
CYCLES = st.sampled_from(["()", "(0 1)", "(0 1 2)", "(0 2)(1 3)", "(1 2)", "(2 0)"])


@st.composite
def input_texts(draw):
    """A well-formed problem file or group spec, often with one line of any
    key, any value or junk put in somewhere."""
    if draw(st.booleans()):
        lines = ["alphabet: xy"] + [f"H{i}: {gens}" for i, gens in enumerate(
            draw(st.lists(WORD_LISTS, min_size=1, max_size=3)), start=1)]
        lines += draw(st.sampled_from([[], ["word: xy"], ["word: yX", "primes: 3"]]))
    else:
        lines = ["alphabet: xy", f"carrier: {draw(st.integers(0, 4))}",
                 f"x: {draw(CYCLES)}", f"y: {draw(CYCLES)}"]
    if draw(st.booleans()):
        other = st.one_of(st.builds("{}: {}".format, st.sampled_from(KEYS), values), values)
        lines.insert(draw(st.integers(0, len(lines))), draw(other))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# every command that reads a problem file (FILE) or a group spec (SPEC); the
# caps keep each run small
READERS = [["stallings", "build", "FILE"], ["stallings", "member", "FILE", "xY"],
           ["cover", "expand", "FILE", "--cap", "50"],
           ["cover", "expand", "FILE", "--all", "--cap", "50"],
           ["cover", "group", "FILE", "--cap", "500"],
           ["separate", "hall", "FILE"],
           ["separate", "product", "FILE", "--cap", "200"],
           ["factorize", "FILE", "--cap", "200"],
           ["oracle", "member", "FILE", "xy"],
           ["group", "cayley", "SPEC", "--cap", "500"],
           ["ext", "eval", "SPEC", "xyX"],
           ["ext", "check-star", "SPEC", "--count", "5"]]


class TestInputFuzz:
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(input_texts())
    def test_text_parses_or_is_an_input_error(self, text):
        for parse in (parse_problem, parse_group_spec):
            try:
                parse(text)
            except ProblemParseError:
                pass

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(input_texts())
    @hypothesis.example("alphabet: xy\nH1: xy\nword: xy\n")  # a member: hall refuses it
    def test_commands_exit_cleanly(self, text):
        # every reader exits 0-3; an exception other than an input error or
        # a cap hit would escape main as a traceback
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            for argv in READERS:
                argv = [str(path) if a in ("FILE", "SPEC") else a for a in argv]
                assert main(argv) in (0, 1, 2, 3), argv
