"""The pullback route of `verify` for product certificates of every factor count.

The oracle is `tests.helpers.enumerated_claims`, which lists every image
at the top and meets in the middle.
"""

import dataclasses
import inspect
import math
import random
import time
import tracemalloc

import pytest

from prodsep import certificates, separators
from prodsep.certificates import (
    HallCertificate,
    ProductCertificate,
    _decimal,
    emit_certificate,
    parse_certificate,
    verify_certificate,
)
from prodsep.cli import main
from prodsep.errors import CapExceeded
from prodsep.extensions import ExtensionChain, ExtensionLevel, traversal_element
from prodsep.groups import XGroup
from prodsep.rational import member_product
from prodsep.separators import image_subgroup_order
from prodsep.stallings import stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import enumerated_claims, source_imports, within

A = Alphabet("xy")
CAP = 4096


def random_word(rng, lo, hi):
    return free_reduce(tuple(rng.choice(A.letters()) for _ in range(rng.randint(lo, hi))))


def random_gens(rng):
    gens = [random_word(rng, 1, 4) for _ in range(rng.randint(1, 2))]
    return tuple(g for g in gens if g) or ((1,),)


def random_group(rng, carriers=(2, 4)):
    carrier = rng.randint(*carriers)
    perms = []
    for _ in A.positive_letters():
        p = list(range(carrier))
        rng.shuffle(p)
        perms.append(tuple(p))
    return XGroup(A, perms)


def certificate(group, primes, subgroups, word, claims):
    orders, size, member = claims
    return ProductCertificate(
        alphabet=A, subgroups=tuple(subgroups), word=free_reduce(word), primes=primes,
        carrier=group.carrier, perms=tuple(group.perm(x) for x in A.positive_letters()),
        status="member" if member else "excluded", image_sizes=orders, product_size=size)


def random_product(rng, n):
    """n subgroups and a word: half the time one generator (or its inverse)
    per factor, otherwise a random reduced word."""
    subgroups = [random_gens(rng) for _ in range(n)]
    if rng.random() < 0.5:
        parts = []
        for gens in subgroups:
            g = rng.choice(gens)
            parts += g if rng.random() < 0.5 else invert(g)
        return subgroups, free_reduce(tuple(parts))
    return subgroups, random_word(rng, 0, 6)


def assert_true_claims_verify(rng, group, primes, subgroups, word, claims, cap):
    """The oracle's orders, product size and membership verify, and none of
    them can change without a rejection."""
    cert = certificate(group, primes, subgroups, word, claims)
    assert verify_certificate(cert, cap=cap) == (
        True, [f"image product membership re-checked: {claims[2]}"]), cert
    flipped = "excluded" if claims[2] else "member"
    i = rng.randrange(len(subgroups))
    sizes = tuple(s + (k == i) for k, s in enumerate(claims[0]))
    tampered = [dataclasses.replace(cert, status=flipped),
                dataclasses.replace(cert, image_sizes=sizes)]
    if claims[1] is not None:
        tampered += [dataclasses.replace(cert, product_size=claims[1] + 1),
                     dataclasses.replace(cert, product_size=claims[1] - 1)]
    for cert in tampered:
        assert not verify_certificate(cert, cap=cap)[0], cert


class TestAgainstEnumeration:
    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_random_instances(self, prime):
        rng = random.Random(f"pullback/{prime}")
        decided, seen = 0, set()
        while decided < 300:
            group = random_group(rng)
            n = 1 if decided % 4 == 0 else 2
            primes = (prime,) * (n - 1)
            subgroups, word = random_product(rng, n)
            try:
                claims = enumerated_claims(group, primes, subgroups, word, CAP)
            except CapExceeded:
                continue
            decided += 1
            seen.add((n, claims[2]))
            assert_true_claims_verify(rng, group, primes, subgroups, word, claims, CAP)
        # members and non-members, with one factor and with two
        assert seen == {(n, m) for n in (1, 2) for m in (True, False)}

    @pytest.mark.parametrize("n, prime, carriers, bound, sized, count", [
        (3, 2, (2, 4), 2048, 2048, 25), (3, 3, (2, 4), 2048, 2048, 20),
        (3, 5, (1, 2), 20000, 0, 12), (4, 2, (1, 2), 2048, 1024, 12)],
        ids=["n3p2", "n3p3", "n3p5", "n4p2"])
    def test_three_and_four_factors(self, n, prime, carriers, bound, sized, count):
        # the walks run one level below the top, and with four factors the
        # prefix is a pair whose first kernel is translated.  Draws whose
        # image orders multiply past the bound are skipped, so that the
        # oracle's listings stay small; the product size is stated, and
        # listed, when that product is at most sized (at p = 5 it never is)
        rng = random.Random(f"pullback/{n}/{prime}")
        decided, seen, sizes = 0, set(), 0
        while decided < count or len(seen) < 2:
            group = random_group(rng, carriers)
            primes = (prime,) * (n - 1)
            subgroups, word = random_product(rng, n)
            top = ExtensionChain(group, primes).top
            try:
                orders = [image_subgroup_order(top, gens, bound) for gens in subgroups]
            except CapExceeded:
                continue
            if math.prod(orders) > bound:
                continue
            claims = enumerated_claims(group, primes, subgroups, word, bound,
                                       sized=math.prod(orders) <= sized)
            decided += 1
            seen.add(claims[2])
            sizes += claims[1] is not None
            assert_true_claims_verify(rng, group, primes, subgroups, word, claims, bound)
        # members and non-members, some with a stated product size
        assert seen == {True, False} and bool(sizes) == bool(sized)

    def test_cap_counts_the_base_fibre(self):
        # over G = Z/2 at p = 2, <x, y> is the whole extension, 2 * 2^3
        # elements, and <x> has 4; each base fibre is G itself
        group = XGroup(A, [(1, 0), (1, 0)])
        subgroups = [(A.parse("x"), A.parse("y")), (A.parse("x"),)]
        word = A.parse("xy")
        claims = enumerated_claims(group, (2,), subgroups, word, CAP)
        assert claims[0] == (16, 4)
        cert = certificate(group, (2,), subgroups, word, claims)
        assert verify_certificate(cert, cap=2)[0]
        with pytest.raises(CapExceeded, match="^verify, pullback walk: "):
            verify_certificate(cert, cap=1)


def dict_form(group, prime):
    """The form picker with dict vectors at every prime."""
    return prime and certificates._DictForm(group, prime)


def bit_edges(form, vec):
    """The Cayley edges of the set bits of a bitmask vector."""
    return {key for i, key in enumerate(form.keys) if vec >> i & 1}


class TestBitFormAgainstDicts:
    @staticmethod
    def both_ways(monkeypatch, cert, cap):
        """The verdict, or the CapExceeded text, with the form the prime picks
        and with dicts forced; the two must agree."""
        out = []
        for picker in (certificates._form, dict_form):
            with monkeypatch.context() as m:
                m.setattr(certificates, "_form", picker)
                try:
                    out.append(verify_certificate(cert, cap=cap))
                except CapExceeded as exc:
                    out.append(str(exc))
        assert out[0] == out[1], cert
        return out[0]

    @staticmethod
    def same_walks(cert, cap):
        """Per walk, the same fibre keys in the same order, the same span
        dimension and order, and each tree vector on the same edges."""
        group = ExtensionChain(cert.group, cert.primes).top.below
        bits = certificates._form(group, 2)
        assert isinstance(bits, certificates._BitForm)
        dicts = certificates._DictForm(group, 2)
        sizeless = dataclasses.replace(cert, image_sizes=None)
        walks = [certificates._walks(sizeless, group, form, cap) for form in (bits, dicts)]
        for b, d in zip(*walks):
            assert list(b.fibre) == list(d.fibre)
            assert (b.order, len(b.rows)) == (d.order, len(d.rows))
            for a, vec in d.fibre.items():
                assert set(vec.values()) <= {1}
                assert bit_edges(bits, b.fibre[a]) == set(vec)
        return tuple(walk.order for walk in walks[1])

    @pytest.mark.parametrize("n, carriers, count", [(2, (2, 4), 40), (3, (2, 4), 16),
                                                    (4, (1, 2), 8)], ids=["n2", "n3", "n4"])
    def test_same_verdicts_messages_and_walks(self, monkeypatch, n, carriers, count):
        # p = 2 certificates with the dict form's image orders, a product
        # size when it is small, and a random status; each also tampered,
        # and each verified at the cap and just below its largest image order
        rng = random.Random(f"bits/{n}")
        seen, decided, cap = set(), 0, 2048
        while decided < count:
            group = random_group(rng, carriers)
            subgroups, word = random_product(rng, n)
            cert = certificate(group, (2,) * (n - 1), subgroups, word,
                               (None, None, rng.random() < 0.5))
            try:
                orders = self.same_walks(cert, cap)
            except CapExceeded:
                seen.add(self.both_ways(monkeypatch, cert, cap))
                continue
            decided += 1
            sizeless = cert
            cert = dataclasses.replace(cert, image_sizes=orders)
            if math.prod(orders) <= cap:
                top = ExtensionChain(group, cert.primes).top
                if n == 2:
                    form = dict_form(top.below, 2)
                    size = certificates._product_size(
                        form, certificates._walks(cert, top.below, form, cap))
                else:
                    size = certificates._listed_product_size(top, cert.subgroups, cap)
                cert = dataclasses.replace(cert, product_size=size)
            i = rng.randrange(n)
            flipped = "excluded" if cert.status == "member" else "member"
            variants = [cert, sizeless, dataclasses.replace(cert, status=flipped)]
            for scale in (2, 0.5):
                sizes = tuple(int(s * scale) if k == i else s for k, s in enumerate(orders))
                variants.append(dataclasses.replace(cert, image_sizes=sizes))
            if cert.product_size is not None:
                variants.append(dataclasses.replace(cert, product_size=cert.product_size + 1))
            for variant in variants:
                for at in (cap, max(orders) - 1):
                    verdict = self.both_ways(monkeypatch, variant, at)
                    seen.add(verdict if isinstance(verdict, str) else verdict[0])
        # accepted, rejected and cap hits all occur
        assert {True, False} <= seen and any(isinstance(v, str) for v in seen)


KLEIN = XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)])
S3 = XGroup(A, [(1, 0, 2), (1, 2, 0)])


class TestWordImage:
    @pytest.mark.parametrize("prime", [2, 3, 5])
    @pytest.mark.parametrize("group", [KLEIN, S3], ids=["klein", "s3"])
    def test_matches_the_traversal_identity(self, group, prime):
        # the verifier steps the word one level down through its own forms;
        # the construction's traversal_element is the reference, at levels
        # one and two, in every form the prime allows
        rng = random.Random(f"image/{group.order()}/{prime}")
        chain = ExtensionChain(group, (prime, prime))
        for level in chain.levels[1:]:
            below = level.below
            forms = [certificates._DictForm(below, prime)]
            if prime == 2:
                forms.append(certificates._form(below, 2))
            words = [random_word(rng, 0, 12) for _ in range(200)]
            assert max(map(len, words)) > 8
            for form in forms:
                for word in words:
                    vec, g = certificates._word_image(below, form, word)
                    if isinstance(form, certificates._BitForm):
                        vec = {key: 1 for key in bit_edges(form, vec)}
                    assert (tuple(sorted(vec.items())), g) == \
                        traversal_element(level, word), word


# image orders 24, 84 and 80 at the second extension level: listing the
# images at the top and meeting in the middle passed 1.2 GB below the
# default cap
MEMBER3 = """certificate: product-separator
alphabet: xy
subgroup H1: x
subgroup H2: yyxy
subgroup H3: xxY
word: xYXYYxxY
primes: 2, 2
carrier: 12
perm x: (3 4)(5 6 7)(8 9)(10 11)
perm y: (1 2 3 4)(5 7 11 10 9 8 6)
status: member
image size 1: 24
image size 2: 84
image size 3: 80
"""


class TestThreeOrMoreFactors:
    def test_member_verifies_in_bounded_memory(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            verdict = verify_certificate(parse_certificate(MEMBER3))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (True, ["image product membership re-checked: True"])
        assert elapsed < 5 and peak < 64 * 2 ** 20

    def test_nothing_is_listed_without_a_stated_product_size(self, monkeypatch):
        def listed(*args):
            raise AssertionError("verify listed a product")

        monkeypatch.setattr(certificates, "closure", listed)
        assert verify_certificate(parse_certificate(MEMBER3))[0]
        assert verify_certificate(parse_certificate(
            MEMBER3.replace("member", "excluded"))) == (
            False, ["word image found inside the image product"])
        with pytest.raises(AssertionError, match="listed"):
            verify_certificate(parse_certificate(MEMBER3 + "product size: 1\n"))


def test_orders_too_long_to_print_show_their_bit_length():
    # a walk of rank 15,000 or more has an order Python refuses to print
    assert _decimal(2 ** 9997 * 3) == str(2 ** 9997 * 3)
    assert _decimal(2 ** 15134 * 30) == "a 15139-bit number"


PARTIAL_REPRO = {"status: excluded": "status: partial",
                 "image size 1: 2": "image size 1: 9992",
                 "product size: 4": "product size: 74"}


class TestPartialCertificates:
    def test_stated_sizes_are_checked(self, tmp_path, capsys):
        text = emit_certificate(separators.product_separator(
            A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        for old, new in PARTIAL_REPRO.items():
            assert old in text
            text = text.replace(old, new)
        assert verify_certificate(parse_certificate(text)) == (
            False, ["stated image sizes (9992, 2) != (2, 2)"])
        path = tmp_path / "partial.cert"
        path.write_text(text)
        assert main(["verify", str(path)]) == 1
        assert "REJECTED" in capsys.readouterr().out
        # only the product size wrong
        text = text.replace("image size 1: 9992", "image size 1: 2")
        assert verify_certificate(parse_certificate(text)) == (
            False, ["stated product size 74 != 4"])

    def test_false_sizes_stop_the_walk(self, tmp_path, capsys):
        # the second image's walk has a base fibre of 15,120 points and a
        # cycle span of rank 15,121, which takes about 10 s to eliminate to
        # the end: the time bound shows that each walk stops early
        cert = separators.product_separator(
            A, [[A.parse("xxy")], [A.parse("XXYY"), A.parse("yX")]], A.parse("yXXy"),
            cap=16384)
        assert cert.status == "partial"
        text = emit_certificate(cert).replace("status: partial", "status: member")
        path = tmp_path / "false.cert"
        path.write_text(text + "image size 1: 16\nimage size 2: 16\n")
        start = time.perf_counter()
        assert main(["verify", str(path), "--cap", "16384"]) == 1
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "stated image size 1 is 16, but its pullback walk found at least" in out
        # the first size true (30 = 15 * 2^1): the second walk stops early
        start = time.perf_counter()
        assert verify_certificate(parse_certificate(
            text + "image size 1: 30\nimage size 2: 16\n"), cap=16384) == (
            False, ["stated image size 2 is 16, but its pullback walk found at least "
                    "17 elements"])
        assert time.perf_counter() - start < 1

    def test_claims_without_sizes_are_held_to_the_cap(self, tmp_path, capsys):
        # the instance above with no size lines: with nothing stated to
        # refute, the walk's fibre points times p^rank are held to the cap
        cert = separators.product_separator(
            A, [[A.parse("xxy")], [A.parse("XXYY"), A.parse("yX")]], A.parse("yXXy"),
            cap=16384)
        assert cert.image_sizes is None and cert.product_size is None
        path = tmp_path / "sizeless.cert"
        path.write_text(emit_certificate(cert).replace("status: partial", "status: member"))
        start = time.perf_counter()
        assert main(["verify", str(path), "--cap", "16384"]) == 2
        assert time.perf_counter() - start < 1
        assert "verify, pullback walk: pullback image has more than 16384 elements" in \
            capsys.readouterr().err
        # below the cap a claim without sizes is still checked either way
        text = emit_certificate(separators.product_separator(
            A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")))
        sizeless = "".join(l for l in text.splitlines(keepends=True) if "size" not in l)
        assert verify_certificate(parse_certificate(sizeless)) == (
            True, ["image product membership re-checked: False"])
        assert verify_certificate(parse_certificate(sizeless.replace("excluded", "member"))) == (
            False, ["word image not found in the image product"])
        with pytest.raises(CapExceeded, match="^verify, pullback walk: "):
            verify_certificate(parse_certificate(sizeless), cap=1)
        # text is not a certificate: the caller parses it first
        assert verify_certificate(sizeless) == (False, ["unknown certificate type str"])

    def test_honest_partial_certificate_verifies(self):
        # the construction states no sizes when the cap kept it from deciding
        cert = separators.product_separator(A, [[A.parse("xx")], [A.parse("yy")]],
                                            A.parse("xy"), cap=1)
        assert cert.status == "partial" and cert.image_sizes is None
        assert verify_certificate(cert, cap=1) == (
            True, ["partial certificate: exclusion claim not checked"])
        sized = dataclasses.replace(cert, image_sizes=(2, 2), product_size=4)
        assert verify_certificate(sized) == (
            True, ["partial certificate: exclusion claim not checked"])

    def test_three_factor_sizes_are_checked(self):
        # the same claim sequence as for one and two factors
        text = emit_certificate(separators.product_separator(
            A, [[A.parse("xx")], [A.parse("y")], [A.parse("x")]], A.parse("xy")))
        assert "status: excluded" in text and "image size 1: 4" in text
        text = text.replace("status: excluded", "status: partial")
        assert verify_certificate(parse_certificate(text)) == (
            True, ["partial certificate: exclusion claim not checked"])
        assert verify_certificate(parse_certificate(
            text.replace("image size 1: 4", "image size 1: 9992"))) == (
            False, ["stated image sizes (9992, 12, 8) != (4, 12, 8)"])


class TestRecords:
    def test_the_construction_returns_the_record_its_text_parses_to(self):
        x, y, xx, yy = (A.parse(t) for t in ("x", "y", "xx", "yy"))
        records = [
            separators.hall_separator(A, [A.parse("xyXY"), yy], A.parse("xyX")),
            separators.product_separator(A, [[A.parse("xyX"), yy]], A.parse("xx")),
            separators.product_separator(A, [[xx], [yy]], A.parse("xxyy")),
            separators.product_separator(A, [[xx], [y], [x]], A.parse("xy")),
            separators.product_separator(A, [[xx], [yy]], A.parse("xy"), cap=1),
            separators.product_separator(A, [[A.parse("X")], [A.parse("Yx")], [x]],
                                         A.parse("XY"), cap=20),
            separators.factorize(A, [[xx], [yy]], A.parse("xxyy")),
            separators.factorize(A, [[A.parse("xXxx")]], A.parse("xxxx")),
        ]
        assert [getattr(c, "status", None) for c in records] == [
            None, "excluded", "member", "excluded", "partial", "member", None, None]
        for cert in records:
            assert parse_certificate(emit_certificate(cert)) == cert, cert
        # the three-factor draw decides at cap 20 with images (8, 8, 8),
        # verifies, and agrees with the rational oracle
        three = records[5]
        assert three.image_sizes == (8, 8, 8) and three.product_size is None
        assert verify_certificate(three)[0]
        assert member_product([stallings_graph(A, g) for g in three.subgroups], three.word)
        partial = separators.product_separator(A, three.subgroups, three.word, cap=4)
        assert partial.status == "partial"
        assert parse_certificate(emit_certificate(partial)) == partial

    def test_a_record_whose_perms_are_not_permutations_is_not_written(self):
        cert = HallCertificate(A, ((1,),), (2,), 2, 0, ((0, 1), (1, 1)))
        with within(0.5), pytest.raises(ValueError, match=r"not a permutation of 0..1: \(1, 1\)"):
            emit_certificate(cert)


class TestIndependence:
    def test_verify_needs_no_construction_code(self, monkeypatch):
        # claims are re-checked without the separator machinery, and one-
        # and two-factor claims also without extension products
        certs = [
            emit_certificate(separators.product_separator(
                A, [[A.parse(g) for g in gens] for gens in subgroups], A.parse(w),
                cap=cap))
            for subgroups, w, cap in [([["xx"], ["yy"]], "xy", CAP),
                                      ([["xx"], ["yy"]], "xxyy", CAP),
                                      ([["xyX", "yy"]], "xx", CAP),
                                      ([["xyX", "yy"]], "xyyX", CAP),
                                      ([["xyxY"], ["yyx", "xY"]], "xyY", CAP),
                                      ([["xx"], ["y"], ["x"]], "xxyx", 300),
                                      ([["xx"], ["y"], ["x"]], "xy", 300),
                                      ([["xx"], ["y"], ["x"]], "xy", CAP)]]

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"verify called {name}")
            return call

        for name, value in vars(certificates).items():
            assert getattr(value, "__module__", None) != separators.__name__, name
        for name, fn in vars(separators).items():
            if inspect.isfunction(fn) and fn.__module__ == separators.__name__:
                monkeypatch.setattr(separators, name, forbidden(name))
        kinds = []
        with monkeypatch.context() as m:
            m.setattr(ExtensionLevel, "mult", forbidden("ExtensionLevel.mult"))
            for text in certs[:5]:
                cert = parse_certificate(text)
                assert verify_certificate(cert)[0]
                kinds.append((len(cert.subgroups), cert.status, cert.product_size))
        for text in certs[5:]:
            cert = parse_certificate(text)
            assert verify_certificate(cert)[0]
            kinds.append((len(cert.subgroups), cert.status, cert.product_size))
        assert kinds == [(2, "excluded", 4), (2, "member", 8), (1, "excluded", 2),
                         (1, "member", 2), (2, "excluded", 768), (3, "member", None),
                         (3, "excluded", None), (3, "excluded", 344)]

    def test_the_verifier_imports_nothing_from_the_construction(self):
        # the verifier's route is its own: no construction module is reached
        # in any form, `from . import separators` included
        imported = source_imports(certificates)
        assert ".errors" in imported  # the walk sees the relative imports
        reached = set(imported) | {f"{m}.{a}" for m, names in imported.items() for a in names}
        assert not {m for m in reached
                    if m.split(".")[-1] in ("separators", "covers", "rational")}
