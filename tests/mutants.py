"""Kept mutants: small faults in src/prodsep that named tests must catch.

Each mutant replaces one exact text of one module with another, and lists
the tests that must then fail.  The runner copies the repository to a
temporary directory once, applies one mutant at a time to the copy, and
runs that mutant's tests there in a pytest subprocess.  A mutant survives
when one of its tests still passes; the runner names every survivor and
exits 1, and exits 0 when every mutant is killed.

    python -m tests.mutants              # every mutant
    python -m tests.mutants fold pinch   # those whose name contains a word

Each mutant costs a test run, so the runner is not part of the suite;
``tests/test_mutants.py`` only checks that every old text occurs exactly
once, so that a change which moves the code has to update this list.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "prodsep"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/prodsep
    old: str
    new: str
    tests: tuple  # pytest node ids, each of which must fail


G = "tests/test_graphs.py::TestFoldAgainstStepLoop::"
SEP = "tests/test_separators.py::"
ENUM = SEP + "TestProductAgainstEnumeration::"
BITS = SEP + "TestBitStructuresAgainstDicts::"
SEEDS = SEP + "TestSeedsFromTheProductAutomaton::"
PINCH = SEP + "TestPinchErrors::"
CERT = "tests/test_certificates.py::"
VBITS = CERT + "TestBitFormAgainstDicts::"
CYCLES = "tests/test_groups.py::TestCycleNotation::"
EXT = "tests/test_extensions.py::"
CLI = "tests/test_cli.py::"
# the byte-identity gate, one set of fixed draws per id
GATE = "tests/test_sweeps.py::test_decided_draws_keep_their_certificates["
# a disconnected covering must not pass as a transition group
CONNECTED = ("tests/test_covers.py::TestTransitionGroup::test_rejects_disconnected_covering",
             "tests/test_covers.py::TestTransitionGroupAgainstGraphChecks::test_random_graphs",
             SEP + "TestContextAgainstPublicPath::"
             "test_public_transition_group_still_checks_connectedness")

MUTANTS = (
    # the one-pass fold against the step loop
    Mutant("fold-edge-root-largest", "graphs.py",
           "eparent[max(a, b)] = min(a, b)", "eparent[min(a, b)] = max(a, b)",
           (G + "test_random_graphs",
            G + "test_shared_prefix_wedges")),
    Mutant("fold-vertex-root-largest", "graphs.py",
           "lo, hi = min(a, b), max(a, b)", "hi, lo = min(a, b), max(a, b)",
           (G + "test_random_graphs",
            G + "test_shared_prefix_wedges")),
    # the fibre search: each names tests at odd primes, where the
    # dict vectors keep the signs that cancel at p = 2
    Mutant("fibre-prefix-lift-sign", "separators.py",
           "u = vectors.sub(u, vectors.translate(st.lifts[al], h))",
           "u = vectors.sub(vectors.translate(st.lifts[al], h), u)",
           (ENUM + "test_prefix_search_against_enumeration[n3p3]",
            ENUM + "test_prefix_search_against_enumeration[n3p5]",
            ENUM + "test_prefix_search_finds_every_member[3-3-30-400]")),
    Mutant("fibre-search-untranslated-last-kernel", "separators.py",
           "vectors.translate(row, gh) for row in two.basis.values()",
           "row for row in two.basis.values()",
           (ENUM + "test_two_factor_exclusion_and_size[3]",
            ENUM + "test_two_factor_exclusion_and_size[5]",
            ENUM + "test_four_factor_search_one_level_up_at_p3",
            GATE + "separate-1]",
            GATE + "n2-p3-Random(13)-cap-16384]")),
    Mutant("fibre-prefix-kernel-by-first-lift", "separators.py",
           "vectors.translate(row, below.mult(hinv, hs[i]))",
           "vectors.translate(row, hs[i])",
           (ENUM + "test_four_factor_search_one_level_up",
            ENUM + "test_four_factor_search_one_level_up_at_p3")),
    # the verifier's pullback walks; the prefix sign shows at odd primes only
    Mutant("pullback-prefix-tree-sign", "certificates.py",
           "u = form.sub(u, form.translate(walk.fibre[a], h))",
           "u = form.add(u, form.translate(walk.fibre[a], h))",
           (CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p3]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p5]")),
    Mutant("pullback-prefix-kernel-by-h", "certificates.py",
           "shift = group.mult(hinv, hi)", "shift = h",
           (CERT + "TestAgainstEnumeration::test_three_and_four_factors[n4p2]",)),
    # a cycle vector in either form, against enumeration and the gate
    Mutant("pullback-cycle-drops-far-end", "certificates.py",
           "form.sub(form.step(tu, g, l, hg), vectors[w])", "form.step(tu, g, l, hg)",
           (CERT + "TestAgainstEnumeration::test_random_instances[2]",
            CERT + "TestAgainstEnumeration::test_random_instances[3]",
            CERT + "TestAgainstEnumeration::test_random_instances[5]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p2]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p3]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p5]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n4p2]",
            GATE + "separate-1]",
            GATE + "n3-Random(22)-cap-300]",
            GATE + "n2-p3-Random(13)-cap-16384]",
            GATE + "n3-p3-Random(23)-cap-4096]")),
    # the word's image, stepped one level down, against the traversal identity
    Mutant("word-image-steps-from-far-end", "certificates.py",
           "vec, g = form.step(vec, g, l, hg), hg", "vec, g = form.step(vec, hg, l, hg), hg",
           tuple(CERT + f"TestWordImage::test_matches_the_traversal_identity[{g}-{p}]"
                 for g in ("klein", "s3") for p in (2, 3, 5))
           + tuple(CERT + f"TestAgainstEnumeration::test_random_instances[{p}]"
                   for p in (2, 3, 5))
           + (GATE + "separate-1]",)),
    # the verifier's GF(2) bitmask form, against the dict form and the gate
    Mutant("pullback-gf2-columns-per-walk", "certificates.py",
           "walks.append(_walk(group, stallings_graph(cert.alphabet, gens), form,",
           "walks.append(_walk(group, stallings_graph(cert.alphabet, gens),\n"
           "                                   form and _form(group, form.prime),",
           (VBITS + "test_same_verdicts_messages_and_walks[n2]",
            VBITS + "test_same_verdicts_messages_and_walks[n3]",
            VBITS + "test_same_verdicts_messages_and_walks[n4]",
            CERT + "TestAgainstEnumeration::test_random_instances[2]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p2]",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n4p2]",
            GATE + "separate-1]",
            GATE + "n3-Random(22)-cap-300]")),
    # one Cayley edge per letter
    Mutant("step-keeps-zero-coefficient", "extensions.py",
           "        if n:\n            return (vec[:i] + ((key, n),) + tail, g)",
           "        if True:\n            return (vec[:i] + ((key, n),) + tail, g)",
           (EXT + "TestTraversalIdentity::"
            "test_evaluate_matches_the_group_law_at_levels_one_and_two",
            EXT + "TestIteratedExtension::test_traversal_identity_at_level_two")),
    Mutant("gen-negative-letter-steps-forward", "extensions.py",
           "self.step(self.identity, letter)", "self.step(self.identity, abs(letter))",
           (EXT + "TestBuildExtension::test_generators_are_one_cayley_edge_below",
            EXT + "TestTraversalIdentity::"
            "test_evaluate_matches_the_group_law_at_levels_one_and_two")),
    # cycle notation
    Mutant("parse-perm-no-rotation", "groups.py",
           "            rotated += cycle[1:]\n            rotated += cycle[:1]\n",
           "            rotated += cycle\n",
           (CYCLES + "test_round_trip",
            CYCLES + "test_round_trip_random",
            CYCLES + "test_overlapping_cycles_compose_left_to_right")),
    Mutant("parse-perm-no-repeat-check", "groups.py",
           "max(points) >= n or len(set(points)) != len(points)", "max(points) >= n",
           (CYCLES + "test_overlapping_cycles_compose_left_to_right",
            CYCLES + "test_other_texts_read_as_the_composing_reader_reads_them")),
    Mutant("parse-perm-no-range-check", "groups.py",
           "max(points) >= n or len(set(points)) != len(points)",
           "len(set(points)) != len(points)",
           (CYCLES + "test_malformed",
            CYCLES + "test_other_texts_read_as_the_composing_reader_reads_them")),
    Mutant("parse-perm-no-int-limit-fallback", "groups.py",
           "fail where composing fails\n        return _compose_cycles(text, n)",
           "fail where composing fails\n        raise",
           (CYCLES + "test_other_texts_read_as_the_composing_reader_reads_them",)),
    Mutant("fmt-perm-no-permutation-check", "groups.py",
           "if n and (min(p) < 0 or max(p) >= n or len(set(p)) != n):",
           "if False:",
           ("tests/test_groups.py::TestFmtPermRejects::test_a_non_permutation_names_the_tuple[p0]",
            CERT + "TestRecords::test_a_record_whose_perms_are_not_permutations_is_not_written")),
    # one running order check refuses an image
    Mutant("image-order-ignores-rank", "separators.py",
           "scale *= prime", "scale *= 1",
           (SEP + "TestImageStructure::test_cap",
            SEP + "TestProductSeparator::test_partial_when_capped",
            SEP + "TestOneEndedWalk::test_same_cap_message_as_the_two_ended_walk",
            CERT + "TestPartialCertificates::test_stated_sizes_are_checked",
            CERT + "TestAgainstEnumeration::test_three_and_four_factors[n3p2]",
            ENUM + "test_two_factor_exclusion_and_size[3]",
            GATE + "n3-Random(22)-cap-300]",
            GATE + "n2-p3-Random(13)-cap-16384]",
            GATE + "n3-p3-Random(23)-cap-4096]")),
    # GF(2) bitmask vectors (_BitVectors), against the dict oracle
    Mutant("gf2-order-ignores-rank", "separators.py",
           "    prime = 2\n", "    prime = 1\n",
           (SEP + "TestImageStructure::test_cap",
            BITS + "test_same_order_lifts_span_and_refusal",
            GATE + "n3-Random(22)-cap-300]")),
    Mutant("gf2-reduce-skips-a-row", "separators.py",
           "row = basis.get(vec & -vec)", "row = basis.get(vec & -vec & ~1)",
           (BITS + "test_same_order_lifts_span_and_refusal",
            BITS + "test_membership_agrees")),
    # unseeded seeds from the saturated product automaton
    Mutant("unfold-drops-inverse-letter", "separators.py",
           "memo.get(edge[1:], ((),)), ((-edge[0],),))",
           "memo.get(edge[1:], ((),)))",
           (SEEDS + "test_seeds_exactly_when_accepted",
            SEEDS + "test_deep_cancellation_unfolds_without_recursion",
            SEP + "TestFactorize::test_oracle_agreement_randomized",
            GATE + "factorize-1]")),
    Mutant("saturate-matches-same-letter", "rational.py",
           "                if l2 == -l:\n                    insert(q, q3, (l, q1, q2))",
           "                if l2 == l:\n                    insert(q, q3, (l, q1, q2))",
           ("tests/test_rational.py::TestMemberProduct::"
            "test_agrees_with_exact_enumeration_without_base_loops",
            SEEDS + "test_seeds_exactly_when_accepted")),
    Mutant("unfold-no-split-at-chain-edge", "separators.py",
           "mid = ((), ()) if edge is None else", "mid = ((),) if edge is None else",
           (SEEDS + "test_seeds_exactly_when_accepted",
            SEP + "TestFactorize::test_search_finds_seeds",
            "tests/test_api.py::test_readme_tour_runs")),
    Mutant("seeds-skip-initial-unfold", "separators.py",
           "for j in reversed(range(len(layers))):", "for j in reversed(range(1, len(layers))):",
           (SEEDS + "test_seeds_exactly_when_accepted",
            SEP + "TestFactorize::test_oracle_agreement_randomized")),
    # the pinch premise read off the walk
    Mutant("premise-only-closes", "separators.py",
           "if any(c % prime for c in counts.values()):", "if False:",
           (SEP + "TestFactorize::test_three_seeds_checked_at_the_top_level",
            PINCH + "test_seeds_agreeing_one_level_down_are_bad_input[2-primes0]",
            PINCH + "test_walk_premise_matches_evaluate")),
    Mutant("premise-counts-mod-2", "separators.py",
           "if any(c % prime for c in counts.values()):",
           "if any(c % 2 for c in counts.values()):",
           (PINCH + "test_walk_premise_matches_evaluate",
            ENUM + "test_prefix_search_against_enumeration[n3p3]")),
    # the crossing rule (_crossing) that the walk's counts and each path's edges read
    Mutant("span-inverse-letter-counts-plus-one", "separators.py",
           "((v, -l), (v, u), -1)", "((v, -l), (v, u), 1)",
           (PINCH + "test_seeds_agreeing_one_level_down_are_bad_input[2-primes0]",
            PINCH + "test_seeds_agreeing_one_level_down_are_bad_input[3-primes2]",
            PINCH + "test_walk_premise_matches_evaluate")),
    # the component of the edges two paths share, searched by closure
    Mutant("component-drops-reverse-edges", "separators.py",
           "            adj[v, -x] = u\n", "",
           (SEP + "TestComponentAgainstSortedSearch::test_same_order_and_back_pointers",
            SEP + "TestFactorize::test_oracle_agreement_randomized",
            SEEDS + "test_seeds_exactly_when_accepted",
            SEP + "test_three_factor_scramble_stress_cuts_and_verifies")),
    Mutant("seed-mismatch-is-internal", "separators.py",
           'raise ValueError("seed product does not match the word in the quotient")',
           'raise InternalInvariantError("seed product does not match the word in the quotient")',
           ("tests/test_cli.py::TestFactorizeSeeds::"
            "test_cli_seed_product_mismatch_is_an_input_error",
            SEP + "TestFactorize::test_invalid_seeds_rejected",
            SEP + "TestFactorize::test_three_seeds_checked_at_the_top_level")),
    # checks on input and on the group, carried over from earlier changes
    Mutant("transitive-always", "groups.py",
           "return len(orbit) == self.carrier", "return True",
           ("tests/test_groups.py::TestTransitive::test_two_orbits",) + CONNECTED),
    Mutant("cover-skips-transitivity-check", "covers.py",
           "if not group.is_transitive():", "if False:",
           CONNECTED),
    Mutant("hall-skips-membership-check", "separators.py",
           "if ctx.attached.alpha == base:", "if False:",
           (SEP + "TestHallSeparator::test_rejects_member_word",
            CLI + "TestCliCommands::test_separate_hall_builds_the_subgroup_once",
            CLI + "TestInputFuzz::test_commands_exit_cleanly")),
    Mutant("hall-verify-skips-base-range", "certificates.py",
           "if not 0 <= cert.base < group.carrier:", "if False:",
           (CLI + "TestCertificates::test_hall_base_out_of_range_rejected[-1]",
            CLI + "TestCertificates::test_hall_base_out_of_range_rejected[3]")),
    Mutant("spec-allows-repeated-keys", "problems.py",
           "if unique and key in seen:", "if False:",
           (CLI + "TestGroupSpec::test_repeated_key_names_its_line",
            CLI + "TestCliCommands::test_verify_repeated_key_is_input_error")),
    Mutant("component-follows-first-dart-only", "graphs.py",
           "for d in star.get((v, l), ()):", "for d in star.get((v, l), ())[:1]:",
           ("tests/test_graphs.py::TestComponents::test_component_follows_every_dart_of_a_bucket",)),
)


def apply(mutant, root):
    """Write the mutated module under root; return the original text."""
    path = root / PACKAGE / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text must occur once in {mutant.module}")
    path.write_text(text.replace(mutant.old, mutant.new))
    return text


def survivors(mutant, root):
    """The mutant's tests that pass on the mutated copy at root."""
    original = apply(mutant, root)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=root, capture_output=True, text=True)
    finally:
        (root / PACKAGE / mutant.module).write_text(original)
    if run.returncode not in (0, 1):  # no test ran: a usage or collection error
        raise RuntimeError(f"{mutant.name}: pytest exited {run.returncode}\n{run.stdout}")
    passed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("PASSED ")}
    return [t for t in mutant.tests if t in passed]


def main(argv=None):
    words = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not words or any(w in m.name for w in words)]
    failed = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for m in chosen:
            t0 = time.perf_counter()
            alive = survivors(m, root)
            verdict = "SURVIVED " + ", ".join(alive) if alive else "killed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
            if alive:
                failed.append(m.name)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    if failed:
        print("surviving: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
