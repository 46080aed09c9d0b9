"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
All checks are exact (discrete equalities); the stated runtime budgets are
asserted alongside.
"""

import pathlib
import random
import time

from prodsep.covers import enumerate_expansions, expand_to_cover, transition_group
from prodsep.errors import CapExceeded
from prodsep.extensions import ExtensionLevel, traversal_element
from prodsep.rational import member_product
from prodsep.separators import (
    FactorizeStats,
    _build_context,
    factorize,
    hall_separator,
)
from prodsep.stallings import contains, stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import (
    canonical_key,
    is_covering,
    kernel_loop_word,
    loop_words_up_to,
    step_fold_all_tracked,
)

A = Alphabet("xy")
DATA = pathlib.Path(__file__).parent / "data"


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def best_of(n, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def random_reduced(rng, lo, hi):
    letters = A.letters()
    return free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


def random_gens(rng, max_gens, max_len):
    gens = [random_reduced(rng, 1, max_len) for _ in range(rng.randint(1, max_gens))]
    return [g for g in gens if g] or [(1,)]


def subgroup_word(rng, gens, max_factors):
    w = ()
    for _ in range(rng.randint(1, max_factors)):
        g = rng.choice(gens)
        w += g if rng.random() < 0.5 else invert(g)
    return free_reduce(w)


def test_criterion_1_subgroup_graph_golden():
    gens = [A.parse("xyXY"), A.parse("yxY")]
    elapsed, h = best_of(5, lambda: stallings_graph(A, gens))
    ok = (h.graph.num_vertices == 2 and h.graph.num_geometric_edges == 3)
    golden = (DATA / "commutator_pair.dot").read_text()
    ok = ok and h.graph.to_dot(base=h.base) == golden
    ok = ok and elapsed < 0.001
    report(1, ok, f"2 vertices, 3 edges, DOT golden match, {elapsed * 1000:.3f} ms < 1 ms")


def test_criterion_2_expansion_count():
    h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
    elapsed, enum = best_of(3, lambda: enumerate_expansions(h.graph))
    ok = enum.complete and len(enum.expansions) == 2
    ok = ok and all(is_covering(e.graph) for e in enum.expansions)
    ok = ok and elapsed < 0.010
    report(2, ok, f"exactly 2 coverings, {elapsed * 1000:.2f} ms < 10 ms")


def test_criterion_3_hall_suite():
    t0 = time.perf_counter()
    instances = [([A.parse("xyXY"), A.parse("yy")], A.parse("xyX"))]
    rng = random.Random(1003)
    while len(instances) < 201:
        gens = random_gens(rng, max_gens=3, max_len=6)
        h = stallings_graph(A, gens)
        w = random_reduced(rng, 1, 8)
        if not w or contains(h, w):
            continue
        instances.append((gens, w))
    checked = 0
    for gens, w in instances:
        witness = hall_separator(A, gens, w)
        base = witness.base
        assert witness.group.evaluate(witness.word)[base] != base
        for g in witness.generators:
            assert witness.group.evaluate(g)[base] == base
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 201 and elapsed < 30
    report(3, ok, f"known instance + 200 random separated, {elapsed:.2f} s < 30 s")


def test_criterion_4_traversal_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    letters = A.letters()
    checked = 0
    while checked < 500:
        gens = random_gens(rng, max_gens=3, max_len=5)
        h = stallings_graph(A, gens)
        group = transition_group(expand_to_cover(h.graph))
        try:
            if group.order(cap=24) > 24:
                continue
        except CapExceeded:
            continue
        p = rng.choice([2, 3, 5])
        ext = ExtensionLevel(group, p)
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(31)))
        assert ext.evaluate(w) == traversal_element(ext, w)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 500 and elapsed < 30
    report(4, ok, f"500 exact identities, {elapsed:.2f} s < 30 s")


def test_criterion_5_two_factor_theorem_suite():
    t0 = time.perf_counter()
    rng = random.Random(1005)
    scrambled = 0
    done = 0
    while done < 100:
        g1 = random_gens(rng, max_gens=2, max_len=5)
        g2 = random_gens(rng, max_gens=2, max_len=5)
        h1 = subgroup_word(rng, g1, 3)
        h2 = subgroup_word(rng, g2, 3)
        w = free_reduce(h1 + h2)
        ctx = _build_context(A, [g1, g2], w, None)
        seeds = [h1, h2]
        u = kernel_loop_word(ctx.pointed[0], ctx.chain.top, cap=4000)
        if u is not None:
            seeds = [free_reduce(h1 + u), h2]
            scrambled += 1
        stats = FactorizeStats()
        result = factorize(A, [g1, g2], w, seeds=seeds, stats=stats)
        assert result is not None
        assert stats.spines >= 1  # the spine step never failed
        product = ()
        for f in result.factors:
            product += f
        assert free_reduce(product) == w
        for pointed, factor in zip(ctx.pointed, result.factors):
            assert contains(pointed, factor)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = done == 100 and elapsed < 300
    report(5, ok, f"100 factorizations ({scrambled} scrambled), {elapsed:.2f} s < 300 s")


def test_criterion_6_separator_soundness():
    t0 = time.perf_counter()
    rng = random.Random(1006)
    from prodsep.separators import product_separator
    cap = 10 ** 6
    done = 0
    skipped = 0
    while done + skipped < 50:
        g1 = random_gens(rng, max_gens=2, max_len=4)
        g2 = random_gens(rng, max_gens=2, max_len=4)
        hs = [stallings_graph(A, g1), stallings_graph(A, g2)]
        w = random_reduced(rng, 1, 6)
        if not w or member_product(hs, w):
            continue
        witness = product_separator(A, [g1, g2], w, cap=cap)
        if witness.excluded is None:
            skipped += 1
            continue
        assert witness.excluded is True
        done += 1
    elapsed = time.perf_counter() - t0
    rate = skipped / (done + skipped)
    ok = done + skipped == 50 and rate < 0.5 and elapsed < 600
    report(6, ok, f"{done} excluded, {skipped} skipped (rate {rate:.0%} < 50%), "
                  f"{elapsed:.2f} s < 600 s")


N3_POOL = [
    ["x", "y"],                 # the whole group; trivial transition group
    ["xx", "y", "xyX"],         # index 2, x swaps
    ["yy", "x", "yxY"],         # index 2, y swaps
    ["xx", "yy", "xy"],         # index 2, both letters swap
    ["xx", "yy", "xY"],
]


def test_criterion_7_three_factor_smoke():
    t0 = time.perf_counter()
    rng = random.Random(1007)
    done = 0
    while done < 10:
        subgroups = [[A.parse(t) for t in rng.choice(N3_POOL)] for _ in range(3)]
        parts = [subgroup_word(rng, gens, 3) for gens in subgroups]
        w = free_reduce(parts[0] + parts[1] + parts[2])
        ctx = _build_context(A, subgroups, w, None)
        assert ctx.chain.levels[1].order(cap=10 ** 6) <= 10 ** 6
        stats = FactorizeStats()
        result = factorize(A, subgroups, w, seeds=parts, stats=stats)
        assert result is not None
        assert stats.cuts >= 1  # the recursion really cut and recombined
        product = ()
        for f in result.factors:
            product += f
        assert free_reduce(product) == w
        for pointed, factor in zip(ctx.pointed, result.factors):
            assert contains(pointed, factor)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = done == 10 and elapsed < 600
    report(7, ok, f"10 three-factor recursions verified, {elapsed:.2f} s < 600 s")


def test_criterion_8_oracle_cross_validation():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    # n = 1: agreement with the subgroup graph on 500 random cases
    for _ in range(500):
        gens = random_gens(rng, max_gens=3, max_len=6)
        h = stallings_graph(A, gens)
        w = random_reduced(rng, 0, 8)
        assert member_product([h], w) == contains(h, w)
    # n = 2: agreement with exhaustive bounded factorization on tiny cases
    built = 0
    refuted = 0
    while built < 50 or refuted < 50:
        g1 = [random_reduced(rng, 1, 3) or (1,)]
        g2 = [random_reduced(rng, 1, 3) or (2,)]
        h1, h2 = stallings_graph(A, g1), stallings_graph(A, g2)
        if built < 50:
            u1 = rng.choice(loop_words_up_to(h1, 4) or [()])
            u2 = rng.choice(loop_words_up_to(h2, 4) or [()])
            w = free_reduce(u1 + u2)
            assert member_product([h1, h2], w)
            candidates = [()] + loop_words_up_to(h1, max(4, len(w) + 4))
            assert any(contains(h2, free_reduce(invert(u) + w)) for u in candidates)
            built += 1
        else:
            w = random_reduced(rng, 1, 5)
            if not w or member_product([h1, h2], w):
                continue
            candidates = [()] + loop_words_up_to(h1, len(w) + 6)
            assert not any(contains(h2, free_reduce(invert(u) + w)) for u in candidates)
            refuted += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report(8, ok, f"500 single-factor + 100 two-factor agreements, {elapsed:.2f} s < 60 s")


def test_criterion_9_fold_confluence():
    from tests.test_graphs import random_graph

    t0 = time.perf_counter()
    rng = random.Random(1009)
    for _ in range(200):
        g = random_graph(rng, A, max_words=3, max_len=7, extra_edges=3)
        key = canonical_key(g.fold_all_tracked()[0])
        for policy in ("least", "greatest"):
            assert canonical_key(step_fold_all_tracked(g, policy)[0]) == key
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10
    report(9, ok, f"200 graphs confluent under both policies, {elapsed:.2f} s < 10 s")
