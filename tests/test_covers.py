import itertools
import math
import random
import time

import pytest

from prodsep.covers import (
    _cover_perms,
    _missing,
    enumerate_expansions,
    expand_to_cover,
    transition_group,
)
from prodsep.graphs import LabeledGraph
from prodsep.stallings import attach_word, stallings_graph
from prodsep.words import Alphabet
from tests.helpers import is_connected, is_covering

A = Alphabet("xy")
Ax = Alphabet("x")


class TestExpandToCover:
    def test_covering_is_unchanged(self):
        g = LabeledGraph(A, 1, [(0, 0, 1), (0, 0, 2)])
        cover = expand_to_cover(g)
        assert cover.graph.geometric_edges() == g.geometric_edges()

    def test_single_vertex_becomes_rose(self):
        g = LabeledGraph(A, 1, [])
        cover = expand_to_cover(g)
        assert sorted(cover.graph.geometric_edges()) == [(0, 0, 1), (0, 0, 2)]

    def test_adds_no_vertices_and_restricts_exactly(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        cover = expand_to_cover(h.graph)
        assert is_covering(cover.graph)
        assert cover.graph.num_vertices == h.graph.num_vertices
        original = cover.graph.geometric_edges()[:cover.original_count]
        assert original == h.graph.geometric_edges()

    def test_rejects_non_immersion(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        with pytest.raises(ValueError):
            expand_to_cover(g)


class TestEnumerateExpansions:
    def test_two_expansions_of_the_commutator_graph(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        enum = enumerate_expansions(h.graph)
        assert enum.complete
        assert len(enum.expansions) == 2
        assert all(is_covering(e.graph) for e in enum.expansions)

    def test_covering_has_exactly_one(self):
        g = LabeledGraph(A, 1, [(0, 0, 1), (0, 0, 2)])
        enum = enumerate_expansions(g)
        assert enum.complete and len(enum.expansions) == 1

    def test_two_isolated_vertices_one_letter(self):
        g = LabeledGraph(Ax, 2, [])
        enum = enumerate_expansions(g)
        assert enum.complete and len(enum.expansions) == 2

    def test_cap_reported_distinctly(self):
        g = LabeledGraph(Ax, 4, [])  # 4! = 24 completions
        enum = enumerate_expansions(g, cap=5)
        assert not enum.complete
        assert len(enum.expansions) == 5
        assert enumerate_expansions(g, cap=24).complete
        none = enumerate_expansions(g, cap=0)
        assert none.expansions == () and not none.complete

    def test_cap_stops_the_work(self):
        # 12! pairings of the missing x-edges; only the first five are made
        h = stallings_graph(A, [A.parse("y" * 12)])
        t0 = time.perf_counter()
        enum = enumerate_expansions(h.graph, cap=5)
        elapsed = time.perf_counter() - t0
        assert not enum.complete
        assert len(enum.expansions) == 5
        assert elapsed < 0.5, f"{elapsed:.3f} s"

    def test_matches_eager_enumeration(self):
        rng = random.Random(37)
        letters = A.letters()
        listed = capped = 0
        for _ in range(60):
            gens = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 2))]
            h = stallings_graph(A, gens)
            for cap in (1, 3, 24, 1000):
                enum = enumerate_expansions(h.graph, cap=cap)
                expected, complete = eager_expansions(h.graph, cap)
                assert enum.complete == complete
                assert [e.graph.geometric_edges() for e in enum.expansions] == expected
                assert all(e.original_count == h.graph.num_geometric_edges
                           for e in enum.expansions)
                listed += len(expected)
                capped += not complete
        assert listed > 300 and capped > 20


def star_missing(graph):
    """The reference for ``_missing``: one star probe per vertex and letter."""
    star = graph.star()
    n = graph.num_vertices
    return [(x, [v for v in range(n) if (v, x) not in star],
             [v for v in range(n) if (v, -x) not in star])
            for x in graph.alphabet.positive_letters()]


def eager_expansions(graph, cap):
    """Reference: every pairing built up front, duplicates skipped, then capped."""
    per_letter = star_missing(graph)
    total = math.prod(math.factorial(len(no_out)) for _, no_out, _ in per_letter)
    choices = [[list(zip(no_out, perm)) for perm in itertools.permutations(no_in)]
               for x, no_out, no_in in per_letter]
    out = []
    seen = set()
    for combo in itertools.product(*choices):
        edges = list(graph.geometric_edges())
        for (x, _, _), pairs in zip(per_letter, combo):
            edges.extend((s, d, x) for s, d in pairs)
        key = tuple(sorted(edges))
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(edges))
        if len(out) >= cap and total > cap:
            return out, False
    return out, True


def random_covering_edges(rng, alphabet, n):
    """The edges of a random covering on n vertices: one permutation per letter."""
    edges = []
    for x in alphabet.positive_letters():
        targets = list(range(n))
        rng.shuffle(targets)
        edges.extend((v, targets[v], x) for v in range(n))
    return edges


def mutated_graph(rng, alphabet, kind):
    """A random graph of the given kind, most of them near a covering."""
    n = rng.randint(2 if kind == "two in-edges" else 1, 6)
    edges = random_covering_edges(rng, alphabet, n)
    letters = alphabet.positive_letters()
    if kind == "missing out-edge":
        edges.pop(rng.randrange(len(edges)))
    elif kind == "two out-edges":
        s, _, x = rng.choice(edges)
        edges.append((s, rng.randrange(n), x))
    elif kind == "two in-edges":
        i = rng.randrange(len(edges))
        s, d, x = edges[i]
        edges[i] = (s, rng.choice([v for v in range(n) if v != d]), x)
    elif kind == "disconnected":
        m = rng.randint(1, 4)
        edges += [(s + n, d + n, x) for s, d, x in random_covering_edges(rng, alphabet, m)]
        n += m
    elif kind == "random":
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice(letters))
                 for _ in range(rng.randint(0, 2 * n * len(letters)))]
    rng.shuffle(edges)
    return LabeledGraph(alphabet, n, edges)


class TestTransitionGroupAgainstGraphChecks:
    """One pass over the darts decides exactly what is_covering and
    is_connected decide, with the same messages, and reads the same maps."""

    def test_random_graphs(self):
        rng = random.Random(41)
        kinds = ["covering", "missing out-edge", "two out-edges", "two in-edges",
                 "disconnected", "random"]
        seen = {}
        for alphabet in (A, Alphabet("xyz")):
            for i in range(600):
                kind = kinds[i % len(kinds)]
                g = mutated_graph(rng, alphabet, kind)
                if not is_covering(g):
                    expected = "transition_group requires a covering"
                elif not is_connected(g):
                    expected = "transition_group requires a connected covering"
                else:
                    expected = None
                seen[kind, expected] = seen.get((kind, expected), 0) + 1
                if expected is not None:
                    with pytest.raises(ValueError) as exc:
                        transition_group(g)
                    assert str(exc.value) == expected
                    continue
                group = transition_group(g)
                for x in alphabet.positive_letters():
                    assert group.perm(x) == tuple(g.dst(g.out_dart(v, x))
                                                  for v in range(g.num_vertices))
        covering = "transition_group requires a covering"
        for kind in ["missing out-edge", "two out-edges", "two in-edges"]:
            assert seen[kind, covering] == 200
        assert ("covering", covering) not in seen
        assert seen["covering", None] >= 100
        assert seen["disconnected", "transition_group requires a connected covering"] == 200


class TestCoverArraysAgainstStar:
    """The one-pass missing ends are the star probes', and the expansion
    pairs them positionally after the immersion's own edges."""

    def test_random_immersions(self):
        rng = random.Random(43)
        for alphabet in (A, Alphabet("xyz")):
            letters = alphabet.letters()
            for _ in range(300):
                gens = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
                        for _ in range(rng.randint(1, 3))]
                h = stallings_graph(alphabet, gens)
                word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
                for g in (h.graph, attach_word(h, word).graph):
                    missing = _missing(g)
                    assert missing == star_missing(g)
                    cover = expand_to_cover(g)
                    assert is_covering(cover.graph)
                    assert cover.original_count == g.num_geometric_edges
                    edges = cover.graph.geometric_edges()
                    assert edges[:cover.original_count] == g.geometric_edges()
                    assert edges[cover.original_count:] == tuple(
                        (s, d, x) for x, no_out, no_in in missing
                        for s, d in zip(no_out, no_in))
                    first = enumerate_expansions(g, cap=1).expansions[0]
                    assert first.graph.geometric_edges() == edges
                    assert first.original_count == cover.original_count
                    group = transition_group(cover)
                    c = cover.graph
                    for x in alphabet.positive_letters():
                        assert group.perm(x) == tuple(c.dst(c.out_dart(v, x))
                                                      for v in range(c.num_vertices))
                    assert tuple(map(tuple, _cover_perms(g))) == group._perms

    def test_random_graphs(self):
        rng = random.Random(47)
        immersions = 0
        for alphabet in (A, Alphabet("xyz")):
            for i in range(400):
                g = mutated_graph(rng, alphabet, ("random", "missing out-edge")[i % 2])
                missing = _missing(g)
                assert (missing is not None) == g.is_immersion()
                if missing is not None:
                    assert missing == star_missing(g)
                    immersions += 1
                else:
                    with pytest.raises(ValueError, match="requires an immersion"):
                        expand_to_cover(g)
                    with pytest.raises(ValueError, match="requires an immersion"):
                        _cover_perms(g)
        assert immersions >= 100 and 800 - immersions >= 100


class TestTransitionGroup:
    def test_rose_gives_trivial_group(self):
        g = LabeledGraph(A, 1, [(0, 0, 1), (0, 0, 2)])
        assert transition_group(expand_to_cover(g)).order() == 1

    def test_index_two_subgroup_gives_order_two(self):
        h = stallings_graph(A, [A.parse("xx"), A.parse("y"), A.parse("xyX")])
        cover = expand_to_cover(h.graph)
        group = transition_group(cover)
        assert group.order() == 2

    def test_attached_cover_action(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        att = attach_word(h, A.parse("xyX"))
        group = transition_group(expand_to_cover(att.graph))
        assert group.is_transitive()
        assert group.order() % group.carrier == 0  # orbit-stabilizer

    def test_transitive_and_order_divisible_randomized(self):
        rng = random.Random(31)
        letters = A.letters()
        for _ in range(25):
            gens = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                    for _ in range(rng.randint(1, 3))]
            h = stallings_graph(A, gens)
            group = transition_group(expand_to_cover(h.graph))
            assert group.is_transitive()
            assert group.order(cap=10 ** 6) % group.carrier == 0

    def test_hall_separation_at_permutation_level(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        w = A.parse("xyX")
        att = attach_word(h, w)
        group = transition_group(expand_to_cover(att.graph))
        assert group.evaluate(w)[att.omega] != att.omega
        for g in [A.parse("xyXY"), A.parse("yy")]:
            assert group.evaluate(g)[att.omega] == att.omega

    def test_rejects_non_covering(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        with pytest.raises(ValueError):
            transition_group(h.graph)

    def test_rejects_disconnected_covering(self):
        g = LabeledGraph(A, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 2)])
        assert is_covering(g)
        with pytest.raises(ValueError, match="connected"):
            transition_group(g)
