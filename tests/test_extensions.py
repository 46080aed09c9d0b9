import functools
import itertools
import random

import pytest

from prodsep.covers import expand_to_cover, transition_group
from prodsep.errors import CapExceeded
from prodsep.extensions import (
    ExtensionLevel,
    iterated_extension,
    signed_traversals,
    traversal_element,
)
from prodsep.groups import XGroup, cayley_graph
from prodsep.stallings import stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import is_connected, is_covering

A = Alphabet("xy")
Ax = Alphabet("x")

KLEIN = XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)])
TRIVIAL_X = XGroup(Ax, [(0,)])
Z2 = XGroup(Ax, [(1, 0)])


def random_cover_group(rng, max_order=24):
    """Transition group of a random covering expansion, order bounded."""
    letters = A.letters()
    while True:
        gens = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 3))]
        h = stallings_graph(A, gens)
        group = transition_group(expand_to_cover(h.graph))
        try:
            if group.order(cap=max_order) <= max_order:
                return group
        except CapExceeded:
            continue


class TestBuildExtension:
    def test_trivial_group_one_letter_gives_z2(self):
        ext = ExtensionLevel(TRIVIAL_X, 2)
        g = ext.gen(1)
        assert g != ext.identity
        assert ext.mult(g, g) == ext.identity
        assert len(ext.elements()) == 2

    def test_generators_project_to_group_generators(self):
        ext = ExtensionLevel(KLEIN, 2)
        for l in A.letters():
            assert ext.gen(l)[1] == KLEIN.perm(l)

    def test_generator_squared_multiplication_law(self):
        ext = ExtensionLevel(KLEIN, 2)
        gx = ext.gen(1)
        sq = ext.mult(gx, gx)
        x = KLEIN.perm(1)
        assert sq == (tuple(sorted({(KLEIN.identity, 1): 1, (x, 1): 1}.items())),
                      KLEIN.mult(x, x))

    def test_generators_are_one_cayley_edge_below(self):
        # the convention written out, not read through step: x is the edge
        # (1, x) with coefficient 1 over x below, and x^-1 is its inverse
        rng = random.Random(137)
        for group in (KLEIN, random_cover_group(rng, max_order=12)):
            for primes in itertools.product((2, 3, 5), repeat=2):
                levels = iterated_extension(group, primes).levels
                for below, level in zip(levels, levels[1:]):
                    for x in A.positive_letters():
                        assert level.gen(x) == ((((below.identity, x), 1),), below.gen(x))
                        assert level.gen(-x) == level.inv(level.gen(x))

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ExtensionLevel(KLEIN, 4)
        with pytest.raises(ValueError):  # too large for a float square root
            ExtensionLevel(Z2, 10 ** 400)


class TestSignedTraversals:
    def test_single_generator(self):
        assert signed_traversals(KLEIN, A.parse("x")) == {(KLEIN.identity, 1): 1}

    def test_cancellation_gives_empty_map(self):
        assert signed_traversals(KLEIN, A.parse("xX")) == {}

    def test_x_squared_in_order_two(self):
        ext_walk = signed_traversals(Z2, Ax.parse("xx"))
        assert ext_walk == {(Z2.identity, 1): 1, (Z2.perm(1), 1): 1}

    def test_inverse_letter_decrements(self):
        walk = signed_traversals(KLEIN, A.parse("X"))
        assert walk == {(KLEIN.perm(-1), 1): -1}


class TestTraversalIdentity:
    def test_commutator_in_klein(self):
        ext = ExtensionLevel(KLEIN, 2)
        w = A.parse("xyXY")
        vec, g = ext.evaluate(w)
        assert g == KLEIN.identity  # the commutator survives only in the vector
        assert len(vec) == 4
        assert all(c == 1 for _, c in vec)
        assert (vec, g) == traversal_element(ext, w)

    def test_empty_and_cancelling_words(self):
        ext = ExtensionLevel(KLEIN, 2)
        assert ext.evaluate(()) == ext.identity
        assert ext.evaluate(A.parse("xX")) == ext.identity

    def test_identity_on_random_words_groups_and_primes(self):
        rng = random.Random(101)
        letters = A.letters()
        for _ in range(60):
            group = random_cover_group(rng)
            p = rng.choice([2, 3, 5])
            ext = ExtensionLevel(group, p)
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(31)))
            assert ext.evaluate(w) == traversal_element(ext, w)

    def test_evaluate_matches_the_group_law_at_levels_one_and_two(self):
        # evaluate and step (one generator edge, no general product) both
        # have the letter-by-letter product through mult as their reference,
        # on empty, inverse-letter and unreduced words, at every level; gen
        # is one step, pinned apart from step by the test above
        rng = random.Random(113)
        letters = A.letters()
        checked = set()
        for _ in range(30):
            group = random_cover_group(rng, max_order=12)
            primes = tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 2)))
            levels = iterated_extension(group, primes).levels
            words = [(), (-1,), (-2, -2), (1, -1, 2, 2, -2)]
            words += [tuple(rng.choice(letters) for _ in range(rng.randrange(25)))
                      for _ in range(8)]
            for w in words:
                product = functools.reduce(levels[-1].mult, map(levels[-1].gen, w),
                                           levels[-1].identity)
                assert levels[-1].evaluate(w) == product
            for m, level in enumerate(levels):
                for w in words[-3:]:
                    a = functools.reduce(level.mult, map(level.gen, w), level.identity)
                    for l in letters:
                        b = level.step(a, l)
                        assert b == level.mult(a, level.gen(l))
                        # the step back cancels the edge it added
                        assert level.step(b, -l) == level.mult(b, level.gen(-l)) == a
                checked.add((m, primes[m - 1] if m else None))
            # p crossings of each edge of an l-cycle below, coefficients
            # cancelling on the way, bring the top element back
            top, below = levels[-1], levels[-2]
            a = top.evaluate(words[-1])
            for l in letters:
                g, k = below.step(a[1], l), 1
                while g != a[1]:
                    g, k = below.step(g, l), k + 1
                b = a
                for _ in range(k * top.prime):
                    nxt = top.step(b, l)
                    assert nxt == top.mult(b, top.gen(l))
                    b = nxt
                assert b == a
        assert {m for m, _ in checked} == {0, 1, 2}
        assert {p for m, p in checked if m == 1} == {2, 3, 5}
        assert {p for m, p in checked if m == 2} == {2, 3, 5}

    def test_well_defined_under_free_reduction(self):
        rng = random.Random(103)
        ext = ExtensionLevel(KLEIN, 3)
        letters = A.letters()
        for _ in range(50):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(25)))
            assert ext.evaluate(w) == ext.evaluate(free_reduce(w))

    def test_kernel_is_abelian(self):
        # words trivial in G commute in the extension
        rng = random.Random(107)
        ext = ExtensionLevel(KLEIN, 2)
        trivial = [A.parse("xx"), A.parse("yy"), A.parse("xyXY"), A.parse("xyxY")]
        for u in trivial:
            assert KLEIN.evaluate(u) == KLEIN.identity
        for u in trivial:
            for v in trivial:
                assert ext.evaluate(u + v) == ext.evaluate(v + u)

    def test_projection_is_a_homomorphism_onto_g(self):
        rng = random.Random(109)
        ext = ExtensionLevel(KLEIN, 5)
        letters = A.letters()
        for _ in range(50):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(20)))
            assert ext.evaluate(w)[1] == KLEIN.evaluate(w)


class TestIteratedExtension:
    def test_empty_chain_is_the_group(self):
        chain = iterated_extension(KLEIN, [])
        assert chain.top is KLEIN
        assert chain.top.evaluate(A.parse("xy")) == KLEIN.evaluate(A.parse("xy"))

    def test_single_prime_matches_extension_level(self):
        chain = iterated_extension(KLEIN, [2])
        ext = ExtensionLevel(KLEIN, 2)
        for text in ["xyXY", "xxY", "yxyx"]:
            w = A.parse(text)
            assert chain.top.evaluate(w) == ext.evaluate(w)

    def test_two_level_projection(self):
        chain = iterated_extension(KLEIN, [2, 3])
        rng = random.Random(113)
        letters = A.letters()
        for _ in range(25):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(15)))
            assert chain.top.evaluate(w)[1][1] == KLEIN.evaluate(w)

    def test_traversal_identity_at_level_two(self):
        chain = iterated_extension(Z2, [2, 2])
        rng = random.Random(127)
        for _ in range(15):
            w = tuple(rng.choice((1, -1)) for _ in range(rng.randrange(12)))
            assert chain.top.evaluate(w) == traversal_element(chain.top, w)


class TestMaterialization:
    def test_order_formula_exact(self):
        for group, p in [(Z2, 2), (Z2, 3), (KLEIN, 2)]:
            ext = ExtensionLevel(group, p)
            expected = ext.order(cap=10 ** 7)
            assert len(ext.elements(cap=10 ** 7)) == expected

    def test_order_divides_bound(self):
        # |G^(p)| divides |G| * p^(|X| * |G|)
        ext = ExtensionLevel(KLEIN, 2)
        n = len(ext.elements(cap=10 ** 7))
        assert (KLEIN.order() * 2 ** (A.size * KLEIN.order())) % n == 0

    def test_cap_exceeded_mentions_computed_order(self):
        ext = ExtensionLevel(KLEIN, 2)
        with pytest.raises(CapExceeded) as info:
            ext.elements(cap=10)
        assert "128" in str(info.value) or "2^" in str(info.value)

    def test_cayley_graph_of_extension(self):
        ext = ExtensionLevel(Z2, 2)
        cg = cayley_graph(ext, cap=1000)
        assert is_covering(cg.graph)
        assert is_connected(cg.graph)
        assert cg.graph.num_vertices == ext.order(cap=1000)
        # tracing a word lands on its symbolic value
        w = Ax.parse("xxX")
        path = cg.graph.trace(cg.base, w)
        assert cg.elements[path.end] == ext.evaluate(w)


class TestInverses:
    def test_inverse_law(self):
        rng = random.Random(131)
        ext = ExtensionLevel(KLEIN, 3)
        letters = A.letters()
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(12)))
            e = ext.evaluate(w)
            assert ext.mult(e, ext.inv(e)) == ext.identity
            assert ext.inv(e) == ext.evaluate(invert(w))
