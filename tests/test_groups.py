import random

import hypothesis
import hypothesis.strategies as st
import pytest

from prodsep import groups
from prodsep.covers import transition_group
from prodsep.errors import CapExceeded
from prodsep.groups import (
    XGroup,
    _compose_cycles,
    cayley_graph,
    diagonal_subgroup,
    fmt_perm,
    parse_perm,
)
from prodsep.words import Alphabet
from tests.helpers import is_connected, is_covering, within

A = Alphabet("xy")

KLEIN = XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)])  # x, y independent swaps
Z2X = XGroup(A, [(1, 0), (0, 1)])  # x swaps, y trivial
Z2Y = XGroup(A, [(0, 1), (1, 0)])  # y swaps, x trivial

words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20).map(tuple)


class TestEvaluate:
    def test_identity_word(self):
        assert KLEIN.evaluate(()) == KLEIN.identity

    def test_swap_generator(self):
        assert Z2X.evaluate(A.parse("x")) != Z2X.identity
        assert Z2X.evaluate(A.parse("xx")) == Z2X.identity

    @hypothesis.given(words, words)
    def test_homomorphism(self, u, v):
        assert KLEIN.evaluate(u + v) == KLEIN.mult(KLEIN.evaluate(u), KLEIN.evaluate(v))

    @hypothesis.given(words)
    def test_factors_through_reduction(self, w):
        from prodsep.words import free_reduce
        assert KLEIN.evaluate(free_reduce(w)) == KLEIN.evaluate(w)


class TestMult:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 12])
    def test_matches_the_pointwise_product_on_every_carrier(self, n):
        # carriers 0 and 1 take the generator branch (itemgetter() raises,
        # itemgetter(i) returns a scalar), the rest the itemgetter gather
        rng = random.Random(n)
        alphabet = Alphabet("x")
        group = XGroup(alphabet, [tuple(rng.sample(range(n), n))])
        for _ in range(20):
            a = tuple(rng.sample(range(n), n))
            b = tuple(rng.sample(range(n), n))
            out = group.mult(a, b)
            assert type(out) is tuple
            assert out == tuple(b[x] for x in a)
        w = (1, 1, -1, 1)
        assert group.evaluate(w) == group.mult(group.perm(1), group.perm(1))


class TestTrusted:
    def test_the_unchecked_group_is_the_checked_one(self):
        rng = random.Random(11)
        for n in (0, 1, 2, 7):
            perms = [rng.sample(range(n), n) for _ in range(2)]  # lists, as covers pass them
            checked, trusted = XGroup(A, perms), XGroup._trusted(A, perms)
            assert (trusted.carrier, trusted._perms, trusted._inv, trusted._by_letter) == (
                checked.carrier, checked._perms, checked._inv, checked._by_letter)
            assert trusted.elements() == checked.elements()

    def test_the_constructor_still_checks(self):
        with pytest.raises(ValueError, match="not a permutation of 0..1"):
            XGroup(A, [(1, 1), (0, 1)])


class TestElements:
    def test_klein_order(self):
        assert KLEIN.order() == 4

    def test_cap_is_loud(self):
        with pytest.raises(CapExceeded):
            KLEIN.elements(cap=3)

    def test_bfs_order_deterministic(self):
        assert KLEIN.elements() == XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)]).elements()


class TestTransitive:
    def test_two_orbits(self):
        assert not KLEIN.is_transitive()  # (0 1) and (2 3)

    def test_one_orbit(self):
        assert XGroup(A, [(1, 2, 0, 3), (0, 1, 3, 2)]).is_transitive()

    def test_empty_carrier(self):
        assert XGroup(Alphabet("x"), [()]).is_transitive()


class TestCayleyGraph:
    def test_trivial_group_gives_rose(self):
        g = XGroup(A, [(0,), (0,)])
        cg = cayley_graph(g)
        assert cg.graph.num_vertices == 1
        assert sorted(cg.graph.geometric_edges()) == [(0, 0, 1), (0, 0, 2)]

    def test_klein_square(self):
        cg = cayley_graph(KLEIN)
        assert cg.graph.num_vertices == 4
        assert is_covering(cg.graph)
        assert is_connected(cg.graph)
        assert cg.base == 0

    def test_trace_matches_evaluate(self):
        cg = cayley_graph(KLEIN)
        for text in ["xy", "xyXY", "yyx", "XY"]:
            w = A.parse(text)
            path = cg.graph.trace(cg.base, w)
            assert cg.elements[path.end] == KLEIN.evaluate(w)

    def test_transition_group_of_cayley_graph_is_the_regular_action(self):
        # the transition group of C(G) is G acting on itself by right
        # multiplication; check the actions agree element by element
        cg = cayley_graph(KLEIN)
        back = transition_group(cg.graph)
        assert back.order() == KLEIN.order()
        for x in A.positive_letters():
            p = back.perm(x)
            for i, e in enumerate(cg.elements):
                assert cg.elements[p[i]] == KLEIN.mult(e, KLEIN.perm(x))


class TestDiagonal:
    def test_single_group_is_itself(self):
        d = diagonal_subgroup([KLEIN])
        assert d is KLEIN
        assert d.order() == KLEIN.order()

    def test_two_copies_stay_diagonal(self):
        d = diagonal_subgroup([KLEIN, KLEIN])
        assert d.order() == KLEIN.order()

    def test_independent_factors_fill_product(self):
        d = diagonal_subgroup([Z2X, Z2Y])
        assert d.order() == 4

    def test_order_divides_product_and_surjects(self):
        rng = random.Random(41)
        from prodsep.covers import expand_to_cover
        from prodsep.stallings import stallings_graph
        letters = A.letters()
        for _ in range(15):
            groups = []
            for _ in range(rng.randint(1, 3)):
                gens = [tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 2))]
                h = stallings_graph(A, gens)
                groups.append(transition_group(expand_to_cover(h.graph)))
            d = diagonal_subgroup(groups)
            try:
                n = d.order(cap=200000)
            except CapExceeded:
                continue
            product = 1
            for g in groups:
                assert n % g.order() == 0
                product *= g.order()
            assert product % n == 0


class TestCycleNotation:
    def test_round_trip(self):
        for p in [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]:
            assert parse_perm(fmt_perm(p), 3) == p

    def test_round_trip_random(self):
        rng = random.Random(5)
        for n in (1, 2, 5, 17, 200):
            for _ in range(20):
                p = list(range(n))
                rng.shuffle(p)
                p = tuple(p)
                assert parse_perm(fmt_perm(p), n) == p

    def test_overlapping_cycles_compose_left_to_right(self):
        def composed(cycles, n):
            # every cycle as a full permutation, applied one after another
            out = tuple(range(n))
            for cycle in cycles:
                cperm = list(range(n))
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    cperm[a] = b
                out = tuple(cperm[x] for x in out)
            return out

        assert parse_perm("(0 1)(1 2)", 3) == composed([[0, 1], [1, 2]], 3) == (2, 0, 1)
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 9)
            cycles = [rng.sample(range(n), rng.randint(1, n))
                      for _ in range(rng.randint(1, 5))]
            text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
            assert parse_perm(text, n) == composed(cycles, n)

    def test_identity(self):
        assert fmt_perm((0, 1, 2)) == "()"
        assert parse_perm("()", 3) == (0, 1, 2)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_perm("(0 1", 2)
        with pytest.raises(ValueError):
            parse_perm("(0 5)", 2)

    @staticmethod
    def read_both(text, n):
        """parse_perm's answer and the composing reader's, each a tuple or
        the ValueError message."""
        out = []
        for read in (lambda: parse_perm(text, n), lambda: _compose_cycles(text.strip(), n)):
            try:
                out.append(read())
            except ValueError as e:
                out.append(str(e))
        return out

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 200])
    def test_disjoint_cycles_read_as_the_composing_reader_reads_them(self, n, monkeypatch):
        def composed(text, n):
            raise AssertionError(f"{text!r} left the one-pass reader")

        monkeypatch.setattr(groups, "_compose_cycles", composed)
        rng = random.Random(f"disjoint/{n}")
        gap = lambda: rng.choice(["", " ", "  ", "\t", "\n "])
        for _ in range(40):
            p = tuple(rng.sample(range(n), n))
            cycles = [c.split() for c in fmt_perm(p)[1:-1].split(")(") if c]
            # (k) cycles for fixed points, () cycles, in any order
            cycles += [[str(i)] for i in range(n) if p[i] == i and rng.random() < 0.5]
            cycles += [[] for _ in range(rng.randint(0, 2))]
            rng.shuffle(cycles)
            text = gap() + "".join(
                "(" + gap() + (gap() + " ").join("0" * rng.randint(0, 2) + t for t in c)
                + gap() + ")" + gap() for c in cycles) + gap()
            if not cycles:
                text += "()"
            assert self.read_both(text, n) == [p, p], text

    def test_other_texts_read_as_the_composing_reader_reads_them(self, monkeypatch):
        # overlapping cycles, a point repeated within a cycle, a point out of range
        cases = [("(0 1)(1 2)", 3), ("(0 1)(0 1)", 2), ("(1 2)(2 0)(0 1)", 3),
                 ("(0 1 0)", 3), ("(2 2)", 3), ("(0 3)", 3), ("(0 1)(5)", 3),
                 ("(0 0 7)", 3), ("(7 0 0)", 3), ("(0 1)(2 2)(1 9)", 4),
                 # past int's digit limit, after and before a point out of range
                 ("(5 5)(" + "1" * 5000 + ")", 3), ("(" + "1" * 5000 + ")(5 5)", 3)]
        rng = random.Random("composing")
        while len(cases) < 310:
            n = rng.randint(1, 9)
            cycles = [[rng.randint(0, n) for _ in range(rng.randint(1, 4))]
                      for _ in range(rng.randint(2, 4))]
            points = [i for c in cycles for i in c]
            if max(points) >= n or len(set(points)) < len(points):
                cases.append(("".join("(" + " ".join(map(str, c)) + ")" for c in cycles), n))
        composed = []
        monkeypatch.setattr(groups, "_compose_cycles",
                            lambda text, n: composed.append(text) or _compose_cycles(text, n))
        kinds = set()
        for text, n in cases:
            got, expected = self.read_both(text, n)
            assert got == expected, text
            kinds.add(type(got))
        assert composed == [text for text, _ in cases]
        assert kinds == {tuple, str}


class TestFmtPermRejects:
    @pytest.mark.parametrize("p", [(1, 1), (0, 0), (1, 0, 0), (2, 0, 0), (2, 0), (-1, 0), (0, 3, 1)])
    def test_a_non_permutation_names_the_tuple(self, p):
        # a walk that runs into a written point never returns to its start
        with within(0.5), pytest.raises(ValueError, match="not a permutation") as err:
            fmt_perm(p)
        assert str(p) in str(err.value)
