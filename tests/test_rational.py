import random

from prodsep.rational import (
    accepts,
    cancellation_closure,
    member_product,
    product_automaton,
)
from prodsep.stallings import contains, stallings_graph
from prodsep.words import Alphabet, free_reduce

A = Alphabet("xy")


def S(*texts):
    return stallings_graph(A, [A.parse(t) for t in texts])


def random_word(rng, max_len):
    letters = A.letters()
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


class TestProductAutomaton:
    def test_single_cyclic_subgroup(self):
        hs = [S("x")]
        assert member_product(hs, A.parse("x"))
        assert member_product(hs, A.parse("xx"))
        assert member_product(hs, A.parse("X"))
        assert not member_product(hs, A.parse("y"))

    def test_two_factor_concatenation(self):
        hs = [S("xx"), S("yy")]
        assert member_product(hs, A.parse("xxyy"))
        assert member_product(hs, A.parse("XX"))

    def test_empty_factor_list(self):
        nfa = product_automaton([])
        assert accepts(nfa, ())
        assert not accepts(nfa, A.parse("x"))


class TestCancellationClosure:
    def test_single_cancelling_word(self):
        # automaton accepting exactly x x^-1
        from prodsep.rational import Nfa
        nfa = Nfa(3, [(0, 1, 1), (1, -1, 2)], (), 0, {2})
        closed = cancellation_closure(nfa)
        assert accepts(closed, ())

    def test_cancellation_across_factors(self):
        # x^2 * x^-1 reduces to x
        hs = [S("xx"), S("x")]
        assert member_product(hs, A.parse("x"))

    def test_idempotent(self):
        nfa = product_automaton([S("xx"), S("yy")])
        once = cancellation_closure(nfa)
        twice = cancellation_closure(once)
        assert once.eps_edges == twice.eps_edges


class TestMemberProduct:
    def test_positive_and_negative(self):
        hs = [S("xx"), S("yy")]
        assert member_product(hs, A.parse("xxyy"))
        assert not member_product(hs, A.parse("xy"))

    def test_invariant_under_free_reduction(self):
        rng = random.Random(61)
        hs = [S("xx", "yxY"), S("yy")]
        for _ in range(100):
            w = random_word(rng, 10)
            assert member_product(hs, w) == member_product(hs, free_reduce(w))

    def test_agrees_with_contains_for_one_factor(self):
        rng = random.Random(67)
        for _ in range(40):
            gens = [free_reduce(random_word(rng, 6)) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g] or [A.parse("x")]
            h = stallings_graph(A, gens)
            for _ in range(12):
                w = random_word(rng, 8)
                assert member_product([h], w) == contains(h, w)

    def test_agrees_with_exhaustive_factor_search(self):
        from tests.helpers import loop_words_up_to
        rng = random.Random(71)
        for _ in range(25):
            g1 = free_reduce(random_word(rng, 4)) or A.parse("x")
            g2 = free_reduce(random_word(rng, 4)) or A.parse("y")
            h1, h2 = stallings_graph(A, [g1]), stallings_graph(A, [g2])
            w = free_reduce(random_word(rng, 6))
            claimed = member_product([h1, h2], w)
            # ground truth: w in H1 H2 iff some u in H1 of bounded length
            # has u^-1 w in H2 (bound is enough at this scale)
            from prodsep.words import invert
            candidates = [()] + loop_words_up_to(h1, len(w) + 8)
            truth = any(contains(h2, free_reduce(invert(u) + w)) for u in candidates)
            if claimed and not truth:
                # the bounded search can miss long factors, never the converse
                continue
            assert claimed == truth

    def test_agrees_with_exact_enumeration_without_base_loops(self):
        # No base carries a self-loop, so a slip in the inverse-letter match
        # of the saturation cannot hide behind a loop reading x both ways.
        # w is in H1 H2 iff H1 meets w H2; a shortest u in both is a path of
        # the pullback of S(H1) and the glued graph of w H2, so enumerating
        # the loops of the cyclic H1 up to the pullback's size is exact.
        from prodsep.words import invert
        from tests.helpers import glue_word, loop_words_up_to

        def base_loop(h):
            g = h.graph
            return any(g.src(d) == g.dst(d) == h.base for d in range(g.num_darts))

        rng = random.Random(73)
        outcomes = []
        while len(outcomes) < 150:
            h1 = stallings_graph(A, [free_reduce(random_word(rng, 5)) or A.parse("xy")])
            gens = [free_reduce(random_word(rng, 4)) for _ in range(rng.randint(1, 2))]
            h2 = stallings_graph(A, [g for g in gens if g] or [A.parse("yx")])
            if base_loop(h1) or base_loop(h2):
                continue
            if rng.random() < 0.5:
                w = free_reduce(random_word(rng, 7))
            else:
                w = free_reduce(rng.choice([()] + loop_words_up_to(h1, 6))
                                + rng.choice([()] + loop_words_up_to(h2, 6)))
            bound = h1.graph.num_vertices * glue_word(h2, w).graph.num_vertices
            truth = any(contains(h2, free_reduce(invert(u) + w))
                        for u in [()] + loop_words_up_to(h1, bound))
            assert member_product([h1, h2], w) == truth
            outcomes.append(truth)
        assert 30 < sum(outcomes) < 120
