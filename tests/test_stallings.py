import random

import pytest

from prodsep.graphs import LabeledGraph
from prodsep.stallings import attach_word, contains, stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import assert_same_graph, folded_wedge, loop_words_up_to

A = Alphabet("xy")


def random_word(rng, max_len, alphabet=A):
    letters = alphabet.letters()
    return free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len))))


def random_subgroup(rng, max_gens=3, max_len=6):
    return [random_word(rng, max_len) for _ in range(rng.randint(1, max_gens))]


class TestStallingsGraph:
    def test_two_generator_running_example(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yxY")])
        assert (h.graph.num_vertices, h.graph.num_geometric_edges) == (2, 3)

    def test_commutator_and_y_squared(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        assert (h.graph.num_vertices, h.graph.num_geometric_edges) == (4, 5)

    def test_single_generator_loop(self):
        h = stallings_graph(A, [A.parse("x")])
        assert (h.graph.num_vertices, h.graph.num_geometric_edges) == (1, 1)

    def test_trivial_and_duplicate_generators_dropped(self):
        h = stallings_graph(A, [A.parse("x"), A.parse("x"), (), A.parse("xX")])
        assert (h.graph.num_vertices, h.graph.num_geometric_edges) == (1, 1)

    def test_every_generator_reads_a_loop(self):
        rng = random.Random(5)
        for _ in range(50):
            gens = random_subgroup(rng)
            h = stallings_graph(A, gens)
            assert h.graph.is_immersion()
            for g in gens:
                assert contains(h, g)


def random_generators(rng, alphabet):
    """1-4 generators mixing shared prefixes, conjugates c u c^-1, repeats,
    inverses and products of earlier ones (which read as loops)."""
    prefix = random_word(rng, 6, alphabet)
    gens = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(6)
        if kind == 0:
            w = prefix + random_word(rng, 6, alphabet)
        elif kind == 1:
            c = random_word(rng, 4, alphabet)
            w = c + random_word(rng, 5, alphabet) + invert(c)
        elif kind == 2 and gens:
            w = rng.choice(gens)
        elif kind == 3 and gens:
            w = invert(rng.choice(gens))
        elif kind == 4 and gens:
            w = rng.choice(gens) + rng.choice(gens)
        else:
            w = random_word(rng, 7, alphabet)
        gens.append(w)
    return gens


class TestReadAgainstFold:
    """Reading each generator in gives the wedge's fold, byte for byte."""

    def test_random_subgroups(self, monkeypatch):
        folds = []
        fold = LabeledGraph.fold_all_tracked
        rng = random.Random(15)
        read = fallback = loops = 0
        for alphabet in (A, Alphabet("xyz")):
            for _ in range(1500):
                gens = random_generators(rng, alphabet)
                with monkeypatch.context() as m:
                    m.setattr(LabeledGraph, "fold_all_tracked",
                              lambda self: folds.append(1) or fold(self))
                    h = stallings_graph(alphabet, gens)
                if folds:
                    fallback += 1
                    folds.clear()
                else:
                    read += 1
                assert_same_graph(h, folded_wedge(alphabet, gens))
                assert h.base == 0
                words = [free_reduce(w) for w in gens]
                loops += any(w and w not in words[:k]
                             and contains(stallings_graph(alphabet, gens[:k]), w)
                             for k, w in enumerate(words))
        assert read >= 100 and fallback >= 100
        assert loops >= 100  # a new generator already in the subgroup is skipped

    def test_collapsing_generators_fold(self):
        h = stallings_graph(A, [A.parse("xx"), A.parse("xxx")])
        assert (h.graph.num_vertices, h.graph.geometric_edges()) == (1, ((0, 0, 1),))
        h = stallings_graph(A, [A.parse("yyyx"), A.parse("y")])
        assert h.graph.geometric_edges() == ((0, 0, 2), (0, 0, 1))

    def test_bad_letter_is_rejected(self):
        for bad in ((1, 3), (-3,), (0, 1)):
            with pytest.raises(ValueError, match="not in the alphabet"):
                stallings_graph(A, [A.parse("xy"), bad])

    def test_shared_prefix_subgroup_reads_without_folding(self, monkeypatch):
        # shaped like the hall workload: three generators, a 48-letter prefix
        rng = random.Random(48)
        letters = A.letters()

        def reduced(n, after=0):
            word = []
            while len(word) < n:
                l = rng.choice(letters)
                if l != -(word[-1] if word else after):
                    word.append(l)
            return tuple(word)

        prefix = reduced(48)
        gens = [prefix + reduced(n, prefix[-1]) for n in (24, 32, 40)]
        folds = []
        fold = LabeledGraph.fold_all_tracked
        monkeypatch.setattr(LabeledGraph, "fold_all_tracked",
                            lambda self: folds.append(1) or fold(self))
        h = stallings_graph(A, gens)
        assert not folds
        monkeypatch.undo()
        assert_same_graph(h, folded_wedge(A, gens))


def assert_table_agrees_with_star(g):
    """The dart table answers out_dart exactly as the star lists the darts."""
    star = g.star()
    assert all(len(darts) == 1 for darts in star.values())
    for v in range(g.num_vertices):
        for l in g.alphabet.letters():
            darts = star.get((v, l))
            assert g.out_dart(v, l) == (darts[0] if darts else None)


class TestDartTable:
    """The reader hands its (vertex, letter) -> dart table to the graph."""

    def test_reader_table_agrees_with_star(self, monkeypatch):
        folds = []
        fold = LabeledGraph.fold_all_tracked
        monkeypatch.setattr(LabeledGraph, "fold_all_tracked",
                            lambda self: folds.append(1) or fold(self))
        rng = random.Random(23)
        handed = fallback = 0
        for alphabet in (A, Alphabet("xyz")):
            for _ in range(400):
                gens = random_generators(rng, alphabet)
                h = stallings_graph(alphabet, gens)
                if folds:
                    fallback += 1
                    folds.clear()
                else:
                    # the graph keeps the reader's table, not one built anew
                    assert h.graph._out is not None
                    handed += 1
                assert h.graph.is_immersion()
                assert_table_agrees_with_star(h.graph)
                for _ in range(3):
                    att = attach_word(h, random_word(rng, 10, alphabet))
                    assert att.graph.is_immersion()
                    assert_table_agrees_with_star(att.graph)
        assert handed >= 100 and fallback >= 50

    def test_table_of_a_non_immersion_keeps_the_least_dart(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1), (2, 0, 2)])
        assert not g.is_immersion()
        for (v, l), darts in g.star().items():
            assert g.out_dart(v, l) == darts[0]
        assert g.out_dart(1, 2) is None

    def test_reading_lists_no_star(self, monkeypatch):
        def star(self):
            raise AssertionError("star listed")

        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        monkeypatch.setattr(LabeledGraph, "star", star)
        att = attach_word(h, A.parse("xyX"))
        assert contains(h, A.parse("yyxyXY")) and not contains(h, A.parse("xyX"))
        assert att.alpha != att.omega
        assert att.graph.trace(att.alpha, A.parse("xyX")).end == att.omega


class TestContains:
    def test_generator_and_identity(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        assert contains(h, A.parse("xyXY"))
        assert contains(h, ())
        assert not contains(h, A.parse("xyX"))

    def test_closed_under_group_operations(self):
        rng = random.Random(9)
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        members = loop_words_up_to(h, 6)[:40]
        for u in members:
            assert contains(h, u)
            assert contains(h, invert(u))
        for u, v in zip(members, reversed(members)):
            assert contains(h, free_reduce(u + v))

    def test_unreduced_input_is_reduced_internally(self):
        h = stallings_graph(A, [A.parse("xx")])
        assert contains(h, A.parse("xyYx"))


class TestAttachWord:
    def test_attach_grows_a_tail(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        att = attach_word(h, A.parse("xyX"))
        assert (att.graph.num_vertices, att.graph.num_geometric_edges) == (6, 7)
        assert att.alpha != att.omega

    def test_member_word_folds_to_base(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        att = attach_word(h, A.parse("yy"))
        assert att.alpha == att.omega

    def test_single_step_fold(self):
        h = stallings_graph(A, [A.parse("x")])
        att = attach_word(h, A.parse("y"))
        assert (att.graph.num_vertices, att.graph.num_geometric_edges) == (2, 2)
        assert att.alpha != att.omega

    def test_membership_preserved(self):
        rng = random.Random(13)
        for _ in range(30):
            gens = random_subgroup(rng)
            h = stallings_graph(A, gens)
            att = attach_word(h, random_word(rng, 6))
            from prodsep.stallings import PointedImmersion
            h2 = PointedImmersion(att.graph, att.omega)
            for _ in range(10):
                t = random_word(rng, 8)
                assert contains(h, t) == contains(h2, t)

    def test_alpha_separates_membership(self):
        rng = random.Random(17)
        for _ in range(30):
            gens = random_subgroup(rng)
            h = stallings_graph(A, gens)
            w = random_word(rng, 6)
            att = attach_word(h, w)
            assert (att.alpha == att.omega) == contains(h, w)
