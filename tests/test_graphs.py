import random
import time

import pytest

from prodsep.graphs import LabeledGraph, reduce_path
from prodsep.stallings import PointedImmersion, attach_word, stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import (
    admissible_pair,
    assert_same_graph,
    build_wedge,
    canonical_form,
    canonical_key,
    component_of,
    fold_pair,
    folded_wedge,
    glue_word,
    is_connected,
    is_covering,
    step_fold_all_tracked,
)

A = Alphabet("xy")


def rose(alphabet):
    return LabeledGraph(alphabet, 1, [(0, 0, x) for x in alphabet.positive_letters()])


def random_graph(rng, alphabet, max_words=3, max_len=6, extra_edges=2):
    """A connected labeled graph: a wedge of random words plus chords."""
    letters = alphabet.letters()
    words = [tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
             for _ in range(rng.randint(1, max_words))]
    g = build_wedge(alphabet, words)
    edges = list(g.geometric_edges())
    for _ in range(rng.randint(0, extra_edges)):
        edges.append((rng.randrange(g.num_vertices), rng.randrange(g.num_vertices),
                      rng.choice(alphabet.positive_letters())))
    return LabeledGraph(alphabet, g.num_vertices, edges)


def random_reduced(rng, alphabet, n):
    word = []
    while len(word) < n:
        l = rng.choice(alphabet.letters())
        if not word or word[-1] != -l:
            word.append(l)
    return tuple(word)


def shared_prefix_words(rng, alphabet, prefix_len, count, suffix_len):
    """Generators with one random shared prefix, as in the hall workload."""
    prefix = random_reduced(rng, alphabet, prefix_len)
    return [free_reduce(prefix + random_reduced(rng, alphabet, suffix_len))
            for _ in range(count)]


def assert_folds_like_oracle(g):
    folded, vmap = g.fold_all_tracked()
    for policy in ("least", "greatest"):
        expected, expected_vmap = step_fold_all_tracked(g, policy=policy)
        assert folded.num_vertices == expected.num_vertices
        assert folded.geometric_edges() == expected.geometric_edges()
        assert vmap == expected_vmap


def assert_attaches_like_glue(h, word, got=None):
    got = attach_word(h, word) if got is None else got
    expected = glue_word(h, word)
    assert got.graph.num_vertices == expected.graph.num_vertices
    assert got.graph.geometric_edges() == expected.graph.geometric_edges()
    assert (got.omega, got.alpha) == (expected.omega, expected.alpha)
    return got


class TestStructure:
    def test_reverse_involution(self):
        g = rose(A)
        for e in range(g.num_darts):
            assert g.reverse(g.reverse(e)) == e
            assert g.reverse(e) != e
            assert g.src(g.reverse(e)) == g.dst(e)
            assert g.label(g.reverse(e)) == -g.label(e)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            LabeledGraph(A, 1, [(0, 1, 1)])
        with pytest.raises(ValueError):
            LabeledGraph(A, 1, [(0, 0, 3)])

    def test_hand_built_graphs_are_checked(self):
        for edges, message in [([(0, 1, 1), (-1, 0, 2)], "out of vertex range"),
                               ([(0, 1, 1), (1, 2, 1)], "out of vertex range"),
                               ([(0, 1, 0)], "must be a positive letter"),
                               ([(0, 1, -1)], "must be a positive letter")]:
            with pytest.raises(ValueError, match=message):
                LabeledGraph(A, 2, edges)


class TestAdmissiblePairs:
    def test_two_edges_same_source_same_label(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        pair = admissible_pair(g)
        assert pair == (0, 2)

    def test_single_loop_has_no_pair(self):
        # the loop and its reverse carry different labels x vs x^-1
        g = LabeledGraph(A, 1, [(0, 0, 1)])
        assert admissible_pair(g) is None

    def test_rose_is_folded(self):
        assert admissible_pair(rose(A)) is None


class TestFold:
    def test_common_source_distinct_targets(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        folded = fold_pair(g, (0, 2))[0]
        assert folded.num_vertices == 2
        assert folded.geometric_edges() == ((0, 1, 1),)

    def test_parallel_edges_keep_vertices(self):
        g = LabeledGraph(A, 2, [(0, 1, 1), (0, 1, 1)])
        folded = fold_pair(g, (0, 2))[0]
        assert folded.num_vertices == 2
        assert folded.geometric_edges() == ((0, 1, 1),)

    def test_common_terminal_via_reversed_pair(self):
        # identifying edges with a common terminal vertex happens through
        # the reversed pair, as in the final fold of the running example
        g = LabeledGraph(A, 3, [(1, 0, 1), (2, 0, 1)])
        pair = admissible_pair(g)
        e1, e2 = pair
        assert g.label(e1) == -1
        folded = fold_pair(g, pair)[0]
        assert folded.num_vertices == 2
        assert folded.num_geometric_edges == 1

    def test_rank_never_increases(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, A)
            pair = admissible_pair(g)
            while pair is not None:
                folded = fold_pair(g, pair)[0]
                assert folded.rank() <= g.rank()
                # rank is preserved exactly when the endpoints were distinct
                distinct = g.dst(pair[0]) != g.dst(pair[1])
                assert (folded.rank() == g.rank()) == distinct
                g = folded
                pair = admissible_pair(g)


class TestFoldAll:
    def test_running_example(self):
        g = stallings_graph(A, [A.parse("xyXY"), A.parse("yxY")])
        assert g.graph.num_vertices == 2
        assert g.graph.num_geometric_edges == 3

    def test_fixpoint(self):
        g = rose(A)
        assert g.fold_all_tracked()[0].geometric_edges() == g.geometric_edges()

    def test_wedge_of_two_equal_loops(self):
        g = build_wedge(A, [(1,), (1,)])
        folded = g.fold_all_tracked()[0]
        assert folded.num_vertices == 1
        assert folded.geometric_edges() == ((0, 0, 1),)

    def test_confluence_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, A)
            key = canonical_key(g.fold_all_tracked()[0])
            for policy in ("least", "greatest"):
                assert canonical_key(step_fold_all_tracked(g, policy)[0]) == key


class TestFoldAgainstStepLoop:
    """The one-pass fold gives exactly the graph and map of the step loop."""

    def test_random_graphs(self):
        rng = random.Random(2024)
        for alphabet in (A, Alphabet("xyz")):
            for _ in range(1000):
                assert_folds_like_oracle(random_graph(rng, alphabet, max_words=4,
                                                      max_len=8, extra_edges=4))

    def test_shared_prefix_wedges(self):
        rng = random.Random(48)
        for prefix_len in (0, 1, 5, 12, 24, 48):
            for count in (1, 2, 3, 4):
                words = shared_prefix_words(rng, A, prefix_len, count, rng.randint(1, 12))
                assert_folds_like_oracle(build_wedge(A, words))

    def test_stallings_and_attached_graphs(self, monkeypatch):
        fold = LabeledGraph.fold_all_tracked
        rng = random.Random(7)
        attached = 0
        for _ in range(60):
            gens = shared_prefix_words(rng, A, rng.randint(0, 16), rng.randint(1, 3),
                                       rng.randint(1, 8))
            h = stallings_graph(A, gens)
            # S(H) is the wedge's fold, which is the step loop's
            assert_same_graph(h, folded_wedge(A, gens))
            words = list(dict.fromkeys(w for w in map(free_reduce, gens) if w))
            assert_folds_like_oracle(build_wedge(A, words))
            # a subgroup word with its first letters replaced, so the path
            # folds in from the base and its free end may stay outside
            word = free_reduce(random_reduced(rng, A, rng.randint(1, 3)) + gens[0][3:])
            glued = []
            with monkeypatch.context() as m:
                m.setattr(LabeledGraph, "fold_all_tracked",
                          lambda self: glued.append(self) or fold(self))
                got = attach_word(h, word)
                assert not glued  # attaching reads; it folds nothing
                assert_attaches_like_glue(h, word, got)
            for g in glued:  # the glued fold is the step loop's
                assert_folds_like_oracle(g)
            attached += len(glued)
        assert attached > 50

    def test_long_shared_prefix_folds_fast(self):
        rng = random.Random(400)
        g = build_wedge(A, shared_prefix_words(rng, A, 400, 4, 12))
        t0 = time.perf_counter()
        folded = g.fold_all_tracked()[0]
        elapsed = time.perf_counter() - t0
        assert folded.is_immersion()
        assert elapsed < 0.5, f"{elapsed:.3f} s"


def random_walk_word(rng, g, v, n):
    """The label of a random reduced walk of at most n darts from v in g."""
    word = []
    for _ in range(n):
        steps = [l for l in g.alphabet.letters()
                 if g.out_dart(v, l) is not None and not (word and l == -word[-1])]
        if not steps:
            break
        l = rng.choice(steps)
        word.append(l)
        v = g.dst(g.out_dart(v, l))
    return tuple(word)


class TestAttachAgainstGlue:
    """Reading the word into S(H) gives exactly the glued graph's fold."""

    def test_random_draws(self):
        rng = random.Random(11)
        draws = {"empty": 0, "member": 0, "read": 0, "partial": 0}
        for alphabet in (A, Alphabet("xyz")):
            for i in range(1200):
                if i % 3 == 0:
                    gens = shared_prefix_words(rng, alphabet, rng.randint(0, 24),
                                               rng.randint(1, 4), rng.randint(1, 8))
                else:
                    gens = [random_reduced(rng, alphabet, rng.randint(1, 7))
                            for _ in range(rng.randint(1, 3))]
                h = stallings_graph(alphabet, gens)
                kind = i % 6
                if kind == 0:
                    word = ()
                elif kind == 1:  # a subgroup member: a product of generators
                    word = free_reduce(sum((rng.choice(gens) for _ in range(
                        rng.randint(1, 3))), ()))
                elif kind == 2:  # reads entirely into S(H) from the base
                    word = invert(random_walk_word(rng, h.graph, h.base, rng.randint(1, 12)))
                elif kind == 3:  # a generator with its first letters replaced
                    word = free_reduce(random_reduced(rng, alphabet, rng.randint(1, 3))
                                       + rng.choice(gens)[rng.randint(0, 4):])
                else:
                    word = random_reduced(rng, alphabet, rng.randint(1, 14))
                got = assert_attaches_like_glue(h, word)
                w = free_reduce(word)
                read = h.graph.num_vertices == got.graph.num_vertices
                draws["empty"] += not w
                draws["member"] += got.alpha == got.omega
                draws["read"] += bool(w) and read
                draws["partial"] += not read
        assert min(draws.values()) >= 200, draws

    def test_letter_outside_alphabet(self):
        h = stallings_graph(A, [A.parse("xy")])
        for word in [(3,), (1, -3), (1, 0)]:
            with pytest.raises(ValueError, match="not in the alphabet"):
                attach_word(h, word)

    def test_base_graph_must_be_an_immersion(self):
        h = PointedImmersion(LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)]), 0)
        with pytest.raises(ValueError, match="requires an immersion"):
            attach_word(h, A.parse("y"))


class TestImmersionCovering:
    def test_rose_is_covering(self):
        assert is_covering(rose(A))
        assert rose(A).is_immersion()

    def test_commutator_graph_immersion_not_covering(self):
        g = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")]).graph
        assert g.is_immersion()
        assert not is_covering(g)

    def test_unfolded_graph_is_neither(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        assert not g.is_immersion()
        assert not is_covering(g)

    def test_trace_refuses_a_non_immersion_every_time(self):
        # the flag is worked out once, with the dart table, and kept
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        g.out_dart(0, 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="requires an immersion"):
                g.trace(0, A.parse("x"))
        assert not g.is_immersion()
        h = stallings_graph(A, [A.parse("xy")]).graph
        assert h.trace(0, A.parse("xy")).end == 0 and h.is_immersion()

    def test_covering_implies_immersion_randomized(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, A).fold_all_tracked()[0]
            if is_covering(g):
                assert g.is_immersion()


class TestTrace:
    def test_rose_reads_everything(self):
        g = rose(A)
        w = A.parse("xyXYxx")
        path = g.trace(0, w)
        assert path.label() == w
        assert len(path) == len(w)
        assert path.end == 0

    def test_generator_reads_loop(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        path = h.graph.trace(h.base, A.parse("xyXY"))
        assert path is not None and path.end == h.base

    def test_attached_word_is_not_loop(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])
        path = h.graph.trace(h.base, A.parse("xyX"))
        assert path is not None and path.end != h.base

    def test_untraceable_returns_none(self):
        g = LabeledGraph(A, 1, [(0, 0, 1)])
        assert g.trace(0, A.parse("y")) is None

    def test_requires_immersion(self):
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        with pytest.raises(ValueError):
            g.trace(0, A.parse("x"))


class TestPaths:
    def test_reverse_and_concat(self):
        g = rose(A)
        p = g.trace(0, A.parse("xy"))
        assert p.reversed().label() == A.parse("YX")
        assert p.concat(p.reversed()).label() == A.parse("xyYX")

    def test_reduce_path(self):
        g = rose(A)
        p = g.trace(0, A.parse("xyYX"))
        r = reduce_path(p)
        assert r.label() == ()
        assert (r.start, r.end) == (p.start, p.end)


class TestCanonicalForm:
    def test_pointed_isomorphism_detects_relabeling(self):
        g1 = LabeledGraph(A, 2, [(0, 0, 1), (0, 1, 2), (1, 1, 1)])
        g2 = LabeledGraph(A, 2, [(1, 1, 1), (1, 0, 2), (0, 0, 1)])
        assert canonical_form(g1, 0) == canonical_form(g2, 1)
        assert canonical_form(g1, 0) != canonical_form(g2, 0)

    def test_dot_is_deterministic(self):
        h = stallings_graph(A, [A.parse("xyXY"), A.parse("yxY")])
        assert h.graph.to_dot(base=h.base) == h.graph.to_dot(base=h.base)
        assert "doublecircle" in h.graph.to_dot(base=h.base)


class TestComponents:
    def test_component_follows_every_dart_of_a_bucket(self):
        # not an immersion: both x-edges leave vertex 0
        g = LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])
        assert component_of(g, 0) == {0, 1, 2}
        assert component_of(g, 2) == {0, 1, 2}
        assert is_connected(g)

    def test_two_components(self):
        g = LabeledGraph(A, 4, [(0, 1, 1), (2, 3, 2)])
        assert component_of(g, 0) == {0, 1}
        assert not is_connected(g)

    def test_canonical_key_of_two_components(self):
        g1 = LabeledGraph(A, 3, [(0, 0, 1), (1, 2, 2)])
        g2 = LabeledGraph(A, 3, [(0, 1, 2), (2, 2, 1)])
        assert canonical_key(g1) == canonical_key(g2)
        assert len(canonical_key(g1)) == 2
        g3 = LabeledGraph(A, 3, [(0, 0, 2), (1, 2, 2)])
        assert canonical_key(g3) != canonical_key(g1)
