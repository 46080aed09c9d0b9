import dataclasses
import random
import sys
import time
from functools import reduce
from operator import mul

import pytest

from prodsep import separators
from prodsep.certificates import (
    HallCertificate,
    emit_certificate,
    parse_certificate,
    verify_certificate,
)
from prodsep.covers import expand_to_cover, transition_group
from prodsep.errors import CapExceeded, InternalInvariantError
from prodsep.extensions import ExtensionChain, ExtensionLevel, iterated_extension
from prodsep.graphs import LabeledGraph
from prodsep.groups import XGroup, diagonal_subgroup
from prodsep.rational import accepts, cancellation_closure, member_product, product_automaton
from prodsep.separators import (
    FactorizeStats,
    _build_context,
    factorize,
    hall_separator,
    image_structure,
    product_separator,
    project_path,
    trace_cayley,
)
from prodsep.stallings import attach_word, contains, stallings_graph
from prodsep.words import Alphabet, free_reduce, invert
from tests.helpers import (
    _product,
    _product_member,
    assert_same_image,
    image_subgroup,
    kernel_loop_word,
    sorted_search,
    spine_doubling_back,
    steps_with_inverses,
    two_ended_image_structure,
    within,
)

A = Alphabet("xy")
KLEIN = XGroup(A, [(1, 0, 2, 3), (0, 1, 3, 2)])


def random_reduced(rng, lo, hi):
    letters = A.letters()
    return free_reduce(tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))


def random_gens(rng, max_gens=3, max_len=6):
    gens = [random_reduced(rng, 1, max_len) for _ in range(rng.randint(1, max_gens))]
    return [g for g in gens if g] or [(1,)]


def subgroup_word(rng, gens, factors=3):
    w = ()
    for _ in range(rng.randint(1, factors)):
        g = rng.choice(gens)
        w += g if rng.random() < 0.5 else invert(g)
    return free_reduce(w)


class TestHallSeparator:
    def test_known_instance(self):
        wit = hall_separator(A, [A.parse("xyXY"), A.parse("yy")], A.parse("xyX"))
        assert isinstance(wit, HallCertificate)
        assert wit.group.evaluate(wit.word)[wit.base] != wit.base
        for g in wit.generators:
            assert wit.group.evaluate(g)[wit.base] == wit.base

    def test_rank_one_instance(self):
        wit = hall_separator(A, [A.parse("x")], A.parse("y"))
        assert wit.group.carrier == 2
        assert wit.group.evaluate(wit.word)[wit.base] != wit.base

    def test_rejects_member_word(self):
        with pytest.raises(ValueError):
            hall_separator(A, [A.parse("x"), A.parse("y")], A.parse("xy"))

    def test_follows_the_base_vertex_only(self, monkeypatch):
        # the certificate is where the base vertex goes, so no word is
        # evaluated on the whole carrier
        calls = []
        evaluate = XGroup.evaluate

        def counted(self, word):
            calls.append(word)
            return evaluate(self, word)

        monkeypatch.setattr(XGroup, "evaluate", counted)
        wit = hall_separator(A, [A.parse("xyXY"), A.parse("yy")], A.parse("xyX"))
        assert isinstance(wit, HallCertificate)
        assert calls == []

    def test_random_instances(self):
        rng = random.Random(201)
        done = 0
        while done < 60:
            gens = random_gens(rng)
            h = stallings_graph(A, gens)
            w = random_reduced(rng, 1, 8)
            if not w or contains(h, w):
                continue
            wit = hall_separator(A, gens, w)
            assert wit.group.evaluate(wit.word)[wit.base] != wit.base
            for g in wit.generators:
                assert wit.group.evaluate(g)[wit.base] == wit.base
            done += 1

    def test_certificate_checks_follow_the_base_vertex(self):
        gens = [A.parse("xyXY"), A.parse("yy")]
        word = A.parse("xyX")
        cert = hall_separator(A, gens, word)
        assert verify_certificate(cert) == (
            True, ["base vertex fixed by all generators, moved by the word"])
        moved = dataclasses.replace(cert, generators=tuple(gens) + (word,))
        assert verify_certificate(moved) == (
            False, ["generator xyX moves the base vertex"])
        fixed = dataclasses.replace(cert, word=A.parse("yyxyXY"))
        assert verify_certificate(fixed) == (
            False, ["word image fixes the base vertex; nothing is separated"])
        group = XGroup(A, cert.perms)
        rng = random.Random(17)
        for _ in range(200):
            w = random_reduced(rng, 0, 12)
            point = rng.randrange(group.carrier)
            assert group.point_image(point, w) == group.evaluate(w)[point]


def hall_pool(rng, count):
    """Instances shaped like the hall benchmark: three generators sharing a
    48-letter prefix, and non-member products of one to three of them whose
    first letters are redrawn."""
    prefix = random_reduced(rng, 48, 48)
    gens = [prefix + random_reduced(rng, n, n) for n in (24, 32, 40)]
    h = stallings_graph(A, gens)
    pool = []
    while len(pool) < count:
        w = subgroup_word(rng, gens)
        w = free_reduce(random_reduced(rng, 1, 4) + w[rng.randint(1, 4):])
        if w and not contains(h, w):
            pool.append((gens, w))
    return pool


class TestContextAgainstPublicPath:
    """_build_context reads reduced words and its own immersions without the
    public entries' reductions and checks, and gets what they give."""

    def test_level_zero_is_the_public_diagonal(self):
        rng = random.Random(73)
        for n in (1, 2, 3):
            for _ in range(80):
                subgroups = [random_gens(rng, max_len=8) for _ in range(n)]
                w = random_reduced(rng, 0, 10)
                ctx = _build_context(A, subgroups, w, None)
                graphs = [stallings_graph(A, gens).graph for gens in subgroups[:-1]]
                graphs.append(attach_word(stallings_graph(A, subgroups[-1]), w).graph)
                expected = diagonal_subgroup(
                    [transition_group(expand_to_cover(g)) for g in graphs])
                got = ctx.chain.levels[0]
                assert (got.carrier, got._perms, got._inv) == (
                    expected.carrier, expected._perms, expected._inv)

    def test_the_construction_checks_no_permutation_it_built(self, monkeypatch):
        # covering and diagonal groups come from XGroup._trusted; only
        # outside input goes through the checking constructor
        def checked(self, alphabet, perms):
            raise AssertionError("a constructed group was checked again")

        monkeypatch.setattr(XGroup, "__init__", checked)
        rng = random.Random(74)
        for n in (1, 2, 3):
            for _ in range(20):
                subgroups = [random_gens(rng, max_gens=2, max_len=3) for _ in range(n)]
                product_separator(A, subgroups, random_reduced(rng, 0, 6), cap=300)
                w = free_reduce(sum((subgroup_word(rng, g, 1) for g in subgroups), ()))
                factorize(A, subgroups, w, cap=300)
        for gens, w in hall_pool(random.Random(75), 5):
            hall_separator(A, gens, w)

    def test_hall_lists_no_star_checks_no_orbit_and_reduces_once(self, monkeypatch):
        pool = hall_pool(random.Random(102), 40)
        calls = {"star": 0, "is_transitive": 0, "free_reduce": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(LabeledGraph, "star", counted("star", LabeledGraph.star))
        monkeypatch.setattr(XGroup, "is_transitive",
                            counted("is_transitive", XGroup.is_transitive))
        reduce_word = counted("free_reduce", free_reduce)
        for name, module in list(sys.modules.items()):
            if name.startswith("prodsep") and hasattr(module, "free_reduce"):
                monkeypatch.setattr(module, "free_reduce", reduce_word)
        for gens, w in pool:
            calls["free_reduce"] = 0
            cert = hall_separator(A, gens, w)
            assert calls["free_reduce"] == len(gens) + 1  # each input word once
            assert cert.word == free_reduce(w)
        assert (calls["star"], calls["is_transitive"]) == (0, 0)

    def test_public_transition_group_still_checks_connectedness(self):
        two_roses = LabeledGraph(A, 2, [(0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 2)])
        with pytest.raises(ValueError, match="requires a connected covering"):
            transition_group(two_roses)
        with pytest.raises(ValueError, match="requires a connected covering"):
            transition_group(expand_to_cover(LabeledGraph(A, 2, [])))


class TestProjectPath:
    def setup_method(self):
        self.level = iterated_extension(KLEIN, []).top
        self.h = stallings_graph(A, [A.parse("xyXY"), A.parse("yy")])

    def test_eta_equal_eta_prime_gives_gamma_prime(self):
        w = A.parse("yy")
        eta = trace_cayley(self.level, self.level.identity, w)
        gamma_prime = self.h.graph.trace(self.h.base, w)
        out = project_path(eta, eta, gamma_prime)
        assert out.darts == gamma_prime.darts

    def test_prefix_projects_to_prefix(self):
        # the identity the pinch's cut of a middle path rests on: a prefix
        # of eta_prime projects to gamma_prime's first k darts
        w = A.parse("xyXY")
        eta_prime = trace_cayley(self.level, self.level.identity, w)
        gamma_prime = self.h.graph.trace(self.h.base, w)
        for k in range(len(w) + 1):
            eta = trace_cayley(self.level, self.level.identity, w[:k])
            assert eta.vertices == eta_prime.vertices[:k + 1]
            out = project_path(eta, eta_prime, gamma_prime)
            assert out.darts == gamma_prime.darts[:k]

    def test_backtracking_spine_projects(self):
        # eta revisits edges of eta_prime in a different order
        w = A.parse("yy")
        eta_prime = trace_cayley(self.level, self.level.identity, w)
        eta = trace_cayley(self.level, self.level.identity, A.parse("y"))
        gamma_prime = self.h.graph.trace(self.h.base, w)
        out = project_path(eta, eta_prime, gamma_prime)
        assert out.label() == A.parse("y")
        assert out.start == gamma_prime.start

    def test_precondition_violations_reported_individually(self):
        w = A.parse("yy")
        eta_prime = trace_cayley(self.level, self.level.identity, w)
        gamma_prime = self.h.graph.trace(self.h.base, w)
        other = trace_cayley(self.level, KLEIN.perm(1), A.parse("y"))
        with pytest.raises(ValueError, match="share their start"):
            project_path(other, eta_prime, gamma_prime)
        bad = trace_cayley(self.level, self.level.identity, A.parse("xX"))
        with pytest.raises(ValueError, match="eta must be reduced"):
            project_path(bad, eta_prime, gamma_prime)
        stray = trace_cayley(self.level, self.level.identity, A.parse("xx"))
        with pytest.raises(ValueError, match="traversed"):
            project_path(stray, eta_prime, gamma_prime)
        short = self.h.graph.trace(self.h.base, A.parse("y"))
        with pytest.raises(ValueError, match="same label"):
            project_path(eta_prime, eta_prime, short)


class TestCommonSpine:
    """The pinch's spine: the path from the identity to a vertex inside the
    component of the identity in the edges both paths cross."""

    @staticmethod
    def spine(p1, p2):
        omega = separators._component(p1, p2, p1.start)
        return separators._path_to(p1.level, omega, p1.end) if p1.end in omega else None

    def test_identical_spans_give_the_path(self):
        level = iterated_extension(KLEIN, []).top
        p = trace_cayley(level, level.identity, A.parse("xy"))
        assert self.spine(p, p).word == A.parse("xy")

    def test_disjoint_interior_bigon_has_no_spine(self):
        # xy and yx join 1 to the same Klein element along disjoint interiors
        level = iterated_extension(KLEIN, []).top
        p1 = trace_cayley(level, level.identity, A.parse("xy"))
        p2 = trace_cayley(level, level.identity, A.parse("yx"))
        assert p1.end == p2.end
        assert self.spine(p1, p2) is None

    def test_spine_within_overlapping_spans(self):
        level = iterated_extension(KLEIN, []).top
        p1 = trace_cayley(level, level.identity, A.parse("xxy"))
        p2 = trace_cayley(level, level.identity, A.parse("xxy"))
        spine = self.spine(p1, p2)
        assert (spine.start, spine.end) == (p1.start, p1.end)


class TestComponentAgainstSortedSearch:
    """The pinch's closure-based component of the edges two paths share
    visits, and links, exactly as the sorted-adjacency search does."""

    def test_same_order_and_back_pointers(self):
        rng = random.Random(3001)
        chains = [iterated_extension(KLEIN, [p, q]) for p in (2, 3) for q in (2, 3)]
        letters = A.letters()
        grown = 0
        for _ in range(400):
            level = rng.choice(chains).levels[rng.randint(0, 2)]
            w1 = random_reduced(rng, 0, 10)
            tail = random_reduced(rng, 0, 8)
            eta1 = trace_cayley(level, level.identity, w1)
            eta2 = trace_cayley(level, level.identity,
                                free_reduce(w1[:rng.randint(0, len(w1))] + tail))
            if rng.random() < 0.5:
                eta2 = eta2.reversed()
            assert eta2.reversed().edges == eta2.edges
            common = {k: e for k, e in eta1.edges.items() if k in eta2.edges}
            expected = sorted_search(common, level.identity)
            got = separators._component(eta1, eta2, level.identity)
            assert [(v, b and (b[0], letters[b[1]])) for v, b in got.items()] == \
                list(expected.items())
            grown += len(got) > 2
        assert grown > 100


class TestImageSubgroup:
    def test_no_generators(self):
        level = iterated_extension(KLEIN, []).top
        img = image_subgroup(level, [])
        assert img == {level.identity: None}

    def test_trivial_image_collapses(self):
        group = XGroup(A, [(1, 0), (0, 1)])  # x swap, y trivial
        level = iterated_extension(group, []).top
        img = image_subgroup(level, [A.parse("xx")])
        assert set(img) == {level.identity}

    def test_cap(self):
        level = iterated_extension(KLEIN, [2]).top
        with pytest.raises(CapExceeded):
            image_subgroup(level, [A.parse("x"), A.parse("y")], cap=4)


class TestProductSeparator:
    def test_non_member_excluded(self):
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"))
        assert wit.excluded is True
        assert wit.product_size is not None

    def test_member_not_excluded(self):
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"))
        assert wit.excluded is False

    def test_single_factor_reduces_to_hall(self):
        wit = product_separator(A, [[A.parse("xyXY"), A.parse("yy")]], A.parse("xyX"))
        assert wit.excluded is True
        assert wit.primes == ()

    def test_partial_when_capped(self):
        wit = product_separator(A, [[A.parse("x"), A.parse("y")], [A.parse("yy")]],
                                A.parse("xy"), cap=8)
        assert wit.product_size is None
        assert wit.excluded is None

    def test_excluded_with_product_too_large_to_size(self):
        # the images enumerate under the cap but their product bound does not
        wit = product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"),
                                cap=3)
        assert wit.excluded is True
        assert wit.product_size is None
        text = emit_certificate(wit)
        assert "status: excluded" in text
        assert "product size:" not in text
        ok, _ = verify_certificate(parse_certificate(text))
        assert ok

    def test_three_factor_product_over_cap_is_decided(self):
        # every image fits under the cap, and the fibre search decides although
        # the product of the image orders, 512, does not fit
        H = [[A.parse("X")], [A.parse("Yx")], [A.parse("x")]]
        wit = product_separator(A, H, A.parse("XY"), cap=20)
        assert wit.status == "member"
        assert wit.image_sizes == (8, 8, 8)
        assert wit.product_size is None
        assert member_product([stallings_graph(A, g) for g in H], A.parse("XY"))
        ok, _ = verify_certificate(parse_certificate(emit_certificate(wit)))
        assert ok

    def test_three_factor_image_over_cap_is_undecided(self):
        H = [[A.parse("X")], [A.parse("Yx")], [A.parse("x")]]
        wit = product_separator(A, H, A.parse("XY"), cap=4)
        assert wit.excluded is None
        assert wit.image_sizes is None and wit.product_size is None
        text = emit_certificate(wit)
        assert "status: partial" in text
        ok, _ = verify_certificate(parse_certificate(text))
        assert ok

    @staticmethod
    def record_enumeration(monkeypatch):
        """The subgroups of each _image_product call, as the construction
        makes them.  The library has no function that lists one image."""
        products = []
        image_product = separators._image_product

        def multiplied(level, subgroups, cap):
            products.append([tuple(g) for g in subgroups])
            return image_product(level, subgroups, cap)

        monkeypatch.setattr(separators, "_image_product", multiplied)
        return products

    def test_the_search_enumerates_no_image(self, monkeypatch):
        products = self.record_enumeration(monkeypatch)
        x, y, xx, yy = (A.parse(t) for t in ("x", "y", "xx", "yy"))
        # image orders (2,), (4, 2), (2, 16), (2, 2), (4, 12, 8) and (8, 16, 4);
        # under this cap no three-factor product is sized, which would list it
        for subgroups in ([[x]], [[x], [xx]], [[xx], [x, y]], [[xx], [yy]],
                          [[xx], [y], [x]], [[x], [y], [xx]]):
            products.clear()
            assert product_separator(A, subgroups, A.parse("xy"),
                                     cap=300).excluded is not None
            assert products == []
        # images (8, 8, 8) under cap 20: decided, with no product sized
        H = [[A.parse("X")], [A.parse("Yx")], [A.parse("x")]]
        assert product_separator(A, H, A.parse("XY"), cap=20).status == "member"
        assert products == []
        # with four, image orders (16, 16, 8, 8) and (8, 16, 16, 8): the
        # product of the orders passes the cap, so nothing is listed
        for subgroups, status in [([[x], [y], [xx], [yy]], "member"),
                                  ([[xx], [y], [x], [yy]], "excluded")]:
            products.clear()
            wit = product_separator(A, subgroups, A.parse("xy"), cap=4096)
            assert wit.status == status and wit.product_size is None
            assert member_product([stallings_graph(A, g) for g in subgroups],
                                  A.parse("xy")) == (status == "member")
            assert products == []

    def test_unseeded_factorize_enumerates_no_image(self, monkeypatch):
        products = self.record_enumeration(monkeypatch)
        x, y, xx, yy = (A.parse(t) for t in ("x", "y", "xx", "yy"))
        # every word is a member; its seeds come from the product automaton
        for subgroups, w in [([[x], [xx]], "xxx"), ([[xx], [yy]], "xxyy"),
                             ([[xx], [x, y]], "xxy"), ([[xx], [y], [x]], "xxyx"),
                             ([[x], [y], [xx]], "xyxx")]:
            cert = factorize(A, subgroups, A.parse(w), cap=300)
            assert cert is not None
            assert verify_certificate(cert)[0]
        assert products == []

    def test_sizing_three_factors_enumerates_each_image_once(self, monkeypatch):
        products = self.record_enumeration(monkeypatch)
        x, y, xx = (A.parse(t) for t in ("x", "y", "xx"))
        # image orders 4, 12 and 8: sizing walks the product through each
        # image's generators once
        wit = product_separator(A, [[xx], [y], [x]], A.parse("xy"))
        assert products == [[(xx,), (y,), (x,)]]
        monkeypatch.undo()
        top = ExtensionChain(wit.group, wit.primes).top
        images = [image_subgroup(top, g) for g in ([xx], [y], [x])]
        assert wit.image_sizes == (4, 12, 8)
        assert wit.product_size == len(reference_product(top, images))

    def test_three_one_generator_factors_excluded_quickly(self):
        # each image lists under a second, but their product's level-2
        # elements are long: enumerating it took over a minute
        H = [[A.parse("Y")], [A.parse("yxxy")], [A.parse("yyx")]]
        start = time.perf_counter()
        wit = product_separator(A, H, A.parse("Xy"), cap=4096)
        assert time.perf_counter() - start < 10
        assert emit_certificate(wit).endswith(
            "status: excluded\nimage size 1: 80\nimage size 2: 60\nimage size 3: 48\n")

    def test_prime_list_length_enforced(self):
        with pytest.raises(ValueError):
            product_separator(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy"),
                              primes=(2, 2))


class TestFactorize:
    def test_single_subgroup(self):
        f = factorize(A, [[A.parse("xx"), A.parse("y")]], A.parse("xxy"))
        assert f.factors == (A.parse("xxy"),)
        assert factorize(A, [[A.parse("xx")]], A.parse("x")) is None

    def test_seeds_already_multiplying_to_word(self):
        f = factorize(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"),
                      seeds=[A.parse("xx"), A.parse("yy")])
        assert f.factors == (A.parse("xx"), A.parse("yy"))

    def test_invalid_seeds_rejected(self):
        with pytest.raises(ValueError, match="not in its subgroup"):
            factorize(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"),
                      seeds=[A.parse("x"), A.parse("yy")])
        with pytest.raises(ValueError, match="does not match"):
            factorize(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"),
                      seeds=[A.parse("xxxx"), A.parse("yy")])

    def test_three_seeds_checked_at_the_top_level(self):
        # the middle seed times a subgroup loop trivial at level 1 but not
        # at level 2: only the top of the chain tells the products apart
        H = [[A.parse("xx"), A.parse("y")], [A.parse("yy"), A.parse("x")],
             [A.parse("x"), A.parse("y")]]
        parts = [A.parse("xxy"), A.parse("xyy"), A.parse("yx")]
        w = free_reduce(parts[0] + parts[1] + parts[2])
        ctx = _build_context(A, H, w, None)
        chain = ctx.chain
        assert len(chain.levels) == 3
        u = kernel_loop_word(ctx.pointed[1], chain.levels[1])
        assert u is not None and chain.top.evaluate(u) != chain.top.identity
        seeds = [parts[0], free_reduce(parts[1] + u), parts[2]]
        assert contains(ctx.pointed[1], seeds[1])
        assert chain.levels[1].evaluate(seeds[0] + seeds[1] + seeds[2]) == \
            chain.levels[1].evaluate(w)
        with pytest.raises(ValueError, match="does not match"):
            factorize(A, H, w, seeds=seeds)
        assert factorize(A, H, w, seeds=parts) is not None

    def test_seeds_checked_with_one_subgroup(self):
        H = [[A.parse("xx")]]
        w = A.parse("xxxx")
        assert factorize(A, H, w, seeds=[A.parse("xx")]).factors == (w,)
        with pytest.raises(ValueError, match="need 1 seeds, got 2"):
            factorize(A, H, w, seeds=[A.parse("y"), A.parse("y")])
        with pytest.raises(ValueError, match="not in its subgroup"):
            factorize(A, H, w, seeds=[A.parse("y")])

    def test_scrambled_seeds_still_factor(self):
        H1 = [A.parse("xyXY"), A.parse("yy")]
        H2 = [A.parse("xx")]
        h1 = free_reduce(A.parse("xyXY") + A.parse("yy"))
        h2 = A.parse("xx")
        w = free_reduce(h1 + h2)
        ctx = _build_context(A, [H1, H2], w, None)
        u = kernel_loop_word(ctx.pointed[0], ctx.chain.top)
        assert u is not None and contains(ctx.pointed[0], u)
        stats = FactorizeStats()
        f = factorize(A, [H1, H2], w, seeds=[free_reduce(h1 + u), h2], stats=stats)
        assert stats.spines >= 1
        product = ()
        for x in f.factors:
            product += x
        assert free_reduce(product) == w
        assert contains(ctx.pointed[0], f.factors[0])
        assert contains(ctx.pointed[1], f.factors[1])

    def test_search_finds_seeds(self):
        f = factorize(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xxyy"))
        assert f is not None

    def test_non_member_returns_none(self):
        assert factorize(A, [[A.parse("xx")], [A.parse("yy")]], A.parse("xy")) is None

    def test_three_factors_with_cut(self):
        stats = FactorizeStats()
        H = [[A.parse("xx"), A.parse("y")], [A.parse("yy"), A.parse("x")],
             [A.parse("x"), A.parse("y")]]
        parts = [A.parse("xxy"), A.parse("xyy"), A.parse("yx")]
        w = free_reduce(parts[0] + parts[1] + parts[2])
        f = factorize(A, H, w, seeds=parts, stats=stats)
        assert stats.cuts >= 1
        product = ()
        for x in f.factors:
            product += x
        assert free_reduce(product) == w
        for gens, factor in zip(H, f.factors):
            assert contains(stallings_graph(A, gens), factor)

    def test_quotient_monotonicity(self):
        # a found factorization maps into the image product in the chain
        H = [[A.parse("xx")], [A.parse("yy")]]
        w = A.parse("xxyy")
        ctx = _build_context(A, H, w, None)
        f = factorize(A, H, w)
        top = ctx.chain.top
        img = top.identity
        for factor in f.factors:
            img = top.mult(img, top.evaluate(factor))
        assert img == top.evaluate(w)

    def test_oracle_agreement_randomized(self):
        # None means exactly "not in the product": by the rational oracle,
        # and by product_separator's fibre search wherever it decides
        rng = random.Random(229)
        outcomes = set()
        for n, count, cap in ((2, 15, 30000), (3, 24, 2000)):
            for _ in range(count):
                subgroups = [random_gens(rng, max_gens=2, max_len=6 - n) for _ in range(n)]
                w = random_reduced(rng, 0, 6)
                if n == 3 and rng.random() < 0.5:
                    w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
                hs = [stallings_graph(A, g) for g in subgroups]
                f = factorize(A, subgroups, w, cap=cap)
                assert (f is None) == (not member_product(hs, w))
                if f is not None:
                    assert verify_certificate(f)[0]
                excluded = product_separator(A, subgroups, w, cap=cap).excluded
                if excluded is not None:
                    assert excluded == (f is None)
                outcomes.add((n, f is None, excluded))
        assert {(n, none) for n, none, _ in outcomes} == {
            (n, none) for n in (2, 3) for none in (True, False)}
        assert {excluded for _, _, excluded in outcomes} == {True, False, None}


class TestPinchErrors:
    """What the pinch and its premise raise: input faults are ValueError,
    broken invariants InternalInvariantError."""

    H = [[A.parse("xx")], [A.parse("yy")]]

    def test_failed_projection_is_an_internal_fault(self, monkeypatch):
        spine_doubling_back(monkeypatch)
        with pytest.raises(InternalInvariantError, match="eta must be reduced"):
            factorize(A, self.H, A.parse("xxyy"))
        with pytest.raises(InternalInvariantError, match="eta must be reduced"):
            factorize(A, self.H, A.parse("xxyy"), seeds=[A.parse("xx"), A.parse("yy")])
        # the public projection still reports its precondition as bad input
        level = _build_context(A, self.H, A.parse("xxyy"), None).chain.levels[0]
        bad = trace_cayley(level, level.identity, (1, -1))
        gamma = LabeledGraph(A, 1, [(0, 0, 1)]).trace(0, (1, -1))
        with pytest.raises(ValueError, match="eta must be reduced"):
            project_path(bad, bad, gamma)

    @pytest.mark.parametrize("n, primes", [(2, (3,)), (3, (2, 2)), (3, (3, 2))])
    def test_seeds_agreeing_one_level_down_are_bad_input(self, n, primes):
        # the seeds agree with the word at level n-2 but not at the top
        H = [[A.parse("xx"), A.parse("y")], [A.parse("yy"), A.parse("x")],
             [A.parse("x"), A.parse("y")]][3 - n:]
        parts = [A.parse("xxy"), A.parse("xyy"), A.parse("yx")][3 - n:]
        w = free_reduce(sum(parts, ()))
        ctx = _build_context(A, H, w, primes)
        chain = ctx.chain
        u = kernel_loop_word(ctx.pointed[0], chain.levels[n - 2])
        seeds = [free_reduce(parts[0] + u)] + parts[1:]
        assert contains(ctx.pointed[0], seeds[0])
        below, top = chain.levels[n - 2], chain.top
        assert below.evaluate(sum(seeds, ())) == below.evaluate(w)
        assert top.evaluate(sum(seeds, ())) != top.evaluate(w)
        with pytest.raises(ValueError, match="does not match"):
            factorize(A, H, w, seeds=seeds, primes=primes)
        assert factorize(A, H, w, seeds=parts, primes=primes) is not None

    def test_unseeded_premise_failure_is_an_internal_fault(self, monkeypatch):
        monkeypatch.setattr(separators, "_search_seeds",
                            lambda ctx, cap: (A.parse("xxxx"), A.parse("yy")))
        with pytest.raises(InternalInvariantError) as info:
            factorize(A, self.H, A.parse("xxyy"))
        assert not isinstance(info.value, ValueError)

    @staticmethod
    def random_chain(rng):
        base = rng.choice([KLEIN, XGroup(A, [(1, 0), (1, 0)]),
                           XGroup(A, [(1, 2, 0), (1, 0, 2)])])
        return iterated_extension(base, [rng.choice((2, 3, 5))
                                         for _ in range(rng.randint(1, 3))])

    @staticmethod
    def relator(rng, level):
        """A word trivial at level: a random word to the power of its order."""
        u = random_reduced(rng, 1, 3) or (1,)
        e = level.evaluate(u)
        power, k = e, 1
        while power != level.identity:
            power, k = level.mult(power, e), k + 1
        return u * k

    def test_walk_premise_matches_evaluate(self):
        # the premise read off the walk against the product at level m-1
        rng = random.Random(2203)
        bouquet = stallings_graph(A, [A.parse("x"), A.parse("y")]).graph
        seen = set()
        for _ in range(240):
            chain = self.random_chain(rng)
            m = rng.randint(2, len(chain.levels))
            labels = [random_reduced(rng, 0, 4) for _ in range(m)]
            kind = rng.choice(("closes", "random", "closes below"))
            if kind != "random":
                labels[-1] = invert(free_reduce(sum(labels[:-1], ())))
            if kind == "closes below":
                labels[0] = labels[0] + self.relator(rng, chain.levels[m - 2])
            items = [bouquet.trace(0, lab) for lab in labels]
            etas, fault = separators._walk(chain, items)
            concat = sum(labels, ())
            top, below = chain.levels[m - 1], chain.levels[m - 2]
            holds = top.evaluate(concat) == top.identity
            assert (fault is None) == holds
            closes = below.evaluate(concat) == below.identity
            assert (fault == "tip-to-tail paths do not close up") == (not closes)
            assert [eta.word for eta in etas] == labels
            if not holds:
                with pytest.raises(InternalInvariantError, match=fault):
                    separators._pinch(chain, items)
            seen.add((closes, holds))
        assert seen == {(False, False), (True, False), (True, True)}


class TestSeedsFromTheProductAutomaton:
    """Unseeded factorize reads its seeds off one accepting run of the
    saturated product automaton; plain ``accepts`` is the reference."""

    @staticmethod
    def assert_seeds(ctx, seeds):
        assert len(seeds) == len(ctx.pointed)
        assert all(contains(h, s) for h, s in zip(ctx.pointed, seeds))
        assert free_reduce(sum(seeds, ())) == ctx.word

    def test_seeds_exactly_when_accepted(self):
        rng = random.Random(7)
        seen = set()
        for i in range(400):
            n = rng.randint(1, 4)
            subgroups = [random_gens(rng, max_gens=3, max_len=4) for _ in range(n)]
            w = random_reduced(rng, 0, 8)
            if i % 2:
                w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
            ctx = _build_context(A, subgroups, w, None)
            seeds = separators._search_seeds(ctx, 10 ** 6)
            accepted = accepts(cancellation_closure(product_automaton(ctx.pointed)),
                               ctx.word)
            assert (seeds is not None) == accepted
            if seeds is not None:
                self.assert_seeds(ctx, seeds)
                if i % 8 < 2:
                    f = factorize(A, subgroups, w)
                    assert verify_certificate(f)[0]
                    # the found seeds are pinched as given seeds would be
                    assert f.factors == factorize(A, subgroups, w, seeds=seeds).factors
            seen.add((n, accepted))
        assert seen == {(n, a) for n in (1, 2, 3, 4) for a in (True, False)}

    @pytest.mark.parametrize("k", [30, 100])
    def test_long_power_is_factored_quickly(self, k):
        # H = <y x^k>, <x^k>, w = y: the image search took 0.6 s at k = 30,
        # and its memory ran out at k = 100
        H = [[A.parse("y" + "x" * k)], [A.parse("x" * k)]]
        with within(2):
            f = factorize(A, H, A.parse("y"))
        assert f.factors == (A.parse("y" + "x" * k), A.parse("X" * k))
        assert verify_certificate(f)[0]

    def test_three_factor_repro_is_factored_quickly(self):
        # the image search gave up (None) here after half a minute
        H = [[A.parse("XYxYY")], [A.parse("Xyxxy")], [A.parse("xxxxY")]]
        with within(2):
            f = factorize(A, H, A.parse("XYxYYXYxYYXyxxyXyxxyxxxxY"), cap=2000)
        assert [A.format(x) for x in f.factors] == ["XYxYYXYxYY", "XyxxyXyxxy", "xxxxY"]
        assert verify_certificate(f)[0]

    def test_deep_cancellation_unfolds_without_recursion(self):
        # the run's epsilon pair stands for x^k x^-k, nested k deep
        k = 1500
        assert k > sys.getrecursionlimit()
        H = [[A.parse("y" + "x" * k)], [A.parse("x" * k)]]
        ctx = _build_context(A, H, A.parse("y"), None)
        with within(2):
            seeds = separators._search_seeds(ctx, 10 ** 6)
        assert seeds == (A.parse("y" + "x" * k), A.parse("X" * k))
        self.assert_seeds(ctx, seeds)

    def test_cap_bounds_the_product_automaton(self):
        H = [[A.parse("y" + "x" * 30)], [A.parse("x" * 30)]]
        with pytest.raises(CapExceeded, match="^product automaton has more than 5 "):
            factorize(A, H, A.parse("y"), cap=5)
        assert member_product([stallings_graph(A, g) for g in H], A.parse("y"))


class TestKernelLoopWord:
    def test_kernel_word_is_in_subgroup_with_trivial_image(self):
        gens = [A.parse("xyXY"), A.parse("yy")]
        ctx = _build_context(A, [gens, [A.parse("xx")]], A.parse("xx"), None)
        u = kernel_loop_word(ctx.pointed[0], ctx.chain.top)
        assert u
        assert contains(ctx.pointed[0], u)
        assert ctx.chain.top.evaluate(u) == ctx.chain.top.identity

    def test_trivial_subgroup_has_none(self):
        ctx = _build_context(A, [[()], [A.parse("x")]], A.parse("x"), None)
        assert kernel_loop_word(ctx.pointed[0], ctx.chain.top) is None


class TestImageSubgroupOrder:
    def test_matches_enumeration_on_small_cases(self):
        from prodsep.separators import image_subgroup_order
        rng = random.Random(241)
        for _ in range(25):
            gens = random_gens(rng, max_gens=2, max_len=4)
            chain = iterated_extension(KLEIN, [2])
            try:
                order = image_subgroup_order(chain.top, gens, cap=50000)
            except CapExceeded:
                continue
            assert order == len(image_subgroup(chain.top, gens, cap=50000))

    def test_base_level_matches(self):
        from prodsep.separators import image_subgroup_order
        level = iterated_extension(KLEIN, []).top
        gens = [A.parse("xx"), A.parse("xyX")]
        assert image_subgroup_order(level, gens) == len(image_subgroup(level, gens))

    def test_cap_raises_before_enumerating(self):
        from prodsep.separators import image_subgroup_order
        chain = iterated_extension(KLEIN, [2])
        with pytest.raises(CapExceeded):
            image_subgroup_order(chain.top, [A.parse("x"), A.parse("y")], cap=100)

    def test_two_level_chain(self):
        from prodsep.separators import image_subgroup_order
        z2 = XGroup(Alphabet("x"), [(1, 0)])
        chain = iterated_extension(z2, [2, 2])
        gens = [Alphabet("x").parse("x")]
        order = image_subgroup_order(chain.top, gens, cap=10 ** 6)
        assert order == len(image_subgroup(chain.top, gens, cap=10 ** 6))


def test_three_factor_scramble_stress_cuts_and_verifies():
    # seeds scrambled by a kernel loop: each factorization cuts once, and
    # every one verifies
    rng = random.Random(777)
    pool = [["x", "y"], ["xx", "y", "xyX"], ["yy", "x", "yxY"],
            ["xx", "yy", "xy"], ["xx", "yy", "xY"]]
    total = FactorizeStats()
    for _ in range(60):
        subgroups = [[A.parse(t) for t in rng.choice(pool)] for _ in range(3)]
        parts = [subgroup_word(rng, gens, 3) for gens in subgroups]
        w = free_reduce(parts[0] + parts[1] + parts[2])
        ctx = _build_context(A, subgroups, w, None)
        u = kernel_loop_word(ctx.pointed[0], ctx.chain.top, cap=3000)
        seeds = [free_reduce(parts[0] + u) if u else parts[0], parts[1], parts[2]]
        stats = FactorizeStats()
        cert = factorize(A, subgroups, w, seeds=seeds, stats=stats)
        assert cert is not None
        assert verify_certificate(cert)[0]
        total.cuts += stats.cuts
    assert total.cuts == 60


def reference_product(level, images):
    """The set product by the plain loop, each element with its factor witnesses."""
    out = {level.identity: ()}
    for img in images:
        nxt = {}
        for pe, pw in out.items():
            for ae, aw in img.items():
                nxt.setdefault(level.mult(pe, ae), pw + (aw,))
        out = nxt
    return out


def reference_member(level, images, target):
    """The meet-in-the-middle witness by the plain left-side loop."""
    mid = max(1, len(images) // 2)
    left = reference_product(level, images[:mid])
    right = reference_product(level, images[mid:])
    for l, lwits in left.items():
        rwits = right.get(level.mult(level.inv(l), target))
        if rwits is not None:
            return lwits + rwits
    return None


def chain_levels():
    """Every level of 1- and 2-prime chains over two small groups, p in {2, 3}."""
    z2 = XGroup(A, [(1, 0), (1, 0)])
    out = []
    for base in (KLEIN, z2):
        for primes in ((2,), (3,), (2, 2), (3, 2), (2, 3)):
            out.extend(iterated_extension(base, primes).levels)
    return out


class TestImageStructure:
    """The structure against the enumerated image, which is the reference."""

    def test_order_and_membership_match_enumeration(self):
        rng = random.Random(307)
        checked = outside = 0
        for level in chain_levels():
            for _ in range(6):
                gens = random_gens(rng, max_gens=2, max_len=4)
                try:
                    image = image_subgroup(level, gens, cap=1500)
                except CapExceeded:
                    with pytest.raises(CapExceeded):
                        image_structure(level, gens, cap=1500)
                    continue
                st = image_structure(level, gens, cap=1500)
                assert st.order == len(image)
                assert all(elem in st for elem in image)
                for _ in range(40):
                    if rng.random() < 0.3:
                        w = subgroup_word(rng, gens, 4)
                    else:
                        w = random_reduced(rng, 0, 8)
                    elem = level.evaluate(w)
                    assert (elem in st) == (elem in image)
                    outside += elem not in image
                checked += 1
        assert checked >= 40
        assert outside > 100

    def test_base_level_structure_is_the_closure(self):
        st = image_structure(KLEIN, [A.parse("x")])
        assert st.basis == {} and st.vectors is None
        assert set(st.lifts) == set(image_subgroup(KLEIN, [A.parse("x")]))
        assert KLEIN.evaluate(A.parse("X")) in st
        assert KLEIN.evaluate(A.parse("y")) not in st

    def test_cap(self):
        level = iterated_extension(KLEIN, [2]).top
        with pytest.raises(CapExceeded):
            image_structure(level, [A.parse("x"), A.parse("y")], cap=100)

    def test_base_level_closes_under_the_images_alone(self):
        """At level 0 the closure under the generator images has the key set
        and the cap failure of the closure under each image and its inverse."""
        rng = random.Random(317)
        listed = capped = 0
        for _ in range(80):
            c = rng.randint(1, 7)
            group = XGroup(A, [tuple(rng.sample(range(c), c)) for _ in range(2)])
            gens = random_gens(rng, max_gens=2, max_len=4)
            cap = rng.choice((4, 16, 100))
            try:
                image = image_subgroup(group, gens, cap)
            except CapExceeded as e:
                with pytest.raises(CapExceeded, match=str(e)):
                    image_structure(group, gens, cap)
                capped += 1
                continue
            st = image_structure(group, gens, cap)
            assert st.lifts.keys() == image.keys() and st.order == len(image)
            listed += 1
        assert listed >= 30 and capped >= 10


class TestOneEndedWalk:
    """image_structure meets each edge once; the two-ended walk is the oracle."""

    @staticmethod
    def draws(rng, count):
        """(level, generators) at levels 1 and 2 over small groups, p in {2, 3, 5}."""
        z2 = XGroup(A, [(1, 0), (1, 0)])
        s3 = XGroup(A, [(1, 0, 2), (0, 2, 1)])
        for _ in range(count):
            base = rng.choice((KLEIN, z2, s3))
            primes = tuple(rng.choice((2, 3, 5)) for _ in range(rng.randint(1, 2)))
            gens = [random_reduced(rng, 0, 4) for _ in range(rng.randint(1, 3))]
            yield iterated_extension(base, primes).top, gens

    def test_same_structure_as_the_two_ended_walk(self):
        rng = random.Random(1201)
        kinds, checked = set(), 0
        for level, gens in self.draws(rng, 160):
            try:
                st = image_structure(level, gens, cap=3000)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    two_ended_image_structure(level, gens, cap=3000)
                continue
            ref = two_ended_image_structure(level, gens, cap=3000)
            if level.prime == 2:
                # bits against the oracle's dicts: the pivots follow the
                # column table, so the rows agree as a span
                assert_same_image(level, st, ref)
            else:
                assert st.lifts == ref.lifts and st.basis == ref.basis
            assert st.order == ref.order
            kinds.add((level.prime, isinstance(level.below, XGroup), bool(st.basis)))
            checked += 1
        assert checked >= 100
        assert {p for p, _, _ in kinds} == {2, 3, 5}
        assert {one for _, one, _ in kinds} == {True, False}
        assert {rows for _, _, rows in kinds} == {True, False}

    def test_same_cap_message_as_the_two_ended_walk(self):
        rng = random.Random(1213)
        refused = set()
        for level, gens in self.draws(rng, 160):
            cap = rng.choice((4, 16, 64, 256))
            try:
                image_structure(level, gens, cap=cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as ref:
                    two_ended_image_structure(level, gens, cap=cap)
                assert str(exc) == str(ref.value)
                refused.add(int(str(exc).rsplit("^", 1)[1]) > 0)
            else:
                two_ended_image_structure(level, gens, cap=cap)
        # refusals occur at rank 0 and at rank > 0
        assert refused == {True, False}

    def test_reduces_each_non_tree_edge_once(self, monkeypatch):
        # k generator images over |A'| elements give |A'| k edges; the walk
        # reduces all but the |A'| - 1 tree edges, and a self-loop edge
        # from both of its steps
        calls = []
        for vectors in (separators._KeyVectors, separators._BitVectors):
            monkeypatch.setattr(vectors, "reduce",
                                lambda *args, reduce_=vectors.reduce:
                                calls.append(1) or reduce_(*args))
        rng = random.Random(1223)
        checked = loops_seen = 0
        for level, gens in self.draws(rng, 160):
            calls.clear()
            try:
                st = image_structure(level, gens, cap=3000)
            except CapExceeded:
                continue
            images = separators._generator_steps(level, gens)
            n, k = len(st.lifts), len(images)
            loops = sum(level.below.mult(b, g) == b for b in st.lifts for _, g in images)
            assert len(calls) == n * k - n + 1 + loops
            checked += 1
            loops_seen += loops > 0
        assert checked >= 100 and loops_seen > 10


class TestBitStructuresAgainstDicts:
    """At p = 2 the structures hold int bitmasks over the level's column
    table; the dict oracle (the two-ended walk) holds the same image."""

    @staticmethod
    def levels(rng, count):
        """(level, generators) at levels 1 and 2 over small groups, top prime 2."""
        z2 = XGroup(A, [(1, 0), (1, 0)])
        s3 = XGroup(A, [(1, 0, 2), (0, 2, 1)])
        for _ in range(count):
            base = rng.choice((KLEIN, z2, s3))
            primes = (rng.choice((2, 3)),) * rng.randint(0, 1) + (2,)
            gens = [random_reduced(rng, 0, 4) for _ in range(rng.randint(1, 3))]
            yield iterated_extension(base, primes).top, gens

    def test_same_order_lifts_span_and_refusal(self):
        rng = random.Random(2701)
        kinds, refused = set(), 0
        for level, gens in self.levels(rng, 200):
            cap = rng.choice((16, 256, 3000))
            try:
                st = image_structure(level, gens, cap=cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as ref:
                    two_ended_image_structure(level, gens, cap=cap)
                assert str(exc) == str(ref.value)
                refused += 1
                continue
            assert isinstance(st.vectors, separators._BitVectors)
            assert_same_image(level, st, two_ended_image_structure(level, gens, cap=cap))
            kinds.add((isinstance(level.below, XGroup), bool(st.basis)))
        assert refused >= 20
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_membership_agrees(self):
        rng = random.Random(2703)
        outside = 0
        for level, gens in self.levels(rng, 60):
            try:
                st = image_structure(level, gens, cap=3000)
            except CapExceeded:
                continue
            ref = two_ended_image_structure(level, gens, cap=3000)
            for _ in range(20):
                if rng.random() < 0.4:
                    w = subgroup_word(rng, gens, 3)
                else:
                    w = random_reduced(rng, 0, 8)
                elem = level.evaluate(w)
                assert (elem in st) == (elem in ref)
                outside += elem not in ref
        assert outside > 100

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fibre_search_against_enumeration(self, n):
        """True or False exactly as the enumeration says, on bit structures
        and on the dict oracle's."""
        rng = random.Random(2710 + n)
        decided = set()
        for _ in range(80):
            subgroups = [random_gens(rng, max_gens=2, max_len=4) for _ in range(n)]
            w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
            if rng.random() < 0.5:
                w = random_reduced(rng, 0, 8)
            group = _build_context(A, subgroups[:2], w, (2,) * min(n - 1, 1)).chain.levels[0]
            level = ExtensionLevel(group, 2)
            try:
                structures = [image_structure(level, g, 1000) for g in subgroups]
            except CapExceeded:
                continue
            target = level.evaluate(w)
            images = [image_subgroup(level, g, 1000) for g in subgroups]
            member = _product_member(level, images, target, 10 ** 6)
            assert separators._fibre_search(level, structures, target) is member
            oracle = [two_ended_image_structure(level, g, 1000) for g in subgroups]
            assert separators._fibre_search(level, oracle, target) is member
            decided.add(member)
        assert decided == {True, False}


class TestImageProduct:
    # three images: n = 3 sizes all of them at level 2, and n = 4 gates on
    # those other than an end factor at level 3
    @pytest.mark.parametrize("n, carrier, cap, min_listed",
                             [(3, 3, 2000, 10), (4, 2, 512, 4)], ids=["n3", "n4"])
    def test_stepped_listing_is_the_mult_closure(self, n, carrier, cap, min_listed):
        """_image_product steps each generator's letters; listing by each
        generator image with the general product gives the same keys, in
        the same order, and the same cap failure.  Closing also under each
        image's inverse gives the same key set and cap failure: the
        generators alone close a finite product."""
        def by_mult(level, subgroups, cap, steps_of=separators._generator_steps):
            out = {level.identity: None}
            for gens in subgroups:
                steps = steps_of(level, gens)
                out = separators.closure(out, steps, level.mult, cap, "product image")
            return out

        rng = random.Random(f"image-product/{n}")
        listed = capped = 0
        for _ in range(30):
            c = rng.randint(1, carrier)
            group = XGroup(A, [tuple(rng.sample(range(c), c)) for _ in range(2)])
            top = ExtensionChain(group, (rng.choice((2, 3)),) * (n - 1)).top
            subgroups = [random_gens(rng, max_gens=2, max_len=5 - n) for _ in range(3)]
            try:
                expected = by_mult(top, subgroups, cap)
            except CapExceeded as e:
                with pytest.raises(CapExceeded, match=str(e)):
                    separators._image_product(top, subgroups, cap)
                with pytest.raises(CapExceeded, match=str(e)):
                    by_mult(top, subgroups, cap, steps_with_inverses)
                capped += 1
                continue
            listing = separators._image_product(top, subgroups, cap)
            assert list(listing) == list(expected)
            assert listing.keys() == by_mult(top, subgroups, cap, steps_with_inverses).keys()
            listed += 1
        assert listed >= min_listed and capped >= 1


class TestProductAgainstEnumeration:
    """product_separator's fibre search against the verifier's enumeration."""

    @staticmethod
    def against_enumeration(rng, n, count, cap, max_len, prime=2, members=False):
        """Decided and sized counts, the (excluded, end factor first) pairs,
        and which end fibre was at least 4 times the other ("first", "last").

        A fibre is an image's projection one level down.  Every image is
        listed and multiplied by the verifier's code (``certificates``).
        With three or more factors, unseeded ``factorize`` must find every
        member, and its factorization verify.  With members, every other
        word is a product of subgroup words.
        """
        decided = sized = 0
        seen, sized_firsts, skews = set(), set(), set()
        for _ in range(count):
            subgroups = [random_gens(rng, max_gens=2, max_len=max_len) for _ in range(n)]
            w = random_reduced(rng, 0, 6)
            if members and rng.random() < 0.5:
                w = free_reduce(sum((subgroup_word(rng, g, 1) for g in subgroups), ()))
            wit = product_separator(A, subgroups, w, primes=(prime,) * (n - 1), cap=cap)
            if wit.excluded is None:
                continue
            top = ExtensionChain(wit.group, wit.primes).top
            images = [image_subgroup(top, g, cap) for g in subgroups]
            assert wit.image_sizes == tuple(len(img) for img in images)
            member = _product_member(top, images, top.evaluate(wit.word), 10 ** 6)
            assert wit.excluded == (not member)
            if member and n >= 3:
                cert = factorize(A, subgroups, w, primes=wit.primes, cap=cap)
                assert cert is not None and verify_certificate(cert)[0]
            decided += 1
            seen.add((wit.excluded, len(images[0]) > len(images[-1])))
            if n >= 2:
                first, last = ({b for _, b in img} for img in (images[0], images[-1]))
                skews |= {"first"} if len(first) >= 4 * len(last) else set()
                skews |= {"last"} if len(last) >= 4 * len(first) else set()
            if wit.product_size is not None:
                assert wit.product_size == len(_product(top, images, 10 ** 6))
                sized += 1
                sized_firsts.add(len(images[0]) > len(images[-1]))
        return decided, sized, seen, sized_firsts, skews

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_two_factor_exclusion_and_size(self, prime):
        # at p = 2 a sign slip in the fibre test cancels; 3 and 5 expose it
        decided, sized, seen, _, skews = self.against_enumeration(random.Random(311), 2, 120,
                                                                  4096, 4, prime)
        assert decided >= 80 and sized >= 60
        # members and non-members, with the larger image first and second
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
        # the search walks the first fibre: also where it is at least 4 times
        # the last and at most a quarter of it (p = 5 draws only the latter)
        assert skews >= ({"first", "last"} if prime < 5 else {"last"})

    @pytest.mark.parametrize("prime", [3, 5])
    def test_unseeded_two_factor_factorizations_verify(self, prime):
        rng = random.Random(340 + prime)
        found = 0
        for _ in range(40):
            subgroups = [random_gens(rng, max_gens=2, max_len=3) for _ in range(2)]
            w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
            cert = factorize(A, subgroups, w, primes=(prime,), cap=4096)
            # every word is a member, so every one is factored
            assert cert is not None and verify_certificate(cert)[0]
            found += 1
        assert found == 40

    @pytest.mark.parametrize("n, count, cap, min_decided, min_sized",
                             [(1, 100, 4096, 90, 90), (3, 80, 300, 30, 8)],
                             ids=["n1", "n3"])
    def test_one_and_three_factor_exclusion_and_size(self, n, count, cap,
                                                     min_decided, min_sized):
        # the membership test t in A (n = 1) and the search over prefixes
        # (n = 3)
        decided, sized, seen, sized_firsts, _ = self.against_enumeration(
            random.Random(330 + n), n, count, cap, 3)
        assert decided >= min_decided and sized >= min_sized
        # members and non-members; for n >= 3 the end factor first and last,
        # among the sized draws too, so that sizing by E * rest and by
        # rest * E are each compared with the enumeration
        firsts = (False,) if n == 1 else (True, False)
        assert seen == {(e, first) for e in (True, False) for first in firsts}
        assert sized_firsts == set(firsts)

    @pytest.mark.parametrize("n, prime, cap, max_len, min_decided",
                             [(3, 3, 2000, 2, 15), (3, 5, 2000, 2, 8), (4, 2, 512, 1, 6)],
                             ids=["n3p3", "n3p5", "n4"])
    def test_prefix_search_against_enumeration(self, n, prime, cap, max_len, min_decided):
        # at p = 2 a sign slip in the search cancels; 3 and 5 expose it.  With
        # four factors the prefix is a pair and the first kernel is translated
        decided, _, seen, _, _ = self.against_enumeration(
            random.Random(330 + n + 10 * prime), n, 40 if n == 4 else 60, cap, max_len,
            prime, members=True)
        assert decided >= min_decided
        assert {excluded for excluded, _ in seen} == {True, False}

    @pytest.mark.parametrize("n, prime, count, cap", [(3, 3, 30, 400), (4, 2, 60, 64)])
    def test_prefix_search_finds_every_member(self, n, prime, count, cap):
        # a product of subgroup words is a member: the search, run on the
        # image structures without the cap gate, must find its image in the
        # product
        rng = random.Random(350 + 10 * n + prime)
        searched = 0
        for _ in range(count):
            subgroups = [random_gens(rng, max_gens=2, max_len=2) for _ in range(n)]
            w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
            top = _build_context(A, subgroups, w, (prime,) * (n - 1)).chain.top
            try:
                structures = [image_structure(top, g, cap) for g in subgroups]
            except CapExceeded:
                continue
            target = top.evaluate(w)
            assert separators._fibre_search(top, structures, target) is True
            searched += 1
        assert searched >= 10

    @staticmethod
    def four_factors_one_level_up(rng, prime, draws, max_len):
        """The search at the first extension level over the diagonal group of
        two covers, where four images stay small and the prefix's
        translated kernel is seen, against the enumeration; the set of
        verdicts seen."""
        decided = set()
        for _ in range(draws):
            subgroups = [random_gens(rng, max_gens=2, max_len=max_len) for _ in range(4)]
            w = free_reduce(sum((subgroup_word(rng, g, 2) for g in subgroups), ()))
            if rng.random() < 0.5:
                w = random_reduced(rng, 0, 8)
            group = _build_context(A, subgroups[:2], w, (2,)).chain.levels[0]
            level = ExtensionLevel(group, prime)
            try:
                structures = [image_structure(level, g, 2000) for g in subgroups]
            except CapExceeded:
                continue
            target = level.evaluate(w)
            images = [image_subgroup(level, g, 2000) for g in subgroups]
            member = separators._fibre_search(level, structures, target)
            assert member is _product_member(level, images, target, 10 ** 6)
            decided.add(member)
        return decided

    def test_four_factor_search_one_level_up(self):
        # translating the prefix's kernel wrongly fails here
        assert self.four_factors_one_level_up(random.Random(5), 2, 300, 5) == {True, False}

    def test_four_factor_search_one_level_up_at_p3(self):
        # the same with dict vectors, where a sign slip does not cancel
        assert self.four_factors_one_level_up(random.Random(7), 3, 150, 3) == {True, False}

    def test_product_member_witness_matches_reference(self):
        rng = random.Random(313)
        branches = set()
        for n in (2, 2, 3) * 12:
            subgroups = [random_gens(rng, max_gens=2, max_len=3) for _ in range(n)]
            parts = [subgroup_word(rng, gens, 2) for gens in subgroups]
            w = free_reduce(sum(parts, ()))
            if rng.random() < 0.3:
                w = random_reduced(rng, 0, 5)
            ctx = _build_context(A, subgroups, w, None)
            top = ctx.chain.top
            try:
                images = [image_subgroup(top, g, cap=1000) for g in ctx.subgroups]
            except CapExceeded:
                continue
            target = top.evaluate(ctx.word)
            got = _product_member(top, images, target, 10 ** 6)
            assert got == (reference_member(top, images, target) is not None)
            mid = max(1, n // 2)
            left = reduce(mul, (len(img) for img in images[:mid]), 1)
            right = reduce(mul, (len(img) for img in images[mid:]), 1)
            branches.add((left <= right, got))
        assert branches == {(True, True), (True, False), (False, True), (False, False)}
