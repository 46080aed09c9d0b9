"""Test-only helpers: small-scale word generators over subgroup graphs, the
enumeration oracle for product certificate claims, the image walk that
meets every edge from both ends, a time limit for code that could loop, and
a common spine that doubles back, to fault the pinch."""

import signal
from collections import deque
from contextlib import contextmanager

from prodsep import image_subgroup, separators
from prodsep.errors import CapExceeded
from prodsep.extensions import ExtensionChain
from prodsep.graphs import LabeledGraph
from prodsep.separators import (
    ImageStructure,
    _generator_steps,
    _reduce,
    _subtract,
    image_subgroup_order,
)
from prodsep.stallings import AttachedImmersion, PointedImmersion, build_wedge
from prodsep.words import free_reduce, invert, letter_sort_key


def folded_wedge(alphabet, generators):
    """The S(H) oracle: fold the wedge of the reduced, deduplicated
    generators with ``fold_all_tracked``."""
    words = list(dict.fromkeys(w for w in map(free_reduce, generators) if w))
    folded, vmap = build_wedge(alphabet, words).fold_all_tracked()
    return PointedImmersion(folded, vmap[0])


def assert_same_graph(got, expected):
    """Two pointed immersions agree byte for byte: vertex count, dart arrays
    (ids, edge order, orientations) and base."""
    assert got.graph.num_vertices == expected.graph.num_vertices
    assert got.graph._src == expected.graph._src
    assert got.graph._label == expected.graph._label
    assert got.base == expected.base


def glue_word(h, word):
    """The attach oracle: glue a fresh path labeled by the word so it ends
    at the base, then fold the whole glued graph with ``fold_all_tracked``."""
    w = free_reduce(word)
    if not w:
        return AttachedImmersion(h.graph, h.base, h.base)
    g = h.graph
    nv = g.num_vertices
    edges = list(g.geometric_edges())
    # fresh vertices nv .. nv+|w|-1 form the path; its last edge enters base
    prev = nv
    for i, l in enumerate(w):
        nxt = h.base if i == len(w) - 1 else nv + i + 1
        if l > 0:
            edges.append((prev, nxt, l))
        else:
            edges.append((nxt, prev, -l))
        prev = nxt
    folded, vmap = LabeledGraph(g.alphabet, nv + len(w), edges).fold_all_tracked()
    return AttachedImmersion(folded, vmap[h.base], vmap[nv])


def loop_words_up_to(h, max_len):
    """All nonempty reduced words of the subgroup with length <= max_len.

    Deterministic DFS over reduced loops at the base; exponential in
    max_len, intended as a small-scale oracle for tests.
    """
    g = h.graph
    out = []
    letters = sorted(g.alphabet.letters(), key=letter_sort_key)

    def walk(v, word):
        if len(word) >= max_len:
            return
        for l in letters:
            if word and l == -word[-1]:
                continue
            d = g.out_dart(v, l)
            if d is None:
                continue
            w = g.dst(d)
            nxt = word + (l,)
            if w == h.base:
                out.append(nxt)
            walk(w, nxt)

    walk(h.base, ())
    return out


def kernel_loop_word(h, level, cap=20000):
    """A nonempty subgroup word with trivial image at the chain level, or None.

    BFS over (graph vertex, image element) states from (base, identity);
    the first nonempty reduced cycle word is returned.  Used to scramble
    otherwise-true seeds in tests.
    """
    g = h.graph
    start = (h.base, level.identity)
    witness = {start: ()}
    queue = deque([start])
    letters = sorted(g.alphabet.letters(), key=letter_sort_key)
    while queue:
        state = queue.popleft()
        v, k = state
        for l in letters:
            d = g.out_dart(v, l)
            if d is None:
                continue
            nxt = (g.dst(d), level.mult(k, level.gen(l)))
            if nxt not in witness:
                if len(witness) >= cap:
                    return None
                witness[nxt] = witness[state] + (l,)
                queue.append(nxt)
            else:
                cycle = free_reduce(witness[state] + (l,) + invert(witness[nxt]))
                if cycle:
                    return cycle
    return None


def _product(level, images, cap):
    """The set of products a_1 ... a_k, a_i from the i-th image, capped."""
    if not images:
        return {level.identity}
    if len(images[0]) > cap:
        raise CapExceeded(f"product image has more than {cap} elements", limit=cap)
    out = set(images[0])
    for img in images[1:]:
        nxt = set()
        for a in out:
            for b in img:
                e = level.mult(a, b)
                if e not in nxt:
                    if len(nxt) >= cap:
                        raise CapExceeded(
                            f"product image has more than {cap} elements", limit=cap)
                    nxt.add(e)
        out = nxt
    return out


def _product_member(level, images, target, cap):
    """Does target lie in the product of the images?  Meet in the middle.

    The products of the two halves of the factor list are listed, and
    the search loops over the smaller one.
    """
    mid = max(1, len(images) // 2)
    left = _product(level, images[:mid], cap)
    right = _product(level, images[mid:], cap)
    if len(left) <= len(right):
        return any(level.mult(level.inv(l), target) in right for l in left)
    return any(level.mult(target, level.inv(r)) in left for r in right)


def enumerated_claims(group, primes, subgroups, word, cap, sized=True):
    """(image orders, product size, member) of a product of any factor count.

    Every image is listed (`image_subgroup`), membership is the
    meet-in-the-middle (`_product_member`), two images are sized by the
    intersection of their key sets and three or more by the listed product
    (`_product`), or not at all, the size None, unless sized.  The
    construction's exact order refuses an image above the cap, with
    CapExceeded, before it is listed.
    """
    top = ExtensionChain(group, primes).top
    for gens in subgroups:
        image_subgroup_order(top, gens, cap)
    images = [image_subgroup(top, gens, cap) for gens in subgroups]
    if len(images) == 1:
        size = len(images[0])
    elif len(images) == 2:
        size = len(images[0]) * len(images[1]) // len(images[0].keys() & images[1].keys())
    else:
        size = len(_product(top, images, cap)) if sized else None
    member = _product_member(top, images, top.evaluate(free_reduce(word)), cap)
    return tuple(len(img) for img in images), size, member


def two_ended_image_structure(level, generators, cap):
    """``image_structure`` at an extension level, walking every edge from both ends.

    Each element reduces the Schreier vector of each of its steps, so a
    non-tree edge is reduced twice and a tree edge once more in reverse;
    the second reduction of an edge is of minus the first vector, which is
    already in the span.  The oracle the one-ended walk is tested against.
    """
    steps = _generator_steps(level, generators)
    below = level.below
    prime = level.prime
    lifts = {below.identity: {}}
    basis = {}
    queue = deque([below.identity])
    while queue:
        b = queue.popleft()
        vb = lifts[b]
        for vec, g in steps:
            nb = below.mult(b, g)
            nvec = dict(vb)
            for (src, x), c in vec:
                key = (below.mult(b, src), x)
                n = (nvec.get(key, 0) + c) % prime
                if n:
                    nvec[key] = n
                elif key in nvec:
                    del nvec[key]
            known = lifts.get(nb)
            if known is None:
                if len(lifts) >= cap:
                    raise CapExceeded(f"image order exceeds {cap}", limit=cap)
                lifts[nb] = nvec
                queue.append(nb)
                continue
            _subtract(nvec, known, prime)
            _reduce(nvec, basis, prime)
            if not nvec:
                continue
            pivot = min(nvec)
            inv = pow(nvec[pivot], -1, prime)
            basis[pivot] = ({k: v * inv % prime for k, v in nvec.items()}, {})
            if len(lifts) * prime ** len(basis) > cap:
                raise CapExceeded(
                    f"image order exceeds {cap}: at least "
                    f"{len(lifts)} * {prime}^{len(basis)}", limit=cap)
    order = len(lifts) * prime ** len(basis)
    if order > cap:
        raise CapExceeded(f"image order {order} exceeds {cap}", limit=cap)
    return ImageStructure(lifts, basis, prime, order)


@contextmanager
def within(seconds):
    """Raise TimeoutError in the block once the seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spine_doubling_back(monkeypatch):
    """Patch the pinch's common spine to one that steps x and back at its end,
    so the spine is not reduced and its projection fails."""
    spine_of = separators.common_spine

    def doubled(*args):
        spine = spine_of(*args)
        return separators.trace_cayley(spine.level, spine.start, spine.word + (1, -1))

    monkeypatch.setattr(separators, "common_spine", doubled)
