"""Test-only helpers: the wedge of cycles and the fold that identifies one
admissible pair at a time (the oracles for the one-pass fold and the
Stallings reader), canonical forms and graph predicates, small-scale word
generators over subgroup graphs, the listed image subgroup and the
enumeration oracle for product certificate claims, the image walk that
meets every edge from both ends (the dict oracle) and the check that a
GF(2) bit structure holds its image, a time limit for code that could
loop, the component search of the edges two Cayley paths share (the oracle
for the pinch's closure-based component), and a common spine that doubles
back, to fault the pinch."""

import math
import signal
from collections import deque
from contextlib import contextmanager

from prodsep import separators
from prodsep.errors import CapExceeded
from prodsep.extensions import ExtensionChain
from prodsep.graphs import LabeledGraph
from prodsep.groups import DEFAULT_CAP, closure
from prodsep.separators import ImageStructure, _KeyVectors, image_subgroup_order
from prodsep.stallings import AttachedImmersion, PointedImmersion
from prodsep.words import free_reduce, invert


def build_wedge(alphabet, words):
    """The unfolded wedge of labeled cycles, one per word, based at vertex 0;
    each cycle's inner vertices take the next ids in order."""
    edges = []
    nv = 1
    for w in words:
        prev = 0
        for i, l in enumerate(w):
            nxt = 0 if i == len(w) - 1 else nv
            if nxt:
                nv += 1
            edges.append((prev, nxt, l) if l > 0 else (nxt, prev, -l))
            prev = nxt
    return LabeledGraph(alphabet, nv, edges)


def admissible_pair(g, policy="least"):
    """A deterministic admissible pair of g, or None if g is an immersion.

    "least" picks the lexicographically least pair under (source vertex,
    label, dart ids); "greatest" picks from the other end, so that fold
    order can be varied.
    """
    star = g.star()
    buckets = [vl for vl, darts in star.items() if len(darts) >= 2]
    if not buckets:
        return None
    key = lambda vl: (vl[0], g.alphabet.letters().index(vl[1]))
    if policy == "least":
        darts = star[min(buckets, key=key)]
        return (darts[0], darts[1])
    darts = star[max(buckets, key=key)]
    return (darts[-2], darts[-1])


def fold_pair(g, pair):
    """Fold one admissible pair; returns (graph, old-vertex -> new-vertex map).

    The endpoints' classes keep their least vertex id and the later of the
    two edges is dropped.
    """
    e1, e2 = pair
    a, b = sorted((g.dst(e1), g.dst(e2)))
    vmap = list(range(g.num_vertices))
    if a != b:
        vmap = [a if v == b else v - (v > b) for v in vmap]
    drop = max(e1, e2) >> 1
    edges = [(vmap[s], vmap[d], l)
             for k, (s, d, l) in enumerate(g.geometric_edges()) if k != drop]
    return LabeledGraph(g.alphabet, g.num_vertices - (a != b), edges), vmap


def step_fold_all_tracked(g, policy="least"):
    """The fold oracle: one admissible pair at a time, composing vertex maps."""
    total = list(range(g.num_vertices))
    while True:
        pair = admissible_pair(g, policy)
        if pair is None:
            return g, total
        g, vmap = fold_pair(g, pair)
        total = [vmap[t] for t in total]


def component_of(g, v):
    return set(g.bfs_tree(v))


def is_connected(g):
    return g.num_vertices == 0 or len(component_of(g, 0)) == g.num_vertices


def is_covering(g):
    """Every vertex has exactly one dart of each signed letter."""
    star = g.star()
    return all(len(star.get((v, l), ())) == 1
               for v in range(g.num_vertices) for l in g.alphabet.letters())


def canonical_form(g, root):
    """Canonical form of the component of root in an immersion: its edges
    renumbered by ``bfs_tree``, sorted."""
    order = {v: i for i, v in enumerate(g.bfs_tree(root))}
    edges = sorted((order[s], order[d], l)
                   for s, d, l in g.geometric_edges()
                   if s in order and d in order)
    return (len(order), tuple(edges))


def canonical_key(g):
    """Basepoint-free canonical form: per-component minima, sorted."""
    remaining = set(range(g.num_vertices))
    forms = []
    while remaining:
        comp = component_of(g, min(remaining))
        forms.append(min(canonical_form(g, v) for v in comp))
        remaining -= comp
    return tuple(sorted(forms))


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
    letters = g.alphabet.letters()

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
    letters = g.alphabet.letters()
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


def image_subgroup(level, generators, cap=DEFAULT_CAP):
    """The image subgroup listed by a capped closure: {element: BFS link}.

    It closes under each generator image and its inverse, so it does not
    rest on the finiteness by which the library closes under the images
    alone.
    """
    return closure((level.identity,), steps_with_inverses(level, generators), level.mult,
                   cap, "subgroup image")


def steps_with_inverses(level, generators):
    """The image of each nontrivial generator, each followed by its inverse."""
    steps = []
    for g in generators:
        w = free_reduce(g)
        if w:
            img = level.evaluate(w)
            steps += (img, level.inv(img))
    return steps


def _product(level, images, cap):
    """The set of products a_1 ... a_k, a_i from the i-th image, capped."""
    if not images:
        return {level.identity}
    if len(images[0]) > cap:
        raise CapExceeded(f"product image has more than {cap} elements")
    out = set(images[0])
    for img in images[1:]:
        nxt = set()
        for a in out:
            for b in img:
                e = level.mult(a, b)
                if e not in nxt:
                    if len(nxt) >= cap:
                        raise CapExceeded(
                            f"product image has more than {cap} elements")
                    nxt.add(e)
        out = nxt
    return out


def _product_member(level, images, target, cap):
    """Does target lie in the product of the images?  Meet in the middle.

    The factor list is split where the two halves' order products sum
    least, the middle on a tie: with images of orders 16, 84 and 84 the
    middle split lists up to 7,056 products of long vectors, the other
    1,344.  The products of the two halves are listed, and the search
    loops over the smaller one.
    """
    middle = max(1, len(images) // 2)
    mid = min(range(1, max(2, len(images))),
              key=lambda k: (math.prod(map(len, images[:k])) + math.prod(map(len, images[k:])),
                             k != middle))
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
    already in the span.  The refusal rule is the walk's: lifts * p^rank
    above the cap.  The oracle the one-ended walk is tested against; its
    vectors are dicts at every prime, p = 2 included.
    """
    steps = steps_with_inverses(level, generators)
    below = level.below
    prime = level.prime
    vectors = _KeyVectors(level)
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
                lifts[nb] = nvec
                queue.append(nb)
            else:
                nvec = vectors.reduce(vectors.sub(nvec, known), basis)
                if not nvec:
                    continue
                pivot = min(nvec)
                inv = pow(nvec[pivot], -1, prime)
                basis[pivot] = {k: v * inv % prime for k, v in nvec.items()}
            if len(lifts) * prime ** len(basis) > cap:
                raise CapExceeded(
                    f"image order exceeds {cap}: at least "
                    f"{len(lifts)} * {prime}^{len(basis)}")
    return ImageStructure(lifts, basis, vectors, len(lifts) * prime ** len(basis))


def assert_same_image(level, st, ref):
    """The GF(2) bit structure st holds the image of the dict structure ref
    at the level: the same lifts once bits are read back through the
    level's column table as key dicts, the same rank and order, and each
    row of either reduces to zero in the other's basis."""
    bits, keys = st.vectors, ref.vectors

    def as_dict(vec):
        return {level.column_keys[i]: 1 for i in range(vec.bit_length()) if vec >> i & 1}

    assert {b: as_dict(v) for b, v in st.lifts.items()} == ref.lifts
    assert len(st.basis) == len(ref.basis) and st.order == ref.order
    for row in st.basis.values():
        assert not keys.reduce(as_dict(row), ref.basis)
    for row in ref.basis.values():
        assert not bits.reduce(bits.vector(row.items()), st.basis)


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


def sorted_search(edges, start):
    """BFS of the subgraph spanned by edges, {key (src, letter): (src, dst)}:
    vertex -> (previous vertex, signed letter), start -> None.  Each
    vertex's neighbours are sorted by letter in canonical order, +1 < -1 <
    +2 < -2 < ..., then by vertex."""
    adj = {}
    for (_, x), (u, v) in edges.items():
        adj.setdefault(u, []).append((x, v))
        adj.setdefault(v, []).append((-x, u))
    back = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for l, v in sorted(adj.get(u, ()),
                           key=lambda step: (abs(step[0]), step[0] < 0, step[1])):
            if v not in back:
                back[v] = (u, l)
                queue.append(v)
    return back


def spine_doubling_back(monkeypatch):
    """Patch the pinch's common spine to one that steps x and back at its end,
    so the spine is not reduced and its projection fails."""
    spine_of = separators.common_spine

    def doubled(*args):
        spine = spine_of(*args)
        return separators.trace_cayley(spine.level, spine.start, spine.word + (1, -1))

    monkeypatch.setattr(separators, "common_spine", doubled)
