"""Stallings graphs of finitely generated subgroups of a free group.

The graph S(H) of H = <w_1, ..., w_m> is the folded wedge of m labeled
cycles; reduced words of H are exactly the labels of reduced loops at the
base vertex.  Every fold happens where a new cycle meets the graph, so
``stallings_graph`` reads each generator into the immersion built so far
and appends only its unread middle: a stem for each conjugating letter
pair, then a path of fresh vertices.  Only a generator whose two readings
close inside the graph, at distinct vertices, needs a fold; then the raw
cycles of it and of every later generator are appended and
``LabeledGraph.fold_all_tracked`` folds once.  ``attach_word`` reads the
same way.  The result is always the graph that folding the wedge of the
generators' cycles gives; the tests build that wedge and fold it as the
oracle.

The reader's state is the dart table, (vertex, signed letter) -> the dart
leaving the vertex with that label.  A graph the reader builds keeps its
table (``LabeledGraph._trusted``), so reading the word into it for
``attach_word``, and every later ``trace``, looks darts up in that table
and lists no star.  The public entries free-reduce their words; the
constructions, which reduce every word once up front, call the readers
``_read_graph`` and ``_attach`` on reduced words directly.
"""

from dataclasses import dataclass

from .graphs import LabeledGraph
from .words import free_reduce


@dataclass(frozen=True)
class PointedImmersion:
    """A connected folded graph with a basepoint."""
    graph: LabeledGraph
    base: int


@dataclass(frozen=True)
class AttachedImmersion:
    """A pointed immersion with a word attached as a path into the base.

    omega is the base (the attached path's endpoint); alpha is where the
    free end of the path landed after folding.  alpha == omega exactly when
    the attached word already belonged to the subgroup.
    """
    graph: LabeledGraph
    omega: int
    alpha: int


def _check_letters(alphabet, word):
    size = alphabet.size
    for l in word:
        if not 1 <= abs(l) <= size:
            raise ValueError(f"letter {l} is not in the alphabet")


def _append_cycles(src, label, nv, words):
    """Append one raw cycle per word, based at vertex 0, to the dart arrays.

    Each cycle's inner vertices take the next ids from nv on and its edges
    follow the word; returns the vertex count after the last cycle.
    """
    for w in words:
        prev = 0
        last = len(w) - 1
        for i, l in enumerate(w):
            nxt = 0 if i == last else nv
            if i != last:
                nv += 1
            if l > 0:
                src += (prev, nxt)
                label += (l, -l)
            else:
                src += (nxt, prev)
                label += (-l, l)
            prev = nxt
    return nv


def _add_edge(src, label, out, a, b, l):
    """Append an edge from a to b read by the signed letter l, and its darts."""
    e = len(src)
    if l > 0:
        src += (a, b)
        label += (l, -l)
        out[a, l] = e
        out[b, -l] = e + 1
    else:
        src += (b, a)
        label += (-l, l)
        out[b, -l] = e
        out[a, l] = e + 1


def stallings_graph(alphabet, generators):
    """S(H) for H generated by the generators, based at vertex 0: the reduced
    generators read by ``_read_graph``."""
    return _read_graph(alphabet, [free_reduce(g) for g in generators])


def _read_graph(alphabet, words):
    """S(H) for reduced generators, read one by one into the immersion so far.

    A reduced cycle glued at the base folds only where it meets the graph
    (Stallings 1983), so a generator w is read forward from the base as far
    as the graph allows, to u after r letters, and backward, to v at
    position s >= r.  Then:

    - r == s and u == v: w reads a loop at the base and adds nothing.
    - r == s and u != v: the reading closes inside the graph, which must
      identify u and v.  The raw cycles of w and of every later generator
      are appended and the whole graph is folded once with
      ``fold_all_tracked``.
    - otherwise, while u == v and w[r] == -w[s-1] (a conjugating letter),
      a stem edge labeled w[r] goes from u to a fresh vertex, which becomes
      u and v, and r and s move inwards.  Then w[r:s] is appended as a path
      of fresh vertices from u to v.  Both readings stopped at a missing
      dart and w is reduced, so no two darts collide.

    Fresh vertices and edges are made in the order of their ids in the
    wedge of the reduced, deduplicated generators, and a fold keeps each
    class's least vertex and least edge.  So the result is the graph and
    base (vertex 0) that ``fold_all_tracked`` gives on that wedge, each
    cycle based at vertex 0: the same vertex ids, edge order and
    orientations.
    """
    words = [w for w in dict.fromkeys(words) if w]  # trivial and duplicate words are inert
    for w in words:
        _check_letters(alphabet, w)
    src, label = [], []
    out = {}  # the dart table: (vertex, signed letter) -> the dart leaving the vertex
    nv = 1
    for i, w in enumerate(words):
        r, u = 0, 0
        for l in w:
            d = out.get((u, l))
            if d is None:
                break
            r += 1
            u = src[d ^ 1]
        s, v = len(w), 0
        while s > r:
            d = out.get((v, -w[s - 1]))
            if d is None:
                break
            s -= 1
            v = src[d ^ 1]
        if r == s:
            if u == v:
                continue
            nv = _append_cycles(src, label, nv, words[i:])
            folded, vmap = LabeledGraph._trusted(alphabet, nv, src, label).fold_all_tracked()
            return PointedImmersion(folded, vmap[0])
        while u == v and s - r > 1 and w[r] == -w[s - 1]:
            _add_edge(src, label, out, u, nv, w[r])
            u = v = nv
            nv += 1
            r += 1
            s -= 1
        for l in w[r:s - 1]:
            _add_edge(src, label, out, u, nv, l)
            u = nv
            nv += 1
        _add_edge(src, label, out, u, v, w[s - 1])
    return PointedImmersion(LabeledGraph._trusted(alphabet, nv, src, label, out), 0)


def contains(h, word):
    """Membership: does the (reduced) word read a loop at the base?"""
    path = h.graph.trace(h.base, free_reduce(word))
    return path is not None and path.end == h.base


def attach_word(h, word):
    """Glue a fresh path labeled by the word so it ends at the base, then fold:
    the reduced word read by ``_attach``."""
    return _attach(h, free_reduce(word))


def _attach(h, w):
    """attach_word for a reduced word w: read, not folded.

    The graph of h must be an immersion, and the glued path is reduced, so
    every fold happens where the path meets the graph: its last letters
    fold onto the darts that read the inverse word backwards from the base
    (Stallings, "Topology of finite graphs", 1983).  So nothing needs a
    fold: the inverse word is read from the base as far as the graph
    allows, and only the unread prefix of the path is appended, hanging
    off the vertex where the reading stopped.  Its vertices keep the ids
    nv .. nv+k-1 and its edges the order of the word, so this is the graph
    and the omega and alpha that ``fold_all_tracked`` gives on the whole
    glued graph: that fold keeps each class's least vertex and least edge,
    and no two vertices of the immersion ever meet.
    """
    g = h.graph
    _check_letters(g.alphabet, w)
    if not g.is_immersion():
        raise ValueError("attach_word requires an immersion")
    out, src = g._dart_table(), g._src
    # read invert(w) from the base: w[k:] folds onto the graph, ending at cur
    k, cur = len(w), h.base
    while k:
        d = out.get((cur, -w[k - 1]))
        if d is None:
            break
        k -= 1
        cur = src[d ^ 1]
    if not k:
        return AttachedImmersion(g, h.base, cur)
    nv = g.num_vertices
    # fresh vertices nv .. nv+k-1 form the unread path; its last edge enters cur
    path = list(range(nv, nv + k)) + [cur]
    edges = [(path[i], path[i + 1], l) if l > 0 else (path[i + 1], path[i], -l)
             for i, l in enumerate(w[:k])]
    return AttachedImmersion(g._extended(nv + k, edges), h.base, nv)
