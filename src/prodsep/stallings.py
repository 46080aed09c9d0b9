"""Stallings graphs of finitely generated subgroups of a free group.

The graph of H = <w_1, ..., w_m> is the folded wedge of m labeled cycles;
reduced words of H are exactly the labels of reduced loops at the base
vertex.
"""

from dataclasses import dataclass

from .graphs import LabeledGraph
from .words import free_reduce, invert


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


def build_wedge(alphabet, words):
    """The unfolded wedge of labeled cycles, one per word, based at vertex 0."""
    edges = []
    nv = 1
    for w in words:
        prev = 0
        for i, l in enumerate(w):
            nxt = 0 if i == len(w) - 1 else nv
            if i != len(w) - 1:
                nv += 1
            if l > 0:
                edges.append((prev, nxt, l))
            else:
                edges.append((nxt, prev, -l))
            prev = nxt
    return LabeledGraph(alphabet, nv, edges)


def stallings_graph(alphabet, generators):
    """Fold the wedge of generator cycles down to the subgroup graph."""
    words = []
    seen = set()
    for g in generators:
        w = free_reduce(g)
        if w and w not in seen:  # trivial and duplicate generators are inert
            seen.add(w)
            words.append(w)
    wedge = build_wedge(alphabet, words)
    folded, vmap = wedge.fold_all_tracked()
    return PointedImmersion(folded, vmap[0])


def contains(h, word):
    """Membership: does the (reduced) word read a loop at the base?"""
    path = h.graph.trace(h.base, free_reduce(word))
    return path is not None and path.end == h.base


def attach_word(h, word):
    """Glue a fresh path labeled by the word so it ends at the base, then fold.

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
    w = free_reduce(word)
    size = g.alphabet.size
    for l in w:
        if not 1 <= abs(l) <= size:
            raise ValueError(f"letter {l} is not in the alphabet")
    if not g.is_immersion():
        raise ValueError("attach_word requires an immersion")
    # read invert(w) from the base: w[k:] folds onto the graph, ending at cur
    k, cur = len(w), h.base
    while k:
        d = g.out_dart(cur, -w[k - 1])
        if d is None:
            break
        k -= 1
        cur = g.dst(d)
    if not k:
        return AttachedImmersion(g, h.base, cur)
    nv = g.num_vertices
    # fresh vertices nv .. nv+k-1 form the unread path; its last edge enters cur
    path = list(range(nv, nv + k)) + [cur]
    edges = [(path[i], path[i + 1], l) if l > 0 else (path[i + 1], path[i], -l)
             for i, l in enumerate(w[:k])]
    return AttachedImmersion(g._extended(nv + k, edges), h.base, nv)


def _word_to(graph, tree, v):
    letters = []
    while tree[v] is not None:
        d = tree[v]
        letters.append(graph.label(d))
        v = graph.src(d)
    return tuple(reversed(letters))


def subgroup_basis(h):
    """A free basis of the subgroup: one word per non-tree geometric edge."""
    g = h.graph
    tree = g.bfs_tree(h.base)
    tree_edges = {d >> 1 for d in tree.values() if d is not None}
    basis = []
    for k, (s, d, l) in enumerate(g.geometric_edges()):
        if k in tree_edges:
            continue
        word = _word_to(g, tree, s) + (l,) + invert(_word_to(g, tree, d))
        basis.append(free_reduce(word))
    return basis
