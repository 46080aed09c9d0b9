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
    """Glue a fresh path labeled by the word so it ends at the base, then fold."""
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
    attached = LabeledGraph(g.alphabet, nv + len(w), edges)
    folded, vmap = attached.fold_all_tracked()
    return AttachedImmersion(folded, vmap[h.base], vmap[nv])


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
