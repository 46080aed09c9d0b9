"""Finite Serre graphs with labeled involutive edges.

A graph stores geometric edges; each geometric edge k yields two darts
(directed edges) 2k and 2k+1 with ``reverse(e) == e ^ 1``.  Dart 2k
carries the positive orientation (label > 0), dart 2k+1 the negative.
Vertices are dense integers 0..num_vertices-1.

Graphs are value types: every operation returns a new graph and nothing
mutates one after construction.

``LabeledGraph(alphabet, n, edges)`` checks every edge: both ends in
range, a positive letter of the alphabet.  Every graph built from outside
input goes through it.  ``LabeledGraph._trusted``, which takes dart
arrays as they are, and ``_extended``, which appends edges to a graph,
check nothing.  They are private to the package, for graphs whose edges
come from an already checked graph: a fold, an attached path, a covering
expansion, a Cayley graph.

Reading a word needs one table, the dart table (source vertex, signed
letter) -> dart, which is the whole state of a fold (Touikan 2006).
``out_dart``, ``trace`` and ``is_immersion`` read it: a graph is an
immersion exactly when the table has one entry per dart.  The table is
handed to ``_trusted`` by the Stallings reader, which builds it as it
goes, or built once from the dart arrays, the least dart of each (vertex,
letter) winning; since a graph never changes, whether it is an immersion
is worked out once, with its table.  ``star``, which lists every dart of
each pair, is for graphs that may not be immersions; ``bfs_tree`` reads
it to number the vertices that ``to_dot`` prints.

Folding to an immersion (``fold_all_tracked``) is one union-find pass,
near-linear in the size of the graph.  Subgroup graphs are built by
reading words into an immersion (``stallings``), so this fold is the
fallback for a generator whose reading closes inside the graph.  The
tests check it against folding one admissible pair at a time.
"""

from collections import deque

from .words import free_reduce


class LabeledGraph:
    def __init__(self, alphabet, num_vertices, edges):
        """edges: iterable of geometric edges (src, dst, letter) with letter > 0."""
        self.alphabet = alphabet
        self.num_vertices = num_vertices
        src = []
        label = []
        for s, d, l in edges:
            if not (0 <= s < num_vertices and 0 <= d < num_vertices):
                raise ValueError(f"edge ({s}, {d}) out of vertex range")
            if not 1 <= l <= alphabet.size:
                raise ValueError(f"edge label {l} must be a positive letter")
            src.append(s)
            src.append(d)
            label.append(l)
            label.append(-l)
        self._src = src
        self._label = label
        self._star = None
        self._out = None
        self._immersion = None

    @classmethod
    def _trusted(cls, alphabet, num_vertices, src, label, out=None):
        """A graph on the given dart arrays, unchecked.

        ``src[e]`` is the source and ``label[e]`` the signed label of dart e;
        darts 2k and 2k+1 are the two orientations of geometric edge k, the
        even one positive.  ``out``, when given, is the graph's dart table,
        (src[e], label[e]) -> e for every dart e, so the graph is an
        immersion.  The lists and the table are kept, not copied.
        """
        g = cls.__new__(cls)
        g.alphabet = alphabet
        g.num_vertices = num_vertices
        g._src = src
        g._label = label
        g._star = None
        g._out = out
        g._immersion = None if out is None else len(out) == len(src)
        return g

    def _extended(self, num_vertices, edges):
        """This graph on num_vertices vertices with (src, dst, letter) edges
        appended, unchecked: callers pass vertex ids below num_vertices and
        positive letters of the alphabet.  Old vertices and edges keep their
        ids."""
        src, label = list(self._src), list(self._label)
        for s, d, x in edges:
            src += (s, d)
            label += (x, -x)
        return LabeledGraph._trusted(self.alphabet, num_vertices, src, label)

    # -- basic structure ----------------------------------------------------

    @property
    def num_darts(self):
        return len(self._src)

    @property
    def num_geometric_edges(self):
        return len(self._src) // 2

    def src(self, e):
        return self._src[e]

    def dst(self, e):
        return self._src[e ^ 1]

    def label(self, e):
        return self._label[e]

    @staticmethod
    def reverse(e):
        return e ^ 1

    def geometric_edges(self):
        """The positive-orientation (src, dst, letter) triples, in edge order."""
        return tuple((self._src[2 * k], self._src[2 * k + 1], self._label[2 * k])
                     for k in range(self.num_geometric_edges))

    def star(self):
        """Darts grouped by (source vertex, signed label), each list sorted."""
        if self._star is None:
            star = {}
            for e in range(self.num_darts):
                star.setdefault((self._src[e], self._label[e]), []).append(e)
            self._star = star
        return self._star

    def _dart_table(self):
        """(vertex, signed letter) -> the least dart with that source and label."""
        if self._out is None:
            out = {}
            for e, key in enumerate(zip(self._src, self._label)):
                out.setdefault(key, e)
            self._out = out
            self._immersion = len(out) == len(self._src)
        return self._out

    def out_dart(self, v, letter):
        """The unique dart at v with the given label, or None (immersions)."""
        return self._dart_table().get((v, letter))

    def rank(self):
        """Cycle rank |geometric edges| - |vertices| + 1 (connected graphs)."""
        return self.num_geometric_edges - self.num_vertices + 1

    # -- immersions ----------------------------------------------------------

    def is_immersion(self):
        self._dart_table()
        return self._immersion

    def trace(self, v, word):
        """The unique path from v labeled by word, or None if it cannot be read."""
        out, src = self._dart_table(), self._src
        if not self._immersion:
            raise ValueError("trace requires an immersion")
        darts = []
        cur = v
        for l in word:
            d = out.get((cur, l))
            if d is None:
                return None
            darts.append(d)
            cur = src[d ^ 1]
        path = Path(self, v, darts)
        path._label = tuple(word)
        return path

    # -- folding -------------------------------------------------------------

    def fold_all_tracked(self):
        """Fold until no admissible pair remains; returns (graph, vertex map).

        One pass with union-find over vertices and over geometric edges,
        each class rooted at its least id, as in Touikan's folding
        algorithm.  Every vertex root keeps a star, signed letter -> one
        dart.  Two darts colliding in a star with different edge classes
        are one fold: their edge classes unite and their targets are queued
        for merging; a merge moves the larger root's star into the smaller
        one, where each dart may collide again.  The queue is first in
        first out; the folded graph does not depend on its order.

        The quotient is built once.  Vertices are numbered in the order of
        the least original vertex of each class, and each edge class keeps
        its least edge, in edge order.  That is exactly the graph and map
        that folding one admissible pair at a time gives, since every such
        fold keeps the least vertex id and drops the later edge.
        """
        src, label = self._src, self._label
        vparent = list(range(self.num_vertices))
        eparent = list(range(self.num_geometric_edges))

        def find(parent, x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        pending = deque()

        def insert(star, d):
            other = star.setdefault(label[d], d)
            if other != d:
                a, b = find(eparent, other >> 1), find(eparent, d >> 1)
                if a != b:
                    eparent[max(a, b)] = min(a, b)
                    pending.append((src[other ^ 1], src[d ^ 1]))

        stars = [{} for _ in range(self.num_vertices)]
        for d in range(self.num_darts):
            insert(stars[src[d]], d)
        while pending:
            a, b = pending.popleft()
            a, b = find(vparent, a), find(vparent, b)
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            vparent[hi] = lo
            star = stars[lo]
            for d in stars[hi].values():
                insert(star, d)
            stars[hi] = None

        roots = [v for v in range(self.num_vertices) if vparent[v] == v]
        new_id = {r: i for i, r in enumerate(roots)}
        vmap = [new_id[find(vparent, v)] for v in range(self.num_vertices)]
        kept = [k for k in range(self.num_geometric_edges) if eparent[k] == k]
        new_src = [vmap[src[e]] for k in kept for e in (2 * k, 2 * k + 1)]
        new_label = [label[e] for k in kept for e in (2 * k, 2 * k + 1)]
        return LabeledGraph._trusted(self.alphabet, len(roots), new_src, new_label), vmap

    # -- spanning trees ------------------------------------------------------

    def bfs_tree(self, root):
        """BFS spanning tree: vertex -> dart used to enter it (root -> None).

        Letters go in canonical order, every dart of a (vertex, letter) star
        bucket in dart order, and the dict is in discovery order; its keys
        are the component of root.  In an immersion the induced numbering is
        unique.
        """
        tree = {root: None}
        queue = deque([root])
        letters = self.alphabet.letters()
        star = self.star()
        while queue:
            v = queue.popleft()
            for l in letters:
                for d in star.get((v, l), ()):
                    w = self._src[d ^ 1]
                    if w not in tree:
                        tree[w] = d
                        queue.append(w)
        return tree

    # -- output ----------------------------------------------------------------

    def to_dot(self, base=None):
        """Deterministic DOT: BFS-canonical ids, one arrow per geometric edge."""
        root = base if base is not None else 0
        if self.num_vertices == 0:
            return "digraph {\n}\n"
        order = {v: i for i, v in enumerate(self.bfs_tree(root))}
        for v in range(self.num_vertices):  # unreachable vertices keep id order
            if v not in order:
                order[v] = len(order)
        lines = ["digraph {"]
        for v in sorted(order.values()):
            shape = "doublecircle" if base is not None and v == order[base] else "circle"
            lines.append(f"  {v} [shape={shape}];")
        rows = sorted((order[s], order[d], l) for s, d, l in self.geometric_edges())
        for s, d, l in rows:
            lines.append(f'  {s} -> {d} [label="{self.alphabet.symbols[l - 1]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"LabeledGraph({self.num_vertices} vertices, "
                f"{self.num_geometric_edges} geometric edges)")


class Path:
    """A composable dart sequence with a start vertex (may be empty)."""

    def __init__(self, graph, start, darts):
        self.graph = graph
        self.start = start
        self.darts = tuple(darts)
        src = graph._src
        cur = start
        for d in self.darts:
            if src[d] != cur:
                raise ValueError("darts do not compose")
            cur = src[d ^ 1]
        self.end = cur
        self._label = None

    def label(self):
        if self._label is None:
            self._label = tuple(map(self.graph._label.__getitem__, self.darts))
        return self._label

    def reversed(self):
        return Path(self.graph, self.end, tuple(d ^ 1 for d in reversed(self.darts)))

    def concat(self, other):
        if other.graph is not self.graph or other.start != self.end:
            raise ValueError("paths do not compose")
        return Path(self.graph, self.start, self.darts + other.darts)

    def is_reduced(self):
        return all(self.darts[i] ^ 1 != self.darts[i + 1] for i in range(len(self.darts) - 1))

    def __len__(self):
        return len(self.darts)

    def __repr__(self):
        return f"Path({self.start} -> {self.end}, len {len(self.darts)})"


def reduce_path(path):
    """The reduced path homotopic (rel endpoints) to the given path.

    In an immersion the reduced label determines the reduced path, so this
    free-reduces the label and re-traces it from the same start.
    """
    word = free_reduce(path.label())
    out = path.graph.trace(path.start, word)
    if out is None or out.end != path.end:
        raise ValueError("path does not reduce inside the graph")
    return out
