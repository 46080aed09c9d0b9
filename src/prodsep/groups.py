"""Finite groups generated by the alphabet, as permutations of a carrier set.

Elements are image tuples: point i maps to elem[i].  Words act on the
right, letter by letter, so evaluate(u + v) == mult(evaluate(u),
evaluate(v)).

``XGroup(alphabet, perms)`` checks that each generator is a permutation;
``XGroup._trusted`` checks nothing, for the permutations the construction
builds itself (covering letter maps, diagonal blocks).  In text, as in
certificates and group specs, a permutation is in cycle notation:
``fmt_perm`` writes it and ``parse_perm`` reads it.
"""

import functools
import re
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .errors import CapExceeded
from .graphs import LabeledGraph

DEFAULT_CAP = 10 ** 6


class XGroup:
    """A permutation group with one generator per alphabet symbol."""

    def __init__(self, alphabet, perms):
        if len(perms) != alphabet.size:
            raise ValueError("need exactly one permutation per generator")
        n = len(perms[0]) if perms else 0
        fixed = []
        for p in perms:
            p = tuple(p)
            if sorted(p) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
            fixed.append(p)
        self._setup(alphabet, fixed)

    @classmethod
    def _trusted(cls, alphabet, perms):
        """The group of perms, one permutation per generator, unchecked.

        Private to the package, for permutations the construction built
        itself (a covering's letter maps, a diagonal's blocks); every group
        read from outside input goes through the constructor.
        """
        g = cls.__new__(cls)
        g._setup(alphabet, [tuple(p) for p in perms])
        return g

    def _setup(self, alphabet, fixed):
        self.alphabet = alphabet
        self.carrier = len(fixed[0]) if fixed else 0
        self._perms = tuple(fixed)
        self._inv = tuple(inv_perm(p) for p in fixed)
        # signed letter -> its permutation, for reading words point by point
        self._by_letter = {l: self._perms[l - 1] if l > 0 else self._inv[-l - 1]
                           for l in alphabet.letters()}

    @property
    def identity(self):
        return tuple(range(self.carrier))

    def perm(self, letter):
        return self._by_letter[letter]

    def mult(self, a, b):
        """Apply a, then b."""
        if len(a) > 1:  # itemgetter(i) returns a scalar, itemgetter() raises
            return itemgetter(*a)(b)
        return tuple(b[x] for x in a)

    def inv(self, a):
        return inv_perm(a)

    def gen(self, letter):
        return self.perm(letter)

    def step(self, a, letter):
        """a times the letter's generator: one edge of the Cayley graph."""
        return self.mult(a, self._by_letter[letter])

    def evaluate(self, word):
        """The value of the word: one ``step`` per letter."""
        return functools.reduce(self.step, word, self.identity)

    def point_image(self, point, word):
        """Where the word sends one point: its letters act on the right."""
        for l in word:
            point = self._by_letter[l][point]
        return point

    def elements(self, cap=DEFAULT_CAP):
        """All elements, in BFS discovery order from the identity."""
        return list(closure((self.identity,), self.alphabet.letters(), self.step, cap, "group"))

    def order(self, cap=DEFAULT_CAP):
        return len(self.elements(cap=cap))

    def is_transitive(self):
        if self.carrier == 0:
            return True
        orbit = closure((0,), self._perms, lambda v, p: p[v], self.carrier, "orbit")
        return len(orbit) == self.carrier

    def __repr__(self):
        return f"XGroup(carrier={self.carrier}, gens={[fmt_perm(p) for p in self._perms]})"


@dataclass(frozen=True)
class CayleyGraph:
    """The Cayley graph of a group: one vertex per element, edges g -> g*x."""
    graph: LabeledGraph
    base: int
    elements: tuple


def cayley_graph(level, cap=DEFAULT_CAP):
    """Materialize a chain level (a group or an extension) and its Cayley graph."""
    elems = level.elements(cap=cap)
    index = {e: i for i, e in enumerate(elems)}
    src, label = [], []
    for i, e in enumerate(elems):
        for x in level.alphabet.positive_letters():
            src += (i, index[level.step(e, x)])
            label += (x, -x)
    graph = LabeledGraph._trusted(level.alphabet, len(elems), src, label)
    return CayleyGraph(graph, 0, tuple(elems))


def closure(starts, steps, mult, cap, what):
    """Capped BFS closure of the starts under right multiplication by the steps.

    Returns {element: (parent, step index)} in discovery order, with each
    start mapped to None; raises CapExceeded, naming what, past cap elements.
    """
    tree = dict.fromkeys(starts)
    queue = deque(tree)
    while queue:
        cur = queue.popleft()
        for i, step in enumerate(steps):
            nxt = mult(cur, step)
            if nxt not in tree:
                if len(tree) >= cap:
                    raise CapExceeded(f"{what} has more than {cap} elements")
                tree[nxt] = (cur, i)
                queue.append(nxt)
    return tree


def diagonal_subgroup(groups):
    """The subgroup of the direct product generated letterwise.

    Acts on the disjoint union of the carriers; the letter x acts as each
    group's x-generator on its own block.  The diagonal of one group is
    that group itself.
    """
    if not groups:
        raise ValueError("need at least one group")
    alphabet = groups[0].alphabet
    if any(g.alphabet != alphabet for g in groups):
        raise ValueError("groups must share the alphabet")
    if len(groups) == 1:
        return groups[0]
    return _diagonal(alphabet, [g._perms for g in groups])


def _diagonal(alphabet, blocks):
    """The diagonal, unchecked, of the groups generated by each block's
    permutations, one per positive letter; no group is built per block."""
    perms = []
    for x in range(alphabet.size):
        perm = []
        for block in blocks:
            perm += [len(perm) + i for i in block[x]]
        perms.append(perm)
    return XGroup._trusted(alphabet, perms)


def inv_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def fmt_perm(p):
    """Cycle notation: the disjoint cycles of p, each written from its least
    point and in the order of that point, fixed points left out; the
    identity is '()'.  Raises ValueError, naming p, unless p is a
    permutation of 0..len(p)-1.
    """
    n = len(p)
    if n and (min(p) < 0 or max(p) >= n or len(set(p)) != n):
        raise ValueError(f"not a permutation of 0..{n - 1}: {p}")
    seen = bytearray(n)
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            seen[j] = 1
            cycle.append(j)
            j = p[j]
        cycles.append(" ".join(map(str, cycle)))
    return "(" + ")(".join(cycles) + ")"


_PERM_TEXT = re.compile(r"(?:\(\s*(?:[0-9]+(?:\s+[0-9]+)*)?\s*\)\s*)+")
_CYCLE = re.compile(r"\(([^)]*)\)")


def parse_perm(text, n):
    """Parse cycle notation into an image tuple on 0..n-1.

    Points are ASCII digits and the cycles compose left to right, so
    '(0 1)(1 2)' sends 0 to 2, 1 to 0 and 2 to 1; '()' is the identity.
    Disjoint cycles with every point below n, the form ``fmt_perm``
    writes, are read in one pass; any other text is composed cycle by
    cycle by ``_compose_cycles``, which also rejects it where it must.
    """
    text = text.strip()
    if not _PERM_TEXT.fullmatch(text):
        raise ValueError(f"malformed permutation {text!r}")
    points, rotated = [], []
    try:
        for body in _CYCLE.findall(text):
            cycle = list(map(int, body.split()))
            points += cycle
            rotated += cycle[1:]
            rotated += cycle[:1]
    except ValueError:  # a point past int's digit limit: fail where composing fails
        return _compose_cycles(text, n)
    if points and (max(points) >= n or len(set(points)) != len(points)):
        return _compose_cycles(text, n)
    image = dict(zip(points, rotated))
    return tuple(map(image.get, range(n), range(n)))


def _compose_cycles(text, n):
    """The cycles of well-formed, stripped text composed left to right:
    the general reader, and the one that rejects a point out of range or
    repeated within a cycle."""
    # where[v] is the point now sent to v
    out = list(range(n))
    where = list(range(n))
    for body in _CYCLE.findall(text):
        cycle = [int(t) for t in body.split()]
        if any(i >= n for i in cycle):
            raise ValueError(f"point out of range in {text!r}")
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated point in cycle {text!r}")
        sources = [where[a] for a in cycle]
        for x, b in zip(sources, cycle[1:] + cycle[:1]):
            out[x] = b
            where[b] = x
    return tuple(out)
