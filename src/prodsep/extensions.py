"""Universal p-elementary extensions of a finite X-generated group.

For a group G and a prime p, the extension lives in the semidirect product
of the free Z/p-module on the positively-oriented Cayley edges of G with G
itself, and is generated by the pairs (edge 1 -> x, x).  An element is a
pair (vec, g): vec a finitely-supported Z/p vector over edge keys, g an
element one level down.

An edge key (h, x) names the positive Cayley edge from h to h*x; the group
acts on keys by left translation.  Element arithmetic is symbolic
throughout -- materializing the extension is a separate, capped operation,
because iterated extensions explode while their individual elements stay
small.  A generator is one Cayley edge one level down, so ``step``
multiplies by it by changing one coefficient of the sorted vector and
stepping once below.  ``step`` is the only reader of a letter: ``gen`` is
one step from the identity, and ``evaluate``, ``elements`` and the walks
by letters take one step per letter, never a general product.

The load-bearing identity (tested, and used by the separator machinery):
the value of a word w at an extension level equals (sum of the signed
traversal counts mod p of each edge, value of w one level down), where the
counts are those of the path w traces from the identity in the Cayley
graph one level down.
"""

import functools
import math
from bisect import bisect_left

from .errors import CapExceeded
from .groups import DEFAULT_CAP, closure


class ExtensionLevel:
    """The universal p-elementary extension of the level below.

    The level below is an ``XGroup`` (level 0 of a chain) or another
    extension; both offer identity, gen, step, mult, inv, evaluate, order
    and elements, and both read a letter only through ``step``.
    """

    def __init__(self, below, prime):
        # bounded before trial division, which runs to the square root
        if prime > DEFAULT_CAP:
            raise ValueError(f"prime {prime} is outside 2..{DEFAULT_CAP}")
        if prime < 2 or any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            raise ValueError(f"{prime} is not a prime")
        self.below = below
        self.prime = prime
        self.alphabet = below.alphabet
        # the column table: each Cayley edge (g, x) below, numbered in the
        # order it is first seen, is one bit of a GF(2) vector; every image
        # structure at this level shares it (``separators``)
        self.columns = {}
        self.column_keys = []

    @property
    def identity(self):
        return ((), self.below.identity)

    def gen(self, letter):
        """The letter's generator: one step from the identity."""
        return self.step(self.identity, letter)

    def mult(self, a, b):
        (v1, g1), (v2, g2) = a, b
        acc = dict(v1)
        for (src, x), c in v2:
            key = (self.below.mult(g1, src), x)
            n = (acc.get(key, 0) + c) % self.prime
            if n:
                acc[key] = n
            elif key in acc:
                del acc[key]
        return (tuple(sorted(acc.items())), self.below.mult(g1, g2))

    def inv(self, a):
        v, g = a
        gi = self.below.inv(g)
        acc = {(self.below.mult(gi, src), x): (-c) % self.prime for (src, x), c in v}
        return (tuple(sorted(acc.items())), gi)

    def step(self, a, letter):
        """a times the letter's generator, which is one Cayley edge below.

        The generator x is (edge (1, x) with coefficient 1, x), and x^-1 is
        (edge (x^-1, x) with coefficient -1, x^-1).  Translated by a's
        element g below, x adds +1 at the key (g, x) and x^-1 adds -1 at
        (g * x^-1, x); so one coefficient of the sorted vector changes, at
        the place bisect finds, and g steps once below.
        """
        vec, g = a
        below = self.below
        if letter > 0:
            key, c, g = (g, letter), 1, below.step(g, letter)
        else:
            g = below.step(g, letter)
            key, c = (g, -letter), self.prime - 1
        # (key,) sorts just before the item (key, coefficient)
        i = bisect_left(vec, (key,))
        if i < len(vec) and vec[i][0] == key:
            n = (vec[i][1] + c) % self.prime
            tail = vec[i + 1:]
        else:
            n = c
            tail = vec[i:]
        if n:
            return (vec[:i] + ((key, n),) + tail, g)
        return (vec[:i] + tail, g)

    def evaluate(self, word):
        """The product of the letters' generators: one ``step`` per letter."""
        return functools.reduce(self.step, word, self.identity)

    def order(self, cap=DEFAULT_CAP):
        """Exact order, or raise if it exceeds the cap.

        The kernel of the projection is the mod-p cycle space of the Cayley
        graph below, so each level multiplies the order by p^((|X|-1)*n + 1)
        where n is the order below.
        """
        below = self.below.order(cap=cap)
        k = (self.alphabet.size - 1) * below + 1
        if math.log(below) + k * math.log(self.prime) > math.log(cap) + 1e-9:
            raise CapExceeded(
                f"extension order {below} * {self.prime}^{k} exceeds cap {cap}")
        order = below * self.prime ** k
        if order > cap:
            raise CapExceeded(
                f"extension order {order} = {below} * {self.prime}^{k} exceeds cap {cap}")
        return order

    def elements(self, cap=DEFAULT_CAP):
        """All elements, in BFS discovery order from the identity."""
        self.order(cap=cap)
        return list(closure((self.identity,), self.alphabet.letters(), self.step, cap,
                            "extension"))

    def __repr__(self):
        return f"ExtensionLevel(p={self.prime}, over {self.below!r})"


class ExtensionChain:
    """An iterated tower of p-elementary extensions over a base group.

    Level 0 is the group itself.
    """

    def __init__(self, group, primes):
        levels = [group]
        for p in primes:
            levels.append(ExtensionLevel(levels[-1], p))
        self.levels = levels
        self.primes = tuple(primes)

    @property
    def top(self):
        return self.levels[-1]

    def __repr__(self):
        return f"ExtensionChain(primes={self.primes}, base={self.levels[0]!r})"


def iterated_extension(group, primes):
    """The chain G, G^(p1), (G^(p1))^(p2), ...; empty primes give G itself."""
    return ExtensionChain(group, primes)


def signed_traversals(level, word):
    """Net signed crossing count of each positive Cayley edge by the word's path.

    Walks the Cayley graph from the identity, one ``step`` per letter: a
    positive letter x at h crosses the edge (h, x) forwards (+1); a
    negative letter x^-1 at h crosses (h * x^-1, x) backwards (-1).
    Entries that cancel to zero are dropped.
    """
    counts = {}
    cur = level.identity
    for l in word:
        if l > 0:
            key, delta = (cur, l), 1
            cur = level.step(cur, l)
        else:
            cur = level.step(cur, l)
            key, delta = (cur, -l), -1
        n = counts.get(key, 0) + delta
        if n:
            counts[key] = n
        elif key in counts:
            del counts[key]
    return counts


def traversal_element(level, word):
    """The element the traversal identity predicts for the word.

    Read one level down only: the signed traversal counts of the word's
    Cayley path there, reduced mod p, paired with the word's value there.
    No letter is stepped at the level itself, so this checks its ``step``.
    """
    counts = signed_traversals(level.below, word)
    vec = {k: c % level.prime for k, c in counts.items() if c % level.prime}
    return (tuple(sorted(vec.items())), level.below.evaluate(word))
