"""Expanding immersions to coverings and reading off their transition groups.

An immersion has, per vertex and letter, at most one outgoing edge; a
covering has exactly one.  Completing the partial letter actions to
permutations (which is always possible, they are injective) yields a
covering with the same vertex set.
"""

import itertools
import math
from dataclasses import dataclass

from .graphs import LabeledGraph
from .groups import XGroup


@dataclass(frozen=True)
class CoveringExpansion:
    """A covering whose first original_count geometric edges are the source."""
    graph: LabeledGraph
    original_count: int


@dataclass(frozen=True)
class ExpansionEnumeration:
    expansions: tuple
    complete: bool


def _missing(graph, x):
    """Vertices missing an outgoing / incoming x-edge, ascending."""
    star = graph.star()
    no_out = [v for v in range(graph.num_vertices) if (v, x) not in star]
    no_in = [v for v in range(graph.num_vertices) if (v, -x) not in star]
    return no_out, no_in


def expand_to_cover(graph):
    """The canonical covering expansion: pair missing ends positionally by id."""
    if not graph.is_immersion():
        raise ValueError("expand_to_cover requires an immersion")
    added = []
    for x in graph.alphabet.positive_letters():
        no_out, no_in = _missing(graph, x)
        added.extend((s, d, x) for s, d in zip(no_out, no_in))
    return CoveringExpansion(graph._extended(graph.num_vertices, added),
                             graph.num_geometric_edges)


def enumerate_expansions(graph, cap=1000):
    """All covering expansions, unless there are more than cap of them.

    The result's ``complete`` flag distinguishes exhaustion from hitting
    the cap; the listed prefix is deterministic either way.  Pairings are
    generated lazily, so the work stops at the cap.  Distinct pairings add
    distinct edges, so no expansion is listed twice.
    """
    if not graph.is_immersion():
        raise ValueError("enumerate_expansions requires an immersion")
    per_letter = []
    total = 1
    for x in graph.alphabet.positive_letters():
        no_out, no_in = _missing(graph, x)
        total *= math.factorial(len(no_out))
        per_letter.append((x, no_out, no_in))
    out = []
    for added in _pairings(per_letter):
        out.append(CoveringExpansion(graph._extended(graph.num_vertices, added),
                                     graph.num_geometric_edges))
        if len(out) >= cap and total > cap:
            return ExpansionEnumeration(tuple(out), False)
    return ExpansionEnumeration(tuple(out), True)


def _pairings(per_letter):
    """The added edges of each expansion, the last letter's pairing varying fastest."""
    if not per_letter:
        yield ()
        return
    (x, no_out, no_in), rest = per_letter[0], per_letter[1:]
    for perm in itertools.permutations(no_in):
        pairs = tuple((s, d, x) for s, d in zip(no_out, perm))
        for tail in _pairings(rest):
            yield pairs + tail


def transition_group(cover):
    """The group generated by the per-letter vertex permutations of a covering.

    Accepts a CoveringExpansion or a covering LabeledGraph.  For a
    connected covering this is F modulo the normal core of the cover's
    fundamental group; its action on the vertices is transitive.

    One pass over the edges reads each letter's map.  The graph
    is a covering exactly when every letter has one edge per vertex and
    its targets are distinct, so each map is a permutation; it is
    connected exactly when the group they generate is transitive.
    """
    graph = cover.graph if isinstance(cover, CoveringExpansion) else cover
    n = graph.num_vertices
    perms = [[-1] * n for _ in graph.alphabet.positive_letters()]
    counts = [0] * len(perms)
    for s, d, x in graph.geometric_edges():
        perms[x - 1][s] = d
        counts[x - 1] += 1
    for perm, count in zip(perms, counts):
        if count != n or -1 in perm or len(set(perm)) != n:
            raise ValueError("transition_group requires a covering")
    group = XGroup(graph.alphabet, perms)
    if not group.is_transitive():
        raise ValueError("transition_group requires a connected covering")
    return group
