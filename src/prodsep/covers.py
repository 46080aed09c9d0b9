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
    edges = list(graph.geometric_edges())
    original = len(edges)
    for x in graph.alphabet.positive_letters():
        no_out, no_in = _missing(graph, x)
        edges.extend((s, d, x) for s, d in zip(no_out, no_in))
    return CoveringExpansion(LabeledGraph(graph.alphabet, graph.num_vertices, edges),
                             original)


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
    base = graph.geometric_edges()
    out = []
    for added in _pairings(per_letter):
        g = LabeledGraph(graph.alphabet, graph.num_vertices, base + added)
        out.append(CoveringExpansion(g, len(base)))
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
    """
    graph = cover.graph if isinstance(cover, CoveringExpansion) else cover
    if not graph.is_covering():
        raise ValueError("transition_group requires a covering")
    if not graph.is_connected():
        raise ValueError("transition_group requires a connected covering")
    perms = []
    for x in graph.alphabet.positive_letters():
        perms.append(tuple(graph.dst(graph.out_dart(v, x))
                           for v in range(graph.num_vertices)))
    return XGroup(graph.alphabet, perms)
