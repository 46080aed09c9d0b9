"""Expanding immersions to coverings and reading off their transition groups.

An immersion has, per vertex and letter, at most one outgoing edge; a
covering has exactly one.  Completing the partial letter actions to
permutations (which is always possible, they are injective) yields a
covering with the same vertex set.
"""

import itertools
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


def _letter_maps(graph):
    """Per positive letter x, the partial maps of its edges, forward and
    backward: out[s] = d and back[d] = s for each x-edge s -> d, -1 where
    there is none; None unless the graph is an immersion.

    One pass over the edges: the graph is an immersion exactly when no two
    x-edges share a source or a target.
    """
    n = graph.num_vertices
    maps = [([-1] * n, [-1] * n) for _ in graph.alphabet.positive_letters()]
    src = graph._src
    for s, d, x in zip(src[0::2], src[1::2], graph._label[0::2]):
        out, back = maps[x - 1]
        if out[s] >= 0 or back[d] >= 0:
            return None
        out[s] = d
        back[d] = s
    return maps


def _gaps(partial):
    """The points a partial map leaves undefined, ascending."""
    return [v for v, image in enumerate(partial) if image < 0]


def _missing(graph):
    """Per positive letter x, (x, vertices missing an outgoing x-edge,
    vertices missing an incoming x-edge), both ascending; None unless the
    graph is an immersion."""
    maps = _letter_maps(graph)
    if maps is None:
        return None
    return [(x, _gaps(out), _gaps(back))
            for x, (out, back) in zip(graph.alphabet.positive_letters(), maps)]


def expand_to_cover(graph):
    """The canonical covering expansion: pair missing ends positionally by id."""
    missing = _missing(graph)
    if missing is None:
        raise ValueError("expand_to_cover requires an immersion")
    added = [(s, d, x) for x, no_out, no_in in missing for s, d in zip(no_out, no_in)]
    return CoveringExpansion(graph._extended(graph.num_vertices, added),
                             graph.num_geometric_edges)


def enumerate_expansions(graph, cap=1000):
    """All covering expansions, unless there are more than cap of them.

    The result's ``complete`` flag distinguishes exhaustion from hitting
    the cap; the listed prefix, the first cap expansions, is deterministic
    either way.  Pairings are generated lazily, so the work stops one past
    the cap.  Distinct pairings add distinct edges, so no expansion is
    listed twice.
    """
    per_letter = _missing(graph)
    if per_letter is None:
        raise ValueError("enumerate_expansions requires an immersion")
    pairings = list(itertools.islice(_pairings(per_letter), cap + 1))
    return ExpansionEnumeration(
        tuple(CoveringExpansion(graph._extended(graph.num_vertices, added),
                                graph.num_geometric_edges) for added in pairings[:cap]),
        len(pairings) <= cap)


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

    One pass over the edges reads each letter's map.  The graph is a
    covering exactly when it is an immersion whose maps are defined at
    every vertex, so each map is a permutation; it is connected exactly
    when the group they generate is transitive.
    """
    graph = cover.graph if isinstance(cover, CoveringExpansion) else cover
    maps = _letter_maps(graph)
    if maps is None or any(-1 in out for out, _ in maps):
        raise ValueError("transition_group requires a covering")
    group = XGroup(graph.alphabet, [out for out, _ in maps])
    if not group.is_transitive():
        raise ValueError("transition_group requires a connected covering")
    return group


def _cover_perms(graph):
    """The generators of ``transition_group(expand_to_cover(graph))``, one
    list per positive letter, read without building the covering or the
    group.

    Each letter's map is completed as the expansion completes it: its
    missing sources go to its missing targets, paired in id order.  The
    expansion adds no vertex, so the covering of a connected immersion is
    connected and the group is transitive by construction; the
    constructions call this on the connected immersions they build, and
    nothing is re-checked.
    """
    maps = _letter_maps(graph)
    if maps is None:
        raise ValueError("the covering expansion requires an immersion")
    perms = []
    for out, back in maps:
        for s, d in zip(_gaps(out), _gaps(back)):
            out[s] = d
        perms.append(out)
    return perms
