"""Stallings graphs, covering expansions, p-elementary extensions, and
separators for product cosets of finitely generated subgroups of free groups."""

from .words import Alphabet, free_reduce, invert, is_reduced
from .errors import CapExceeded, InternalInvariantError
from .graphs import LabeledGraph, Path, reduce_path
from .stallings import (
    AttachedImmersion,
    PointedImmersion,
    attach_word,
    contains,
    stallings_graph,
)
from .covers import (
    CoveringExpansion,
    ExpansionEnumeration,
    enumerate_expansions,
    expand_to_cover,
    transition_group,
)
from .groups import DEFAULT_CAP, CayleyGraph, XGroup, cayley_graph, diagonal_subgroup
from .extensions import (
    ExtensionChain,
    ExtensionLevel,
    iterated_extension,
    signed_traversals,
    traversal_element,
)
from .rational import cancellation_closure, member_product, product_automaton
from .separators import (
    factorize,
    hall_separator,
    product_separator,
    project_path,
)

__all__ = [
    "Alphabet", "free_reduce", "invert", "is_reduced",
    "CapExceeded", "InternalInvariantError",
    "LabeledGraph", "Path", "reduce_path",
    "PointedImmersion", "AttachedImmersion",
    "stallings_graph", "contains", "attach_word",
    "CoveringExpansion", "ExpansionEnumeration",
    "expand_to_cover", "enumerate_expansions", "transition_group",
    "XGroup", "CayleyGraph", "cayley_graph", "diagonal_subgroup", "DEFAULT_CAP",
    "ExtensionChain", "ExtensionLevel", "iterated_extension",
    "signed_traversals", "traversal_element",
    "product_automaton", "cancellation_closure", "member_product",
    "hall_separator", "product_separator", "factorize",
    "project_path",
]
