import pathlib
import re

import pytest

import prodsep
from prodsep import certificates
from prodsep.covers import enumerate_expansions
from prodsep.graphs import LabeledGraph
from prodsep.groups import XGroup, diagonal_subgroup
from prodsep.words import Alphabet

from tests.helpers import source_imports

ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"
SPANS = ROOT / "bench" / "spans.py"


def test_public_names_resolve_once():
    for name in prodsep.__all__:
        assert getattr(prodsep, name) is not None, name
    assert len(prodsep.__all__) == len(set(prodsep.__all__))


def test_readme_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    ns = {}
    exec(block, ns)
    A = ns["A"]
    assert ns["ps"].contains(ns["h"], A.parse("xyX")) is False
    assert ns["wit"].excluded is True
    assert ns["f"].factors == (A.parse("xx"), A.parse("yy"))


def test_what_the_bench_calls_resolves():
    # bench/ runs against the package by these names and argument forms
    from prodsep import certificates, separators

    A = prodsep.Alphabet("xy")
    subgroups = ([A.parse("xx")], [A.parse("yy")])
    word = A.parse("xxyy")
    f = prodsep.factorize(A, subgroups, word, cap=4096,
                          stats=separators.FactorizeStats())
    assert certificates.emit_certificate(f, A, subgroups, word) == \
        certificates.emit_certificate(f)
    assert prodsep.product_separator(A, subgroups, A.parse("xy"), cap=4096).excluded is True
    top = prodsep.iterated_extension(prodsep.XGroup(A, [(1, 0), (1, 0)]), (2,)).top
    assert separators.image_subgroup_order(top, [A.parse("x")], 4096) == 4
    # every separators/certificates attribute bench/spans.py wraps names a
    # traced layer; one that is gone prints "not found" and is not traced
    modules = {"sep": [separators], "cert": [certificates],
               "module": [separators, certificates]}
    wrapped = re.findall(r'tracer\.wrap\((\w+), "(\w+)"', SPANS.read_text())
    assert len(wrapped) >= 10
    missing = {f"{m.__name__.rpartition('.')[2]}.{attr}"
               for key, attr in wrapped for m in modules[key]
               if not hasattr(m, attr)}
    # the known stale entries: the construction no longer has them; it reads
    # reduced words and its own immersions through private entries, and
    # neither the construction nor the verifier lists an image
    assert missing == {"separators._product_member", "separators._product_with_witness",
                       "separators.stallings_graph", "separators.attach_word",
                       "separators.expand_to_cover", "separators.transition_group",
                       "separators.image_subgroup",
                       "certificates.image_subgroup", "certificates._product_member"}


A = Alphabet("xy")


@pytest.mark.parametrize("call, message", [
    (lambda: XGroup(A, [(1, 0)]), "need exactly one permutation per generator"),
    (lambda: diagonal_subgroup([]), "need at least one group"),
    (lambda: diagonal_subgroup([XGroup(A, [(0,), (0,)]), XGroup(Alphabet("x"), [(0,)])]),
     "groups must share the alphabet"),
    (lambda: enumerate_expansions(LabeledGraph(A, 3, [(0, 1, 1), (0, 2, 1)])),
     "enumerate_expansions requires an immersion"),
], ids=["one-perm-for-xy", "empty-diagonal", "two-alphabets", "non-immersion"])
def test_bad_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_verifier_reads_only_primitives_from_the_package():
    # certificates re-checks claims with words, graphs and groups; from the
    # chain it takes only the tower of levels, whose constructor checks the
    # primes, and from the Stallings layer only the folding and membership
    imported = source_imports(certificates)
    assert imported[".extensions"] == {"ExtensionChain"}
    assert imported[".stallings"] == {"contains", "stallings_graph"}
