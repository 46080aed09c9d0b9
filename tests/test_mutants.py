"""The kept mutant list stays applicable: each old text occurs exactly once,
and each named test exists.  ``python -m tests.mutants`` runs the mutants."""

import re

import pytest

from tests.mutants import MUTANTS, PACKAGE, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    text = (ROOT / PACKAGE / mutant.module).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {re.escape(name.split('[')[0])}\b",
                             source, re.M), node
