import pathlib
import re

import prodsep

README = pathlib.Path(__file__).parent.parent / "README.md"


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
