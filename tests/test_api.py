import prodsep


def test_public_names_resolve_once():
    for name in prodsep.__all__:
        assert getattr(prodsep, name) is not None, name
    assert len(prodsep.__all__) == len(set(prodsep.__all__))
