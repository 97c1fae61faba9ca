"""The package's export list."""
import idmps


def test_all_names_resolve_once():
    assert len(idmps.__all__) == len(set(idmps.__all__))
    for name in idmps.__all__:
        assert hasattr(idmps, name), name
