"""The package's export list and what the package reads from outside."""
import pathlib

import idmps


def test_all_names_resolve_once():
    assert len(idmps.__all__) == len(set(idmps.__all__))
    for name in idmps.__all__:
        assert hasattr(idmps, name), name


def test_no_environment_knobs():
    # configuration comes from arguments and CLI flags only
    for path in pathlib.Path(idmps.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "os.environ" not in text and "os.getenv" not in text, path.name
