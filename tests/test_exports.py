"""The package's export list and what the package reads from outside."""
import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import idmps

ROOT = pathlib.Path(__file__).resolve().parent.parent

# run in a fresh interpreter: prints, after each step, the scipy modules
# named in argv[1] that are loaded
IMPORT_PROBE = """
import json, os, sys
watched = json.loads(sys.argv[1])
out = sys.argv[2]

def loaded():
    return [m for m in watched if m in sys.modules]

import idmps, idmps.cli
steps = {"import": loaded()}
for name, argv in [
        ("special eval", ["special", "eval", "--fn", "theta3", "--z", "0.1",
                          "--R", "1", "--out", os.path.join(out, "t.json")]),
        ("state build", ["state", "build", "--model", "su2_1", "--label",
                         "0", "--N", "6", "--R", "0.05",
                         "--out", os.path.join(out, "p.state")]),
        ("state reference", ["state", "reference", "--which", "aklt", "--N",
                             "4", "--out", os.path.join(out, "a.state")]),
        ("scan radius", ["scan", "radius", "--model", "su2_1", "--label",
                         "0", "--N", "6", "--ham", "j1j2", "--J2", "0.3",
                         "--grid", "0.05,2,5",
                         "--out-dir", os.path.join(out, "scan")])]:
    assert idmps.cli.run(argv) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


def test_all_names_resolve_once():
    assert len(idmps.__all__) == len(set(idmps.__all__))
    for name in idmps.__all__:
        assert hasattr(idmps, name), name


def test_no_environment_knobs():
    # configuration comes from arguments and CLI flags only
    for path in pathlib.Path(idmps.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "os.environ" not in text and "os.getenv" not in text, path.name


def test_no_blas_norm_or_overlap():
    # state-length norms and overlaps go through hilbert.norm and
    # hilbert.inner, which sum by einsum: a threaded BLAS reduction stalls
    # when its worker thread sleeps and splits its sums by thread count
    banned = {"linalg.norm", "vdot"}
    for path in pathlib.Path(idmps.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = ast.unparse(node)
                assert not any(name == b or name.endswith("." + b)
                               for b in banned), (path.name, name)
            elif isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & {"norm", "vdot"} \
                    or node.level > 0, (path.name, node.module)


def test_scipy_loads_only_where_it_runs(tmp_path):
    # the package and the commands that build no operator load no scipy
    # module; an operator build loads scipy.sparse, and nothing loads
    # scipy.optimize
    watched = ["scipy.sparse", "scipy.sparse.linalg", "scipy.optimize"]
    steps = json.loads(_fresh_python(IMPORT_PROBE, json.dumps(watched),
                                     str(tmp_path)))
    for name in ("import", "special eval", "state build", "state reference"):
        assert steps[name] == [], name
    assert steps["scan radius"] == ["scipy.sparse", "scipy.sparse.linalg"]


# run in a fresh interpreter: prints the size of every per-size or per-tau
# cache after the package and its CLI are imported
CACHE_PROBE = """
import json
import idmps, idmps.cli
from idmps import blocks, hamiltonians, hilbert, special
print(json.dumps({
    "blocks._orbit_table": blocks._orbit_table.cache_info().currsize,
    "blocks._all_flavor_rows": blocks._all_flavor_rows.cache_info().currsize,
    "blocks._sz0_orbit_table": blocks._sz0_orbit_table.cache_info().currsize,
    "hamiltonians._pattern": hamiltonians._pattern.cache_info().currsize,
    "hilbert._listed_sector": hilbert._listed_sector.cache_info().currsize,
    "special._thetas_at_zero": special._thetas_at_zero.cache_info().currsize,
}))
"""


def _fresh_python(code, *args):
    """The last stdout line of code run in a fresh interpreter that imports
    idmps from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_import_fills_no_cache():
    # importing the package and its CLI does no per-size or per-tau work:
    # every such cache fills only when a command runs
    sizes = json.loads(_fresh_python(CACHE_PROBE))
    assert sizes == dict.fromkeys(sizes, 0) and len(sizes) == 6


def _third_party_imports(directory):
    """Top-level names of the absolute imports in directory's .py files that
    are not stdlib, not idmps and not a sibling file."""
    siblings = {path.stem for path in directory.glob("*.py")}
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names
            and name != "idmps" and name not in siblings}


def test_third_party_imports_are_declared():
    # without this, `pip install -e .[test]` can leave a test module's
    # import out, and --continue-on-collection-errors skips that module
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                for req in requirements}

    runtime = names(project["dependencies"])
    test = runtime | names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "src" / "idmps") <= runtime
    for directory in ("tests", "perfbench"):
        found = _third_party_imports(ROOT / directory)
        assert found <= test, (directory, found - test)
        assert found, directory
