"""Pinned outputs of the command-line pipeline, all at N <= 8.

Each case below is one `idmps` command, run in its own directory with
relative output paths; its files are compared with tests/pinned_outputs.json.
A manifest is compared with its `wall_time_s` and resolved `out_dir`
masked. Two kinds of case:

- "digest": outputs that are byte-identical from run to run (every
  special-function value, state file, dense ED solve and check report)
  compare by the SHA-256 of each file.
- "numbers": outputs of a Lanczos solve (the su2_2 scans at N=8, whose
  Sz=0 sector lies above numerics.DENSE_DIM_MAX) compare their numbers:
  scan energies and the ground energy within ENERGY_RTOL (relative, floor
  1), fidelities within FIDELITY_ATOL, the radius grid and edge flags
  exactly, and R_opt within REFINE_TOL where both edge flags are false (on
  a flat plateau the refinement may stop anywhere, so there only
  energy_opt is compared, within EDGE_TOL). Their manifests and file
  digests are recorded too, but only the manifests are compared by digest.

After a change that moves an output on purpose, regenerate the data file
with

    PYTHONPATH=src python tests/test_pinned_outputs.py write [DIR]

which reruns every case (in DIR, kept, if given) and names each changed
digest. To report how far the numbers of two runs' files moved (say, the
parent commit's DIR and the change's), run

    PYTHONPATH=src python tests/test_pinned_outputs.py diff OLD_DIR NEW_DIR

which prints, for each file whose bytes differ, each field whose numbers
moved, its largest change relative to the largest magnitude in that field,
and its largest absolute change, as `total_spin[] 0.00213 (abs 2.1e-37)`,
and then each changed bool, string or null leaf as
`at_lower_edge false -> true`.
"""
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import sys
import tempfile

import pytest

from idmps import cli
from idmps.experiments import EDGE_TOL, REFINE_TOL
from idmps.hilbert import StateVector

DATA = pathlib.Path(__file__).resolve().parent / "pinned_outputs.json"

ENERGY_RTOL = 1e-12
FIDELITY_ATOL = 1e-12

# ln 2 / pi = 0.2206 (the NOME_SPLIT radius) lies between 0.2 and 0.3
RADII = ("0.02", "0.2", "0.3", "3")
BLOCKS = (("su2_1", "0", "8"), ("su2_1", "half", "8"),
          ("su2_2", "2", "6"), ("su2_2", "3", "6"), ("su2_2", "4", "6"))


def _cases():
    """(name, kind, argv) of every pinned command."""
    cases = []
    for fn in cli.SPECIAL_FNS:
        for R in ("0.05", "1"):
            cases.append((f"special-{fn}-R{R}", "digest",
                          ["special", "eval", "--fn", fn, "--z", "0.3,0.1",
                           "--R", R, "--out", "value.json"]))
    for model, label, N in BLOCKS:
        block = ["--model", model, "--label", label, "--N", N]
        for R in RADII:
            cases.append((f"state-{model}-{label}-N{N}-R{R}", "digest",
                          ["state", "build", *block, "--R", R,
                           "--out", "block.state"]))
        cases.append((f"state-{model}-{label}-N{N}-cylinder", "digest",
                      ["state", "build", *block, "--cylinder",
                       "--out", "block.state"]))
    for which in cli.REFERENCES:
        cases.append((f"reference-{which}-N6", "digest",
                      ["state", "reference", "--which", which, "--N", "6",
                       "--out", "ref.state"]))
    for name, kind, args in (
            ("su2_1-0-j1j2-N8", "digest",
             ["--model", "su2_1", "--label", "0", "--N", "8",
              "--ham", "j1j2", "--J2", "0.3"]),
            ("su2_1-half-j1j2-N8", "digest",
             ["--model", "su2_1", "--label", "half", "--N", "8",
              "--ham", "j1j2", "--J2", "0.5", "--grid", "0.05,5,5"]),
            ("su2_2-2-qbq-N6", "digest",
             ["--model", "su2_2", "--label", "2", "--N", "6",
              "--ham", "qbq", "--theta", "0.2", "--grid", "0.05,5,3"]),
            ("su2_2-4-qbq-N8-theta0.2", "numbers",
             ["--model", "su2_2", "--label", "4", "--N", "8",
              "--ham", "qbq", "--theta", "0.2"]),
            ("su2_2-4-qbq-N8-theta2.0", "numbers",
             ["--model", "su2_2", "--label", "4", "--N", "8",
              "--ham", "qbq", "--theta", "2.0"])):
        cases.append((f"scan-{name}", kind,
                      ["scan", "radius", *args, "--out-dir", "."]))
    cases.append(("phase-su2_1-0-j1j2-N8", "digest",
                  ["scan", "phase", "--model", "su2_1", "--label", "0",
                   "--N", "8", "--ham", "j1j2",
                   "--param-grid", "0,0.25,0.5,0.75",
                   "--grid", "0.02,30,9", "--out-dir", "."]))
    cases.append(("suite-N4", "digest",
                  ["check", "suite", "--N", "4", "--out-dir", "."]))
    for model, label, N, target, radii in (
            ("su2_1", "0", "8", "mg", "0.2,0.1,0.05"),
            ("su2_1", "0", "8", "hs", "1,3,10"),
            ("su2_2", "3", "6", "s1dimer", "0.2,0.1,0.05"),
            ("su2_2", "4", "6", "aklt-circ", "0.2,0.1,0.05")):
        cases.append((f"limits-{model}-{label}-N{N}-{target}", "digest",
                      ["check", "limits", "--model", model, "--label", label,
                       "--N", N, "--target", target, "--radii", radii,
                       "--out-dir", "."]))
    for ham, N, k, coupling in (("j1j2", "8", "2", ["--J2", "0.5"]),
                                ("qbq", "6", "1", ["--theta", "0.3"])):
        cases.append((f"ed-{ham}-N{N}-k{k}", "digest",
                      ["ed", "ground", "--ham", ham, "--N", N, *coupling,
                       "--k", k, "--vectors", "--out", "ground.json"]))
    return cases


CASES = _cases()


def _masked(name, data):
    """A manifest with wall_time_s and out_dir masked; other files as is."""
    if not name.endswith("manifest.json"):
        return data
    doc = json.loads(data)
    doc["wall_time_s"] = None
    if "out_dir" in doc["resolved_config"]:
        doc["resolved_config"]["out_dir"] = None
    return cli._dump_json(doc).encode()


def run_case(argv, workdir):
    """(exit code, {file name: masked bytes}) of one command run in the
    empty directory workdir; stdout is discarded."""
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = _masked(name, fh.read())
    return code, files


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _scan_numbers(files):
    """The scan JSON document of a "numbers" case, after checking that the
    CSV holds the same rows."""
    doc = json.loads(files["radius_scan.json"])
    rows = list(csv.reader(io.StringIO(files["radius_scan.csv"].decode())))
    assert [[float(x) for x in row] for row in rows[1:]] == doc["rows"]
    return doc


def _record(code, files, kind):
    entry = {"kind": kind, "exit_code": code,
             "sha256": {name: _digest(data) for name, data in files.items()}}
    if kind == "numbers":
        entry["numbers"] = _scan_numbers(files)
    return entry


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _check_scan(got, want):
    """Problems of a scan document against its pinned numbers."""
    problems = []
    for key in ("model", "label", "N", "ham", "objective",
                "at_lower_edge", "unbounded"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    if [r for r, _, _ in got["rows"]] != [r for r, _, _ in want["rows"]]:
        problems.append("radius grid differs")
    pairs = [("ground_energy", got["ground_energy"], want["ground_energy"],
              ENERGY_RTOL, True)]
    for (R, e, f), (_, e0, f0) in zip(got["rows"], want["rows"]):
        pairs += [(f"energy at R={R}", e, e0, ENERGY_RTOL, True),
                  (f"fidelity at R={R}", f, f0, FIDELITY_ATOL, False)]
    if not (want["at_lower_edge"] or want["unbounded"]):
        pairs += [("energy_opt", got["energy_opt"], want["energy_opt"],
                   ENERGY_RTOL, True),
                  ("fidelity_opt", got["fidelity_opt"], want["fidelity_opt"],
                   FIDELITY_ATOL, False),
                  ("R_opt", got["R_opt"], want["R_opt"], REFINE_TOL, False)]
    else:
        pairs.append(("energy_opt", got["energy_opt"], want["energy_opt"],
                      EDGE_TOL, True))
    for what, x, x0, tol, relative in pairs:
        ok = _close(x, x0, tol) if relative else abs(x - x0) <= tol
        if not ok:
            problems.append(f"{what}: {x!r} vs pinned {x0!r}")
    return problems


def _pinned():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,kind,argv", CASES,
                         ids=[name for name, _, _ in CASES])
def test_pinned_output(name, kind, argv, tmp_path):
    want = _pinned()[name]
    assert want["kind"] == kind
    code, files = run_case(argv, str(tmp_path / name))
    assert code == want["exit_code"]
    assert sorted(files) == sorted(want["sha256"])
    if kind == "digest":
        changed = [f for f, data in files.items()
                   if _digest(data) != want["sha256"][f]]
    else:
        changed = [f for f, data in files.items() if f.endswith(
            "manifest.json") and _digest(data) != want["sha256"][f]]
        assert _check_scan(_scan_numbers(files), want["numbers"]) == []
    assert changed == [], f"{name}: {changed} changed"


def test_every_case_is_pinned():
    assert sorted(_pinned()) == sorted(name for name, _, _ in CASES)


def test_diff_prints_absolute_next_to_relative_changes(tmp_path, capsys):
    for side, sz in (("old", 1e-34), ("new", 1e-34 + 2.1e-37)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "state.json").write_text(json.dumps(
            {"total_spin": [0.0, sz], "N": 4}))
    assert main(["diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == \
        "state.json: .total_spin[] 0.0021 (abs 2.1e-37)\n"


def test_diff_prints_changed_flags_strings_and_nulls(tmp_path, capsys):
    docs = {"old": {"at_lower_edge": False, "R_opt": 0.02,
                    "pairing": {"thin_torus_target": None},
                    "sweep": [{"error": "no singlet"}, {"error": None}]},
            "new": {"at_lower_edge": True, "R_opt": 0.02,
                    "pairing": {"thin_torus_target": "mg"},
                    "sweep": [{"error": "no singlet"}, {"error": "gap"}]}}
    for side, doc in docs.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "scan.json").write_text(json.dumps(doc))
    assert main(["diff", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == (
        'scan.json: .at_lower_edge false -> true, .pairing.thin_torus_target '
        'null -> "mg", .sweep[].error null -> "gap"\n')


# ------------------------------------------------------------ regeneration

def write(outdir):
    """Rerun every case under outdir and rewrite the data file; returns the
    names of the files whose digests changed."""
    old = _pinned() if DATA.exists() else {}
    new, changed = {}, []
    for name, kind, argv in CASES:
        code, files = run_case(argv, os.path.join(outdir, name))
        new[name] = _record(code, files, kind)
        before = old.get(name, {}).get("sha256", {})
        changed += [f"{name}/{f}" for f, h in new[name]["sha256"].items()
                    if before.get(f) != h]
    with open(DATA, "w") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return changed


def _leaves(path):
    """{field: [values]} of one output file, numbers as floats and JSON's
    other leaves (bools, strings, nulls) as they are; list indices are
    dropped from the field names, so an array's entries share one
    field."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".state"):
        return {"amplitudes": list(StateVector.from_bytes(data).amplitudes)}
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        return {col: [float(row[i]) for row in rows[1:]]
                for i, col in enumerate(rows[0])}
    out = {}

    def walk(node, field):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{field}.{key}")
        elif isinstance(node, list):
            for value in node:
                walk(value, field + "[]")
        else:
            out.setdefault(field, []).append(
                float(node) if _is_number(node) else node)

    walk(json.loads(data), "")
    return out


_MISSING = object()


def _is_number(value):
    return (isinstance(value, (int, float, complex))
            and not isinstance(value, bool))


def _text(value):
    return "missing" if value is _MISSING else json.dumps(value)


def diff(old_dir, new_dir):
    """[(file, {field: (largest relative change, largest absolute
    change)}, [(field, old, new)])] for each file under both directories
    whose bytes differ. The dict holds the fields of numbers alone whose
    numbers moved; a relative change is measured against the largest
    magnitude in its field, and both are nan where a field's length
    differs or it is missing on one side. The list holds, as JSON text,
    each changed leaf of the other fields (a bool, string or null, or
    "missing" past the end of the shorter side)."""
    report = []
    for root, _, names in sorted(os.walk(new_dir)):
        for name in sorted(names):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, new_dir)
            other = os.path.join(old_dir, rel)
            with open(path, "rb") as fa, open(other, "rb") as fb:
                if _masked(name, fa.read()) == _masked(name, fb.read()):
                    continue
            a, b = _leaves(other), _leaves(path)
            moved, changed = {}, []
            for key in sorted(a.keys() | b.keys()):
                x, y = a.get(key), b.get(key)
                if not all(map(_is_number, (x or []) + (y or []))):
                    changed += [
                        (key, _text(u), _text(v)) for u, v in
                        itertools.zip_longest(x or [], y or [],
                                              fillvalue=_MISSING)
                        if _text(u) != _text(v)]
                elif x is None or y is None or len(x) != len(y):
                    moved[key] = (math.nan, math.nan)
                elif x != y:
                    scale = max(abs(v) for v in x) or 1.0
                    change = max(abs(u - v) for u, v in zip(x, y))
                    moved[key] = (change / scale, change)
            report.append((rel, moved, changed))
    return report


def main(argv):
    if argv[:1] == ["write"] and len(argv) <= 2:
        if len(argv) == 2:
            changed = write(argv[1])
        else:
            with tempfile.TemporaryDirectory() as tmp:
                changed = write(tmp)
        print("\n".join(f"changed {f}" for f in changed)
              or "no digest changed")
    elif argv[:1] == ["diff"] and len(argv) == 3:
        for rel, moved, changed in diff(argv[1], argv[2]):
            print(f"{rel}: " + (", ".join(
                [f"{key} {relative:.3g} (abs {change:.2g})"
                 for key, (relative, change) in moved.items()]
                + [f"{key} {old} -> {new}" for key, old, new in changed])
                or "no value moved"))
    else:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: test_pinned_outputs.py write [DIR] | "
              "diff OLD_DIR NEW_DIR", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
