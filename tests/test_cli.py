"""Command-line behavior: exit codes, file outputs, manifest replay."""
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from idmps import blocks, cli, hamiltonians, hilbert, refstates, special
from idmps.blocks import BlockSpec
from idmps.hamiltonians import HamiltonianSpec
from idmps.hilbert import StateVector


def run(*argv):
    return cli.run(list(argv))


def test_special_eval_prints_full_precision_record(capsys):
    assert run("special", "eval", "--fn", "theta3",
               "--z", "0.1,0.05", "--R", "1.2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fn"] == "theta3" and doc["z"] == [0.1, 0.05]
    want = special.theta_nu(3, 0.1 + 0.05j, 1.2j)
    assert doc["value_re"] == want.real and doc["value_im"] == want.imag


@pytest.mark.parametrize("fn,ref", [
    ("prime", lambda z, tau: special.prime_form(z, tau)),
    ("wp2", lambda z, tau: special.weierstrass_nu(2, z, tau)),
    ("wp4", lambda z, tau: special.weierstrass_nu(4, z, tau)),
])
def test_special_eval_dispatch(fn, ref, capsys):
    assert run("special", "eval", "--fn", fn, "--z", "0.3", "--R", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    want = ref(0.3 + 0j, 2j)
    assert abs(complex(doc["value_re"], doc["value_im"]) - want) == 0


def test_special_eval_error_exit_codes(capsys):
    # a kernel pole and a non-positive radius are both input problems
    assert run("special", "eval", "--fn", "wp2", "--z", "0", "--R", "1") == 1
    assert run("special", "eval", "--fn", "theta1",
               "--z", "0.1", "--R", "-3") == 1
    assert run("special", "eval", "--fn", "nope",
               "--z", "0.1", "--R", "1") == 1
    # a non-finite z is refused before any series is summed
    assert run("special", "eval", "--fn", "theta3",
               "--z", "nan", "--R", "1") == 1
    assert run("special", "eval", "--fn", "wp3", "--z=0.1,inf", "--R", "1") == 1
    assert "z must be finite" in capsys.readouterr().err


def test_special_eval_refuses_to_write_an_overflowed_value(tmp_path, capsys):
    # strict JSON has no Infinity: the value is reported by its logarithm
    out = tmp_path / "prime.json"
    assert run("special", "eval", "--fn", "prime", "--z", "0.5,400",
               "--R", "1", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "log|value| = 502653.68" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fn", ["theta3", "prime", "wp2"])
@pytest.mark.parametrize("R", ["1", "0.05"])
def test_special_eval_refuses_z_past_the_exponent_bound(tmp_path, capsys, fn,
                                                        R):
    # an input problem (exit 1), not a series that fails to converge (exit 2)
    out = tmp_path / "v.json"
    assert run("special", "eval", "--fn", fn, "--z=0.3,1e200", "--R", R,
               "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "EXPONENT_MAX" in captured.err
    assert list(tmp_path.iterdir()) == []


def read_state(path):
    with open(path, "rb") as fh:
        return StateVector.from_bytes(fh.read())


def test_state_build_writes_binary_json_and_manifest(tmp_path):
    out = str(tmp_path / "psi0.state")
    assert run("state", "build", "--model", "su2_1", "--label", "0",
               "--N", "6", "--R", "0.05", "--out", out) == 0
    v = read_state(out)
    doc = json.loads(open(out + ".json").read())
    w = StateVector.from_json(json.dumps(doc))
    assert np.array_equal(v.amplitudes, w.amplitudes)
    spec = BlockSpec("su2_1", 0, 6)
    assert np.array_equal(v.amplitudes,
                          blocks.build_state(spec, 0.05).amplitudes)
    mom = blocks.momentum_eigenvalue(spec)
    assert doc["momentum_eigenvalue"] == [mom.real, mom.imag]
    assert doc["spec"]["name"] == "psi0" and doc["basis"] == "spin"
    assert abs(doc["total_spin"][0]) < 1e-8
    assert doc["pairing"]["thin_torus_target"] == "mg-"
    man = json.loads(open(out + ".manifest.json").read())
    assert man["command"] == ["state", "build"]
    assert man["resolved_config"]["R"] == 0.05
    assert sorted(man["outputs"]) == ["psi0.state", "psi0.state.json"]


def test_state_build_cylinder_and_validation(tmp_path):
    out = str(tmp_path / "half.state")
    assert run("state", "build", "--model", "su2_1", "--label", "half",
               "--N", "6", "--cylinder", "--out", out) == 0
    doc = json.loads(open(out + ".json").read())
    assert doc["cylinder"] and doc["R"] is None
    assert doc["global_log_scale"] is None and doc["pairing"] is None
    ref = blocks.build_state(BlockSpec("su2_1", "half", 6), None)
    assert np.array_equal(read_state(out).amplitudes, ref.amplitudes)
    # odd N and a missing radius are validation failures
    assert run("state", "build", "--model", "su2_1", "--label", "0",
               "--N", "3", "--R", "1", "--out", out) == 1
    assert run("state", "build", "--model", "su2_1", "--label", "0",
               "--N", "4", "--out", out) == 1


def test_state_build_torus_records_scale_but_no_pairing_at_large_R(tmp_path):
    out = str(tmp_path / "p2.state")
    assert run("state", "build", "--model", "su2_2", "--label", "2",
               "--N", "4", "--R", "1", "--out", out) == 0
    doc = json.loads(open(out + ".json").read())
    assert doc["basis"] == "circular" and doc["pairing"] is None
    assert isinstance(doc["global_log_scale"], float)
    assert abs(doc["total_spin"][0]) < 1e-8


def build_pairing(tmp_path, model, label, N, R):
    """The pairing record that `state build` writes into the state JSON."""
    out = str(tmp_path / f"{model}_{label}_{N}.state")
    assert run("state", "build", "--model", model, "--label", str(label),
               "--N", str(N), "--R", str(R), "--out", out) == 0
    return json.loads(open(out + ".json").read())["pairing"]


def test_thin_torus_pairing_metadata(tmp_path, monkeypatch):
    # the pairing looks its constructors and the fidelity up at call time
    calls = []

    def logged(module, attr):
        fn = getattr(module, attr)

        def call(*args):
            calls.append(attr)
            return fn(*args)
        monkeypatch.setattr(module, attr, call)

    logged(refstates, "mg_combination")
    logged(hilbert, "fidelity_per_site")
    p = build_pairing(tmp_path, "su2_1", 0, 8, 0.05)
    assert p["thin_torus_target"] == "mg+"
    assert p["fidelity_per_site"] > 1 - 1e-4
    assert calls == ["mg_combination", "fidelity_per_site"] * 2
    assert build_pairing(tmp_path, "su2_1", "half", 8, 0.05)[
        "thin_torus_target"] == "mg-"
    # mg+ vanishes identically at N=2, so mg- is the only candidate left
    p = build_pairing(tmp_path, "su2_1", 0, 2, 0.05)
    assert p["thin_torus_target"] == "mg-"
    assert p["fidelity_per_site"] > 1 - 1e-4
    # away from the thin-torus regime no pairing is recorded
    assert build_pairing(tmp_path, "su2_1", 0, 6, 1.0) is None


def test_thin_torus_pairing_su2_2(tmp_path):
    want = {2: "s1dimer-", 3: "s1dimer+", 4: "aklt-circ"}
    for label, target in want.items():
        p = build_pairing(tmp_path, "su2_2", label, 6, 0.05)
        assert p["thin_torus_target"] == target
        assert p["fidelity_per_site"] > 1 - 1e-4


@pytest.mark.parametrize("which,d", [
    ("mg+", 2), ("mg-", 2), ("dimer0", 2), ("dimer1", 2),
    ("hs", 2), ("hs-exc", 2),
    ("aklt", 3), ("aklt-circ", 3), ("s1dimer+", 3), ("s1dimer-", 3),
])
def test_state_reference_targets(tmp_path, which, d):
    out = str(tmp_path / "ref.state")
    assert run("state", "reference", "--which", which,
               "--N", "4", "--out", out) == 0
    v = read_state(out)
    assert (v.N, v.d) == (4, d)
    doc = json.loads(open(out + ".json").read())
    assert doc["which"] == which
    assert abs(doc["total_spin"][0]) < 1e-8


def test_ed_ground_energies_and_vectors(tmp_path):
    out = str(tmp_path / "mg.json")
    assert run("ed", "ground", "--ham", "j1j2", "--N", "6", "--J2", "0.5",
               "--k", "2", "--vectors", "--out", out) == 0
    doc = json.loads(open(out).read())
    assert doc["energies"] == pytest.approx([-2.25, -2.25], abs=1e-9)
    h = hamiltonians.build(HamiltonianSpec("j1j2", 6, J2=0.5))
    for i in range(2):
        vec = read_state(str(tmp_path / f"mg_vec{i}.state"))
        res = hamiltonians.eigenstate_residual(h, vec, doc["energies"][i])
        assert res < 1e-8
    assert run("ed", "ground", "--ham", "parent", "--N", "4",
               "--out", str(tmp_path / "p.json")) == 0
    assert abs(json.loads(open(tmp_path / "p.json").read())
               ["energies"][0]) < 1e-8
    assert run("ed", "ground", "--ham", "hs", "--N", "4", "--k", "0",
               "--out", out) == 1


def test_ed_ground_refuses_a_zero_chain_past_the_dense_limit(tmp_path,
                                                            capsys):
    out = tmp_path / "z.json"
    assert run("ed", "ground", "--ham", "j1j2", "--N", "12", "--J1", "0",
               "--J2", "0", "--out", str(out)) == 1
    assert "operator is zero" in capsys.readouterr().err
    assert not out.exists()


def test_ed_ground_on_a_127_fold_level(tmp_path):
    # every Sz sector of sum (S_i.S_{i+1})^2 at N=7 is solved; the Sz=0
    # one (dim 393, a Lanczos solve) holds 127 copies of the ground level
    out = tmp_path / "q.json"
    assert run("ed", "ground", "--ham", "qbq", "--N", "7",
               "--theta", "1.5707963267948966", "--k", "1",
               "--out", str(out)) == 0
    assert json.loads(out.read_text())["energies"] == [7.0]


def test_scan_radius_cli_outputs(tmp_path):
    out = str(tmp_path / "a")
    assert run("scan", "radius", "--model", "su2_1", "--label", "0",
               "--N", "6", "--ham", "j1j2", "--J2", "0.5",
               "--grid", "0.02,2,6", "--out-dir", out) == 0
    lines = open(out + "/radius_scan.csv").read().strip().split("\n")
    assert lines[0] == "R,energy,fidelity_per_site"
    assert len(lines) == 7
    doc = json.loads(open(out + "/radius_scan.json").read())
    assert doc["at_lower_edge"] and doc["fidelity_opt"] >= 1 - 1e-6


# each run writes its outputs under {a}; the replay of its manifest writes
# under {b}, the output flag given explicitly so that it wins
@pytest.mark.parametrize("argv,manifest,out", [
    (["special", "eval", "--fn", "wp3", "--z=-0.27,0.4", "--R", "0.7",
      "--out", "{a}/wp.json"], "wp.json.manifest.json", "--out={b}/wp.json"),
    (["state", "build", "--model", "su2_2", "--label", "2", "--N", "6",
      "--R", "0.05", "--out", "{a}/psi2.state"],
     "psi2.state.manifest.json", "--out={b}/psi2.state"),
    (["state", "build", "--model", "su2_1", "--label", "half", "--N", "6",
      "--cylinder", "--out", "{a}/half.state"],
     "half.state.manifest.json", "--out={b}/half.state"),
    (["ed", "ground", "--ham", "j1j2", "--N", "6", "--J2", "0.5", "--k", "2",
      "--vectors", "--out", "{a}/mg.json"],
     "mg.json.manifest.json", "--out={b}/mg.json"),
    (["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "6",
      "--ham", "j1j2", "--J2", "0.5", "--grid", "0.02,2,6",
      "--out-dir", "{a}"], "manifest.json", "--out-dir={b}"),
    (["scan", "phase", "--model", "su2_2", "--label", "4", "--N", "4",
      "--ham", "qbq", "--param-grid", "0.1,0.32175", "--grid", "0.02,1,4",
      "--out-dir", "{a}"], "manifest.json", "--out-dir={b}"),
    (["check", "limits", "--model", "su2_2", "--label", "4", "--N", "4",
      "--target", "aklt-circ", "--radii", "0.4,0.2,0.1",
      "--out-dir", "{a}"], "manifest.json", "--out-dir={b}"),
], ids=["special-eval", "state-build", "state-build-cylinder", "ed-ground",
        "scan-radius", "scan-phase", "check-limits"])
def test_manifest_replay_is_byte_identical(tmp_path, capsys, argv, manifest,
                                           out):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert cli.run([t.format(a=a) for t in argv]) == 0
    man = json.loads((a / manifest).read_text())
    assert cli.run([*argv[:2], "--config", str(a / manifest),
                    out.format(b=b)]) == 0
    assert man["outputs"] and sorted(p.name for p in b.iterdir()) == \
        sorted(p.name for p in a.iterdir())
    for name in man["outputs"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()


# the commands whose files must not depend on the BLAS thread count: at
# N >= 14 a threaded BLAS dot splits its sums by thread count
THREAD_COMMANDS = [
    ["state", "build", "--model", "su2_1", "--label", "0", "--N", "14",
     "--R", "0.7", "--out", "n14.state"],
    ["state", "build", "--model", "su2_1", "--label", "0", "--N", "16",
     "--R", "0.7", "--out", "n16.state"],
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "14",
     "--ham", "j1j2", "--J2", "0.3", "--grid", "0.02,30,3",
     "--out-dir", "scan"],
    # two rank-2 subspaces: the mg pair, and the 2-fold ground level of
    # the Majumdar-Ghosh chain
    ["check", "limits", "--model", "su2_1", "--label", "0", "--N", "14",
     "--target", "mg", "--radii", "0.2,0.1,0.05", "--out-dir", "limits"],
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "14",
     "--ham", "j1j2", "--J2", "0.5", "--grid", "0.02,30,3",
     "--out-dir", "scan-mg"]]


def _outputs_with_blas_threads(threads, workdir):
    """{relative path: bytes} of THREAD_COMMANDS run in a fresh interpreter
    in workdir with OpenBLAS and OpenMP set to the given thread count;
    each manifest's wall_time_s is masked."""
    workdir.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys\nfrom idmps import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.run(argv) == 0, argv\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(THREAD_COMMANDS)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name.endswith("manifest.json"):
                doc = json.loads(data)
                doc["wall_time_s"] = None
                data = cli._dump_json(doc).encode()
            files[str(path.relative_to(workdir))] = data
    return files


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """State files, scans and a limit table at N >= 14 are byte-identical
    with one and with two BLAS threads: no norm or overlap of a state goes
    through BLAS.
    On a 1-core runner both runs are single-threaded, and the test
    compares two single-threaded runs."""
    one = _outputs_with_blas_threads(1, tmp_path / "one")
    two = _outputs_with_blas_threads(2, tmp_path / "two")
    assert len(one) == 15 and sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name


def test_scan_phase_cli(tmp_path):
    out = str(tmp_path / "sweep")
    assert run("scan", "phase", "--model", "su2_1", "--label", "0",
               "--N", "4", "--ham", "j1j2", "--param-grid", "0.5",
               "--grid", "0.02,1,4", "--out-dir", out) == 0
    lines = open(out + "/phase_sweep.csv").read().strip().split("\n")
    assert lines[0] == "param,R_opt,energy_opt,ground_energy,fidelity_per_site"
    assert len(lines) == 2
    doc = json.loads(open(out + "/phase_sweep.json").read())
    assert doc[0]["error"] is None
    assert doc[0]["scan"]["fidelity_opt"] >= 1 - 1e-6


def test_check_suite_exit_codes(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "chk")
    assert run("check", "suite", "--N", "4", "--radii", "0.5",
               "--out-dir", out) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(open(out + "/suite.json").read())
    assert printed == stored and stored["pass"]
    monkeypatch.setattr(blocks, "marshall_sign", lambda c: 1.0)
    assert run("check", "suite", "--N", "4", "--radii", "0.5") == 3
    capsys.readouterr()


def test_check_limits_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "lim")
    assert run("check", "limits", "--model", "su2_2", "--label", "4",
               "--N", "4", "--target", "aklt-circ",
               "--radii", "0.4,0.2,0.1,0.05", "--out-dir", out) == 0
    lines = open(out + "/limits.csv").read().strip().split("\n")
    assert lines[0] == "R,infidelity_per_site" and len(lines) == 5
    doc = json.loads(open(out + "/limits.json").read())
    assert doc["pass"] and doc["rows"][-1][1] <= 1e-4
    # walking away from the limit is a failed check, not a crash; N = 6 is
    # the smallest size where the singlet space exceeds the mg span
    assert run("check", "limits", "--model", "su2_1", "--label", "0",
               "--N", "6", "--target", "mg", "--radii", "0.05,0.2,0.5") == 3
    # a non-monotone schedule is rejected as input
    assert run("check", "limits", "--model", "su2_1", "--label", "0",
               "--N", "4", "--target", "mg", "--radii", "0.4,0.1,0.2") == 1
    capsys.readouterr()


def test_radius_outside_range_exits_one(tmp_path, capsys):
    # ModularParam rejects the radius as a DomainError: bad input, exit 1
    out = str(tmp_path / "x.state")
    for R in ("1e-300", "inf", "nan", "1e16"):
        assert run("state", "build", "--model", "su2_1", "--label", "0",
                   "--N", "4", "--R", R, "--out", out) == 1
    assert run("check", "limits", "--model", "su2_1", "--label", "0",
               "--N", "4", "--target", "mg",
               "--radii", "1e-6,1e-8,1e-10") == 1
    assert "torus radius" in capsys.readouterr().err


# every subcommand's options, as the manifest's resolved_config keys; a new
# option or knob has to be added here on purpose
OPTIONS = {
    ("special", "eval"): ["config", "fn", "z", "R", "out"],
    ("state", "build"): ["config", "model", "label", "N", "R", "cylinder",
                         "out"],
    ("state", "reference"): ["config", "which", "N", "out"],
    ("ed", "ground"): ["config", "ham", "N", "J1", "J2", "theta", "k",
                       "vectors", "out"],
    ("scan", "radius"): ["config", "model", "label", "N", "ham", "J1", "J2",
                         "theta", "grid", "objective", "out_dir"],
    ("scan", "phase"): ["config", "model", "label", "N", "ham", "grid",
                        "objective", "out_dir", "param_grid"],
    ("check", "suite"): ["config", "N", "radii", "out_dir"],
    ("check", "limits"): ["config", "model", "label", "N", "target", "radii",
                          "out_dir"],
}


def test_subcommand_options_are_frozen():
    _, registry = cli._build_parser()
    assert {key: [a.dest for a in actions]
            for key, (_, actions) in registry.items()} == OPTIONS


@pytest.mark.parametrize("argv", [
    ["state", "build", "--model", "su2_1", "--label", "0", "--N", "4",
     "--cylinder", "--R", "0.05", "--out", "{tmp}/x.state"],
    ["ed", "ground", "--ham", "hs", "--N", "4", "--J2", "0.3",
     "--theta", "1", "--out", "{tmp}/x.json"],
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--J2", "0.5", "--theta", "0.2",
     "--grid", "0.02,1,3", "--out-dir", "{tmp}/run"],
], ids=["cylinder-with-R", "hs-with-couplings", "j1j2-with-theta"])
def test_ignored_inputs_are_refused(tmp_path, capsys, argv):
    assert cli.run([a.format(tmp=tmp_path) for a in argv]) == 1
    assert "error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,cfg", [
    (["scan", "phase", "--model", "su2_1", "--label", "0", "--N", "4",
      "--param-grid", "0.5", "--out-dir", "{tmp}/run"], {"ham": "hs"}),
    (["special", "eval", "--z", "0.1", "--R", "1"], {"fn": "nope"}),
], ids=["scan-phase-ham", "special-eval-fn"])
def test_config_values_outside_choices_exit_one(tmp_path, capsys, argv,
                                                cfg):
    # a config's values reach argparse as flags, so its choices apply
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli.run(argv + ["--config", str(path)]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,cfg,err", [
    (["--N", "6"], {"cylinder": "false", "R": 0.1}, "true or false"),
    ([], {"N": 6.7, "R": 0.1}, "invalid int value"),
    (["--N", "6"], {"R": [1, 2]}, "invalid float value"),
    (["--N", "6", "--R", "0.1"], [0.1], "not a JSON object"),
], ids=["switch-as-string", "fractional-size", "list-radius", "list-config"])
def test_bad_config_values_exit_one(tmp_path, capsys, argv, cfg, err):
    # a config's values get the conversion and checks of flags
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(["state", "build", "--model", "su2_1", "--label", "0",
                    *argv, "--out", str(tmp_path / "x.state"),
                    "--config", str(path)]) == 1
    assert err in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("grid", ["0.1,1,inf", "0.1,1,nan", "0.1,1,1e12"])
def test_grid_counts_are_bounded(tmp_path, capsys, grid):
    assert run("scan", "radius", "--model", "su2_1", "--label", "0",
               "--N", "4", "--ham", "hs", "--grid", grid,
               "--out-dir", str(tmp_path / "run")) == 1
    assert "MAX_GRID_POINTS" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--J2", "inf"],
    ["scan", "radius", "--model", "su2_2", "--label", "4", "--N", "4",
     "--ham", "qbq", "--theta", "nan"],
    ["scan", "phase", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--param-grid", "0.1,nan"],
    ["scan", "phase", "--model", "su2_2", "--label", "4", "--N", "4",
     "--ham", "qbq", "--param-grid=-inf,0.3"],
    ["scan", "phase", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--param-grid", "0.5", "--grid", "0.1,nan,5"],
    ["scan", "phase", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--param-grid", "0.5", "--grid", "inf,1,5"],
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "hs", "--grid", "0,5,4"],
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "hs", "--grid=-1,5,4"],
], ids=["J2-inf", "theta-nan", "param-nan", "param-minus-inf", "grid-nan",
        "grid-inf", "grid-zero", "grid-negative"])
def test_non_finite_inputs_exit_one(tmp_path, capsys, monkeypatch, argv):
    # refused as input before any chain is built
    monkeypatch.setattr(hamiltonians, "build", None)
    assert run(*argv, "--out-dir", str(tmp_path / "run")) == 1
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["scan", "radius", "--model", "su2_1", "--label", "0", "--N", "4",
     "--ham", "j1j2", "--J2", "1e308"],
    ["ed", "ground", "--ham", "j1j2", "--N", "4", "--J2", "1e200"],
], ids=["scan-J2-1e308", "ed-J2-1e200"])
def test_couplings_outside_the_scale_window_exit_one(tmp_path, capsys, argv):
    # refused as input, before an operator could overflow
    out = ["--out", str(tmp_path / "e.json")] if argv[0] == "ed" else [
        "--out-dir", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, *out) == 1
    assert "COUPLING_RANGE" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_readme_commands_parse():
    # every `idmps ...` line of the README's sh blocks, continuations joined
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("idmps "):
                commands.append(shlex.split(line)[1:])
    parser, registry = cli._build_parser()
    assert {tuple(argv[:2]) for argv in commands} == set(registry)
    for argv in commands:
        parser.parse_args(argv)


def test_usage_errors_exit_one(capsys):
    assert run() == 1
    assert run("state") == 1
    assert run("scan", "radius", "--model", "su2_1", "--label", "0",
               "--N", "4", "--ham", "j1j2", "--bogus", "1") == 1
    assert "usage" in capsys.readouterr().err
    assert run("scan", "radius", "--label", "0", "--N", "4",
               "--ham", "j1j2") == 1
    err = capsys.readouterr().err
    assert "--model" in err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()
