"""Command-line front end.

Five subcommand groups: `special eval` (torus function values), `state
build`/`state reference` (wavefunction files), `ed ground` (exact
diagonalization), `scan radius`/`scan phase` (variational scans), and
`check suite`/`check limits` (consistency checks). One table (COMMANDS)
declares each subcommand's handler and options; the parser, the option
registry and the dispatch are derived from it. A handler returns its
artifacts, and `run` hands them to one writer (_write_outputs), which drops
a manifest next to the outputs echoing the fully resolved configuration. A
--config file (a manifest or a JSON object of option values) replays as
flags: each value becomes one --flag=value token ahead of the user's own,
which win, and argparse converts and checks it like a flag (a switch takes
true or false; null is skipped), so a manifest replays bit-identically. A
value starting with '-' needs the form --z=-0.27,0.4. Exit codes: 0
success, 1 bad input, 2 numerical failure, 3 a consistency check failed.

The reference states live in one table (REFERENCES): `state reference`
writes them, `check limits` scores blocks against them, and `state build`
reports at small radius (R <= PAIRING_R_MAX) which thin-torus reference the
block is closest to.
"""
import argparse
import cmath
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, blocks, hamiltonians, hilbert, refstates
from .blocks import BlockSpec
from .errors import (ConsistencyError, DomainError, Error, InputError,
                     NumericalError)
from .experiments import (MAX_GRID_POINTS, csv_text, identity_suite,
                          j1j2_family, limit_convergence, qbq_family,
                          scan_radius, sweep_csv, sweep_phase_diagram)
from .hamiltonians import HamiltonianSpec
from .hilbert import apply_site_unitary, total_spin_quantum
from .special import (ModularParam, prime_form_log, theta_nu_log,
                      weierstrass_nu_log)

EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL, EXIT_CHECK = 0, 1, 2, 3

SPECIAL_FNS = ("theta1", "theta2", "theta3", "theta4",
               "prime", "wp2", "wp3", "wp4")

# reference name -> (constructor of N, basis of its labels); each constructor
# looks its refstates function up at call time
REFERENCES = {
    "mg+": (lambda N: refstates.mg_combination(N, +1), "spin"),
    "mg-": (lambda N: refstates.mg_combination(N, -1), "spin"),
    "aklt": (lambda N: refstates.aklt_state(N), "spin"),
    "aklt-circ": (lambda N: refstates.aklt_state(N, basis="circular"),
                  "circular"),
    "dimer0": (lambda N: refstates.dimer_state(N, offset=0), "spin"),
    "dimer1": (lambda N: refstates.dimer_state(N, offset=1), "spin"),
    "s1dimer+": (lambda N: refstates.spin1_dimer_combinations(N, +1),
                 "circular"),
    "s1dimer-": (lambda N: refstates.spin1_dimer_combinations(N, -1),
                 "circular"),
    "hs": (lambda N: blocks.build_state(BlockSpec("su2_1", 0, N), None),
           "spin"),
    "hs-exc": (lambda N: blocks.build_state(BlockSpec("su2_1", "half", N),
                                            None), "spin"),
}
# thin-torus targets: the references a block family approaches as R -> 0,
# in the order the pairing tries them
THIN_TORUS = {"mg": ("mg+", "mg-"), "s1dimer": ("s1dimer+", "s1dimer-"),
              "aklt-circ": ("aklt-circ",)}
# the thin-torus pairing is reported only where the limit is meaningful
PAIRING_R_MAX = 0.2
# the chain families `scan phase` sweeps, by --ham
PHASE_FAMILIES = {"j1j2": j1j2_family, "qbq": qbq_family}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as exit-1 usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _dump_json(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _parse_floats(text, what, n=None):
    try:
        vals = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers, "
                         f"got {text!r}")
    if n is not None and len(vals) != n:
        raise InputError(f"{what} needs {n} comma-separated values, "
                         f"got {text!r}")
    return vals


def _parse_sizes(text):
    try:
        return tuple(int(p) for p in str(text).split(","))
    except ValueError:
        raise InputError(f"--N must be comma-separated integers, got {text!r}")


def _parse_z(text):
    parts = _parse_floats(text, "--z")
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise InputError(f"--z takes re or re,im, got {text!r}")


def _parse_label(text):
    return int(text) if text in ("2", "3", "4") else text


def _parse_grid(text):
    if text is None:
        return None
    lo, hi, count = _parse_floats(text, "--grid", n=3)
    if not 2 <= count <= MAX_GRID_POINTS or count != int(count):
        raise InputError(f"--grid count must be an integer from 2 to "
                         f"MAX_GRID_POINTS = {MAX_GRID_POINTS}, got {count}")
    if not all(0 < x < math.inf for x in (lo, hi)):
        raise InputError(f"--grid endpoints must be finite and positive, "
                         f"got {text!r}")
    return np.geomspace(lo, hi, int(count))


def _write_outputs(args, actions, t0, files, anchor):
    """Write each (path, text or bytes) file in order, then the run's one
    manifest: resolved config, artifact version, outputs and wall time.

    The manifest goes to anchor + ".manifest.json", or without an anchor to
    manifest.json in --out-dir, which is created first.
    """
    if anchor is None:
        os.makedirs(args.out_dir, exist_ok=True)
        manifest = os.path.join(args.out_dir, "manifest.json")
    else:
        manifest = anchor + ".manifest.json"
    for path, data in files:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    cfg = {a.dest: getattr(args, a.dest) for a in actions[1:]}
    doc = {"artifact": "idmps", "version": __version__,
           "command": [args.group, args.verb],
           "resolved_config": cfg,
           "outputs": [os.path.basename(p) for p, _ in files],
           "wall_time_s": time.perf_counter() - t0}
    with open(manifest, "w") as fh:
        fh.write(_dump_json(doc))


# ---------------------------------------------------------------- subcommands
# Each handler maps the parsed args to (exit code, [(path, text or bytes)],
# manifest anchor); an anchor of None puts the manifest in --out-dir.

def _cmd_special_eval(args):
    z = _parse_z(args.z)
    tau = ModularParam(args.R).tau
    fn = args.fn
    if fn.startswith("theta"):
        log_val = theta_nu_log(int(fn[-1]), z, tau)
    elif fn == "prime":
        log_val = prime_form_log(z, tau)
    else:
        log_val = weierstrass_nu_log(int(fn[-1]), z, tau)
    val = log_val.value
    if not cmath.isfinite(val):
        # strict JSON has no Infinity or NaN
        raise NumericalError(f"{fn} overflows a double: log|value| = "
                             f"{log_val.log!r}")
    doc = {"fn": fn, "z": [z.real, z.imag], "R": args.R,
           "value_re": val.real, "value_im": val.imag}
    text = _dump_json(doc)
    sys.stdout.write(text)
    return EXIT_OK, [(args.out, text)] if args.out else [], args.out


def _state_files(path, state, meta):
    """The binary state file and its JSON twin (meta plus amplitudes)."""
    doc = dict(meta)
    doc.update(state.to_dict())
    return [(path, state.to_bytes()), (path + ".json", _dump_json(doc))]


def _physical_total_spin(state, basis):
    if basis == "circular":
        state = apply_site_unitary(state, refstates.U_CIRC_TO_SPIN)
    s, sz = total_spin_quantum(state)
    return [s, sz]


def _thin_torus_pairing(spec, state):
    """The thin-torus reference closest to the state by fidelity per site;
    a later candidate wins only if strictly closer."""
    family = ("mg" if spec.model == "su2_1"
              else "aklt-circ" if spec.label == 4 else "s1dimer")
    best, fid = None, -1.0
    for name in THIN_TORUS[family]:
        try:
            ref = REFERENCES[name][0](spec.N)
        except InputError:
            # one of the two dimer combinations vanishes identically at N=2
            continue
        f = hilbert.fidelity_per_site(state, ref)
        if f > fid:
            best, fid = name, f
    return {"thin_torus_target": best, "fidelity_per_site": fid}


def _cmd_state_build(args):
    spec = BlockSpec(args.model, _parse_label(args.label), args.N)
    if args.cylinder == (args.R is not None):
        raise InputError("state build takes exactly one of --R and "
                         "--cylinder")
    if args.cylinder:
        state, scale, pairing = blocks.build_state(spec, None), None, None
    else:
        state, scale = blocks.build_record(spec, args.R)
        pairing = (_thin_torus_pairing(spec, state)
                   if args.R <= PAIRING_R_MAX else None)
    mom = blocks.momentum_eigenvalue(spec)
    basis = "circular" if spec.d == 3 else "spin"
    meta = {"spec": {"model": spec.model, "label": spec.label,
                     "name": spec.name, "N": spec.N},
            "R": args.R, "cylinder": bool(args.cylinder),
            "basis": basis,
            "momentum_eigenvalue": [mom.real, mom.imag],
            "total_spin": _physical_total_spin(state, basis),
            "global_log_scale": scale, "pairing": pairing}
    return EXIT_OK, _state_files(args.out, state, meta), args.out


def _cmd_state_reference(args):
    make, basis = REFERENCES[args.which]
    state = make(args.N)
    meta = {"which": args.which, "N": args.N, "basis": basis,
            "total_spin": _physical_total_spin(state, basis)}
    return EXIT_OK, _state_files(args.out, state, meta), args.out


def _cmd_ed_ground(args):
    spec = HamiltonianSpec(args.ham, args.N, args.J1, args.J2, args.theta)
    levels = hamiltonians.ground_subspace(spec, k=args.k)
    doc = {"ham": spec.kind, "N": spec.N, "d": spec.d, "k": args.k,
           "J1": spec.J1, "J2": spec.J2, "theta": spec.theta,
           "energies": [e for e, _ in levels]}
    files = [(args.out, _dump_json(doc))]
    if args.vectors:
        stem = os.path.splitext(args.out)[0]
        for i, (energy, vec) in enumerate(levels):
            meta = {"ham": spec.kind, "N": spec.N, "index": i,
                    "energy": energy}
            files += _state_files(f"{stem}_vec{i}.state", vec, meta)
    return EXIT_OK, files, args.out


def _cmd_scan_radius(args):
    spec = BlockSpec(args.model, _parse_label(args.label), args.N)
    ham = HamiltonianSpec(args.ham, args.N, args.J1, args.J2, args.theta)
    res = scan_radius(spec, ham, R_grid=_parse_grid(args.grid),
                      objective=args.objective)
    return EXIT_OK, [
        (os.path.join(args.out_dir, "radius_scan.csv"),
         csv_text(("R", "energy", "fidelity_per_site"), res.rows)),
        (os.path.join(args.out_dir, "radius_scan.json"),
         _dump_json(res.to_dict()))], None


def _cmd_scan_phase(args):
    spec = BlockSpec(args.model, _parse_label(args.label), args.N)
    family = PHASE_FAMILIES[args.ham](
        args.N, _parse_floats(args.param_grid, "--param-grid"))
    points = sweep_phase_diagram(spec, family, R_grid=_parse_grid(args.grid),
                                 objective=args.objective)
    doc = [{"param": p["param"], "error": p["error"],
            "scan": None if p["scan"] is None else p["scan"].to_dict()}
           for p in points]
    return EXIT_OK, [
        (os.path.join(args.out_dir, "phase_sweep.csv"), sweep_csv(points)),
        (os.path.join(args.out_dir, "phase_sweep.json"), _dump_json(doc))
    ], None


def _cmd_check_suite(args):
    report = identity_suite(sizes=_parse_sizes(args.N),
                            radii=tuple(_parse_floats(args.radii, "--radii")))
    text = _dump_json(report)
    sys.stdout.write(text)
    files = ([] if args.out_dir is None
             else [(os.path.join(args.out_dir, "suite.json"), text)])
    return EXIT_OK if report["pass"] else EXIT_CHECK, files, None


def _limit_target(target, N):
    """The 1/sin^2 chain's exact ground space for hs; otherwise the
    thin-torus references."""
    if target == "hs":
        _, ground = hamiltonians.ground_states(HamiltonianSpec("hs", N))
        return ground
    return [REFERENCES[name][0](N) for name in THIN_TORUS[target]]


def _cmd_check_limits(args):
    spec = BlockSpec(args.model, _parse_label(args.label), args.N)
    radii = _parse_floats(args.radii, "--radii")
    try:
        rows = limit_convergence(spec, _limit_target(args.target, args.N),
                                 radii)
        failure = None
    except ConsistencyError as exc:
        rows, failure = [], str(exc)
    doc = {"model": spec.model, "label": spec.name, "N": spec.N,
           "target": args.target, "rows": rows,
           "pass": failure is None, "failure": failure}
    text = _dump_json(doc)
    sys.stdout.write(text)
    files = [] if args.out_dir is None else [
        (os.path.join(args.out_dir, "limits.csv"),
         csv_text(("R", "infidelity_per_site"), rows)),
        (os.path.join(args.out_dir, "limits.json"), text)]
    return EXIT_OK if failure is None else EXIT_CHECK, files, None


# --------------------------------------------------------------------- parser
# Options are (flag, argparse keywords).

_N = ("--N", dict(type=int, required=True))
_BLOCK = (("--model", dict(required=True, choices=("su2_1", "su2_2"))),
          ("--label", dict(required=True)), _N)
_COUPLINGS = (("--J1", dict(type=float)), ("--J2", dict(type=float)),
              ("--theta", dict(type=float)))
_SCAN = (("--grid", dict(help="lo,hi,count geometric radius grid")),
         ("--objective", dict(default="energy",
                              choices=("energy", "fidelity"))),
         ("--out-dir", dict(default=".")))
_CHAINS = ("hs", "j1j2", "qbq", "parent")

# (group, verb) -> (handler, options in manifest order); every subcommand
# also takes --config first
COMMANDS = {
    ("special", "eval"): (_cmd_special_eval, (
        ("--fn", dict(required=True, choices=SPECIAL_FNS)),
        ("--z", dict(required=True, help="re,im")),
        ("--R", dict(type=float, required=True)),
        ("--out", {}))),
    ("state", "build"): (_cmd_state_build, (
        *_BLOCK, ("--R", dict(type=float)),
        ("--cylinder", dict(action="store_true")),
        ("--out", dict(required=True)))),
    ("state", "reference"): (_cmd_state_reference, (
        ("--which", dict(required=True, choices=REFERENCES)), _N,
        ("--out", dict(required=True)))),
    ("ed", "ground"): (_cmd_ed_ground, (
        ("--ham", dict(required=True, choices=_CHAINS)), _N, *_COUPLINGS,
        ("--k", dict(type=int, default=1)),
        ("--vectors", dict(action="store_true")),
        ("--out", dict(required=True)))),
    ("scan", "radius"): (_cmd_scan_radius, (
        *_BLOCK, ("--ham", dict(required=True, choices=_CHAINS)),
        *_COUPLINGS, *_SCAN)),
    ("scan", "phase"): (_cmd_scan_phase, (
        *_BLOCK, ("--ham", dict(required=True, choices=PHASE_FAMILIES)),
        *_SCAN, ("--param-grid", dict(
            required=True, help="comma-separated J2 or theta values")))),
    ("check", "suite"): (_cmd_check_suite, (
        ("--N", dict(default="4,6", help="comma-separated sizes")),
        ("--radii", dict(default="0.1,1,10")),
        ("--out-dir", {}))),
    ("check", "limits"): (_cmd_check_limits, (
        *_BLOCK, ("--target", dict(required=True,
                                   choices=(*THIN_TORUS, "hs"))),
        ("--radii", dict(required=True,
                         help="monotone comma-separated schedule")),
        ("--out-dir", {}))),
}


def _build_parser():
    """The parser and, per (group, verb), (handler, [--config, *options])."""
    parser = _Parser(prog="idmps", description=__doc__.splitlines()[0])
    parser.set_defaults(group=None, verb=None)
    groups = parser.add_subparsers(dest="group", parser_class=_Parser)
    verbs, registry = {}, {}
    config = ("--config",
              dict(help="JSON config or manifest; explicit flags win"))
    for (group, verb), (handler, options) in COMMANDS.items():
        if group not in verbs:
            verbs[group] = groups.add_parser(group).add_subparsers(
                dest="verb", parser_class=_Parser)
        p = verbs[group].add_parser(verb)
        p.set_defaults(group=group, verb=verb)
        registry[(group, verb)] = (handler, [
            p.add_argument(flag, **kw) for flag, kw in (config, *options)])
    return parser, registry


def _config_tokens(actions, path):
    """The config's values as --flag=value tokens in option order: null is
    skipped, and a switch is set by JSON true and left off by false."""
    with open(path) as fh:
        doc = json.load(fh)
    cfg = doc.get("resolved_config", doc) if isinstance(doc, dict) else doc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} is not a JSON object")
    tokens = []
    for action in actions[1:]:
        flag, value = action.option_strings[0], cfg.get(action.dest)
        switch = action.nargs == 0
        if value is None or switch and value is False:
            continue
        if switch and value is not True:
            raise InputError(f"{flag} in a config takes true or false, "
                             f"got {value!r}")
        tokens.append(flag if switch else f"{flag}={value}")
    return tokens


def run(argv=None):
    """Parse argv and execute; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = _build_parser()
    try:
        pre = _Parser(prog="idmps", add_help=False)
        pre.add_argument("--config")
        path, key = pre.parse_known_args(argv)[0].config, tuple(argv[:2])
        if path and key in registry:
            argv[2:2] = _config_tokens(registry[key][1], path)
        args = parser.parse_args(argv)
        key = (args.group, args.verb)
        if key not in registry:
            parser.print_usage(sys.stderr)
            return EXIT_INPUT
        handler, actions = registry[key]
        t0 = time.perf_counter()
        code, files, anchor = handler(args)
        if files:
            _write_outputs(args, actions, t0, files, anchor)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InputError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Error as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
