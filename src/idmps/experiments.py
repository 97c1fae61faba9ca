"""Radius scans, phase-diagram sweeps, limit-convergence tables, and the
cross-module consistency suite.

A scan builds the block state on a log-spaced radius grid, measures its
energy in a target chain and its fidelity per site against the chain's
ground subspace, then refines the best grid point with a bracketed
minimizer. Energy is the primary objective; fidelity is diagnostic (an
optional objective for exploration only). The d=3 block states live in the
flavor basis and are rotated site-by-site into the spin basis before they
meet a spin-basis chain.
"""
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blocks, hamiltonians, refstates
from .errors import ConsistencyError, Error, InputError
from .hilbert import (apply_site_unitary, fidelity_per_site,
                      fidelity_per_site_subspace, total_spin_quantum,
                      translate)
from .numerics import minimize_scalar, pfaffian
from .special import modular_residual

R_MIN = 0.02
R_MAX = 30.0
GRID_POINTS = 25
# infidelities at or below this are converged; monotone checks and the
# variational bound are enforced only above it
FLOOR = 1e-12

SWEEP_COLUMNS = ("param", "R_opt", "energy_opt", "ground_energy",
                 "fidelity_per_site")


def worker_count(workers=None):
    """Resolve a worker count: explicit value, IDMPS_THREADS, or 1."""
    if workers is None:
        workers = os.environ.get("IDMPS_THREADS", "1")
    try:
        w = int(workers)
    except (TypeError, ValueError):
        raise InputError(f"worker count must be an integer, got {workers!r}")
    if w < 1:
        raise InputError(f"worker count must be >= 1, got {w}")
    return w


def _map_ordered(fn, items, workers):
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def block_state_spin_basis(spec, geom=None):
    """Block state expressed in the spin basis; geom=None is the cylinder.

    d=2 states already are; d=3 states are rotated from the circular
    (flavor) basis by the single-site unitary u on every site.
    """
    state = blocks.build_state(spec, geom)
    if spec.model == blocks.SU2_2:
        state = apply_site_unitary(state, refstates.U_CIRC_TO_SPIN)
    return state


class ScanResult:
    """Radius-scan rows plus the refined optimum.

    rows: [(R, energy, fidelity_per_site)], sorted by R.
    optimum: (R_opt, energy_opt, fidelity_opt).
    at_lower_edge: the refined optimum sits inside the first grid interval,
    or the bottom grid point already scores as well as the refined optimum
    (the objective is flat near a thin-torus exactness point, so the
    refinement can park anywhere inside the basin). unbounded: the optimum
    sits at the top of the grid, where the state barely changes with R and
    the true optimum cannot be resolved.
    """

    def __init__(self, spec, ham, rows, optimum, ground_energy, objective,
                 at_lower_edge, unbounded):
        self.spec = spec
        self.ham = ham
        self.rows = rows
        self.optimum = optimum
        self.ground_energy = float(ground_energy)
        self.objective = objective
        self.at_lower_edge = bool(at_lower_edge)
        self.unbounded = bool(unbounded)

    def to_dict(self):
        r_opt, e_opt, f_opt = self.optimum
        return {
            "model": self.spec.model, "label": self.spec.name,
            "N": self.spec.N, "ham": self.ham.kind,
            "objective": self.objective,
            "rows": [[r, e, f] for r, e, f in self.rows],
            "R_opt": r_opt, "energy_opt": e_opt, "fidelity_opt": f_opt,
            "ground_energy": self.ground_energy,
            "at_lower_edge": self.at_lower_edge,
            "unbounded": self.unbounded,
        }

    def __repr__(self):
        r_opt, e_opt, f_opt = self.optimum
        return (f"ScanResult({self.spec.name}, {self.ham.kind}, "
                f"R_opt={r_opt:.6g}, E={e_opt:.12g}, F={f_opt:.12g})")


def _check_compatible(spec, ham):
    if spec.N != ham.N or spec.d != ham.d:
        raise InputError(
            f"block ({spec.N},d={spec.d}) does not match chain "
            f"({ham.N},d={ham.d})")


def default_grid(n=GRID_POINTS):
    return np.geomspace(R_MIN, R_MAX, n)


def scan_radius(spec, ham, R_grid=None, objective="energy", workers=None):
    """Scan torus radii against a chain; refine the best point by Brent.

    Energies are checked against the variational bound E >= E0 - 1e-9.
    """
    _check_compatible(spec, ham)
    if objective not in ("energy", "fidelity"):
        raise InputError(f"objective must be energy or fidelity, "
                         f"got {objective!r}")
    grid = default_grid() if R_grid is None else np.sort(
        np.asarray(R_grid, dtype=float))
    if grid.size < 2:
        raise InputError("need at least two grid radii")
    if grid[0] < R_MIN or grid[-1] > R_MAX:
        raise InputError(f"grid must lie within [{R_MIN}, {R_MAX}]")
    workers = worker_count(workers)
    h = hamiltonians.build(ham)
    e0, ground = hamiltonians.ground_states(ham)

    def point(R):
        state = block_state_spin_basis(spec, R)
        amps = state.amplitudes
        energy = float(np.vdot(amps, h.apply(amps)).real)
        fid = fidelity_per_site_subspace(state, ground)
        return float(R), energy, fid

    rows = _map_ordered(point, grid, workers)
    score = (lambda row: row[1]) if objective == "energy" \
        else (lambda row: -row[2])
    best = min(range(len(rows)), key=lambda i: score(rows[i]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    r_opt, _ = minimize_scalar(lambda R: score(point(R)), (lo, hi), tol=1e-4)
    opt = point(r_opt)
    _, e_opt, f_opt = opt
    # a flat basin can park the refinement anywhere inside it, so the lower
    # edge also counts when the bottom grid point scores as well as r_opt
    edge_tol = 1e-9 * max(1.0, abs(score(opt)))
    at_lower_edge = (r_opt <= grid[1]
                     or score(rows[0]) <= score(opt) + edge_tol)
    unbounded = r_opt >= 0.99 * grid[-1]
    for _, energy, _ in rows + [(r_opt, e_opt, f_opt)]:
        if energy < e0 - 1e-9:
            raise ConsistencyError(
                f"scan energy {energy!r} undercuts ground energy {e0!r}")
    return ScanResult(spec, ham, rows, (float(r_opt), e_opt, f_opt), e0,
                      objective, at_lower_edge, unbounded)


def sweep_phase_diagram(spec, ham_family, R_grid=None, objective="energy",
                        workers=None):
    """One radius scan per (parameter, chain) pair.

    Returns [{"param", "scan", "error"}]; a failing point records its error
    and the sweep continues.
    """
    ham_family = list(ham_family)
    if not ham_family:
        raise InputError("empty parameter grid")
    out = []
    for param, ham in ham_family:
        entry = {"param": float(param), "scan": None, "error": None}
        try:
            entry["scan"] = scan_radius(spec, ham, R_grid=R_grid,
                                        objective=objective, workers=workers)
        except Error as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out.append(entry)
    return out


def _fmt(x):
    return f"{x:.17g}"


def sweep_csv(points):
    """CSV for a sweep, one row per parameter; failed points carry nan."""
    lines = [",".join(SWEEP_COLUMNS)]
    for entry in points:
        scan = entry["scan"]
        if scan is None:
            lines.append(",".join([_fmt(entry["param"])] + ["nan"] * 4))
            continue
        r_opt, e_opt, f_opt = scan.optimum
        lines.append(",".join(_fmt(x) for x in
                              (entry["param"], r_opt, e_opt,
                               scan.ground_energy, f_opt)))
    return "\n".join(lines) + "\n"


def j1j2_family(N, j2_grid):
    return [(j2, hamiltonians.HamiltonianSpec("j1j2", N, J2=j2))
            for j2 in j2_grid]


def qbq_family(N, theta_grid):
    return [(th, hamiltonians.HamiltonianSpec("qbq", N, theta=th))
            for th in theta_grid]


def limit_convergence(spec, target, R_sequence):
    """Infidelity (1 - fidelity per site) against a target state or
    subspace along a radius schedule.

    The schedule must be strictly monotone: decreasing probes the thin-torus
    limit, increasing the cylinder limit. The last three infidelities must
    be non-increasing up to the 1e-12 floor, else the claimed limit is not
    being approached and a consistency error is raised.
    """
    rs = [float(r) for r in R_sequence]
    if len(rs) < 3:
        raise InputError("need at least three radii")
    steps = np.diff(rs)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise InputError("radius schedule must be strictly monotone")
    targets = list(target) if isinstance(target, (list, tuple)) else None
    rows = []
    for R in rs:
        state = blocks.build_state(spec, R)
        if targets is None:
            fid = fidelity_per_site(state, target)
        else:
            fid = fidelity_per_site_subspace(state, targets)
        rows.append((R, max(0.0, 1.0 - fid)))
    tail = [infid for _, infid in rows[-3:]]
    for a, b in zip(tail, tail[1:]):
        if b > a + FLOOR:
            raise ConsistencyError(
                f"infidelity rises along the schedule tail: {tail}")
    return rows


# ------------------------------------------------------------------ suite

def _check(name, residual, bound, details=None, skipped=None):
    entry = {"name": name, "max_residual": float(residual),
             "bound": float(bound), "pass": bool(residual <= bound)}
    if details:
        entry["details"] = details
    if skipped:
        entry["skipped"] = skipped
    return entry


def _modular_check(samples=40, seed=17):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))
        R = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        worst = max(worst, modular_residual(1j * R, z))
    return _check("modular_transforms", worst, 1e-10)


def _block_specs(sizes):
    for N in sizes:
        for model, label in (("su2_1", 0.0), ("su2_1", 0.5),
                             ("su2_2", 2), ("su2_2", 3), ("su2_2", 4)):
            yield blocks.BlockSpec(model, label, N)


def _block_residuals(name, sizes, radii, measure):
    """Worst residual of `measure` over block specs x radii.

    N=2 has two identically-zero blocks (psi_1/2 and psi_2); those are
    recorded as skips. A build failure at any other size is a real failure
    and poisons the residual.
    """
    worst, details, skipped = 0.0, [], []
    for spec in _block_specs(sizes):
        for R in radii:
            try:
                res = measure(spec, R)
            except (ConsistencyError, InputError):
                if spec.N == 2:
                    skipped.append(f"{spec.name} N=2 R={R}")
                    continue
                res = float("inf")
            details.append([spec.name, spec.N, R, res])
            worst = max(worst, res)
    return _check(name, worst, 1e-8, details=details, skipped=skipped)


def _momentum_check(sizes, radii):
    def measure(spec, R):
        lam = blocks.momentum_eigenvalue(spec)
        state = blocks.build_state(spec, R)
        return float(np.linalg.norm(
            translate(state).amplitudes - lam * state.amplitudes))

    return _block_residuals("momentum_eigenvalues", sizes, radii, measure)


def _singlet_check(sizes, radii):
    def measure(spec, R):
        s, sz = total_spin_quantum(block_state_spin_basis(spec, R))
        return max(abs(s), abs(sz))

    return _block_residuals("singlet_after_u", sizes, radii, measure)


def _pfaffian_check(seed=23):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 4, 6, 8):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a - a.T
        pf = pfaffian(a)
        det = complex(np.linalg.det(a))
        worst = max(worst, abs(pf * pf - det) / abs(det))
    return _check("pfaffian_squared_vs_det", worst, 1e-10)


def _parent_check(sizes):
    worst_res, worst_eig, details = 0.0, 0.0, []
    for N in sizes:
        residual, min_eig = hamiltonians.parent_annihilation_check(N)
        details.append([N, residual, min_eig])
        worst_res = max(worst_res, residual)
        worst_eig = max(worst_eig, -min_eig)
    entry = _check("parent_annihilation", worst_res, 1e-8, details=details)
    entry["pass"] = entry["pass"] and worst_eig <= 1e-9
    entry["min_eigenvalue_defect"] = float(worst_eig)
    return entry


def identity_suite(sizes=(4, 6), radii=(0.1, 1.0, 10.0)):
    """Cross-module consistency report: modular transforms, momenta,
    singlet property, Pfaffian-vs-determinant, parent annihilation.

    Failures are reported in the returned dict, never raised.
    """
    checks = [
        _modular_check(),
        _momentum_check(sizes, radii),
        _singlet_check(sizes, radii),
        _pfaffian_check(),
        _parent_check(sizes),
    ]
    return {
        "sizes": list(sizes), "radii": list(radii),
        "checks": checks,
        "max_residual": max(c["max_residual"] for c in checks),
        "pass": all(c["pass"] for c in checks),
    }
