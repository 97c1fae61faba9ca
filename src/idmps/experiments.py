"""Radius scans, phase-diagram sweeps, limit-convergence tables, and the
cross-module consistency suite.

A scan builds the block state on a log-spaced radius grid, measures its
energy in a target chain and its fidelity per site against the chain's
ground subspace, then refines the best grid point with a bracketed
minimizer. Energy is the primary objective; fidelity is diagnostic (an
optional objective for exploration only). The d=3 block states live in the
flavor basis and are rotated site-by-site into the spin basis before they
meet a spin-basis chain.

A scan orthonormalizes its chain's ground space once (a hilbert.Subspace)
and scores every point against it; where that space holds no singlet of
the block's momentum, every fidelity is an exact 0. The block states do
not depend on the chain, so a phase sweep builds each grid state once and
shares it between its scans, up to SWEEP_STATE_BYTES of stored states;
refinement points are never stored, and nothing is kept once the sweep
returns.
"""
import math

import numpy as np

from . import blocks, hamiltonians, refstates
from .errors import ConsistencyError, Error, InputError
from .hilbert import (Subspace, apply_site_unitary, enumerate_sector,
                      fidelity_per_site_subspace, inner, norm, raise_total,
                      total_spin_quantum, translate)
from .numerics import minimize_scalar, pfaffian
from .special import ModularParam, modular_residual

R_MIN = 0.02
R_MAX = 30.0
GRID_POINTS = 25
# the most radii one scan accepts, 400 times the default grid
MAX_GRID_POINTS = 10_000
# the ground space holds a singlet of the block's momentum when _holds_singlet
# finds an eigenvalue at or below this; without one, all are at least
# min(4 sin^2(pi/N), 2)
SINGLET_TOL = 1e-6
# infidelities at or below this are converged; monotone checks and the
# variational bound are enforced only above it
FLOOR = 1e-12
# a scan energy below E0 by more than this breaks the variational bound
VARIATIONAL_TOL = 1e-9
# the bottom or top grid point counts as the optimum when it scores within
# this (relative, floor 1) of the refined optimum
EDGE_TOL = 1e-9
# Brent refines the grid optimum to this tolerance on R. It is absolute,
# not relative: the bracket stops shrinking near REFINE_TOL + sqrt(eps) R
REFINE_TOL = 1e-4
# an optimum at or above this share of the top grid radius is unbounded
UNBOUNDED_SHARE = 0.99
# the parent chain is positive semidefinite when its lowest level is at
# least -PSD_TOL
PSD_TOL = 1e-9
# the most bytes of grid states one phase sweep keeps for reuse; 25 states
# of su2_1 at N=12 take 1.6 MB, of su2_2 at N=12 212 MB, so most of the
# latter are built per scan
SWEEP_STATE_BYTES = 64 * 2 ** 20

SWEEP_COLUMNS = ("param", "R_opt", "energy_opt", "ground_energy",
                 "fidelity_per_site")


def block_state_spin_basis(spec, geom=None, states=None):
    """Block state expressed in the spin basis; geom=None is the cylinder.

    d=2 states already are; d=3 states are rotated from the circular
    (flavor) basis by the single-site unitary u on every site.

    states: a dict from geom to state of this spec, which one sweep shares
    between its scans. A state found there is returned as is; a state built
    here is stored while the stored states stay within SWEEP_STATE_BYTES.
    """
    if states is not None and geom in states:
        return states[geom]
    state = blocks.build_state(spec, geom)
    if spec.model == blocks.SU2_2:
        state = apply_site_unitary(state, refstates.U_CIRC_TO_SPIN)
    if states is not None and \
            (len(states) + 1) * state.amplitudes.nbytes <= SWEEP_STATE_BYTES:
        states[geom] = state
    return state


class ScanResult:
    """Radius-scan rows plus the refined optimum.

    rows: [(R, energy, fidelity_per_site)], sorted by R.
    optimum: (R_opt, energy_opt, fidelity_opt).
    at_lower_edge: the refined optimum sits inside the first grid interval,
    or the bottom grid point already scores as well as the refined optimum
    (the objective is flat near a thin-torus exactness point, so the
    refinement can park anywhere inside the basin). unbounded: the optimum
    sits at the top of the grid, or the top grid point already scores as
    well as the refined optimum, where the state barely changes with R and
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


def default_grid():
    return np.geomspace(R_MIN, R_MAX, GRID_POINTS)


def _radius_grid(R_grid):
    """The sorted radius grid of a scan (default_grid() for None), or
    InputError for a grid that is too small, too large, non-finite or
    outside [R_MIN, R_MAX]; checked before any build."""
    grid = default_grid() if R_grid is None else np.sort(
        np.asarray(R_grid, dtype=float))
    if not 2 <= grid.size <= MAX_GRID_POINTS:
        raise InputError(f"need 2 to {MAX_GRID_POINTS} grid radii "
                         f"(MAX_GRID_POINTS), got {grid.size}")
    if not np.all(np.isfinite(grid)):
        raise InputError("grid radii must be finite")
    if grid[0] < R_MIN or grid[-1] > R_MAX:
        raise InputError(f"grid must lie within [{R_MIN}, {R_MAX}]")
    return grid


def scan_radius(spec, ham, R_grid=None, objective="energy", workers=1):
    """Scan torus radii against a chain; refine the best point by Brent.

    Energies are checked against the variational bound
    E >= E0 - VARIATIONAL_TOL.
    The grid points run serially. `workers` accepts only 1: the benchmark
    workloads still pass workers=1, and the next benchmark-upkeep change
    removes the keyword.
    """
    if workers != 1:
        raise InputError(f"scan_radius runs serially: workers must be 1, "
                         f"got {workers!r}")
    return _scan(spec, ham, _radius_grid(R_grid), objective, None)


def _scan(spec, ham, grid, objective, states):
    """scan_radius on a grid that _radius_grid has checked. Grid states
    are shared through the dict `states` (see block_state_spin_basis);
    None shares nothing."""
    _check_compatible(spec, ham)
    if objective not in ("energy", "fidelity"):
        raise InputError(f"objective must be energy or fidelity, "
                         f"got {objective!r}")
    # the ground solve runs first, so its transients and the full-space
    # operator are never held at once
    e0, ground = hamiltonians.ground_states(ham)
    h = hamiltonians.build(ham)
    space = Subspace(ground)
    if not _holds_singlet(space, blocks.momentum_eigenvalue(spec)):
        space = None

    def point(R, on_grid=False):
        # a refinement point reuses a stored grid state (Brent samples the
        # bracket ends, which are grid radii) but is never stored itself
        shared = states is not None and (on_grid or R in states)
        state = block_state_spin_basis(spec, R, states if shared else None)
        amps = state.amplitudes
        # Re <a|Ha> is the inner product of the two real views
        energy = inner(amps.view(float), h.apply(amps).view(float)).real
        fid = 0.0 if space is None else \
            fidelity_per_site_subspace(state, space)
        return float(R), energy, fid

    rows = [point(R, on_grid=True) for R in grid]
    score = (lambda row: row[1]) if objective == "energy" \
        else (lambda row: -row[2])
    best = min(range(len(rows)), key=lambda i: score(rows[i]))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    r_opt, _ = minimize_scalar(lambda R: score(point(R)), (lo, hi),
                               tol=REFINE_TOL)
    opt = point(r_opt)
    _, e_opt, f_opt = opt
    at_lower_edge, unbounded = _edge_flags(grid, r_opt, score(rows[0]),
                                           score(rows[-1]), score(opt))
    for _, energy, _ in rows + [(r_opt, e_opt, f_opt)]:
        if energy < e0 - VARIATIONAL_TOL:
            raise ConsistencyError(
                f"scan energy {energy!r} undercuts ground energy {e0!r}")
    return ScanResult(spec, ham, rows, (float(r_opt), e_opt, f_opt), e0,
                      objective, at_lower_edge, unbounded)


def _holds_singlet(space, lam):
    """Whether the ground space holds a singlet of translation eigenvalue
    lam, as every block state is (total spin 0, momentum lam); if not, the
    block is orthogonal to it and its fidelity is an exact 0, not roundoff.

    With G the orthonormal basis of the space (Sz = 0 vectors of one
    level), T and S^2 commute on span G, so
    M = ((T - lam) G)^dagger (T - lam) G + (S^+ G)^dagger S^+ G, where
    S^2 = S^- S^+ on Sz = 0, has the eigenvalues |mu - lam|^2 + S(S+1) of
    their joint eigenvectors: 0 for such a singlet, else at least
    4 sin^2(pi/N) (distinct momenta) or 2 (S >= 1).
    The rows of q^dagger are conj(G); T, S^+ and lam are real, so their
    Gram matrices sum to conj(M), with the eigenvalues of M.
    """
    N, d = space.N, space.d
    g = space.qh.T.reshape((d,) * N + (-1,))
    # T moves site axis 0 last, as hilbert.translate does
    shifted = np.moveaxis(g, 0, N - 1) - lam * g
    rows = [x.reshape(-1, g.shape[-1]).T
            for x in (shifted, raise_total(g, d, N))]
    m = sum(np.einsum("ik,jk->ij", np.conj(r), r) for r in rows)
    return bool(np.linalg.eigvalsh(m).min() <= SINGLET_TOL)


def _edge_flags(grid, r_opt, first_score, last_score, opt_score):
    """(at_lower_edge, unbounded) of the refined optimum r_opt on a sorted
    grid, given the scores of the bottom and top grid points and of r_opt.

    A flat basin can park the refinement anywhere inside it, so an edge
    also counts when its grid point scores within EDGE_TOL of r_opt.
    """
    edge_tol = EDGE_TOL * max(1.0, abs(opt_score))
    at_lower_edge = r_opt <= grid[1] or first_score <= opt_score + edge_tol
    unbounded = (r_opt >= UNBOUNDED_SHARE * grid[-1]
                 or last_score <= opt_score + edge_tol)
    return at_lower_edge, unbounded


def sweep_phase_diagram(spec, ham_family, R_grid=None, objective="energy"):
    """One radius scan per (parameter, chain) pair, each equal to
    scan_radius(spec, ham, R_grid, objective).

    Returns [{"param", "scan", "error"}]; a failing point records its error
    and the sweep continues. A bad grid fails the whole sweep up front. The
    scans share their grid states, up to SWEEP_STATE_BYTES of them, for
    the length of this call.
    """
    ham_family = list(ham_family)
    if not ham_family:
        raise InputError("empty parameter grid")
    grid = _radius_grid(R_grid)
    states = {}
    out = []
    for param, ham in ham_family:
        entry = {"param": float(param), "scan": None, "error": None}
        try:
            entry["scan"] = _scan(spec, ham, grid, objective, states)
        except Error as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out.append(entry)
    return out


def csv_text(columns, rows):
    """CSV with a header line; numbers printed with 17 significant digits."""
    lines = [",".join(columns)]
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(points):
    """CSV for a sweep, one row per parameter; failed points carry nan."""
    rows = []
    for entry in points:
        scan = entry["scan"]
        if scan is None:
            rows.append([entry["param"]] + [math.nan] * 4)
        else:
            r_opt, e_opt, f_opt = scan.optimum
            rows.append([entry["param"], r_opt, e_opt, scan.ground_energy,
                         f_opt])
    return csv_text(SWEEP_COLUMNS, rows)


def j1j2_family(N, j2_grid):
    return [(j2, hamiltonians.HamiltonianSpec("j1j2", N, J2=j2))
            for j2 in j2_grid]


def qbq_family(N, theta_grid):
    return [(th, hamiltonians.HamiltonianSpec("qbq", N, theta=th))
            for th in theta_grid]


def limit_convergence(spec, target, R_sequence):
    """Infidelity per site, 1 - F^(1/N), against the span of a list of
    target states along a radius schedule; 1 - F is Subspace.residual, so
    a row far below the rounding of F keeps its relative accuracy.

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
    space = Subspace(target)
    rows = []
    for R in rs:
        eps = space.residual(blocks.build_state(spec, R))
        rows.append((R, 1.0 if eps >= 1.0
                     else -math.expm1(math.log1p(-eps) / spec.N)))
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


def _su2_1_row_residual(spec, R, lam):
    """||T psi - lam psi|| for the normalized su2_1 amplitudes of every
    Sz=0 row, each row evaluated on its own. The builder signs each row by
    the character of its dihedral orbit, so its states are eigenstates by
    construction; this measures the amplitudes themselves, in log form
    (blocks._su2_1_logs), since they overflow doubles at small R."""
    rows = enumerate_sector(spec.N, 2, 0.0).configs()
    geom = ModularParam(R)
    logs, sign = blocks._su2_1_logs(spec, geom, rows)
    tlogs, tsign = blocks._su2_1_logs(spec, geom, np.roll(rows, 1, axis=1))
    top = logs[sign != 0].max()
    psi, shifted = sign * np.exp(logs - top), tsign * np.exp(tlogs - top)
    return norm(shifted - lam * psi) / norm(psi)


def _momentum_check(sizes, radii):
    def measure(spec, R):
        lam = blocks.momentum_eigenvalue(spec)
        state = blocks.build_state(spec, R)
        res = norm(translate(state).amplitudes - lam * state.amplitudes)
        if spec.model == blocks.SU2_1:
            res = max(res, _su2_1_row_residual(spec, R, lam))
        return res

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
    entry["pass"] = entry["pass"] and worst_eig <= PSD_TOL
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
