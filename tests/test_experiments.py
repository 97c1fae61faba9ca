"""Radius scans, sweeps, limit tables, and the consistency suite."""
import json
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmps import blocks, experiments, hamiltonians, refstates
from idmps.blocks import BlockSpec
from idmps.errors import ConsistencyError, InputError
from idmps.experiments import (EDGE_TOL, MAX_GRID_POINTS, PSD_TOL, R_MAX,
                               R_MIN, REFINE_TOL, SWEEP_STATE_BYTES,
                               UNBOUNDED_SHARE, VARIATIONAL_TOL, _edge_flags,
                               _holds_singlet, _parent_check,
                               block_state_spin_basis, identity_suite,
                               j1j2_family, limit_convergence, qbq_family,
                               scan_radius, sweep_csv, sweep_phase_diagram)
from idmps.hamiltonians import HamiltonianSpec, ground_states
from idmps.hilbert import (StateVector, Subspace, enumerate_sector,
                          fidelity_per_site_subspace, total_spin_quantum)

GRID = np.geomspace(0.02, 30, 10)


def test_scan_mg_endpoint_is_exact():
    res = scan_radius(BlockSpec("su2_1", 0, 8),
                      HamiltonianSpec("j1j2", 8, J2=0.5), R_grid=GRID)
    r_opt, e_opt, f_opt = res.optimum
    assert res.at_lower_edge and not res.unbounded
    assert f_opt >= 1 - 1e-6
    assert abs(e_opt - (-3.0)) < 1e-8
    assert abs(res.ground_energy - (-3.0)) < 1e-9
    radii = [r for r, _, _ in res.rows]
    assert radii == sorted(radii)
    assert all(e >= res.ground_energy - 1e-9 for _, e, _ in res.rows)


def test_scan_aklt_endpoint_is_exact():
    res = scan_radius(BlockSpec("su2_2", 4, 6),
                      HamiltonianSpec("qbq", 6, theta=math.atan(1 / 3)),
                      R_grid=GRID)
    assert res.at_lower_edge
    assert res.optimum[2] >= 1 - 1e-6
    assert abs(res.optimum[1] - (-12 / math.sqrt(10))) < 1e-8


def test_scan_optimum_moves_out_as_j2_shrinks():
    r_04 = scan_radius(BlockSpec("su2_1", 0, 6),
                       HamiltonianSpec("j1j2", 6, J2=0.4), R_grid=GRID)
    r_01 = scan_radius(BlockSpec("su2_1", 0, 6),
                       HamiltonianSpec("j1j2", 6, J2=0.1), R_grid=GRID)
    assert r_01.optimum[0] > r_04.optimum[0]
    assert not r_04.at_lower_edge


def test_scan_validation():
    spec = BlockSpec("su2_1", 0, 6)
    ham = HamiltonianSpec("j1j2", 6, J2=0.5)
    with pytest.raises(InputError):
        scan_radius(spec, HamiltonianSpec("qbq", 6), R_grid=GRID)
    with pytest.raises(InputError):
        scan_radius(spec, HamiltonianSpec("j1j2", 8, J2=0.5), R_grid=GRID)
    with pytest.raises(InputError):
        scan_radius(spec, ham, R_grid=[1.0])
    with pytest.raises(InputError):
        scan_radius(spec, ham, R_grid=[0.001, 1.0])
    with pytest.raises(InputError):
        scan_radius(spec, ham, R_grid=GRID, objective="prettiness")


def test_scan_labels_an_integral_float_block_as_its_int():
    # BlockSpec stores the su2_2 label 4.0 as 4: the scan reports psi4
    res = scan_radius(BlockSpec("su2_2", 4.0, 4), HamiltonianSpec("qbq", 4),
                      R_grid=np.geomspace(0.1, 1.0, 2))
    assert res.to_dict()["label"] == "psi4"


@pytest.mark.parametrize("grid", [[0.1, math.nan, 1.0], [0.1, math.inf],
                                  [-math.inf, 1.0]])
def test_non_finite_radii_are_refused_before_any_build(monkeypatch, grid):
    # NaN sorts last and passes the range check; it must fail up front
    # rather than at its point, after the chain's ED
    monkeypatch.setattr(hamiltonians, "build", None)
    monkeypatch.setattr(blocks, "build_state", None)
    spec = BlockSpec("su2_1", 0, 4)
    with pytest.raises(InputError, match="finite"):
        scan_radius(spec, HamiltonianSpec("j1j2", 4, J2=0.5), R_grid=grid)
    # a sweep's grid is shared by its scans: a bad one fails the sweep
    with pytest.raises(InputError, match="finite"):
        sweep_phase_diagram(spec, j1j2_family(4, [0.1, 0.5]), R_grid=grid)


def test_scan_variational_bound(monkeypatch):
    spec, ham = BlockSpec("su2_1", 0, 4), HamiltonianSpec("j1j2", 4, J2=0.3)
    res = scan_radius(spec, ham, R_grid=GRID[:3])
    lowest = min(e for _, e, _ in res.rows + [res.optimum])
    _, ground = ground_states(ham)
    # pretend E0 sits just below, then just above, the bound's reach
    for shift, ok in ((0.5 * VARIATIONAL_TOL, True),
                      (2 * VARIATIONAL_TOL, False)):
        monkeypatch.setattr(hamiltonians, "ground_states",
                            lambda h, e=lowest + shift: (e, ground))
        if ok:
            scan_radius(spec, ham, R_grid=GRID[:3])
        else:
            with pytest.raises(ConsistencyError):
                scan_radius(spec, ham, R_grid=GRID[:3])


def test_scan_refines_to_refine_tol(monkeypatch):
    tols = []
    minimize = experiments.minimize_scalar

    def recorded(f, bracket, **kw):
        tols.append(kw)
        return minimize(f, bracket, **kw)

    monkeypatch.setattr(experiments, "minimize_scalar", recorded)
    scan_radius(BlockSpec("su2_1", 0, 4), HamiltonianSpec("j1j2", 4, J2=0.3),
                R_grid=GRID[:3])
    assert tols == [{"tol": REFINE_TOL}] and REFINE_TOL == 1e-4


def test_scan_edge_flags():
    grid = np.geomspace(0.02, 30, 25)
    mid = grid[10]
    # the refinement inside the first interval is at the lower edge
    assert _edge_flags(grid, grid[1], 0.0, 0.0, -1.0) == (True, False)
    # so is a bottom point scoring within EDGE_TOL (relative, floor 1), and
    # a top point so scoring is unbounded
    for opt, scale in ((-5.0, 5.0), (-0.1, 1.0)):
        near = opt + 0.5 * EDGE_TOL * scale
        far = opt + 2 * EDGE_TOL * scale
        assert _edge_flags(grid, mid, near, far, opt) == (True, False)
        assert _edge_flags(grid, mid, far, far, opt) == (False, False)
        assert _edge_flags(grid, mid, far, near, opt) == (False, True)
    top = UNBOUNDED_SHARE * grid[-1]
    assert _edge_flags(grid, top, 0.0, 0.0, -1.0) == (False, True)
    assert _edge_flags(grid, top * (1 - 1e-12), 0.0, 0.0, -1.0) == \
        (False, False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(R_MIN, R_MAX), min_size=2, max_size=25,
                unique=True),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-1e4, 1e4), st.floats(-15.0, 2.0), st.floats(-15.0, 2.0))
def test_edge_flags_on_flat_basins(radii, lo_share, hi_share, park, opt,
                                   log_slope, log_top_slope):
    # a synthetic flat basin [lo, hi] scoring opt, rising linearly on both
    # sides; the refinement parks anywhere inside it
    grid = np.sort(radii)
    span = grid[-1] - grid[0]
    lo = grid[0] + min(lo_share, hi_share) * span
    hi = grid[0] + max(lo_share, hi_share) * span
    r_opt = lo + park * (hi - lo)
    first = opt + 10.0 ** log_slope * (lo - grid[0])
    last = opt + 10.0 ** log_top_slope * (grid[-1] - hi)
    at_lower_edge, unbounded = _edge_flags(grid, r_opt, first, last, opt)
    edge_tol = EDGE_TOL * max(1.0, abs(opt))
    if first <= opt + edge_tol or r_opt <= grid[1]:
        assert at_lower_edge
    else:
        assert not at_lower_edge
    assert unbounded == (last <= opt + edge_tol
                         or r_opt >= UNBOUNDED_SHARE * grid[-1])


def test_flat_top_scan_is_unbounded():
    # E(R) agrees to 1e-14 on [6.5, 30]: the refinement may park anywhere
    # there (R = 8.87 here), while the top grid point scores as well
    res = scan_radius(BlockSpec("su2_1", 0, 12),
                      HamiltonianSpec("j1j2", 12, J2=0.14025382436936185))
    assert res.unbounded and not res.at_lower_edge


def test_parent_check_psd_bound(monkeypatch):
    for min_eig, ok in ((-0.5 * PSD_TOL, True), (-2 * PSD_TOL, False)):
        monkeypatch.setattr(hamiltonians, "parent_annihilation_check",
                            lambda N, e=min_eig: (0.0, e))
        assert _parent_check([4])["pass"] is ok


def test_fidelity_objective_is_available():
    res = scan_radius(BlockSpec("su2_1", 0, 6),
                      HamiltonianSpec("j1j2", 6, J2=0.5),
                      R_grid=np.geomspace(0.02, 1.0, 6),
                      objective="fidelity")
    assert res.objective == "fidelity"
    assert res.optimum[2] >= 1 - 1e-6


@pytest.mark.parametrize("spec,ham", [
    (BlockSpec("su2_2", 2, 6), HamiltonianSpec("qbq", 6, theta=0.2)),
    (BlockSpec("su2_1", "half", 12), HamiltonianSpec("hs", 12)),
], ids=["psi2-qbq-6", "psi_half-hs-12"])
def test_wrong_momentum_fidelity_is_exactly_zero(spec, ham):
    # both blocks have momentum -1 and both ground spaces +1, so the
    # overlap is roundoff and the fidelity must read exactly 0
    _, ground = ground_states(ham)
    lam = blocks.momentum_eigenvalue(spec)
    space = Subspace(ground)
    assert not _holds_singlet(space, lam) and _holds_singlet(space, -lam)
    res = scan_radius(spec, ham, R_grid=np.geomspace(0.05, 5.0, 3))
    assert [f for _, _, f in res.rows] == [0.0] * 3
    assert res.optimum[2] == 0.0 and res.to_dict()["fidelity_opt"] == 0.0


def test_non_singlet_ground_level_fidelity_is_exactly_zero():
    # the ferromagnetic qbq ground level has S = N: every block is a
    # singlet, so the overlap is roundoff and the fidelity must read 0
    spec, ham = BlockSpec("su2_2", 4, 8), HamiltonianSpec("qbq", 8, theta=2.0)
    _, ground = ground_states(ham)
    assert total_spin_quantum(ground[0])[0] == pytest.approx(8.0)
    space = Subspace(ground)
    assert not _holds_singlet(space, 1.0) and not _holds_singlet(space, -1.0)
    res = scan_radius(spec, ham, R_grid=np.geomspace(0.02, 30.0, 5))
    assert [f for _, _, f in res.rows] == [0.0] * 5
    assert res.optimum[2] == 0.0 and res.to_dict()["fidelity_opt"] == 0.0


def test_singlet_test_needs_spin_and_momentum_on_one_vector():
    # span{Dicke S=2 state (momentum +1), MG singlet of momentum -1} holds
    # momentum +1 and a singlet, but a singlet of momentum -1 only
    sector = enumerate_sector(4, 2, 0.0)
    amps = np.zeros(16, dtype=complex)
    amps[sector.ranks] = 1.0
    dicke = StateVector(4, 2, amps).normalize()
    space = Subspace([dicke, refstates.mg_combination(4, -1)])
    assert _holds_singlet(space, -1.0) and not _holds_singlet(space, 1.0)
    assert _holds_singlet(Subspace([refstates.mg_combination(4, 1)]), 1.0)


def test_matching_momentum_fidelity_is_the_subspace_fidelity():
    # at the Majumdar-Ghosh point the ground space holds momenta +1 and -1
    spec, ham = BlockSpec("su2_1", 0, 8), HamiltonianSpec("j1j2", 8, J2=0.5)
    _, ground = ground_states(ham)
    space = Subspace(ground)
    assert _holds_singlet(space, 1.0) and _holds_singlet(space, -1.0)
    res = scan_radius(spec, ham, R_grid=np.geomspace(0.05, 5.0, 3))
    for R, _, fid in res.rows:
        assert fid == fidelity_per_site_subspace(
            block_state_spin_basis(spec, R), ground)


def test_scan_radius_grid_size_is_bounded():
    spec, ham = BlockSpec("su2_1", 0, 4), HamiltonianSpec("hs", 4)
    for n in (1, MAX_GRID_POINTS + 1):
        with pytest.raises(InputError, match="MAX_GRID_POINTS"):
            scan_radius(spec, ham, R_grid=np.geomspace(0.1, 1.0, n))


def test_scan_radius_runs_serially_only():
    # workers=1 is the benchmark's call; any other count is refused
    spec = BlockSpec("su2_1", 0, 4)
    ham = HamiltonianSpec("j1j2", 4, J2=0.5)
    grid = np.geomspace(0.02, 1.0, 3)
    assert scan_radius(spec, ham, R_grid=grid, workers=1).rows == \
        scan_radius(spec, ham, R_grid=grid).rows
    for workers in (2, 0, None):
        with pytest.raises(InputError):
            scan_radius(spec, ham, R_grid=grid, workers=workers)


def _sweep_doc(points):
    # the JSON document `scan phase` writes
    return json.dumps([{"param": p["param"], "error": p["error"],
                        "scan": None if p["scan"] is None
                        else p["scan"].to_dict()} for p in points],
                      indent=1, sort_keys=True)


def test_singleton_sweep_matches_direct_scan():
    # a sweep shares its grid states between scans; each scan must still
    # equal an independent scan_radius call exactly, from one parameter up
    grid = np.geomspace(0.02, 30, 8)
    cases = [
        (BlockSpec("su2_1", 0, 6), j1j2_family(6, [0.5])),
        (BlockSpec("su2_1", 0, 8), j1j2_family(8, [0.0, 0.3, 0.5, 0.8])),
        (BlockSpec("su2_1", "half", 8),
         j1j2_family(8, [0.0, 0.3, 0.5, 0.8])),
        (BlockSpec("su2_2", 2, 6), qbq_family(6, [-0.4, 0.2, 1.0])),
        (BlockSpec("su2_2", 3, 6), qbq_family(6, [-0.4, 0.2, 1.0])),
        (BlockSpec("su2_2", 4, 6),
         qbq_family(6, [-0.4, math.atan(1 / 3), 1.0])),
    ]
    for spec, family in cases:
        points = sweep_phase_diagram(spec, family, R_grid=grid)
        direct = [{"param": float(p), "error": None,
                   "scan": scan_radius(spec, ham, R_grid=grid)}
                  for p, ham in family]
        assert len(points) == len(family)
        for got, want in zip(points, direct):
            assert got["error"] is None
            a, b = got["scan"], want["scan"]
            assert a.rows == b.rows and a.optimum == b.optimum
            assert (a.at_lower_edge, a.unbounded) == \
                (b.at_lower_edge, b.unbounded)
            assert a.ground_energy == b.ground_energy
        assert sweep_csv(points) == sweep_csv(direct)
        assert _sweep_doc(points) == _sweep_doc(direct)


def _count_builds(monkeypatch):
    """Radii passed to blocks.build_state, in call order."""
    radii = []
    build = blocks.build_state

    def counted(spec, geom=None):
        radii.append(geom)
        return build(spec, geom)

    monkeypatch.setattr(blocks, "build_state", counted)
    return radii


def _count_points(monkeypatch):
    """Per block_state_spin_basis call, its radius and the byte sizes of
    the states in the dict it was given, read after the call (None for no
    dict)."""
    calls = []
    point = experiments.block_state_spin_basis

    def counted(spec, geom=None, states=None):
        out = point(spec, geom, states)
        calls.append((geom, None if states is None else
                      [v.amplitudes.nbytes for v in states.values()]))
        return out

    monkeypatch.setattr(experiments, "block_state_spin_basis", counted)
    return calls


def _count_refinements(monkeypatch):
    """Objective evaluations made by the Brent refinement."""
    evals = []
    minimize = experiments.minimize_scalar

    def counted(f, bracket, **kwargs):
        return minimize(lambda R: evals.append(R) or f(R), bracket,
                        **kwargs)

    monkeypatch.setattr(experiments, "minimize_scalar", counted)
    return evals


SWEEP_SPEC = BlockSpec("su2_1", 0, 8)
SWEEP_FAMILY = j1j2_family(8, [0.1, 0.3, 0.5, 0.9])
SWEEP_GRID = np.geomspace(0.02, 30, 7)


def test_sweep_builds_each_grid_state_once(monkeypatch):
    builds = _count_builds(monkeypatch)
    calls = _count_points(monkeypatch)
    evals = _count_refinements(monkeypatch)
    points = sweep_phase_diagram(SWEEP_SPEC, SWEEP_FAMILY, R_grid=SWEEP_GRID)
    counts = Counter(builds)
    assert [counts[R] for R in SWEEP_GRID] == [1] * len(SWEEP_GRID)
    # every scored point still asks for its state once: the grid, the Brent
    # evaluations and the refined optimum of each scan
    assert len(calls) == len(SWEEP_FAMILY) * (len(SWEEP_GRID) + 1) + \
        len(evals)
    # refinement points off the grid are built every time, never stored
    off_grid = [R for R in evals if R not in set(SWEEP_GRID)]
    assert len(builds) == len(SWEEP_GRID) + len(off_grid) + sum(
        p["scan"].optimum[0] not in set(SWEEP_GRID) for p in points)
    assert max(len(sizes) for _, sizes in calls if sizes is not None) == \
        len(SWEEP_GRID)


def test_sweep_states_do_not_outlive_the_sweep(monkeypatch):
    builds = _count_builds(monkeypatch)
    first = sweep_csv(sweep_phase_diagram(SWEEP_SPEC, SWEEP_FAMILY,
                                          R_grid=SWEEP_GRID))
    second = sweep_csv(sweep_phase_diagram(SWEEP_SPEC, SWEEP_FAMILY,
                                           R_grid=SWEEP_GRID))
    assert first == second
    counts = Counter(builds)
    assert [counts[R] for R in SWEEP_GRID] == [2] * len(SWEEP_GRID)
    # a lone scan keeps no states: each of its points is built
    builds.clear()
    calls = _count_points(monkeypatch)
    scan_radius(SWEEP_SPEC, SWEEP_FAMILY[0][1], R_grid=SWEEP_GRID)
    assert all(sizes is None for _, sizes in calls)
    assert builds == [R for R, _ in calls]


def test_sweep_states_stay_within_their_byte_bound(monkeypatch):
    unbounded = sweep_phase_diagram(SWEEP_SPEC, SWEEP_FAMILY,
                                    R_grid=SWEEP_GRID)
    state_bytes = 16 * 2 ** SWEEP_SPEC.N
    monkeypatch.setattr(experiments, "SWEEP_STATE_BYTES",
                        3 * state_bytes + state_bytes // 2)
    builds = _count_builds(monkeypatch)
    calls = _count_points(monkeypatch)
    bounded = sweep_phase_diagram(SWEEP_SPEC, SWEEP_FAMILY, R_grid=SWEEP_GRID)
    stored = [sizes for _, sizes in calls if sizes is not None]
    assert max(sum(sizes) for sizes in stored) == 3 * state_bytes
    counts = Counter(builds)
    # the three smallest radii are stored, the rest are built per scan
    assert [counts[R] for R in SWEEP_GRID[:3]] == [1] * 3
    assert all(counts[R] >= len(SWEEP_FAMILY) for R in SWEEP_GRID[3:])
    assert sweep_csv(bounded) == sweep_csv(unbounded)
    assert _sweep_doc(bounded) == _sweep_doc(unbounded)
    # a bound below one state stores none
    monkeypatch.setattr(experiments, "SWEEP_STATE_BYTES", state_bytes - 1)
    calls.clear()
    assert sweep_csv(sweep_phase_diagram(
        SWEEP_SPEC, SWEEP_FAMILY, R_grid=SWEEP_GRID)) == sweep_csv(unbounded)
    assert all(not sizes for _, sizes in calls if sizes is not None)


def test_sweep_state_bound_is_named():
    # 25 su2_1 states at N=12 fit; 25 su2_2 states at N=12 do not
    assert 25 * 16 * 2 ** 12 <= SWEEP_STATE_BYTES < 25 * 16 * 3 ** 12


def test_sweep_continues_past_failures_and_records_them():
    spec = BlockSpec("su2_1", 0, 6)
    family = [(0.5, HamiltonianSpec("j1j2", 6, J2=0.5)),
              (9.9, HamiltonianSpec("qbq", 6, theta=0.1))]
    points = sweep_phase_diagram(spec, family,
                                 R_grid=np.geomspace(0.02, 2.0, 6))
    assert points[0]["error"] is None
    assert points[1]["scan"] is None and "InputError" in points[1]["error"]
    text = sweep_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "param,R_opt,energy_opt,ground_energy,fidelity_per_site"
    assert len(lines) == 3
    assert lines[2].split(",")[1] == "nan"
    with pytest.raises(InputError):
        sweep_phase_diagram(spec, [])


def test_sweep_csv_is_deterministic():
    spec = BlockSpec("su2_2", 4, 4)
    fam = qbq_family(4, [math.atan(1 / 3)])
    grid = np.geomspace(0.02, 2.0, 5)
    a = sweep_csv(sweep_phase_diagram(spec, fam, R_grid=grid))
    b = sweep_csv(sweep_phase_diagram(spec, fam, R_grid=grid))
    assert a == b


def test_limit_convergence_thin_torus():
    targets = [refstates.mg_combination(8, +1),
               refstates.mg_combination(8, -1)]
    rows = limit_convergence(BlockSpec("su2_1", 0, 8), targets,
                             [0.4, 0.2, 0.1, 0.05])
    assert rows[-1][1] <= 1e-4
    aklt = [refstates.aklt_state(6, basis="circular")]
    rows = limit_convergence(BlockSpec("su2_2", 4, 6), aklt,
                             [0.4, 0.2, 0.1, 0.05])
    assert rows[-1][1] <= 1e-4
    # psi0 at N=6 has momentum -1, mg+ momentum +1: eps is exactly 1
    rows = limit_convergence(BlockSpec("su2_1", 0, 6),
                             [refstates.mg_combination(6, +1)],
                             [0.4, 0.2, 0.1])
    assert [infid for _, infid in rows] == [1.0] * 3


@pytest.mark.parametrize("spec, target, R", [
    (BlockSpec("su2_2", 3, 6),
     [refstates.spin1_dimer_combinations(6, s) for s in (1, -1)], 0.05),
    (BlockSpec("su2_1", 0, 8),
     [refstates.mg_combination(8, s) for s in (1, -1)], 0.02),
    (BlockSpec("su2_2", 4, 6), [refstates.aklt_state(6, basis="circular")],
     0.05)], ids=("s1dimer", "mg", "aklt-circ"))
def test_limit_infidelity_from_the_complement_matches_mpmath(spec, target,
                                                             R):
    # eps = |a - P a|^2 / |a|^2 in 50 digits from the same doubles: a's
    # amplitudes and the rows of q^dagger
    state = blocks.build_state(spec, R)
    space = Subspace(target)
    eps = space.residual(state)
    with mp.workdps(50):
        a = [mp.mpc(complex(x)) for x in state.amplitudes]
        qh = [[mp.mpc(complex(x)) for x in row] for row in space.qh]
        w = [mp.fsum(q * x for q, x in zip(row, a)) for row in qh]
        rest = [x - mp.fsum(mp.conj(row[i]) * wj for row, wj in zip(qh, w))
                for i, x in enumerate(a)]
        want = (mp.fsum(abs(x) ** 2 for x in rest)
                / mp.fsum(abs(x) ** 2 for x in a))
        assert abs(eps - want) <= 1e-15 * mp.sqrt(want) + 1e-30
        want_site = -mp.expm1(mp.log1p(-want) / spec.N)
    # far below the rounding of 1 - F, yet measured, not 0
    got = limit_convergence(spec, target, [4 * R, 2 * R, R])[-1][1]
    assert 0 < got < 1e-16
    assert abs(got - want_site) <= 1e-15 * mp.sqrt(want) / spec.N + 1e-30


def test_limit_convergence_cylinder():
    _, ground = ground_states(HamiltonianSpec("hs", 6))
    rows = limit_convergence(BlockSpec("su2_1", 0, 6), ground, [2, 5, 10, 20])
    assert rows[-1][1] <= 1e-6


def test_limit_convergence_rejects_bad_schedules():
    target = [refstates.mg_combination(6, -1)]
    spec = BlockSpec("su2_1", 0, 6)
    with pytest.raises(InputError):
        limit_convergence(spec, target, [0.4, 0.1, 0.2])
    with pytest.raises(InputError):
        limit_convergence(spec, target, [0.4, 0.1])
    # the target is a list of states, even when it holds one
    with pytest.raises(InputError, match="list of StateVector, got one"):
        limit_convergence(spec, target[0], [0.4, 0.2, 0.1])
    with pytest.raises(InputError, match="list of StateVector, got a list"):
        limit_convergence(spec, [target[0].amplitudes], [0.4, 0.2, 0.1])
    # walking away from the thin-torus limit raises the monotonicity check
    with pytest.raises(ConsistencyError):
        limit_convergence(spec, [refstates.mg_combination(6, +1),
                                 refstates.mg_combination(6, -1)],
                          [0.05, 0.2, 0.5, 2.0])


def test_spin_basis_rotation_only_touches_d3():
    v2 = block_state_spin_basis(BlockSpec("su2_1", 0, 4), 1.0)
    assert np.array_equal(v2.amplitudes,
                          blocks.build_state(BlockSpec("su2_1", 0, 4),
                                             1.0).amplitudes)
    v3 = block_state_spin_basis(BlockSpec("su2_2", 4, 4), 1.0)
    raw = blocks.build_state(BlockSpec("su2_2", 4, 4), 1.0)
    assert not np.allclose(v3.amplitudes, raw.amplitudes)


def test_identity_suite_passes_and_serializes():
    report = identity_suite(sizes=(4,), radii=(0.1, 1.0))
    assert report["pass"]
    assert report["max_residual"] <= 1e-8
    names = [c["name"] for c in report["checks"]]
    assert names == ["modular_transforms", "momentum_eigenvalues",
                     "singlet_after_u", "pfaffian_squared_vs_det",
                     "parent_annihilation"]
    json.loads(json.dumps(report))


def test_identity_suite_trivial_at_two_sites():
    report = identity_suite(sizes=(2,), radii=(0.5,))
    assert report["pass"]
    skipped = sum(len(c.get("skipped", [])) for c in report["checks"])
    # psi_1/2 and psi_2 are identically zero at N=2, each skipped by the
    # momentum check and again by the singlet check
    assert skipped == 4


def test_identity_suite_detects_a_wrong_su2_1_momentum(monkeypatch):
    # the builder signs each su2_1 row by the character momentum_eigenvalue
    # gives, so its state follows even a wrong eigenvalue; the check also
    # measures the rows' own amplitudes
    true = blocks.momentum_eigenvalue
    monkeypatch.setattr(blocks, "momentum_eigenvalue", lambda spec: (
        -true(spec) if spec.model == "su2_1" else true(spec)))
    report = identity_suite(sizes=(4, 6), radii=(0.5,))
    momentum = next(c for c in report["checks"]
                    if c["name"] == "momentum_eigenvalues")
    assert not report["pass"] and not momentum["pass"]
    assert momentum["max_residual"] > 1.0


def test_identity_suite_detects_marshall_sign_mutation(monkeypatch):
    monkeypatch.setattr(blocks, "marshall_sign", lambda labels: 1.0)
    report = identity_suite(sizes=(4,), radii=(0.5,))
    assert not report["pass"]
    singlet = next(c for c in report["checks"]
                   if c["name"] == "singlet_after_u")
    assert not singlet["pass"]
    # without the sign the k=0 block picks up triplet weight
    assert singlet["max_residual"] > 0.1
