"""End-to-end acceptance gate.

Ten numbered criteria, each printing a single PASS/FAIL line with its
measured worst residual and wall time. Tolerances and runtime budgets are
fixed here; loosening any of them is not an option.
"""
import math
import time

import numpy as np

from idmps import blocks, hamiltonians, refstates
from idmps.blocks import BlockSpec
from idmps.experiments import scan_radius
from idmps.hamiltonians import HamiltonianSpec
from idmps.hilbert import apply_site_unitary, total_spin_quantum, translate
from idmps.numerics import pfaffian
from idmps.special import modular_residual

HS_E0 = {N: -(N ** 3 + 5 * N) / 24 for N in (4, 6, 8)}


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def fidelity(a, b):
    return abs(a.overlap(b)) ** 2


def orthonormal(states):
    m = np.column_stack([s.amplitudes for s in states])
    q, _ = np.linalg.qr(m)
    return q


def test_01_modular_transform_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.2, 0.2))
        R = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        worst = max(worst, modular_residual(1j * R, z))
    dt = time.perf_counter() - t0
    report(1, "modular transforms, 100 samples",
           worst <= 1e-10 and dt < 5.0,
           f"max residual {worst:.3g}, {dt:.2f}s")


def test_02_hs_ground_state_endpoint():
    t0 = time.perf_counter()
    worst_infid, worst_de = 0.0, 0.0
    for N in (4, 6, 8):
        psi = blocks.build_state(BlockSpec("su2_1", 0, N), None)
        (e0, ground), = hamiltonians.ground_subspace(
            HamiltonianSpec("hs", N), k=1)
        worst_infid = max(worst_infid, 1.0 - fidelity(psi, ground))
        worst_de = max(worst_de, abs(e0 - HS_E0[N]))
    dt = time.perf_counter() - t0
    report(2, "psi0 cylinder is the 1/sin^2 chain ground state",
           worst_infid <= 1e-8 and worst_de <= 1e-9 and dt < 10.0,
           f"max infidelity {worst_infid:.3g}, max |dE| {worst_de:.3g}, "
           f"{dt:.2f}s")


def test_03_hs_excited_state_claim():
    t0 = time.perf_counter()
    worst = 0.0
    for N in (4, 6, 8):
        psi = blocks.build_state(BlockSpec("su2_1", "half", N), None)
        h = hamiltonians.build(HamiltonianSpec("hs", N))
        res = hamiltonians.eigenstate_residual(h, psi, HS_E0[N] + N / 2)
        worst = max(worst, res)
    dt = time.perf_counter() - t0
    report(3, "psi_half cylinder at E0 + N/2",
           worst <= 1e-8 and dt < 10.0,
           f"max residual {worst:.3g}, {dt:.2f}s")


def test_04_thin_torus_spin_half_dimers():
    t0 = time.perf_counter()
    N, R = 8, 0.05
    e0, ground = hamiltonians.ground_states(
        HamiltonianSpec("j1j2", N, J2=0.5))
    ok_energy = abs(e0 - (-3 * N / 8)) <= 1e-9 and len(ground) == 2
    q = orthonormal(ground)
    psis = [blocks.build_state(BlockSpec("su2_1", lab, N), R)
            for lab in (0, "half")]
    proj = [q @ (q.conj().T @ p.amplitudes) for p in psis]
    fids = [float(np.linalg.norm(pr) ** 2) for pr in proj]
    cross = abs(np.vdot(proj[0], proj[1])) / (
        np.linalg.norm(proj[0]) * np.linalg.norm(proj[1]))
    qs = orthonormal(psis)
    span_residual = float(np.linalg.norm(qs - q @ (q.conj().T @ qs), ord=2))
    dt = time.perf_counter() - t0
    report(4, "psi0/psi_half reach the dimer ground pair at R=0.05",
           ok_energy and min(fids) >= 1 - 1e-4 and cross < 1e-2
           and span_residual <= 1e-4 and dt < 30.0,
           f"min fidelity {min(fids):.8f}, cross overlap {cross:.3g}, "
           f"span residual {span_residual:.3g}, {dt:.2f}s")


def test_05_thin_torus_spin_one_targets():
    t0 = time.perf_counter()
    N, R = 6, 0.05
    pairs = [(4, refstates.aklt_state(N, basis="circular")),
             (2, refstates.spin1_dimer_combinations(N, -1)),
             (3, refstates.spin1_dimer_combinations(N, +1))]
    worst = 0.0
    for label, target in pairs:
        psi = blocks.build_state(BlockSpec("su2_2", label, N), R)
        worst = max(worst, 1.0 - fidelity(psi, target))
    dt = time.perf_counter() - t0
    report(5, "psi4 -> AKLT, psi2/psi3 -> spin-1 dimer pair at R=0.05",
           worst <= 1e-4 and dt < 60.0,
           f"max infidelity {worst:.3g}, {dt:.2f}s")


def test_06_cylinder_coincidence():
    t0 = time.perf_counter()
    N, R = 6, 20.0
    psi3 = blocks.build_state(BlockSpec("su2_2", 3, N), R)
    psi4 = blocks.build_state(BlockSpec("su2_2", 4, N), R)
    closed = blocks.build_state(BlockSpec("su2_2", 4, N), None)
    infids = [1.0 - fidelity(psi3, psi4), 1.0 - fidelity(psi3, closed),
              1.0 - fidelity(psi4, closed)]
    dt = time.perf_counter() - t0
    report(6, "psi3 and psi4 coincide on the cylinder",
           max(infids) <= 1e-6,
           f"max infidelity {max(infids):.3g}, {dt:.2f}s")


def test_07_parent_hamiltonian():
    t0 = time.perf_counter()
    worst_res, worst_eig = 0.0, 0.0
    for N in (4, 6):
        res, min_eig = hamiltonians.parent_annihilation_check(N)
        worst_res = max(worst_res, res)
        worst_eig = min(worst_eig, min_eig)
    dt = time.perf_counter() - t0
    report(7, "parent chain annihilates psi0 and stays PSD",
           worst_res <= 1e-8 and worst_eig >= -1e-9,
           f"max residual {worst_res:.3g}, min eigenvalue {worst_eig:.3g}, "
           f"{dt:.2f}s")


def test_08_scan_exactness_endpoints():
    t0 = time.perf_counter()
    grid = np.geomspace(0.02, 30, 12)
    end_j = scan_radius(BlockSpec("su2_1", 0, 8),
                        HamiltonianSpec("j1j2", 8, J2=0.5))
    end_t = scan_radius(BlockSpec("su2_2", 4, 6),
                        HamiltonianSpec("qbq", 6, theta=math.atan(1 / 3)))
    ok_ends = (end_j.at_lower_edge and end_j.optimum[2] >= 1 - 1e-6
               and end_t.at_lower_edge and end_t.optimum[2] >= 1 - 1e-6)
    r_j = [scan_radius(BlockSpec("su2_1", 0, 8),
                       HamiltonianSpec("j1j2", 8, J2=j2),
                       R_grid=grid).optimum[0] for j2 in (0.3, 0.4)]
    r_t = [scan_radius(BlockSpec("su2_2", 4, 6),
                       HamiltonianSpec("qbq", 6, theta=th),
                       R_grid=grid).optimum[0] for th in (0.15, 0.25)]
    mono = (r_j[0] > r_j[1] > end_j.optimum[0]
            and r_t[0] > r_t[1] > end_t.optimum[0])
    dt = time.perf_counter() - t0
    report(8, "optimal R at the exactness endpoints, monotone nearby",
           ok_ends and mono,
           f"endpoint fidelities {end_j.optimum[2]:.8f}/"
           f"{end_t.optimum[2]:.8f}, R* chains {r_j + [end_j.optimum[0]]} / "
           f"{r_t + [end_t.optimum[0]]}, {dt:.2f}s")


def test_09_symmetry_invariants():
    t0 = time.perf_counter()
    cases = [BlockSpec("su2_1", lab, N)
             for N in (4, 6, 8) for lab in (0, "half")]
    cases += [BlockSpec("su2_2", lab, N)
              for N in (4, 6) for lab in (2, 3, 4)]
    worst = 0.0
    for spec in cases:
        lam = blocks.momentum_eigenvalue(spec)
        for R in (0.1, 1.0, 10.0):
            state = blocks.build_state(spec, R)
            shifted = translate(state)
            worst = max(worst, float(np.linalg.norm(
                shifted.amplitudes - lam * state.amplitudes)))
            spun = state if spec.d == 2 else apply_site_unitary(
                state, refstates.U_CIRC_TO_SPIN)
            s, sz = total_spin_quantum(spun)
            worst = max(worst, abs(s), abs(sz))
    dt = time.perf_counter() - t0
    report(9, "Sz=0, singlet, and momentum table on every block state",
           worst <= 1e-8,
           f"max residual {worst:.3g}, {dt:.2f}s")


def _recursive_pfaffian(a):
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        return 0j
    total = 0j
    for j in range(1, n):
        sub = np.delete(np.delete(a, (0, j), 0), (0, j), 1)
        total += (-1) ** (j - 1) * a[0, j] * _recursive_pfaffian(sub)
    return total


def _mixing_magnitudes(psi, d0, d1):
    b = np.column_stack([d0.amplitudes, d1.amplitudes])
    gram = b.conj().T @ b
    c = np.linalg.solve(gram, b.conj().T @ psi.amplitudes)
    return np.abs(c / np.linalg.norm(c))


def test_10_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_pf, worst_det = 0.0, 0.0
    for n in range(2, 13, 2):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = m - m.T
        pf = pfaffian(a)
        if n <= 8:
            ref = _recursive_pfaffian(a)
            worst_pf = max(worst_pf, abs(pf - ref) / abs(ref))
        det = np.linalg.det(a)
        worst_det = max(worst_det, abs(pf ** 2 - det) / abs(det))
    worst_mps = 0.0
    alt = [refstates.cvo_tensor("su2_1", 0, 0.5, 0.5),
           refstates.cvo_tensor("su2_1", 0.5, 0.5, 0)]
    cell = [refstates.cvo_tensor("su2_2", 0.5, 1, 0.5)]
    for N in (4, 6):
        tr = refstates.mps_trace_state(alt, N)
        ref = refstates.dimer_state(N, 0)
        worst_mps = max(worst_mps, 1.0 - abs(tr.overlap(ref)))
        tr = refstates.mps_trace_state(cell, N)
        ref = refstates.aklt_state(N)
        worst_mps = max(worst_mps, 1.0 - abs(tr.overlap(ref)))
    worst_mix = 0.0
    d0, d1 = refstates.dimer_state(8, 0), refstates.dimer_state(8, 1)
    for lab in (0, "half"):
        psi = blocks.build_state(BlockSpec("su2_1", lab, 8), 0.05)
        mags = _mixing_magnitudes(psi, d0, d1)
        worst_mix = max(worst_mix, np.abs(mags - 1 / math.sqrt(2)).max())
    f0 = refstates.dimer_state(6, 0, refstates.flavor_pair())
    f1 = refstates.dimer_state(6, 1, refstates.flavor_pair())
    for lab in (2, 3):
        psi = blocks.build_state(BlockSpec("su2_2", lab, 6), 0.05)
        mags = _mixing_magnitudes(psi, f0, f1)
        worst_mix = max(worst_mix, np.abs(mags - 1 / math.sqrt(2)).max())
    dt = time.perf_counter() - t0
    report(10, "Pfaffian oracles, trace MPS targets, dimer mixing weights",
           worst_pf <= 1e-10 and worst_det <= 1e-10
           and worst_mps <= 1e-12 and worst_mix <= 1e-3,
           f"pf recursion {worst_pf:.3g}, pf^2 vs det {worst_det:.3g}, "
           f"trace MPS {worst_mps:.3g}, mixing {worst_mix:.3g}, {dt:.2f}s")
