"""Conformal-block state builders on the torus and the cylinder."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idmps import blocks, experiments, hamiltonians
from idmps.blocks import (BlockSpec, amplitude, build_record, build_state,
                          insertion_points, marshall_sign, momentum_eigenvalue)
from idmps.errors import ConsistencyError, InputError, NumericalError
from idmps.hilbert import (StateVector, all_configs, apply_site_unitary,
                           enumerate_sector, fidelity_per_site,
                           fidelity_per_site_subspace, rank_config,
                           total_spin_quantum, total_sz_table, translate)
from idmps.logcomplex import LogComplex
from idmps.numerics import pfaffian
from idmps.refstates import U_CIRC_TO_SPIN, spin1_dimer_combinations
from idmps.special import (RADIUS_RANGE, ModularParam, prime_form_log,
                           theta_char_log, weierstrass_nu, weierstrass_nu_log)
from test_hilbert import config_rank, three_axis_total_spin


# ------------------------------------------------------------ symmetry fold
# Each block function evaluated directly at x on the torus tau, and its
# closed form on the cylinder.

def _wp_direct(nu):
    trig = math.tan if nu == 2 else math.sin
    return (lambda x, tau: weierstrass_nu_log(nu, x, tau),
            lambda x: math.pi / trig(math.pi * x))


# keyed as blocks._FUNCTIONS: the prime form, wp_nu, theta[k;0](.|2 tau)
DIRECT = {
    "E": (prime_form_log, lambda x: math.sin(math.pi * x) / math.pi),
    2: _wp_direct(2),
    3: _wp_direct(3),
    4: _wp_direct(4),
    0.0: (lambda x, tau: theta_char_log((0.0, 0.0), x, 2 * tau),
          lambda x: 1.0),
    0.5: (lambda x, tau: theta_char_log((0.5, 0.0), x, 2 * tau),
          lambda x: math.cos(math.pi * x)),
}


def direct_value(fn, x, R):
    torus, cylinder = DIRECT[fn]
    if R is None:
        return LogComplex.from_value(cylinder(x))
    return torus(x, 1j * R)


# (N, n) with N even in 2..16 and x = n/N in [-2, 2]
SITES_AND_ARGS = st.integers(1, 8).flatmap(
    lambda h: st.tuples(st.just(2 * h), st.integers(-4 * h, 4 * h)))


@pytest.mark.parametrize("fn", list(DIRECT), ids=["E", "wp2", "wp3", "wp4",
                                                   "theta3", "theta2"])
@settings(max_examples=40, deadline=None)
@given(Nn=SITES_AND_ARGS, R=st.one_of(st.none(), st.floats(0.02, 30.0)))
def test_fold_matches_direct_evaluation(fn, Nn, R):
    N, n = Nn
    parity, period = blocks._FUNCTIONS[fn][:2]
    # odd functions vanish (E) or have a pole (wp) on the lattice
    assume(parity > 0 or n % N)
    geom = None if R is None else ModularParam(R)
    logs, sign = blocks._folded(fn, geom, np.array([n]), N)
    want = direct_value(fn, n / N, R)
    if parity * period < 0 and (2 * n) % (2 * N) == N:
        # f(1/2) = -f(1/2): the fold makes the midpoint an exact zero, where
        # direct evaluation leaves at most roundoff
        assert logs[0] == -math.inf and sign[0] == 0
        ref = direct_value(fn, 0.25, R)
        assert want.is_zero or want.log - ref.log < math.log(1e-12)
        return
    # the fold's sign times e^log against the direct value
    gap = sign[0] * LogComplex(logs[0] - want.log, -want.arg).value - 1
    assert abs(gap) <= 1e-12, (logs, sign, want)


def test_folded_values_are_positive_real():
    # the sign of every factor is the fold's alone: each block function at
    # tau = iR or on the cylinder is positive real at every r/N in
    # [0, 1/2] that a build evaluates (no pole, no exact zero of the fold)
    geoms = [ModularParam(R) for R in np.geomspace(*RADIUS_RANGE, 40)]
    worst = 0.0
    for fn, (parity, period, torus, cylinder) in blocks._FUNCTIONS.items():
        xs = set()
        for N in range(2, 21, 2):
            r = np.arange(0 if parity > 0 else 1, N // 2 + 1)
            _, sign = blocks._fold(r, N, parity, period)
            xs |= {Fraction(int(k), N) for k in r[sign != 0]}
        for x in map(float, sorted(xs)):
            vals = [torus(x, geom.tau) for geom in geoms]
            vals.append(LogComplex.from_value(cylinder(x)))
            for v in vals:
                assert v.log > -math.inf, (fn, x)
                worst = max(worst, abs(math.remainder(v.arg, 2 * math.pi)))
    assert worst <= blocks.REAL_TOL


@pytest.mark.parametrize("name, spec", [
    ("prime_form_log", BlockSpec("su2_1", 0, 6)),
    ("weierstrass_nu_log", BlockSpec("su2_2", 4, 4))])
@pytest.mark.parametrize("broken", [
    lambda v: -v, lambda v: v * LogComplex(0.0, 1e-6)],
    ids=["negated", "complex"])
def test_a_factor_that_is_not_positive_real_is_refused(monkeypatch, name,
                                                       spec, broken):
    real = getattr(blocks, name)
    monkeypatch.setattr(blocks, name, lambda *args: broken(real(*args)))
    with pytest.raises(ConsistencyError, match="REAL_TOL"):
        build_state(spec, 0.9)
    with pytest.raises(ConsistencyError, match="REAL_TOL"):
        amplitude(spec, 0.9, [1, -1] * (spec.N // 2))


def test_fold_evaluates_once_per_half_period_distance(monkeypatch):
    calls = {"prime_form_log": 0, "theta_char_log": 0}
    for name in calls:
        def counted(*args, _fn=getattr(blocks, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(blocks, name, counted)
    build_state(BlockSpec("su2_1", 0, 12), ModularParam(0.9))
    # distances 1..11 fold to 1..6; n = sum_j s_j j folds to 0..6
    assert calls["prime_form_log"] == 6
    assert calls["theta_char_log"] <= 7


def test_wp2_kernel_vanishes_at_half_chain():
    for N in (2, 4, 6, 8):
        for geom in (None, ModularParam(0.9)):
            kernel, _ = blocks._kernel_table(BlockSpec("su2_2", 2, N), geom)
            assert kernel.dtype == float
            half = np.arange(N // 2)
            assert np.all(kernel[half, half + N // 2] == 0)
            assert np.all(kernel[half + N // 2, half] == 0)


# ------------------------------------------------- single-amplitude oracles
# Per-pair evaluation, independent of the builders' kernel tables.

def oracle_su2_1(spec, geom, labels):
    s = np.asarray(labels)
    z = insertion_points(spec.N)
    acc = LogComplex.one() if marshall_sign(s) > 0 else -LogComplex.one()
    for i in range(spec.N):
        for j in range(i + 1, spec.N):
            if s[i] == s[j]:
                dz = z[i] - z[j]
                if geom is None:
                    acc = acc * LogComplex.from_value(
                        math.sin(math.pi * dz) / math.pi)
                else:
                    acc = acc * prime_form_log(dz, geom.tau)
    arg = float(s @ z)
    if geom is None:
        if spec.label == 0.5:
            acc = acc * LogComplex.from_value(math.cos(math.pi * arg))
    else:
        acc = acc * theta_char_log((spec.label, 0.0), arg, 2.0 * geom.tau)
    return acc.value


def direct_kernel(spec, geom):
    """K[i, j] = wp_nu(z_i - z_j), evaluated for every pair i != j."""
    z = insertion_points(spec.N)
    k = np.zeros((spec.N, spec.N), dtype=complex)
    for i in range(spec.N):
        for j in range(spec.N):
            if i != j:
                dz = z[i] - z[j]
                if geom is None:
                    trig = math.tan if spec.label == 2 else math.sin
                    k[i, j] = math.pi / trig(math.pi * dz)
                else:
                    k[i, j] = weierstrass_nu_log(spec.label, dz,
                                                 geom.tau).value
    return k


def oracle_su2_2(spec, geom, labels):
    s = np.asarray(labels)
    return pfaffian(direct_kernel(spec, geom) * (s[:, None] == s[None, :]))


def assert_matches_oracle(spec, geom, oracle, configs):
    """Single amplitudes and the built state against the oracle."""
    want = np.array([oracle(spec, geom, c) for c in configs])
    got = np.array([amplitude(spec, geom, c) for c in configs])
    tol = dict(rtol=1e-10, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(got, want, **tol)
    ranks = [config_rank(c, spec.d) for c in configs]
    state, log_scale = build_record(spec, geom)
    built = state.amplitudes[ranks] * math.exp(log_scale)
    np.testing.assert_allclose(built, want, **tol)


# ------------------------------------------------------------------ spec/basic

def test_block_spec_validation():
    assert BlockSpec("su2_1", "half", 4).label == 0.5
    assert BlockSpec("su2_1", 0, 4).d == 2
    assert BlockSpec("su2_2", 3, 4).d == 3
    with pytest.raises(InputError):
        BlockSpec("su2_1", 1, 4)
    with pytest.raises(InputError):
        BlockSpec("su2_2", 5, 4)
    with pytest.raises(InputError):
        BlockSpec("su2_1", 0, 5)
    with pytest.raises(InputError):
        BlockSpec("su3", 0, 4)
    # a non-integral site count is refused, not truncated to 4
    for N in (4.5, 3.999, "4"):
        with pytest.raises(InputError, match="integer"):
            BlockSpec("su2_1", 0, N)
    assert BlockSpec("su2_1", 0, 4.0).N == 4
    # an integral su2_2 label is stored as an int, so its name is psi4
    spec = BlockSpec("su2_2", 4.0, 4)
    assert type(spec.label) is int and spec.name == "psi4"
    assert type(BlockSpec("su2_2", np.int64(3), 4).label) is int


def test_oversized_su2_2_build_refuses_before_allocating():
    # 3^14 configurations exceed MAX_CONFIGS; the rank list alone would
    # take 38 MB
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MAX_CONFIGS"):
            build_state(BlockSpec("su2_2", 4, 14), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_insertion_points():
    z = insertion_points(4)
    assert np.allclose(z, [0.25, 0.5, 0.75, 1.0])


def test_marshall_sign():
    assert marshall_sign([1, -1, 1, -1]) == 1
    assert marshall_sign([-1, 1, 1, -1]) == -1
    assert marshall_sign([-1, 1]) == -1


# ------------------------------------------------------------- su2_1 amplitude

def test_su2_1_charge_neutrality():
    spec = BlockSpec("su2_1", 0, 4)
    geom = ModularParam(1.0)
    assert amplitude(spec, geom, [1, 1, 1, -1]) == 0


def test_su2_1_two_site_singlet_amplitudes():
    spec = BlockSpec("su2_1", 0, 2)
    geom = ModularParam(0.7)
    a = amplitude(spec, geom, [1, -1])
    b = amplitude(spec, geom, [-1, 1])
    assert a == pytest.approx(-b, rel=1e-12)
    assert abs(a) > 0


def test_su2_1_amplitude_matches_builder():
    configs = ([1, 1, -1, -1, 1, -1], [1, -1, 1, -1, 1, -1],
               [1, -1, -1, 1, 1, -1], [-1, -1, 1, 1, 1, -1])
    for label in (0, 0.5):
        spec = BlockSpec("su2_1", label, 6)
        for geom in (ModularParam(1.3), None):
            assert_matches_oracle(spec, geom, oracle_su2_1, configs)


def _einsum_su2_1(spec, geom):
    """su2_1 amplitudes of every Sz=0 row, the pair sum in one einsum over
    the log|E| table, normalized as _build does: (amplitudes, log_scale),
    or None where all vanish."""
    N = spec.N
    sector = enumerate_sector(N, 2, 0.0)
    labels = rank_config(sector.ranks, N, 2)
    s = labels.astype(float)
    table = blocks._kernel_table(spec, geom)
    logs = 0.25 * (table.sum() + np.einsum("mi,ij,mj->m", s, table, s))
    tlogs, tsign = blocks._folded(spec.label, geom,
                                  labels @ np.arange(1, N + 1), N)
    logs, sign = logs + tlogs, marshall_sign(labels) * tsign
    live = sign != 0
    if not np.any(live):
        return None
    m = logs[live].max()
    amps = np.zeros(2 ** N, dtype=complex)
    amps[sector.ranks[live]] = sign[live] * np.exp(logs[live] - m)
    nrm = np.linalg.norm(amps)
    return amps / nrm, m + math.log(nrm)


# the radii of the su2_1 equivalence test: fixed ones and 11 across the
# whole RADIUS_RANGE
EQUIVALENCE_RADII = (0.02, 0.05, 0.2, 0.9, 3.0, 30.0,
                     *np.geomspace(*RADIUS_RANGE, 11))


@pytest.mark.parametrize("N", range(2, 17, 2))
def test_su2_1_pair_sums_match_einsum(N):
    # the orbit path against every row's own pair sum. Both round each
    # log|psi| to about eps sum|log|E||, which at N = 16 is 3e-6 at R = 1e-8
    # and 1.2e-12 at R = 0.02, so the amplitudes agree within 1e-13 of the
    # largest plus that; the absolute 1e-13 holds from R = 0.02 up
    eps = np.finfo(float).eps
    for label in (0.0, 0.5):
        spec = BlockSpec("su2_1", label, N)
        for R in EQUIVALENCE_RADII + (None,):
            geom = None if R is None else ModularParam(R)
            ref = _einsum_su2_1(spec, geom)
            if ref is None:
                with pytest.raises(InputError):
                    build_state(spec, geom)
                continue
            ref, ref_scale = ref
            state, log_scale = build_record(spec, geom)
            got = state.amplitudes
            err, top = np.abs(got - ref).max(), np.abs(ref).max()
            rounding = eps * np.abs(blocks._kernel_table(spec, geom)).sum()
            assert err <= (1e-13 + rounding) * top, (label, R)
            if R is None or R >= 0.02:
                assert err <= 1e-13, (label, R)
            assert abs(log_scale - ref_scale) <= 1e-13 * abs(ref_scale)
            assert np.array_equal(got == 0, ref == 0), (label, R)


@pytest.mark.parametrize("label", [0.0, 0.5])
def test_su2_1_blocks_are_dihedral_eigenstates(label):
    # translation gives momentum_eigenvalue and the site reversal
    # (-1)^(N/2), for the all-rows amplitudes and the built state alike, up
    # to the largest N that hilbert.MAX_CONFIGS allows
    for N in range(4, 21, 2):
        spec = BlockSpec("su2_1", label, N)
        lam, p = momentum_eigenvalue(spec), (-1) ** (N // 2)
        for geom in (0.02, 0.2, 3.0, None):
            ref, _ = _einsum_su2_1(spec, None if geom is None
                                   else ModularParam(geom))
            for amps in (ref, build_state(spec, geom).amplitudes):
                v = StateVector(N, 2, amps)
                shifted = translate(v).amplitudes
                reversed_ = v.tensor().transpose(range(N)[::-1]).ravel()
                assert np.abs(shifted - lam * amps).max() <= 1e-13
                assert np.abs(reversed_ - p * amps).max() <= 1e-13


@pytest.mark.parametrize("N", range(2, 11, 2))
def test_sz0_orbits_match_rolled_rows(N):
    # every row against its 2N images T^k s and T^k P s by np.roll
    reps, orbit, cls = blocks._sz0_orbit_table(N)
    rows = rank_config(enumerate_sector(N, 2, 0.0).ranks, N, 2)
    weights = 1 << np.arange(N)
    assert len(orbit) == len(rows) and orbit.max() == len(reps) - 1
    for row, o, c in zip(rows, orbit, cls):
        images = [((np.roll(start, k) > 0) @ weights, k % 2 + 2 * reflects)
                  for reflects, start in enumerate((row, row[::-1]))
                  for k in range(N)]
        least = min(mask for mask, _ in images)
        assert (reps[o] > 0) @ weights == least
        assert (least, c) in images


def test_sz0_orbit_counts():
    assert [len(blocks._sz0_orbit_table(N)[0]) for N in (14, 18)] \
        == [133, 1387]


def test_stabilizer_zeros_are_fold_zeros():
    # psi(g s) = chi(g) psi(s), so an orbit that a g with chi(g) = -1 fixes
    # vanishes. No pair product or Marshall sign is zero, so the theta
    # factor's fold must zero it, and the builder needs no zeroing of its
    # own. The stabilizers come from np.roll, not from the orbit table
    killed_any = False
    for N in range(2, 21, 2):
        reps = blocks._sz0_orbit_table(N)[0]
        for label in (0.0, 0.5):
            spec = BlockSpec("su2_1", label, N)
            lam, p = momentum_eigenvalue(spec).real, (-1) ** (N // 2)
            killed = np.zeros(len(reps), bool)
            for reflects, start in enumerate((reps, reps[:, ::-1])):
                for k in range(N):
                    if lam ** k * p ** reflects < 0:
                        fixed = np.all(np.roll(start, k, axis=1) == reps,
                                       axis=1)
                        killed |= fixed
            _, sign = blocks._su2_1_logs(spec, None, reps)
            assert np.all(sign[killed] == 0), (N, label)
            killed_any |= killed.any()
    assert killed_any


def test_sz0_orbit_table_holds_no_label_table():
    # with its sector listed, the table holds its representatives, orbit
    # and class per row: 0.6 MB at N = 18, where the former cached label
    # table of the sector alone took 7 MB
    N = 18
    blocks._sz0_orbit_table.cache_clear()
    enumerate_sector(N, 2, 0.0)
    tracemalloc.start()
    try:
        blocks._sz0_orbit_table(N)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 ** 20


def test_su2_1_cylinder_amplitude_exact_zero():
    # n/N = +-1/2 mod 1 with n = sum_j s_j j zeroes cos(pi n/N) exactly
    spec = BlockSpec("su2_1", 0.5, 6)
    sector = enumerate_sector(6, 2, 0.0)
    zeros = [c for c in rank_config(sector.ranks, 6, 2)
             if (2 * int(c @ np.arange(1, 7)) + 6) % 12 == 0]
    assert [1, -1, 1, -1, 1, -1] in [list(c) for c in zeros]
    cyl = build_state(spec, None)
    for c in zeros:
        assert amplitude(spec, None, c) == 0
        assert cyl.amplitudes[config_rank(c, 2)] == 0


def test_su2_1_rejects_bad_config():
    spec = BlockSpec("su2_1", 0, 4)
    with pytest.raises(InputError):
        amplitude(spec, ModularParam(1.0), [1, 0, -1, 1])


# ------------------------------------------------------------- su2_2 amplitude

def test_su2_2_two_site_is_kernel_value():
    geom = ModularParam(0.9)
    spec = BlockSpec("su2_2", 3, 2)
    got = amplitude(spec, geom, [0, 0])
    want = weierstrass_nu(3, 0.5 - 1.0, geom.tau)
    assert got == pytest.approx(want, rel=1e-12)


def test_su2_2_two_site_flavor_degeneracy():
    geom = ModularParam(1.1)
    spec = BlockSpec("su2_2", 4, 2)
    vals = [amplitude(spec, geom, [s, s]) for s in (1, 0, -1)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_su2_2_odd_flavor_count_vanishes():
    geom = ModularParam(1.0)
    spec = BlockSpec("su2_2", 4, 4)
    assert amplitude(spec, geom, [0, 1, 1, 1]) == 0


def test_su2_2_pfaffian_cancels_exactly():
    # Pf = a^2 - a^2: wp_2(3/4) = -wp_2(1/4) and wp_2(1/2) = 0
    spec = BlockSpec("su2_2", 2, 4)
    assert amplitude(spec, 0.9, [0, 0, 0, 0]) == 0
    assert amplitude(spec, None, [0, 0, 0, 0]) == 0


def test_zeros_by_translation_are_exact():
    # nu=2 has momentum -1, so a one-flavor configuration (orbit period 1)
    # vanishes; its Pfaffian alone leaves ~1e-17 here
    spec = BlockSpec("su2_2", 2, 8)
    for geom in (0.05, 0.9, None):
        state, _ = build_record(spec, geom)
        for s in (1, 0, -1):
            assert amplitude(spec, geom, [s] * 8) == 0
            assert state.amplitudes[config_rank([s] * 8, 3)] == 0


def _subset_symmetry_zeros(spec, members):
    """The per-subset symmetry rule the orbit table replaced: Pf K[S] = 0
    where a rotation or reflection g with g(S) = S wraps an odd number of
    the sites of S, for wp_2 (period +1)."""
    zero = np.zeros(len(members), dtype=bool)
    if blocks._FUNCTIONS[spec.label][1] < 0:
        return zero
    N = spec.N
    a = np.arange(N)
    for t in range(N):
        for image, wrap in (((a + t) % N, a + t >= N), ((t - a) % N, a > t)):
            fixed = np.all(members[:, image] == members, axis=1)
            odd = np.count_nonzero(members & wrap, axis=1) % 2 == 1
            zero |= fixed & odd
    return zero


def _per_subset_su2_2(spec, geom, block_rule):
    """su2_2 amplitudes with one Pfaffian per distinct even flavor subset,
    optionally zeroed by _subset_symmetry_zeros, normalized as _build does."""
    N = spec.N
    labels = all_configs(N, 3)
    kernel, _ = blocks._kernel_table(spec, None if geom is None
                                     else ModularParam(geom))
    bits = 1 << np.arange(N)
    keys, inv = np.unique([(labels == f) @ bits for f in (1, 0, -1)],
                          return_inverse=True)
    members = (keys[:, None] & bits) != 0
    live = members.sum(axis=1) % 2 == 0
    if block_rule:
        live &= ~_subset_symmetry_zeros(spec, members)
    pfs = [blocks.pfaffian_log(kernel[np.ix_(m, m)]) if ok
           else LogComplex.zero() for m, ok in zip(members, live)]
    logs, args = np.array([(pf.log, pf.arg) for pf in pfs])[
        inv.reshape(3, -1)].sum(axis=0).T
    swaps = sum(np.count_nonzero(labels[:, i:i + 1] < labels[:, i + 1:],
                                 axis=1) for i in range(N))
    args = math.pi * ((np.round(args / math.pi) + swaps) % 2)
    live = logs > -np.inf
    amps = np.zeros(len(labels), dtype=complex)
    amps[live] = np.exp(logs[live] - logs[live].max() + 1j * args[live])
    return amps / np.linalg.norm(amps)


def test_block_rule_only_adds_exact_zeros():
    # against the per-subset builder: its exact zeros stay exact, the orbit
    # table zeroes only what the bare Pfaffians leave as roundoff, and every
    # amplitude agrees within 1e-13
    for nu in (2, 3, 4):
        for N in (4, 6, 8):
            spec = BlockSpec("su2_2", nu, N)
            for geom in (0.05, 0.2, 0.9, None):
                got = build_state(spec, geom).amplitudes
                ref = _per_subset_su2_2(spec, geom, block_rule=True)
                bare = _per_subset_su2_2(spec, geom, block_rule=False)
                assert np.all(got[ref == 0] == 0)
                added = (got == 0) & (bare != 0)
                assert np.all(np.abs(bare[added]) < 1e-16)
                assert np.abs(got - ref).max() <= 1e-13, (spec, geom)


def _permutation_parity(seq):
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) % 2


def test_block_rule_matches_permutation_determinant():
    # every rotation or reflection g maps Pf K[S] to c_g(S) Pf K[S] with
    # c_g(S) = det(P_g|S) parity^([g reflects] |S|/2) period^(wraps of S):
    # the table's representative is the least mask of the orbit, its signs
    # follow c_g, and it zeroes exactly the odd S and the S fixed by some g
    # with c_g(S) = -1
    for N in range(4, 13, 2):
        a = np.arange(N)
        group = [(np.where(a + t >= N, a + t - N, a + t), a + t >= N, False)
                 for t in range(N)]
        group += [(np.where(a > t, t - a + N, t - a), a > t, True)
                  for t in range(N)]
        # per (S, g): the image mask, det(P_g|S), wraps and |S|/2 if g
        # reflects
        moves = []
        for mask in range(2 ** N):
            S = [int(x) for x in a if mask >> x & 1]
            for image, wrap, reflects in group:
                moved = image[S]
                det = (-1) ** _permutation_parity(list(moved))
                moves.append((mask, int(sum(1 << int(x) for x in moved)),
                              det, int(wrap[S].sum()),
                              reflects * len(S) // 2))
        mask, moved, det, wraps, half = np.array(moves).T
        odd = np.array([bin(m).count("1") % 2 for m in range(2 ** N)]) == 1
        orbit_min = np.full(2 ** N, 2 ** N)
        np.minimum.at(orbit_min, mask, moved)
        for nu in (2, 3, 4):
            parity, period = blocks._FUNCTIONS[nu][:2]
            rep, sign = blocks._orbit_table(N, parity, period)
            c = det * parity ** half * period ** wraps
            want = odd.copy()
            want[mask[(moved == mask) & (c < 0)]] = True
            assert np.array_equal(sign == 0, want), (N, nu)
            assert np.any(want & ~odd) == (nu == 2)
            assert np.array_equal(rep, orbit_min)
            assert np.all(rep[moved] == rep[mask])
            assert np.all(sign[rep[~want]] == 1)
            live = ~want[mask]
            assert np.all(sign[moved[live]] == c[live] * sign[mask[live]])


def test_exact_zeros_are_closed_under_ring_symmetries():
    # the exact-zero set of every block maps onto itself under the one-site
    # translation and the reversal of the ring
    for N in (4, 6, 8):
        for model, label in (("su2_1", 0), ("su2_1", 0.5), ("su2_2", 2),
                             ("su2_2", 3), ("su2_2", 4)):
            spec = BlockSpec(model, label, N)
            configs = all_configs(N, spec.d)
            shifted = [np.roll(configs, 1, axis=1), configs[:, ::-1]]
            images = [np.array([config_rank(c, spec.d) for c in cs])
                      for cs in shifted]
            for geom in (0.05, 0.2, 0.9, None):
                zero = build_state(spec, geom).amplitudes == 0
                for image in images:
                    assert np.array_equal(zero[image], zero), (spec, geom)


def test_su2_2_amplitude_matches_builder():
    configs = {4: ([1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0],
                   [-1, 1, 1, -1]),
               6: ([1, 1, 0, 0, -1, -1], [0, 1, -1, -1, 1, 0],
                   [1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0])}
    for N, cfgs in configs.items():
        for label in (2, 3, 4):
            spec = BlockSpec("su2_2", label, N)
            for geom in (ModularParam(0.9), None):
                assert_matches_oracle(spec, geom, oracle_su2_2, cfgs)


def test_su2_2_state_matches_masked_pfaffian_everywhere():
    # the flavor-factorised builder against the Pfaffian of the full masked
    # kernel matrix, on every configuration
    configs = all_configs(6, 3)
    for label in (2, 3, 4):
        spec = BlockSpec("su2_2", label, 6)
        for geom in (ModularParam(0.9), None):
            kernel = direct_kernel(spec, geom)
            want = np.array([pfaffian(kernel * (c[:, None] == c[None, :]))
                             for c in configs])
            state, log_scale = build_record(spec, geom)
            np.testing.assert_allclose(
                state.amplitudes * math.exp(log_scale), want, rtol=1e-10,
                atol=1e-12 * np.abs(want).max())


def test_su2_2_one_pfaffian_per_even_flavor_block(monkeypatch):
    sizes = []
    pfaffian_log = blocks.pfaffian_log

    def counted(a):
        sizes.append(len(a))
        return pfaffian_log(a)

    monkeypatch.setattr(blocks, "pfaffian_log", counted)
    build_state(BlockSpec("su2_2", 4, 8), 0.9)
    # one per dihedral orbit of the 2^7 even subsets of 8 sites, the empty
    # one included; for wp_4 (period -1) no even subset vanishes by symmetry
    assert len(sizes) == 18 and all(n % 2 == 0 for n in sizes)
    for config in ([1, 0, -1, 1, 0, -1, 1, 1], [1, 1, 0, 0, -1, -1, 0, 0],
                   [0] * 8, [1, 0, 0, 0, 0, 0, 0, 0]):
        sizes.clear()
        amplitude(BlockSpec("su2_2", 4, 8), 0.9, config)
        assert len(sizes) <= 3 and all(n % 2 == 0 for n in sizes)


def test_su2_2_scan_builds_r_independent_tables_once(monkeypatch):
    # every build of the scan shares one listing of the 3^N rows and one
    # orbit table
    blocks._all_flavor_rows.cache_clear()
    blocks._orbit_table.cache_clear()
    listed = []
    real = blocks.all_configs

    def counting(N, d):
        listed.append((N, d))
        return real(N, d)

    monkeypatch.setattr(blocks, "all_configs", counting)
    res = experiments.scan_radius(
        BlockSpec("su2_2", 4, 6), hamiltonians.HamiltonianSpec("qbq", 6),
        R_grid=np.geomspace(0.05, 5.0, 4))
    assert len(res.rows) == 4
    assert listed == [(6, 3)]
    assert blocks._orbit_table.cache_info().misses == 1


def test_r_independent_su2_2_tables_are_shared_read_only():
    rows = blocks._all_flavor_rows(6)
    assert blocks._all_flavor_rows(6) is rows
    tables = blocks._orbit_table(6, -1, 1)
    assert blocks._orbit_table(6, -1, 1) is tables
    assert blocks._orbit_table(6, -1, -1) is not tables
    for table in rows + tables:
        with pytest.raises(ValueError):
            table[0] = 1


def test_su2_2_kernel_is_scaled_before_exponentiating():
    # log|wp_nu(1/6)| = -5225 at R = 1e-4: unscaled, every kernel entry of
    # nu = 2 and 3 underflows to 0 and the block seems to vanish
    for N in (4, 6, 8):
        dimers = [spin1_dimer_combinations(N, sign) for sign in (1, -1)]
        for label in (2, 3):
            for R in (1e-8, 1e-6, 1e-4, 1e-3):
                state, log_scale = build_record(BlockSpec("su2_2", label, N),
                                                R)
                assert math.isfinite(log_scale)
                fid = fidelity_per_site_subspace(state, dimers)
                assert fid > 1 - 1e-12, (label, N, R)


def test_su2_2_matches_direct_pfaffian():
    geom = ModularParam(0.8)
    spec = BlockSpec("su2_2", 2, 4)
    labels = [1, 0, 0, 1]
    z = insertion_points(4)
    c = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i != j and labels[i] == labels[j]:
                c[i, j] = weierstrass_nu(2, z[i] - z[j], geom.tau)
    assert amplitude(spec, geom, labels) == pytest.approx(
        pfaffian(c), rel=1e-11)


# ----------------------------------------------------------------- build_state

def test_build_two_site_singlet():
    for R in (0.3, 1.0, 7.0):
        v = build_state(BlockSpec("su2_1", 0, 2), ModularParam(R))
        up_down = v.amplitudes[config_rank([1, -1], 2)]
        down_up = v.amplitudes[config_rank([-1, 1], 2)]
        assert abs(up_down) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert up_down == pytest.approx(-down_up, rel=1e-12)


BLOCKS = (("su2_1", 0), ("su2_1", 0.5), ("su2_2", 2), ("su2_2", 3),
          ("su2_2", 4))


def _built_specs():
    """(spec, geom, state, log_scale) of every block that does not vanish
    identically, N <= 8, at four radii and on the cylinder."""
    for model, label in BLOCKS:
        for N in (2, 4, 6, 8):
            spec = BlockSpec(model, label, N)
            for geom in (0.02, 0.2, 0.9, 3.0, None):
                if N == 2 and label in (0.5, 2):
                    continue
                yield (spec, geom) + build_record(spec, geom)


def test_built_states_are_exactly_real():
    for spec, geom, state, _ in _built_specs():
        assert not np.any(state.amplitudes.imag), (spec, geom)


def test_amplitude_matches_every_built_entry():
    # same sign, magnitude within 1e-13; every entry of su2_1 and of su2_2
    # up to N = 4, a fixed sample of 100 su2_2 rows at N = 6 and 8
    rng = np.random.default_rng(7)
    for spec, geom, state, log_scale in _built_specs():
        configs = all_configs(spec.N, spec.d)
        if len(configs) > 256:
            configs = configs[rng.choice(len(configs), 100, replace=False)]
        ranks = [config_rank(c, spec.d) for c in configs]
        built = state.amplitudes.real[ranks] * math.exp(log_scale)
        got = np.array([amplitude(spec, geom, c) for c in configs])
        assert not np.any(got.imag)
        assert np.array_equal(np.sign(got.real), np.sign(built)), spec
        np.testing.assert_allclose(np.abs(got.real), np.abs(built),
                                   rtol=1e-13, atol=0)


def test_amplitude_past_double_range_is_refused():
    # log|psi| = 997.8 at [1, -1] * 7 (the build's scale is 999.9), where
    # e^log overflows; an entry of the same build at log|psi| = 683.6 is
    # still a double and equals the built entry
    spec = BlockSpec("su2_1", 0, 14)
    with pytest.raises(NumericalError, match=r"log\|psi\| = 997\.8"):
        amplitude(spec, 0.02, [1, -1] * 7)
    config = [1] * 5 + [-1] * 7 + [1] * 2
    state, log_scale = build_record(spec, 0.02)
    built = state.amplitudes.real[config_rank(config, 2)]
    got = amplitude(spec, 0.02, config)
    assert got.imag == 0 and np.sign(got.real) == np.sign(built)
    assert math.log(abs(got.real)) == pytest.approx(
        math.log(abs(built)) + log_scale, rel=1e-13)
    assert 683 < math.log(abs(got.real)) < 684


def test_build_identically_zero_blocks_raise():
    # theta2(+-1/2|2tau) = 0 kills k=1/2 at N=2; wp_2(1/2) = 0 kills nu=2,
    # on the torus and on the cylinder alike
    for spec in (BlockSpec("su2_1", 0.5, 2), BlockSpec("su2_2", 2, 2)):
        for geom in (ModularParam(1.0), None):
            with pytest.raises(InputError, match=f"{spec.model} label "
                               f"{spec.label} at N=2 vanish"):
                build_state(spec, geom)


def test_build_states_sz_neutral():
    # su2_1 amplitudes are strictly confined to the Sz = 0 sector
    table2 = total_sz_table(6, 2)
    for label in (0, 0.5):
        v = build_state(BlockSpec("su2_1", label, 6), ModularParam(0.9))
        assert np.abs(v.amplitudes[np.abs(table2) > 1e-12]).max() == 0.0
    # su2_2 flavor states spread over sectors but <Sz> vanishes by
    # flavor-exchange symmetry
    for label in (2, 3, 4):
        v = build_state(BlockSpec("su2_2", label, 6), ModularParam(0.9))
        _, sz = total_spin_quantum(v)
        assert abs(sz) < 1e-10, label


MOMENTA = {
    # T psi_0 = e^{i pi N/2}, T psi_1/2 = e^{i pi (N/2+1)}, psi_2 -> -1,
    # psi_3 -> +1, psi_4 -> +1
    ("su2_1", 0.0): lambda N: complex((-1) ** (N // 2)),
    ("su2_1", 0.5): lambda N: complex((-1) ** (N // 2 + 1)),
    ("su2_2", 2): lambda N: -1 + 0j,
    ("su2_2", 3): lambda N: 1 + 0j,
    ("su2_2", 4): lambda N: 1 + 0j,
}


def test_momentum_eigenvalues():
    for (model, label), lam in MOMENTA.items():
        for N in (4, 6):
            spec = BlockSpec(model, label, N)
            v = build_state(spec, ModularParam(1.0))
            tv = translate(v)
            want = lam(N)
            # exactly +-1, so a state file records no roundoff imaginary part
            assert momentum_eigenvalue(spec) == want
            res = np.linalg.norm(tv.amplitudes - want * v.amplitudes)
            assert res < 1e-8, (model, label, N)


def test_su2_2_states_are_singlets_after_u():
    for label in (2, 3, 4):
        v = build_state(BlockSpec("su2_2", label, 6), ModularParam(0.7))
        s, sz = total_spin_quantum(apply_site_unitary(v, U_CIRC_TO_SPIN))
        assert s == pytest.approx(0.0, abs=1e-8)
        assert sz == pytest.approx(0.0, abs=1e-10)


def test_su2_1_states_are_singlets():
    for label in (0, 0.5):
        v = build_state(BlockSpec("su2_1", label, 6), ModularParam(0.7))
        s, _ = total_spin_quantum(v)
        assert s == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("model,label", [("su2_1", 0), ("su2_1", 0.5),
                                         ("su2_2", 2), ("su2_2", 3),
                                         ("su2_2", 4)])
def test_block_total_spin_matches_the_three_axis_formula(model, label):
    for N in (4, 6):
        spec = BlockSpec(model, label, N)
        for geom in (0.05, 1.0, 10.0, None):
            v = experiments.block_state_spin_basis(spec, geom)
            got, want = total_spin_quantum(v), three_axis_total_spin(v)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (N, geom)


def test_float_radius_and_cylinder_geometry():
    # a float radius means ModularParam(R) everywhere, None the cylinder
    one = BlockSpec("su2_1", 0, 4)
    two = BlockSpec("su2_2", 3, 4)
    for R in (0.1, 1.0):
        assert amplitude(one, R, [1, -1, 1, -1]) \
            == amplitude(one, ModularParam(R), [1, -1, 1, -1])
        assert amplitude(two, R, [1, 1, 0, 0]) \
            == amplitude(two, ModularParam(R), [1, 1, 0, 0])
    for spec, config in ((one, [1, -1, 1, -1]), (two, [1, 1, 0, 0])):
        assert np.array_equal(
            build_state(spec, 0.5).amplitudes,
            build_state(spec, ModularParam(0.5)).amplitudes)
        state, log_scale = build_record(spec, None)
        built = state.amplitudes[config_rank(config, spec.d)]
        assert built * math.exp(log_scale) == pytest.approx(
            amplitude(spec, None, config), rel=1e-12)


def test_continuity_in_radius():
    spec = BlockSpec("su2_1", 0, 6)
    fids = []
    for delta in (4e-3, 2e-3, 1e-3):
        a = build_state(spec, ModularParam(1.0))
        b = build_state(spec, ModularParam(1.0 + delta))
        fids.append(fidelity_per_site(a, b))
    assert all(f > 1 - 1e-4 for f in fids)
    assert fids == sorted(fids)


# -------------------------------------------------------------- cylinder limit

def test_cylinder_matches_large_radius():
    for model, label in (("su2_1", 0), ("su2_1", 0.5), ("su2_2", 2),
                         ("su2_2", 3), ("su2_2", 4)):
        spec = BlockSpec(model, label, 6)
        far = build_state(spec, ModularParam(20.0))
        cyl = build_state(spec, None)
        assert fidelity_per_site(far, cyl) > 1 - 1e-6, (model, label)


def test_cylinder_su2_2_is_pf_of_sin_kernel():
    spec = BlockSpec("su2_2", 3, 4)
    v = build_state(spec, None)
    z = insertion_points(4)
    # rebuild every flavor-even amplitude from the pi/sin kernel directly
    raw = np.zeros(3 ** 4, dtype=complex)
    for r, labels in enumerate(all_configs(4, 3)):
        c = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                if i != j and labels[i] == labels[j]:
                    c[i, j] = math.pi / math.sin(math.pi * (z[i] - z[j]))
        raw[r] = pfaffian(c)
    raw /= np.linalg.norm(raw)
    ov = abs(np.vdot(raw, v.amplitudes))
    assert ov == pytest.approx(1.0, abs=1e-12)


def test_cylinder_su2_1_k0_is_pair_product():
    v = build_state(BlockSpec("su2_1", 0, 4), None)
    z = insertion_points(4)
    sector = enumerate_sector(4, 2, 0.0)
    raw = np.zeros(16, dtype=complex)
    for r, labels in zip(sector.ranks, rank_config(sector.ranks, 4, 2)):
        amp = complex(marshall_sign(labels))
        for i in range(4):
            for j in range(i + 1, 4):
                if labels[i] == labels[j]:
                    amp *= math.sin(math.pi * (z[i] - z[j])) / math.pi
        raw[r] = amp
    raw /= np.linalg.norm(raw)
    assert abs(np.vdot(raw, v.amplitudes)) == pytest.approx(1.0, abs=1e-12)
