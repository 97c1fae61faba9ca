"""Conformal-block state builders on the torus and the cylinder."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idmps import blocks
from idmps.blocks import (BlockSpec, amplitude_su2_1, amplitude_su2_2, momentum_eigenvalue,
                          build_cylinder_state, build_record, build_state,
                          insertion_points, marshall_sign)
from idmps.errors import InputError
from idmps.hilbert import (all_configs, apply_site_unitary, config_rank,
                           enumerate_sector, fidelity_per_site,
                           total_spin_quantum, total_sz_table, translate)
from idmps.logcomplex import LogComplex
from idmps.numerics import pfaffian
from idmps.refstates import U_CIRC_TO_SPIN
from idmps.special import (ModularParam, prime_form_log, theta_char_log,
                           weierstrass_nu, weierstrass_nu_log)


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
    logs, args = blocks._folded(fn, geom, np.array([n]), N)
    want = direct_value(fn, n / N, R)
    if parity * period < 0 and (2 * n) % (2 * N) == N:
        # f(1/2) = -f(1/2): the fold makes the midpoint an exact zero, where
        # direct evaluation leaves at most roundoff
        assert logs[0] == -math.inf
        ref = direct_value(fn, 0.25, R)
        assert want.is_zero or want.log - ref.log < math.log(1e-12)
        return
    got = LogComplex(logs[0], args[0])
    gap = LogComplex(got.log - want.log, got.arg - want.arg).value - 1
    assert abs(gap) <= 1e-12, (got, want)


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
            kernel = blocks._kernel_table(BlockSpec("su2_2", 2, N), geom)
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


def oracle_su2_2(spec, geom, labels):
    z = insertion_points(spec.N)
    c = np.zeros((spec.N, spec.N), dtype=complex)
    for i in range(spec.N):
        for j in range(spec.N):
            if i != j and labels[i] == labels[j]:
                dz = z[i] - z[j]
                if geom is None:
                    trig = math.tan if spec.label == 2 else math.sin
                    c[i, j] = math.pi / trig(math.pi * dz)
                else:
                    c[i, j] = weierstrass_nu_log(spec.label, dz,
                                                 geom.tau).value
    return pfaffian(c)


def assert_matches_oracle(spec, geom, amplitude, oracle, configs):
    """Single amplitudes and the built state against the oracle."""
    want = np.array([oracle(spec, geom, c) for c in configs])
    got = np.array([amplitude(spec, geom, c) for c in configs])
    tol = dict(rtol=1e-10, atol=1e-12 * np.abs(want).max())
    np.testing.assert_allclose(got, want, **tol)
    ranks = [config_rank(c, spec.d) for c in configs]
    if geom is None:
        built = build_cylinder_state(spec).amplitudes[ranks]
        # the cylinder builder keeps no scale: match the first amplitude
        built = built * (want[0] / built[0])
    else:
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
    assert amplitude_su2_1(spec, geom, [1, 1, 1, -1]) == 0


def test_su2_1_two_site_singlet_amplitudes():
    spec = BlockSpec("su2_1", 0, 2)
    geom = ModularParam(0.7)
    a = amplitude_su2_1(spec, geom, [1, -1])
    b = amplitude_su2_1(spec, geom, [-1, 1])
    assert a == pytest.approx(-b, rel=1e-12)
    assert abs(a) > 0


def test_su2_1_amplitude_matches_builder():
    configs = ([1, 1, -1, -1, 1, -1], [1, -1, 1, -1, 1, -1],
               [1, -1, -1, 1, 1, -1], [-1, -1, 1, 1, 1, -1])
    for label in (0, 0.5):
        spec = BlockSpec("su2_1", label, 6)
        for geom in (ModularParam(1.3), None):
            assert_matches_oracle(spec, geom, amplitude_su2_1, oracle_su2_1,
                                  configs)


def test_su2_1_cylinder_amplitude_exact_zero():
    # n/N = +-1/2 mod 1 with n = sum_j s_j j zeroes cos(pi n/N) exactly
    spec = BlockSpec("su2_1", 0.5, 6)
    sector = enumerate_sector(6, 2, 0.0)
    zeros = [c for c in sector.configs()
             if (2 * int(c @ np.arange(1, 7)) + 6) % 12 == 0]
    assert [1, -1, 1, -1, 1, -1] in [list(c) for c in zeros]
    cyl = build_cylinder_state(spec)
    for c in zeros:
        assert amplitude_su2_1(spec, None, c) == 0
        assert cyl.amplitudes[config_rank(c, 2)] == 0


def test_su2_1_rejects_bad_config():
    spec = BlockSpec("su2_1", 0, 4)
    with pytest.raises(InputError):
        amplitude_su2_1(spec, ModularParam(1.0), [1, 0, -1, 1])


# ------------------------------------------------------------- su2_2 amplitude

def test_su2_2_two_site_is_kernel_value():
    geom = ModularParam(0.9)
    spec = BlockSpec("su2_2", 3, 2)
    got = amplitude_su2_2(spec, geom, [0, 0])
    want = weierstrass_nu(3, 0.5 - 1.0, geom.tau)
    assert got == pytest.approx(want, rel=1e-12)


def test_su2_2_two_site_flavor_degeneracy():
    geom = ModularParam(1.1)
    spec = BlockSpec("su2_2", 4, 2)
    vals = [amplitude_su2_2(spec, geom, [s, s]) for s in (1, 0, -1)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_su2_2_odd_flavor_count_vanishes():
    geom = ModularParam(1.0)
    spec = BlockSpec("su2_2", 4, 4)
    assert amplitude_su2_2(spec, geom, [0, 1, 1, 1]) == 0


def test_su2_2_pfaffian_cancels_exactly():
    # Pf = a^2 - a^2: wp_2(3/4) = -wp_2(1/4) and wp_2(1/2) = 0
    spec = BlockSpec("su2_2", 2, 4)
    assert amplitude_su2_2(spec, 0.9, [0, 0, 0, 0]) == 0
    assert amplitude_su2_2(spec, None, [0, 0, 0, 0]) == 0


def test_su2_2_amplitude_matches_builder():
    configs = {4: ([1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 0],
                   [-1, 1, 1, -1]),
               6: ([1, 1, 0, 0, -1, -1], [0, 1, -1, -1, 1, 0],
                   [1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0])}
    for N, cfgs in configs.items():
        for label in (2, 3, 4):
            spec = BlockSpec("su2_2", label, N)
            for geom in (ModularParam(0.9), None):
                assert_matches_oracle(spec, geom, amplitude_su2_2,
                                      oracle_su2_2, cfgs)


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
    assert amplitude_su2_2(spec, geom, labels) == pytest.approx(
        pfaffian(c), rel=1e-11)


# ----------------------------------------------------------------- build_state

def test_build_two_site_singlet():
    for R in (0.3, 1.0, 7.0):
        v = build_state(BlockSpec("su2_1", 0, 2), ModularParam(R))
        up_down = v.amplitudes[config_rank([1, -1], 2)]
        down_up = v.amplitudes[config_rank([-1, 1], 2)]
        assert abs(up_down) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert up_down == pytest.approx(-down_up, rel=1e-12)


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
    ("su2_1", 0.0): lambda N: complex(np.exp(1j * math.pi * N / 2)),
    ("su2_1", 0.5): lambda N: complex(np.exp(1j * math.pi * (N / 2 + 1))),
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
            assert abs(momentum_eigenvalue(spec) - want) < 1e-15
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


def test_float_radius_and_cylinder_geometry():
    # a float radius means ModularParam(R) everywhere, None the cylinder
    one = BlockSpec("su2_1", 0, 4)
    two = BlockSpec("su2_2", 3, 4)
    for R in (0.1, 1.0):
        assert amplitude_su2_1(one, R, [1, -1, 1, -1]) \
            == amplitude_su2_1(one, ModularParam(R), [1, -1, 1, -1])
        assert amplitude_su2_2(two, R, [1, 1, 0, 0]) \
            == amplitude_su2_2(two, ModularParam(R), [1, 1, 0, 0])
    for spec in (one, two):
        state, _ = build_record(spec, None)
        assert np.array_equal(state.amplitudes,
                              build_cylinder_state(spec).amplitudes)


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
        cyl = build_cylinder_state(spec)
        assert fidelity_per_site(far, cyl) > 1 - 1e-6, (model, label)


def test_cylinder_su2_2_is_pf_of_sin_kernel():
    spec = BlockSpec("su2_2", 3, 4)
    v = build_cylinder_state(spec)
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
    v = build_cylinder_state(BlockSpec("su2_1", 0, 4))
    z = insertion_points(4)
    sector = enumerate_sector(4, 2, 0.0)
    raw = np.zeros(16, dtype=complex)
    for r, labels in zip(sector.ranks, sector.configs()):
        amp = complex(marshall_sign(labels))
        for i in range(4):
            for j in range(i + 1, 4):
                if labels[i] == labels[j]:
                    amp *= math.sin(math.pi * (z[i] - z[j])) / math.pi
        raw[r] = amp
    raw /= np.linalg.norm(raw)
    assert abs(np.vdot(raw, v.amplitudes)) == pytest.approx(1.0, abs=1e-12)
