"""Theta functions, prime form, Weierstrass kernels, modular identities."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from idmps.errors import AccuracyError, DomainError, PoleError
from idmps.special import (
    ModularParam, modular_residual, prime_form, prime_form_log, theta1_prime0,
    theta_char, theta_char_log, theta_nu, theta_nu_log, weierstrass_nu,
    weierstrass_nu_log,
)

mp.mp.dps = 30

TAUS = [0.8j, 1.5j, 0.35j, 0.3 + 0.9j, 5.0j]
ZS = [0.13, 0.5, -0.27 + 0.4j, 1.7 - 0.2j, 0.0]


def mp_theta_nu(nu, z, tau):
    # jtheta uses u = pi z and nome q = exp(i pi tau)
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex(mp.jtheta(nu, mp.pi * mp.mpc(z), q))


def theta_naive(a, b, z, tau, nmax=60):
    s = 0j
    for n in range(-nmax, nmax + 1):
        s += cmath.exp(1j * math.pi * tau * (n + a) ** 2
                       + 2j * math.pi * (z + b) * (n + a))
    return s


def rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else abs(a - b)


# ---------------------------------------------------------------- ModularParam

def test_modular_param_fields():
    p = ModularParam(2.5)
    assert p.tau == 2.5j
    assert p.R == 2.5


def test_modular_param_rejects_nonpositive():
    with pytest.raises(DomainError):
        ModularParam(0.0)
    with pytest.raises(DomainError):
        ModularParam(-1.0)


# ------------------------------------------------------------- theta functions

def test_theta_nu_matches_mpmath():
    for tau in TAUS:
        for z in ZS:
            for nu in (1, 2, 3, 4):
                mine = theta_nu(nu, z, tau)
                ref = mp_theta_nu(nu, z, tau)
                # absolute floor absorbs mpmath roundoff at exact theta zeros
                assert abs(mine - ref) <= max(1e-12 * abs(ref), 1e-25), \
                    (nu, z, tau)


def test_theta_char_matches_naive_series():
    for a in (0.0, 0.5):
        for b in (0.0, 0.5):
            for z in (0.21, -0.4 + 0.3j):
                for tau in (0.9j, 0.2 + 1.1j):
                    mine = theta_char((a, b), z, tau)
                    ref = theta_naive(a, b, z, tau)
                    assert rel(mine, ref) < 1e-13, (a, b, z, tau)


def test_theta_frozen_value():
    assert theta_nu(3, 0.0, 1j) == pytest.approx(1.086434811213308, rel=1e-14)


def test_theta_parity():
    tau = 0.7j
    z = 0.31 - 0.12j
    assert rel(theta_nu(1, -z, tau), -theta_nu(1, z, tau)) < 1e-14
    for nu in (2, 3, 4):
        assert rel(theta_nu(nu, -z, tau), theta_nu(nu, z, tau)) < 1e-14


def test_theta_quasi_periodicity():
    tau = 0.6 + 0.8j
    z = 0.17 + 0.05j
    for a in (0.0, 0.5):
        for b in (0.0, 0.5):
            f = theta_char((a, b), z, tau)
            f1 = theta_char((a, b), z + 1, tau)
            assert rel(f1, cmath.exp(2j * math.pi * a) * f) < 1e-13
            ft = theta_char((a, b), z + tau, tau)
            fac = cmath.exp(-1j * math.pi * tau - 2j * math.pi * (z + b))
            assert rel(ft, fac * f) < 1e-13


def test_theta_jacobi_identity():
    for tau in (0.5j, 1j, 2.3j, 0.1 + 0.7j):
        t2 = theta_nu(2, 0.0, tau) ** 4
        t3 = theta_nu(3, 0.0, tau) ** 4
        t4 = theta_nu(4, 0.0, tau) ** 4
        assert rel(t3, t2 + t4) < 1e-13


def test_theta_exact_zeros():
    # theta1 vanishes at 0, theta2 at 1/2: the series cancels identically
    assert theta_nu(1, 0.0, 0.8j) == 0.0
    assert theta_char((0.5, 0.0), 0.5, 0.3j) == 0.0


def test_theta_thin_torus_uses_inversion():
    # at R = 0.05 the direct nome is 0.855; auto must still match mpmath
    tau = 0.05j
    for nu in (2, 3, 4):
        mine = theta_nu_log(nu, 0.3, tau)
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        ref = mp.jtheta(nu, mp.pi * 0.3, q)
        ref_log = float(mp.log(abs(ref)))
        assert mine.log == pytest.approx(ref_log, rel=1e-12)


def test_theta1_prime0_matches_mpmath():
    for tau in (0.9j, 1j, 0.05j, 0.4 + 1.2j):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        ref = complex(mp.pi * mp.jtheta(1, 0, q, 1))
        assert rel(theta1_prime0(tau), ref) < 1e-12


def test_theta_rejects_bad_input():
    with pytest.raises(DomainError):
        theta_char((0.3, 0.0), 0.1, 1j)
    with pytest.raises(DomainError):
        theta_nu(5, 0.1, 1j)
    with pytest.raises(DomainError):
        theta_nu(3, 0.1, -1j)
    with pytest.raises(DomainError):
        theta_char_log((0.0, 0.0), 0.1, 1j, path="sideways")


def test_theta_unconvergent_series_raises():
    with pytest.raises(AccuracyError):
        theta_char_log((0.0, 0.0), 0.0, 1e-10j, path="direct")


# ------------------------------------------------------------------ prime form

def test_prime_form_near_zero_slope_one():
    # E(z) = z + O(z^3)
    assert prime_form(1e-3, 1j) == pytest.approx(0.0009999984292041078, rel=1e-13)
    assert abs(prime_form(1e-6, 0.8j) - 1e-6) < 1e-15


def test_prime_form_odd():
    z = 0.23 + 0.11j
    tau = 1.3j
    assert rel(prime_form(-z, tau), -prime_form(z, tau)) < 1e-13


def test_prime_form_cylinder_limit():
    # E -> sin(pi z)/pi as Im tau -> inf
    for z in (0.1, 0.37, 0.5):
        assert rel(prime_form(z, 10j), math.sin(math.pi * z) / math.pi) < 1e-10


def test_prime_form_paths_agree():
    for R in (0.05, 0.2, 1.0, 5.0, 50.0):
        for z in (0.1, 0.37, 0.73):
            a = prime_form_log(z, 1j * R, path="direct").value
            b = prime_form_log(z, 1j * R, path="inverted").value
            assert rel(a, b) < 1e-10, (R, z)


# ------------------------------------------------------------------ wp kernels

def test_weierstrass_cylinder_limits():
    assert weierstrass_nu(3, 0.5, 10j) == pytest.approx(math.pi, rel=1e-10)
    assert weierstrass_nu(2, 0.25, 10j) == pytest.approx(math.pi, rel=1e-10)
    for z in (0.12, 0.4, 0.77):
        assert rel(weierstrass_nu(2, z, 12j),
                   math.pi / math.tan(math.pi * z)) < 1e-10
        for nu in (3, 4):
            assert rel(weierstrass_nu(nu, z, 12j),
                       math.pi / math.sin(math.pi * z)) < 1e-10


def test_weierstrass_frozen_values():
    assert weierstrass_nu(3, 0.5, 10j) == pytest.approx(3.1415926535895067,
                                                        rel=1e-14)
    assert weierstrass_nu(2, 0.25, 10j) == pytest.approx(3.1415926535897927,
                                                         rel=1e-14)


def test_weierstrass_odd():
    tau = 0.9j
    for nu in (2, 3, 4):
        a = weierstrass_nu(nu, 0.28, tau)
        b = weierstrass_nu(nu, -0.28, tau)
        assert rel(a, -b) < 1e-13


def test_weierstrass_pole_on_lattice():
    for z in (0.0, 1.0, -2.0, 0.7j, 3 + 1.4j):
        with pytest.raises(PoleError):
            weierstrass_nu(3, z, 0.7j)


def test_weierstrass_rejects_nu():
    for nu in (0, 1, 5):
        with pytest.raises(DomainError):
            weierstrass_nu(nu, 0.3, 1j)


def test_weierstrass_path_equivalence_sweep():
    # direct series vs modular-inverted evaluation across the full aspect range
    rng = np.random.default_rng(11)
    for _ in range(150):
        R = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        z = float(rng.uniform(0.02, 0.98))
        for nu in (2, 3, 4):
            a = weierstrass_nu_log(nu, z, 1j * R, path="direct").value
            b = weierstrass_nu_log(nu, z, 1j * R, path="inverted").value
            assert rel(a, b) < 1e-9, (nu, R, z)


def test_weierstrass_matches_theta_ratio_oracle():
    # literal rebuild from mpmath pieces: wp = theta_nu(z) theta1'(0) /
    # (theta1(z) theta_nu(0))
    for tau in (0.8j, 2j, 0.3 + 1.1j):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        d1 = mp.pi * mp.jtheta(1, 0, q, 1)
        for nu in (2, 3, 4):
            for z in (0.19, 0.51 - 0.23j):
                num = mp.jtheta(nu, mp.pi * mp.mpc(z), q) * d1
                den = mp.jtheta(1, mp.pi * mp.mpc(z), q) * mp.jtheta(nu, 0, q)
                ref = complex(num / den)
                assert rel(weierstrass_nu(nu, z, tau), ref) < 1e-12


# ----------------------------------------------------------- modular residuals

def test_modular_residual_named_points():
    assert modular_residual(1j, 0.3) < 1e-10
    assert modular_residual(0.2j, 0.1) < 1e-10


def test_modular_residual_sweep():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        R = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        z = float(rng.uniform(0.05, 0.95))
        worst = max(worst, modular_residual(1j * R, z))
    assert worst < 1e-10


def test_modular_residual_catches_wrong_prefactor():
    # the same identities with the nu=1 phase dropped must NOT pass: rebuild
    # theta1 transform by hand and check the true prefactor is the -i one
    tau = 0.8j
    z = 0.3
    lhs = theta_nu(1, z / tau, -1.0 / tau)
    gauss = cmath.exp(1j * math.pi * z * z / tau)
    good = -1j * cmath.sqrt(-1j * tau) * gauss * theta_nu(1, z, tau)
    bad = cmath.sqrt(-1j * tau) * gauss * theta_nu(1, z, tau)
    assert rel(lhs, good) < 1e-12
    assert rel(lhs, bad) > 0.5
