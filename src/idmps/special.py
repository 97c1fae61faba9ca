"""Jacobi theta functions with characteristics, the prime form, and the
generalized Weierstrass kernels on a torus of modular parameter tau.

Conventions
-----------
The theta function with characteristics (a, b) is

    theta[a;b](z|tau) = sum_n exp(i pi tau (n+a)^2 + 2 pi i (z+b)(n+a)),

summed over all integers n, with Im(tau) > 0. The named functions are
theta1 = -theta[1/2;1/2], theta2 = theta[1/2;0], theta3 = theta[0;0],
theta4 = theta[0;1/2]. The prime form is E(z|tau) = theta1(z|tau)/theta1'(0|tau)
and the generalized Weierstrass functions are

    wp_nu(z|tau) = theta_nu(z|tau) / (E(z|tau) theta_nu(0|tau)),   nu = 2, 3, 4.

Evaluation strategy
-------------------
The direct series converges geometrically for |q| = |exp(i pi tau)| <= 1/2.
For |q| > 1/2 (thin torus, Im tau < ln 2 / pi) every evaluation is routed
through the S-transform to -1/tau, where the series is rapidly convergent;
prefactors of the form exp(i pi z^2 / tau) are kept in log form because they
overflow doubles long before the region of interest ends. All *_log variants
return LogComplex; the plain variants return complex and may overflow for
extreme arguments by design.
"""
import cmath
import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError
from .logcomplex import LogComplex

# series controls: grow the window until edge terms are below SERIES_RTOL of
# the largest term; sums below CANCEL_EPS of the largest term are exact zeros
# (the characteristics in scope cancel pairwise at half-period arguments).
SERIES_RTOL = 1e-16
CANCEL_EPS = 1e-13
MAX_TERMS = 100_000
NOME_SPLIT = 0.5

_NU_CHAR = {1: (0.5, 0.5), 2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}
# S-transform permutation: theta_nu(z/tau|-1/tau) maps to theta_{swap(nu)}(z|tau)
_NU_SWAP = {1: 1, 2: 4, 3: 3, 4: 2}
_CHAR_NU = {(0.5, 0.5): (1, -1.0), (0.5, 0.0): (2, 1.0),
            (0.0, 0.0): (3, 1.0), (0.0, 0.5): (4, 1.0)}


class ModularParam:
    """Torus geometry tau = iR.

    Attributes
    ----------
    R : float
        Torus radius, R > 0.
    tau : complex
        Modular parameter iR.
    """

    def __init__(self, R):
        R = float(R)
        if not R > 0:
            raise DomainError(f"torus radius must be positive, got {R}")
        self.R = R
        self.tau = complex(0.0, R)

    def __repr__(self):
        return f"ModularParam(R={self.R!r})"


def _check_tau(tau):
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError(f"Im(tau) must be positive, got tau={tau}")
    return tau


def _series_log(a, b, z, tau, order=0):
    """Theta series (optionally term-wise d/dz differentiated) as LogComplex.

    Sums exp(i pi tau (n+a)^2 + 2 pi i (z+b)(n+a)) (times (2 pi i (n+a))^order
    when order=1) over a window centered where the term magnitude peaks,
    doubling the half-width until the edge terms are negligible.
    """
    z = complex(z)
    tau = complex(tau)
    center = int(round(-z.imag / tau.imag - a))
    half = 8
    while True:
        n = np.arange(center - half, center + half + 1, dtype=float) + a
        ex = (1j * math.pi * tau) * (n * n) + (2j * math.pi * (z + b)) * n
        m = ex.real.max()
        terms = np.exp(ex - m)
        if order:
            terms = terms * (2j * math.pi * n)
        mags = np.abs(terms)
        tmax = mags.max()
        if max(mags[0], mags[-1]) <= SERIES_RTOL * tmax:
            break
        half *= 2
        if 2 * half + 1 > MAX_TERMS:
            raise AccuracyError(
                f"theta series did not converge within {MAX_TERMS} terms "
                f"(a={a}, b={b}, z={z}, tau={tau})")
    s = complex(math.fsum(terms.real), math.fsum(terms.imag))
    if abs(s) <= CANCEL_EPS * tmax:
        return LogComplex.zero()
    return LogComplex(m + math.log(abs(s)), cmath.phase(s))


def _validate_char(c):
    a, b = c
    key = (float(a), float(b))
    if key not in _CHAR_NU:
        raise DomainError(f"characteristics must be in {{0, 1/2}}, got {c}")
    return key


def _theta_nu_inverted_log(nu, z, tau):
    """theta_nu(z|tau) through the S-transform to -1/tau.

    The transformed theta is evaluated with auto dispatch, so a forced
    inversion at large Im(tau) round-trips instead of summing an
    alternating series below double roundoff.
    """
    z = complex(z)
    nut = _NU_SWAP[nu]
    ser = theta_nu_log(nut, z / tau, -1.0 / tau)
    pref = LogComplex.from_value((1j if nu == 1 else 1.0) / cmath.sqrt(-1j * tau))
    expo = -1j * math.pi * z * z / tau
    return pref * LogComplex(expo.real, expo.imag) * ser


def theta_char_log(c, z, tau, path="auto"):
    """theta[a;b](z|tau) as LogComplex; path in {auto, direct, inverted}."""
    a, b = _validate_char(c)
    tau = _check_tau(tau)
    if path == "auto":
        path = "inverted" if math.exp(-math.pi * tau.imag) > NOME_SPLIT else "direct"
    if path == "direct":
        return _series_log(a, b, z, tau)
    if path != "inverted":
        raise DomainError(f"unknown evaluation path {path!r}")
    nu, sign = _CHAR_NU[(a, b)]
    val = _theta_nu_inverted_log(nu, z, tau)
    return -val if sign < 0 else val


def theta_char(c, z, tau):
    """Jacobi theta function with characteristics c = (a, b)."""
    return theta_char_log(c, z, tau).value


def theta_nu_log(nu, z, tau, path="auto"):
    if nu not in _NU_CHAR:
        raise DomainError(f"nu must be 1, 2, 3 or 4, got {nu}")
    val = theta_char_log(_NU_CHAR[nu], z, tau, path)
    return -val if nu == 1 else val


def theta_nu(nu, z, tau):
    """Named theta function, nu in {1, 2, 3, 4}."""
    return theta_nu_log(nu, z, tau).value


def theta1_prime0_log(tau, path="auto"):
    """theta1'(0|tau) by the term-wise differentiated series."""
    tau = _check_tau(tau)
    if path == "auto":
        path = "inverted" if math.exp(-math.pi * tau.imag) > NOME_SPLIT else "direct"
    if path == "direct":
        return -_series_log(0.5, 0.5, 0.0, tau, order=1)
    # theta1'(0|tau) = i tau^{-1} (-i tau)^{-1/2} theta1'(0|-1/tau)
    pref = LogComplex.from_value(1j / (tau * cmath.sqrt(-1j * tau)))
    return pref * theta1_prime0_log(-1.0 / tau)


def theta1_prime0(tau):
    return theta1_prime0_log(tau).value


def prime_form_log(z, tau, path="auto"):
    if path == "inverted":
        # E(z|tau) = tau exp(-i pi z^2/tau) E(z/tau|-1/tau); the theta1'
        # prefactors cancel, so the identity is stable at any aspect ratio.
        tau = _check_tau(tau)
        zc = complex(z)
        expo = -1j * math.pi * zc * zc / tau
        pref = LogComplex.from_value(tau) * LogComplex(expo.real, expo.imag)
        return pref * prime_form_log(zc / tau, -1.0 / tau)
    return theta_nu_log(1, z, tau, path) / theta1_prime0_log(tau, path)


def prime_form(z, tau):
    """Prime form E(z|tau) = theta1(z|tau)/theta1'(0|tau); odd, E'(0) = 1."""
    return prime_form_log(z, tau).value


def _on_lattice(z, tau, tol=1e-12):
    z = complex(z)
    n = z.imag / tau.imag
    m = z.real - n * tau.real
    return abs(z - (round(m) + round(n) * tau)) <= tol


def weierstrass_nu_log(nu, z, tau, path="auto"):
    """wp_nu as LogComplex.

    path="direct" forces the theta series at tau; path="inverted" uses the
    S-identity wp_nu(z|tau) = (1/tau) wp_swap(nu)(z/tau|-1/tau), whose
    Gaussian prefactors cancel exactly; path="auto" lets every theta pick its
    own convergent frame.
    """
    if nu not in (2, 3, 4):
        raise DomainError(f"nu must be 2, 3 or 4, got {nu}")
    tau = _check_tau(tau)
    if _on_lattice(z, tau):
        raise PoleError(f"wp_{nu} has a pole at z={z} on the period lattice")
    if path == "inverted":
        inner = weierstrass_nu_log(_NU_SWAP[nu], complex(z) / tau, -1.0 / tau)
        return inner / LogComplex.from_value(tau)
    num = theta_nu_log(nu, z, tau, path)
    den = prime_form_log(z, tau, path) * theta_nu_log(nu, 0.0, tau, path)
    return num / den


def weierstrass_nu(nu, z, tau):
    """Generalized Weierstrass function wp_nu, nu in {2, 3, 4}.

    Spin structures: nu=2 tends to pi/tan(pi z) and nu=3, 4 tend to
    pi/sin(pi z) in the cylinder limit Im(tau) -> inf.
    """
    return weierstrass_nu_log(nu, z, tau).value


def _rel_residual(lhs, rhs):
    """|lhs/rhs - 1| computed in log form; |lhs - rhs| if one side is zero."""
    if lhs.is_zero and rhs.is_zero:
        return 0.0
    if lhs.is_zero or rhs.is_zero:
        other = rhs if lhs.is_zero else lhs
        try:
            return math.exp(other.log)
        except OverflowError:
            return math.inf
    ratio = lhs / rhs
    if ratio.log > 700.0:
        return math.inf
    return abs(ratio.value - 1.0)


def modular_residual(tau, z):
    """Max relative residual of the S-transform identity family at (z, tau).

    Checks theta_nu(z/tau|-1/tau) = (-i)^[nu=1] sqrt(-i tau) e^{i pi z^2/tau}
    theta_swap(nu)(z|tau) for nu = 1..4 with swap = (1,4,3,2), the prime-form
    transform E(z/tau|-1/tau) = e^{i pi z^2/tau} E(z|tau)/tau, and the mixing
    of theta3/theta2 between the tau and 2 tau tori,

        theta3(z/tau|-2/tau) = sqrt(-i tau)/sqrt2 e^{i pi z^2/(2 tau)}
                               (theta3(z|2 tau) + theta2(z|2 tau)),

    with the minus combination for theta2. Residuals are measured on the
    LHS/RHS ratio so they stay meaningful where the raw values overflow.
    """
    tau = _check_tau(tau)
    z = complex(z)
    st = -1.0 / tau
    e1 = 1j * math.pi * z * z / tau
    gauss = LogComplex(e1.real, e1.imag)
    root = LogComplex.from_value(cmath.sqrt(-1j * tau))
    residuals = []
    for nu in (1, 2, 3, 4):
        lhs = theta_nu_log(nu, z / tau, st)
        pref = root if nu != 1 else root * LogComplex.from_value(-1j)
        rhs = pref * gauss * theta_nu_log(_NU_SWAP[nu], z, tau)
        residuals.append(_rel_residual(lhs, rhs))
    lhs = prime_form_log(z / tau, st)
    rhs = gauss * prime_form_log(z, tau) / LogComplex.from_value(tau)
    residuals.append(_rel_residual(lhs, rhs))
    # theta3/theta2 mixing with the doubled modular parameter; the sum and
    # difference are evaluated as single series via the index-merging identity
    # theta3(z|2t) + theta2(z|2t) = theta3(z/2|t/2) and
    # theta3(z|2t) - theta2(z|2t) = theta3((z+1)/2|t/2), which avoids the
    # catastrophic cancellation of the difference at small R.
    e2 = 1j * math.pi * z * z / (2.0 * tau)
    gauss2 = LogComplex(e2.real, e2.imag)
    pref2 = root * LogComplex.from_value(1.0 / math.sqrt(2.0))
    st2 = -2.0 / tau
    residuals.append(_rel_residual(
        theta_nu_log(3, z / tau, st2),
        pref2 * gauss2 * theta_nu_log(3, z / 2.0, tau / 2.0)))
    residuals.append(_rel_residual(
        theta_nu_log(2, z / tau, st2),
        pref2 * gauss2 * theta_nu_log(3, (z + 1.0) / 2.0, tau / 2.0)))
    return max(residuals)
