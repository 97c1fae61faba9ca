"""Jacobi theta functions with characteristics, the prime form, and the
generalized Weierstrass kernels on a torus of modular parameter tau.

Conventions
-----------
The theta function with characteristics (a, b) is

    theta[a;b](z|tau) = sum_n exp(i pi tau (n+a)^2 + 2 pi i (z+b)(n+a)),

summed over all integers n, with Im(tau) > 0. The named functions are
theta1 = -theta[1/2;1/2], theta2 = theta[1/2;0], theta3 = theta[0;0],
theta4 = theta[0;1/2]. The prime form is E(z|tau) = theta1(z|tau)/theta1'(0|tau),
with theta1'(0|tau) = pi theta2(0|tau) theta3(0|tau) theta4(0|tau) (Jacobi's
identity), and the generalized Weierstrass functions are

    wp_nu(z|tau) = theta_nu(z|tau) / (E(z|tau) theta_nu(0|tau)),   nu = 2, 3, 4.

Evaluation strategy
-------------------
Every value is a product or ratio of thetas, and each theta has one path
whose frame depends on tau alone. The direct series converges
geometrically for |q| = |exp(i pi tau)| <= 1/2 (NOME_SPLIT). For |q| > 1/2
(thin torus, Im tau < ln 2 / pi) it is summed through the one S-transform
to -1/tau, where for tau = iR the nome is below 7e-7; a tau whose -1/tau
is past NOME_SPLIT too is refused (DomainError). Prefactors of the form
exp(i pi z^2 / tau) are kept in log form because they overflow doubles
long before the region of interest ends. The three z = 0 thetas, which
theta1'(0) and every wp_nu share, are summed once per tau for the last
few tau. A z is refused (DomainError) where the series' largest exponent,
about pi (Im z)^2 / Im tau, would pass EXPONENT_MAX; below that, Im z is
brought within Im tau / 2 by the quasi-period before the direct series
runs, so its window sits near n = 0. All *_log variants
return LogComplex; the plain variants return complex and may overflow for
extreme arguments by design.
"""
import cmath
import functools
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
# largest series exponent pi |tau| (|Im z| / Im tau + 1)^2 a z may reach: a
# quarter of the largest double, since the series' intermediate terms reach
# twice the exponent and log|theta| about the exponent itself
EXPONENT_MAX = 2.0 ** 1022
# a z this close to a lattice point m + n tau is a pole of wp_nu
POLE_TOL = 1e-12
# torus radii accepted by ModularParam, bounds included: below and above,
# block states drift from their thin-torus and cylinder limits without an
# error
RADIUS_RANGE = (1e-8, 1e8)

_NU_CHAR = {1: (0.5, 0.5), 2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}
# S-transform permutation: theta_nu(z/tau|-1/tau) maps to theta_{swap(nu)}(z|tau)
_NU_SWAP = {1: 1, 2: 4, 3: 3, 4: 2}
_CHAR_NU = {c: nu for nu, c in _NU_CHAR.items()}


class ModularParam:
    """Torus geometry tau = iR.

    Attributes
    ----------
    R : float
        Torus radius, finite and within RADIUS_RANGE.
    tau : complex
        Modular parameter iR.
    """

    def __init__(self, R):
        R = float(R)
        lo, hi = RADIUS_RANGE
        if not lo <= R <= hi:
            raise DomainError(
                f"torus radius must lie in [{lo:g}, {hi:g}], got {R}")
        self.R = R
        self.tau = complex(0.0, R)

    def __repr__(self):
        return f"ModularParam(R={self.R!r})"


def _check_tau(tau):
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError(f"Im(tau) must be positive, got tau={tau}")
    return tau


def _series_log(a, b, z, tau):
    """theta[a;b](z|tau) as LogComplex by its direct series, summed over a
    window centered where the term magnitude peaks and doubled until the
    edge terms are negligible; z and tau are complex."""
    center = int(round(-z.imag / tau.imag - a))
    half = 8
    while True:
        n = np.arange(center - half, center + half + 1, dtype=float) + a
        ex = (1j * math.pi * tau) * (n * n) + (2j * math.pi * (z + b)) * n
        m = ex.real.max()
        terms = np.exp(ex - m)
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
    return LogComplex(m + math.log(abs(s)), math.atan2(s.imag, s.real))


def _check_z(z, tau):
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    k = abs(z.imag) / tau.imag + 1.0
    if not math.pi * abs(tau) * k * k <= EXPONENT_MAX:
        raise DomainError(
            f"z={z} lies too far off the real axis for tau={tau}: the theta "
            f"series overflows a double where pi |tau| (|Im z|/Im tau + 1)^2 "
            f"exceeds EXPONENT_MAX = {EXPONENT_MAX:g}")
    return z


def _validate_char(c):
    a, b = c
    key = (float(a), float(b))
    if key not in _CHAR_NU:
        raise DomainError(f"characteristics must be in {{0, 1/2}}, got {c}")
    return key


def _inverted(tau):
    """Whether thetas at tau are summed through the S-transform to -1/tau."""
    return math.exp(-math.pi * tau.imag) > NOME_SPLIT


def _inverted_log(a, b, z, tau):
    """theta[a;b](z|tau) through the S-transform to -1/tau.

    The transformed theta goes through theta_nu_log, which reduces
    Re(z/tau) by its integer part.
    """
    nu = _CHAR_NU[(a, b)]
    ser = theta_nu_log(_NU_SWAP[nu], z / tau, -1.0 / tau)
    pref = LogComplex.from_value((1j if nu == 1 else 1.0) / cmath.sqrt(-1j * tau))
    expo = -1j * math.pi * z * z / tau
    val = pref * LogComplex(expo.real, expo.imag) * ser
    return -val if nu == 1 else val


def theta_char_log(c, z, tau):
    """theta[a;b](z|tau) as LogComplex.

    z must be finite and within the EXPONENT_MAX bound. Where the direct
    series runs, Im z is first reduced by the quasi-period,
    theta[a;b](z + k tau) = e^{-i pi k^2 tau - 2 pi i k (z + b)} theta[a;b](z)
    with k = round(Im z / Im tau), so the series peaks near n = 0 however
    far z lies off the real axis; for |Im z| <= Im tau / 2, k = 0. Then
    Re z is reduced by its integer part m, using
    theta[a;b](z + m) = e^{2 pi i a m} theta[a;b](z), so a z far out on the
    real axis is evaluated at its exact double (every double above 2^53 is
    an integer) rather than through a phase that has lost every digit; for
    |Re z| < 1, m = 0.
    """
    a, b = _validate_char(c)
    tau = _check_tau(tau)
    z = _check_z(z, tau)
    if _inverted(tau) and _inverted(-1.0 / tau):
        raise DomainError(f"tau={tau} and -1/tau both have a nome above "
                          f"NOME_SPLIT = {NOME_SPLIT}: no frame converges")
    k = 0 if _inverted(tau) else round(z.imag / tau.imag)
    if k:
        z = z - k * tau
    m = math.trunc(z.real)
    if m:
        z = complex(z.real - m, z.imag)
    val = _inverted_log(a, b, z, tau) if _inverted(tau) \
        else _series_log(a, b, z, tau)
    if k:
        # e^{2 pi i k m} = 1, so the reduced z serves in the factor too
        ex = -1j * math.pi * k * k * tau - 2j * math.pi * k * (z + b)
        val = LogComplex(ex.real, ex.imag) * val
    # e^{2 pi i a m} is (-1)^m for a = 1/2
    return -val if a and m % 2 else val


def theta_char(c, z, tau):
    """Jacobi theta function with characteristics c = (a, b)."""
    return theta_char_log(c, z, tau).value


def theta_nu_log(nu, z, tau):
    if nu not in _NU_CHAR:
        raise DomainError(f"nu must be 1, 2, 3 or 4, got {nu}")
    val = theta_char_log(_NU_CHAR[nu], z, tau)
    return -val if nu == 1 else val


def theta_nu(nu, z, tau):
    """Named theta function, nu in {1, 2, 3, 4}."""
    return theta_nu_log(nu, z, tau).value


@functools.lru_cache(maxsize=4)
def _thetas_at_zero(tau):
    """(theta2, theta3, theta4)(0|tau) as LogComplex, summed once per tau
    while it is among the last four used (a build uses one)."""
    return tuple(theta_nu_log(nu, 0.0, tau) for nu in (2, 3, 4))


def theta1_prime0_log(tau):
    """theta1'(0|tau) = pi theta2(0|tau) theta3(0|tau) theta4(0|tau), by
    Jacobi's identity (Whittaker & Watson, Modern Analysis, 21.41)."""
    t2, t3, t4 = _thetas_at_zero(tau)
    return LogComplex(math.log(math.pi), 0.0) * t2 * t3 * t4


def prime_form_log(z, tau):
    return theta_nu_log(1, z, tau) / theta1_prime0_log(tau)


def prime_form(z, tau):
    """Prime form E(z|tau) = theta1(z|tau)/theta1'(0|tau); odd, E'(0) = 1."""
    return prime_form_log(z, tau).value


def _on_lattice(z, tau):
    n = z.imag / tau.imag
    m = z.real - n * tau.real
    return abs(z - (round(m) + round(n) * tau)) <= POLE_TOL


def weierstrass_nu_log(nu, z, tau):
    """wp_nu as LogComplex, a ratio of thetas that each pick their frame."""
    if nu not in (2, 3, 4):
        raise DomainError(f"nu must be 2, 3 or 4, got {nu}")
    tau = _check_tau(tau)
    if _on_lattice(_check_z(z, tau), tau):
        raise PoleError(f"wp_{nu} has a pole at z={z} on the period lattice")
    num = theta_nu_log(nu, z, tau)
    den = prime_form_log(z, tau) * _thetas_at_zero(tau)[nu - 2]
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
