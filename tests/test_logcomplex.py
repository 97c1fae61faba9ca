"""Log-magnitude/phase arithmetic used by the block evaluators."""
import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idmps.logcomplex import LogComplex


def close(lc, val, tol=1e-13):
    return abs(lc.value - val) <= tol * max(1.0, abs(val))


def test_round_trip():
    for v in (1.0, -2.5, 3j, 0.7 - 0.2j, 1e-200, 1e200):
        assert close(LogComplex.from_value(v), v)


def test_zero_and_one():
    assert LogComplex.zero().is_zero
    assert LogComplex.zero().value == 0.0
    assert close(LogComplex.one(), 1.0)


def test_mul_div_pow_neg():
    a = LogComplex.from_value(2.0 + 1.0j)
    b = LogComplex.from_value(-0.3 + 0.8j)
    assert close(a * b, (2 + 1j) * (-0.3 + 0.8j))
    assert close(a / b, (2 + 1j) / (-0.3 + 0.8j))
    assert close(-a, -(2 + 1j))
    assert close(a * 2.0, 2 * (2 + 1j))
    assert close(3.0 * a, 3 * (2 + 1j))


def test_zero_propagation():
    z = LogComplex.zero()
    a = LogComplex.from_value(3.0)
    assert (z * a).is_zero
    assert (z / a).is_zero
    with pytest.raises(ZeroDivisionError):
        a / z


def test_huge_log_value_is_inf():
    v = LogComplex(1e4, 0.0).value
    assert math.isinf(abs(v))


def test_phase_reduction():
    a = LogComplex(0.0, 2 * math.pi * 1e6 + 0.25)
    assert cmath.phase(a.value) == pytest.approx(0.25, abs=1e-8)


def test_phase_underflow_is_zero_not_an_error():
    # cmath.phase raises OverflowError when atan2 underflows to 0
    x = LogComplex.from_value(complex(2.0, 5e-324))
    assert x.arg == 0.0 and x.log == math.log(2.0)


# ---------------------------------------------------------- property tests
# Values with |z| in [1e-100, 1e100]: their products and quotients stay in
# double range, so plain complex arithmetic is the oracle.

def _polar(exponent, angle):
    return cmath.rect(10.0 ** exponent, angle)


VALUES = st.builds(_polar, st.floats(-100, 100), st.floats(-math.pi, math.pi))


def agrees(lc, z, rel=1e-12):
    return abs(lc.value - z) <= rel * abs(z)


@settings(max_examples=200, deadline=None)
@given(a=VALUES, b=VALUES)
def test_arithmetic_agrees_with_complex(a, b):
    x, y = LogComplex.from_value(a), LogComplex.from_value(b)
    assert agrees(x, a)
    assert agrees(x * y, a * b)
    assert agrees(x / y, a / b)
    assert agrees(x * b, a * b) and agrees(b * x, a * b)
    assert agrees(-x, -a)


@settings(max_examples=200, deadline=None)
@given(log=st.floats(-300, 300), arg=st.floats(-1e8, 1e8))
def test_value_reduces_any_phase(log, arg):
    want = cmath.rect(math.exp(log), arg)
    assert agrees(LogComplex(log, arg), want, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(a=VALUES)
def test_zero_propagates_through_every_operation(a):
    z, x = LogComplex.zero(), LogComplex.from_value(a)
    for out in (z * x, x * z, z * a, z / x, -z, LogComplex.from_value(0j)):
        assert out.is_zero and out.value == 0
    with pytest.raises(ZeroDivisionError):
        x / z


@settings(max_examples=100, deadline=None)
@given(re=st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)),
       im=st.sampled_from([5e-324, -5e-324, 1e-320, -2.2e-308]))
def test_underflowing_phase(re, im):
    # atan2(im, re) underflows or loses its subnormal digits, and no error
    # is raised; exp(log) round-trips within |log| ulps
    x = LogComplex.from_value(complex(re, im))
    assert x.log == math.log(abs(complex(re, im)))
    assert agrees(x, complex(re, im))
