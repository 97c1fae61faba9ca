"""Log-magnitude/phase arithmetic used by the block evaluators."""
import cmath
import math

import pytest

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
