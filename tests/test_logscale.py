"""Sign-and-log magnitude arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carleman.logscale import (
    LOG_ZERO,
    LogMagnitude,
    log_of_fraction,
    logsumexp,
)

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
).filter(lambda v: v == 0 or abs(v) > 1e-12)


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def mag(x: float) -> LogMagnitude:
    if x == 0:
        return LogMagnitude(0, LOG_ZERO)
    return LogMagnitude(1 if x > 0 else -1, math.log(abs(x)))


def value(m: LogMagnitude) -> float:
    return 0.0 if m.sign == 0 else m.sign * math.exp(m.log_abs)


def test_zero_identity():
    z = LogMagnitude.zero()
    assert z.sign == 0 and z.log_abs == LOG_ZERO
    assert value(mag(7.0) + z) == pytest.approx(7.0)
    assert value(z + mag(-7.0)) == pytest.approx(-7.0)


@given(finite, finite)
def test_add_matches_float(a, b):
    got = value(mag(a) + mag(b))
    assert close(got, a + b, 1e-9)


def test_cancellation_goes_to_zero():
    m = mag(5.0) + mag(-5.0)
    assert m.sign == 0


def test_huge_magnitudes_survive():
    # far outside float range either way
    big = LogMagnitude(1, 5000.0)
    bigger = LogMagnitude(1, 10000.0)
    assert (bigger + big).log_abs == pytest.approx(10000.0)
    assert (big + big).log_abs == pytest.approx(5000.0 + math.log(2))
    tiny = LogMagnitude(-1, -5000.0)
    assert (tiny + tiny).log_abs == pytest.approx(-5000.0 + math.log(2))


def test_logsumexp_against_direct():
    logs = [0.0, math.log(2), math.log(3)]
    assert logsumexp(logs) == pytest.approx(math.log(6))
    assert logsumexp([]) == LOG_ZERO
    assert logsumexp([LOG_ZERO, 0.0]) == pytest.approx(0.0)


def test_log_of_fraction_huge():
    # 400-digit rationals must not overflow
    v = Fraction(10**400 + 7, 3)
    assert log_of_fraction(v) == pytest.approx(400 * math.log(10) - math.log(3), rel=1e-12)
    assert log_of_fraction(Fraction(-1, 10**200)) == pytest.approx(-200 * math.log(10))
    assert log_of_fraction(Fraction(0)) == LOG_ZERO


def test_from_fraction_sign():
    m = LogMagnitude.from_fraction(Fraction(-3, 4))
    assert m.sign == -1
    assert m.log_abs == pytest.approx(math.log(0.75))
