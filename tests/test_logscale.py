"""Sign-and-log magnitude arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
@example(1e12, -999999600820.0)
def test_add_matches_float(a, b):
    """Log-domain a + b is within M (8L + 16) u of the float sum, where
    M = max(|a|, |b|), L = max |ln|x|| over the nonzero operands, r = a + b
    and u = 2^-52 bounds each rounding and each libm call (one ulp).

    - Inputs. Each operand enters as its rounded log, off by at most L u,
      i.e. as x e^eta with |eta| <= L u, so the exact sum of what enters is
      off by at most 2 M L u. Near-cancelling operands keep this absolute
      error while r shrinks, so no bound relative to |r| holds:
      a = 1e12, b = -999999600820.0 gives 399179.99776 for 399180.
    - Combination. The result's log is hi + ln m with m = 1 +- e^d and
      |hi| <= L, so |ln m| <= |ln|r|| + L. Rounding d, exp/expm1, log1p/log,
      the final addition and exp in `value` leave a log error of at most
      (|ln m| + |ln|r|| + 4) u, hence a value error of at most
      |r| (2 |ln|r|| + L + 4) u. With |r| <= 2M and |r| |ln|r|| <= 2M (L + 1)
      (as rho |ln rho| <= 2 for rho = |r|/M <= 2), that is below
      M (6L + 12) u.
    - Reference. The float a + b adds at most M u.
    The total, M (8L + 13) u, is below the asserted bound. For operands of
    one sign M <= |r|, so the bound is relative and far below 1e-9.
    """
    got = value(mag(a) + mag(b))
    big = max(abs(a), abs(b))
    L = max((abs(math.log(abs(x))) for x in (a, b) if x != 0), default=0.0)
    assert abs(got - (a + b)) <= big * 2**-52 * (8 * L + 16)


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
