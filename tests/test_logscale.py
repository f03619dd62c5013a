"""Log-domain scalar arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from carleman.logscale import LOG_ZERO, log_diff, log_of_fraction, logsumexp

positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_zero_identity():
    # subtracting zero (log -inf) changes nothing; zero minus zero is zero
    for a in (-3.5, 0.0, 7.25, 5000.0):
        assert log_diff(a, LOG_ZERO) == a
    assert log_diff(LOG_ZERO, LOG_ZERO) == LOG_ZERO


@given(positive, positive)
@example(1e12, 999999600820.0)
def test_log_diff_matches_float(a, b):
    """exp(log_diff(ln a, ln b)) is within M (8L + 16) u of max(a - b, 0),
    where M = max(a, b), L = max |ln x| over the operands, r = a - b and
    u = 2^-52 bounds each rounding and each libm call (one ulp).

    - Inputs. Each operand enters as its rounded log, off by at most L u,
      i.e. as x e^eta with |eta| <= L u, so the exact difference of what
      enters is off by at most 2 M L u. Near-cancelling operands keep this
      absolute error while r shrinks, so no bound relative to |r| holds:
      a = 1e12, b = 999999600820.0 gives 399179.99776 for 399180. Operands
      whose rounded logs tie or cross give 0, off by at most that much.
    - Combination. The result's log is a + ln m with m = 1 - e^d and
      |a| <= L, so |ln m| <= |ln r| + L. Rounding d, expm1, log, the final
      addition and exp leave a log error of at most (|ln m| + |ln r| + 4) u,
      hence a value error of at most r (2 |ln r| + L + 4) u. With r <= M and
      r |ln r| <= M (L + 1) (as rho |ln rho| <= 1 for rho = r/M <= 1), that
      is below M (3L + 6) u.
    - Reference. The float a - b adds at most M u.
    The total, M (5L + 7) u, is below the asserted bound.
    """
    got = math.exp(log_diff(math.log(a), math.log(b)))
    M = max(a, b)
    L = max(abs(math.log(a)), abs(math.log(b)))
    assert abs(got - max(a - b, 0.0)) <= M * 2**-52 * (8 * L + 16)


def test_cancellation_goes_to_zero():
    assert log_diff(math.log(5.0), math.log(5.0)) == LOG_ZERO
    # a difference that would be negative has no log either
    assert log_diff(1.0, 2.0) == LOG_ZERO


def test_huge_magnitudes_survive():
    # far outside float range either way
    assert log_diff(10000.0, 5000.0) == pytest.approx(10000.0)
    assert log_diff(5000.0 + math.log(2), 5000.0) == pytest.approx(5000.0)
    assert log_diff(-5000.0 + math.log(3), -5000.0) == pytest.approx(-5000.0 + math.log(2))
    assert logsumexp([5000.0, 5000.0]) == pytest.approx(5000.0 + math.log(2))


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


def fraction_log(x):
    """log|x| through a fresh abs(Fraction(x)): the formula `log_of_fraction`
    replaces, kept here as its oracle."""
    if x == 0:
        return LOG_ZERO
    if type(x) is int:
        return math.log(abs(x))
    n, d = abs(Fraction(x)).as_integer_ratio()
    return math.log(n) - math.log(d)


# nonzero ints of up to 10^5 bits, either sign
huge_ints = st.integers(1, 10**5).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b)).map(
    lambda n: -n if n % 3 == 0 else n
)


@given(st.one_of(
    st.integers(),
    huge_ints,
    st.fractions(),
    st.builds(Fraction, huge_ints, huge_ints),
    st.floats(allow_nan=False, allow_infinity=False),
))
@example(-0.0)
@example(5e-324)
def test_log_of_fraction_is_the_fraction_formula(x):
    assert log_of_fraction(x).hex() == fraction_log(x).hex()
