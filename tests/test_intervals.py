"""Directed-rounding rational intervals and certified roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from carleman.intervals import (
    BRACKET_BITS,
    RInterval,
    _bracket,
    _bracket_div,
    _bracket_mul,
    _bracket_sign,
    _log_bracketed,
    _power_bracket,
    exact_nth_root,
    integer_nth_root,
    nth_root_bounds,
)


def test_integer_nth_root_exact_cases():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(10**60, 2) == 10**30
    assert integer_nth_root(10**60 - 1, 2) == 10**30 - 1


@given(st.integers(0, 10**18), st.integers(2, 7))
@settings(max_examples=80, deadline=None)
def test_integer_nth_root_floor_property(N, n):
    r = integer_nth_root(N, n)
    assert r**n <= N < (r + 1) ** n


def _bisection_root(N, n):
    """floor(N ** (1/n)) by bisection, as integer_nth_root computed it
    before its Newton iteration; the reference for the property below."""
    if N in (0, 1) or n == 1:
        return N if n == 1 else int(N > 0)
    hi = 1 << (N.bit_length() // n + 1)
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= N:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def root_cases(draw):
    """(N, n) with n up to the sixth greedy order 3412 and N up to 20000
    bits (root at most 1500 bits, so the bisection reference stays quick);
    a third of the cases are exact powers and their neighbours."""
    n = draw(st.sampled_from([2, 3, 852, 3412]) | st.integers(2, 3412))
    bits = min(20_000, 1500 * n)
    if draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(1, 2 ** (bits // n)))
        return r**n + draw(st.sampled_from([-1, 0, 1])), n
    return draw(st.integers(0, 2**bits)), n


@given(root_cases())
@settings(max_examples=150, deadline=None)
def test_integer_nth_root_newton_matches_bisection(case):
    N, n = case
    r = integer_nth_root(N, n)
    assert r**n <= N < (r + 1) ** n
    assert r == _bisection_root(N, n)


def test_exact_nth_root():
    assert exact_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert exact_nth_root(Fraction(1, 9), 2) == Fraction(1, 3)
    assert exact_nth_root(Fraction(2), 2) is None
    assert exact_nth_root(Fraction(0), 5) == 0


def test_nth_root_bounds_encloses():
    lo, hi = nth_root_bounds(Fraction(2), 2)
    assert lo < hi
    assert lo**2 <= 2 <= hi**2
    assert float(hi - lo) < 1e-35
    # exact path collapses to a point
    lo, hi = nth_root_bounds(Fraction(9, 4), 2)
    assert lo == hi == Fraction(3, 2)


def test_interval_arithmetic_contains_truth():
    a = RInterval.nth_root(Fraction(2), 2)  # sqrt 2
    b = RInterval.nth_root(Fraction(3), 2)  # sqrt 3
    s = a + b
    assert float(s) == pytest.approx(math.sqrt(2) + math.sqrt(3), rel=1e-14)
    assert float(s.hi - s.lo) < 1e-30
    p = a * b  # sqrt 6
    assert p.lo**2 <= 6 <= p.hi**2
    d = b - a
    assert d.lo > 0
    q = b / a
    assert q.lo**2 <= Fraction(3, 2) <= q.hi**2


def test_interval_powers_and_reciprocal():
    a = RInterval.exactly(Fraction(-2, 3))
    sq = a**2
    assert sq.lo == sq.hi == Fraction(4, 9)
    r = RInterval(Fraction(1, 2), Fraction(2)).reciprocal()
    assert r.lo == Fraction(1, 2) and r.hi == 2
    with pytest.raises(ZeroDivisionError):
        RInterval(Fraction(-1), Fraction(1)).reciprocal()


def test_certain_comparisons_are_conservative():
    a = RInterval(Fraction(1), Fraction(2))
    b = RInterval(Fraction(3), Fraction(4))
    assert b.certainly_gt(a)
    assert a.certainly_lt(b)
    assert not a.certainly_gt(b)
    # overlapping intervals prove nothing
    c = RInterval(Fraction(3, 2), Fraction(5, 2))
    assert not a.certainly_lt(c) or not c.certainly_lt(a)
    assert a.certainly_ge(Fraction(1))
    assert not a.certainly_gt(Fraction(1))


def test_rational_power():
    # (8/27)^(2/3) = 4/9 exactly
    iv = RInterval.rational_power(Fraction(8, 27), Fraction(2, 3))
    assert iv.lo <= Fraction(4, 9) <= iv.hi
    assert float(iv.hi - iv.lo) < 1e-30
    # sqrt of 1/3 via power 1/2
    iv = RInterval.rational_power(Fraction(1, 3), Fraction(1, 2))
    assert iv.lo**2 <= Fraction(1, 3) <= iv.hi**2


def test_float_and_mid():
    iv = RInterval.nth_root(Fraction(5), 2)
    assert float(iv) == pytest.approx(math.sqrt(5), rel=1e-12)
    assert iv.lo <= iv.mid <= iv.hi


@given(
    st.fractions(min_value=0, max_value=100, max_denominator=50),
    st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_root_interval_always_encloses(x, n):
    iv = RInterval.nth_root(x, n)
    assert iv.lo**n <= x <= iv.hi**n
    assert iv.lo >= 0


# -- arithmetic over every sign pattern ---------------------------------------
#
# Endpoints are drawn from a few bits up to several thousand, so the
# sign-aware product meets each sign case and every operation meets the
# endpoint sizes the certificate produces.

SIZES = [1, 8, 64, 255, 256, 257, 300, 1000, 4000]


def _sized_int(draw):
    """A positive integer of exactly one of SIZES bits."""
    bits = draw(st.sampled_from(SIZES))
    return draw(st.integers(2 ** (bits - 1), 2**bits - 1))


@st.composite
def magnitudes(draw, allow_zero=True):
    """A Fraction >= 0 (> 0 unless allow_zero) with numerator and
    denominator of independently chosen sizes."""
    if allow_zero and draw(st.integers(0, 9)) == 0:
        return Fraction(0)
    return Fraction(_sized_int(draw), _sized_int(draw))


@st.composite
def intervals(draw):
    """An RInterval that is nonnegative, nonpositive, straddles zero, or is
    a point (of any sign)."""
    pattern = draw(st.sampled_from(["nonneg", "nonpos", "straddle", "point"]))
    a, b = draw(magnitudes()), draw(magnitudes())
    if pattern == "nonneg":
        return RInterval(a, a + b)
    if pattern == "nonpos":
        return RInterval(-a - b, -a)
    if pattern == "straddle":
        return RInterval(-draw(magnitudes(False)), draw(magnitudes(False)))
    return RInterval.exactly(draw(st.sampled_from([a, -a])))


def _four_product_reference(a, b):
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return min(cands), max(cands)


def _points(iv, t):
    return [iv.lo, iv.hi, iv.lo + t * (iv.hi - iv.lo)]


@given(intervals(), intervals(), st.fractions(min_value=0, max_value=1, max_denominator=1000))
@settings(max_examples=200, deadline=None)
def test_product_matches_four_product_reference_and_encloses(a, b, t):
    p = a * b
    assert (p.lo, p.hi) == _four_product_reference(a, b)
    for x in _points(a, t):
        for y in _points(b, t):
            assert p.lo <= x * y <= p.hi


@st.composite
def fractions_any_sign(draw):
    return draw(magnitudes()) * draw(st.sampled_from([1, -1]))


@given(
    intervals(),
    intervals(),
    st.integers(-4, 4),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
@settings(max_examples=200, deadline=None)
def test_arithmetic_results_are_ordered_and_enclose(a, b, n, t):
    """Every result skips the lo <= hi check, so check it here, together with
    enclosure of the pointwise results at endpoints and an interior point."""
    xs, ys = _points(a, t), _points(b, t)
    cases = [
        (a + b, [x + y for x in xs for y in ys]),
        (a - b, [x - y for x in xs for y in ys]),
        (-a, [-x for x in xs]),
        (a * b, [x * y for x in xs for y in ys]),
        (a.abs(), [abs(x) for x in xs]),
    ]
    one_signed = a.lo > 0 or a.hi < 0
    if one_signed:
        cases.append((a.reciprocal(), [1 / x for x in xs]))
    if n >= 0 or one_signed:
        cases.append((a**n, [x**n for x in xs]))
    else:  # a negative power of an interval touching zero
        with pytest.raises(ZeroDivisionError):
            a**n
    for result, pointwise in cases:
        assert result.lo <= result.hi
        for v in pointwise:
            assert result.lo <= v <= result.hi


@given(fractions_any_sign(), fractions_any_sign())
@settings(max_examples=100, deadline=None)
def test_construction_rejects_exactly_the_empty_intervals(a, b):
    if a > b:
        with pytest.raises(ValueError):
            RInterval(a, b)
    else:
        iv = RInterval(a, b)
        assert (iv.lo, iv.hi) == (a, b)


@given(st.integers(1, 2**6000), st.integers(1, 2**3000))
@settings(max_examples=200, deadline=None)
def test_bracketed_log_of_a_quotient_is_bit_identical(q, g):
    # (N >> s) // g == (N // g) >> s puts N // g between top 2^s and (top + 1) 2^s
    N = q * g
    s = max(N.bit_length() - g.bit_length() - 64, 0)
    top = (N >> s) // g
    assert _log_bracketed(top, top + 1, s, lambda: N // g) == math.log(N // g)


@pytest.mark.parametrize("s", [0, 70, 2000])
def test_bracket_straddling_a_tie_forms_the_exact_integer(s):
    # (2^53 + 1) 2^s is a half-ulp tie: it rounds down to even, one more rounds up
    tie = (2**53 + 1) << s
    straddling = [(N, tie - 1, tie + 1) for N in (tie - 1, tie, tie + 1)]
    straddling += [(N, tie, tie + 1) for N in (tie, tie + 1)]
    for N, lo, hi in straddling:
        formed = []
        log = _log_bracketed(lo, hi, 0, lambda: formed.append(N) or N)
        assert log == math.log(N)
        assert formed == [N]
    # below the tie both ends round down: no exact integer is needed
    log = _log_bracketed(tie - 1, tie, 0, lambda: pytest.fail("formed the exact integer"))
    assert log == math.log(tie) == math.log(tie - 1)


# a small base to a long exponent, and a wide base to a short one, where the
# exactly formed prefix base^(e >> j) is 1
powers = st.one_of(
    st.tuples(st.integers(1, 10**6), st.integers(0, 5000)),
    st.tuples(st.integers(1, 2**3000), st.integers(0, 40)),
)


@given(powers)
@settings(max_examples=150, deadline=None)
@example((3, 0))
@example((2**200 + 1, 3))
@example((2**1000 + 1, 2))
@example((2**129 - 1, 1))  # the rounded-up end carries into a new bit
def test_power_bracket_encloses_the_power(power):
    base, e = power
    lo, hi, t = _power_bracket(base, e)
    assert t >= 0
    assert lo << t <= base**e <= hi << t
    assert hi.bit_length() <= BRACKET_BITS


@given(powers, st.integers(0, 2**2000).map(lambda n: 2 * n + 1), st.integers(0, 3000))
@settings(max_examples=150, deadline=None)
def test_power_bracket_divided_by_an_odd_g_encloses_the_quotient(power, g, c):
    base, e = power
    lo, hi, t = _power_bracket(base, e, g, c)
    assert t >= 0
    assert (lo << t) * (g << c) <= base**e <= (hi << t) * (g << c)
    assert hi.bit_length() <= BRACKET_BITS


@pytest.mark.parametrize(
    "base, e, g, c", [(6, 40, 3**40, 40), (30, 50, 15**50, 7), (3, 127, 3**60, 0)]
)
def test_an_exact_power_divided_exactly_gives_the_quotient(base, e, g, c):
    # base^e under 2 BRACKET_BITS bits is formed exactly, so a quotient of at
    # most BRACKET_BITS bits comes back as lo = hi with t = 0
    q = base**e // (g << c)
    assert q * (g << c) == base**e and q.bit_length() <= BRACKET_BITS
    assert _power_bracket(base, e, g, c) == (q, q, 0)


def _ends(x):
    """A bracket's ends lo 2^t and hi 2^t as integers."""
    lo, hi, t = x
    return lo << t, hi << t


def _is_trimmed(x):
    lo, hi, t = x
    return 0 <= lo <= hi and hi.bit_length() <= BRACKET_BITS and t >= 0


@st.composite
def brackets(draw, least=0):
    """(lo, hi, t) with least <= lo <= hi: lo of one of SIZES bits or 0, a
    width of up to one of SIZES bits, and t from 0 to 3000."""
    lo = max(least, _sized_int(draw) * draw(st.integers(0, 1)))
    width = draw(st.integers(0, 2 ** draw(st.sampled_from(SIZES))))
    return lo, lo + width, draw(st.integers(0, 3000))


@given(st.integers(0, 2**4000))
@settings(max_examples=200, deadline=None)
@example(2**BRACKET_BITS - 1)
@example(2 ** (BRACKET_BITS + 1) - 1)  # hi rounds up to a carry into a new bit
def test_bracket_of_an_integer_encloses_it(n):
    x = _bracket(n)
    assert _is_trimmed(x)
    lo, hi = _ends(x)
    assert lo <= n <= hi
    if n.bit_length() <= BRACKET_BITS:
        assert x == (n, n, 0)


@given(brackets(), brackets())
@settings(max_examples=200, deadline=None)
def test_bracket_product_encloses_the_products_of_the_ends(x, y):
    z = _bracket_mul(x, y)
    assert _is_trimmed(z)
    lo, hi = _ends(z)
    assert lo <= _ends(x)[0] * _ends(y)[0] and _ends(x)[1] * _ends(y)[1] <= hi


@given(brackets(), st.integers(1, 2**2000))
@settings(max_examples=200, deadline=None)
@example((5, 5, 0), 5)
@example((2**300, 2**300, 7), 2**300)
def test_bracket_quotient_encloses_the_quotients_of_the_ends(x, g):
    z = _bracket_div(x, g)
    assert _is_trimmed(z)
    lo, hi = _ends(z)
    assert lo * g <= _ends(x)[0] and _ends(x)[1] <= hi * g
    if x[0] == x[1] and x[0] % g == 0 and (x[0] // g).bit_length() <= BRACKET_BITS:
        assert lo == hi  # an exact quotient that fits stays a point


@given(
    brackets(),
    brackets(least=1),
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), 1 - Fraction(1, 2**200),
                     Fraction(1), 1 + Fraction(1, 2**200), Fraction(2)]),
)
@settings(max_examples=300, deadline=None)
def test_bracket_sign_is_decided_exactly_when_every_quotient_lies_on_one_side(num, den, corner, f):
    # r is a corner quotient scaled by f: on it, just beside it, far from it
    # or of the other sign; the box of quotients is [n_lo/d_hi, n_hi/d_lo]
    (n_lo, n_hi), (d_lo, d_hi) = _ends(num), _ends(den)
    r = f * Fraction((n_lo, n_hi)[corner & 1], (d_lo, d_hi)[corner >> 1])
    sign = _bracket_sign(num, den, r)
    assert sign == (1 if Fraction(n_lo, d_hi) > r else -1 if Fraction(n_hi, d_lo) < r else None)
