"""Tests for the rational bump, its jets, and the certified derivative bounds."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from carleman.bricks import (
    BrickParams,
    SweepResult,
    brick_jet,
    brick_taylor_check,
    brick_value,
    cauchy_kernel_check,
    polar_brick_bound_check,
    polar_brick_jet,
    polar_samples,
)
from carleman.jets import EXACT, Jet2, JetError, polar_coordinates
from carleman.logscale import log_of_fraction


def test_params_validation():
    BrickParams(0, 1, 1)  # q = 0 and rho = 1 are allowed
    with pytest.raises(ValueError):
        BrickParams(-1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        BrickParams(1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        BrickParams(1, 1, 0)
    with pytest.raises(ValueError):
        BrickParams(1, 1, 2)


def test_center():
    p = BrickParams(3, 2, Fraction(1, 4))
    assert p.center == (Fraction(3, 4), Fraction(0))


def test_brick_value_hand_computed():
    p = BrickParams(1, 2, Fraction(1, 2))
    assert brick_value(p, Fraction(1, 2), 0) == 1  # peak value at the center
    assert brick_value(p, 1, 1) == Fraction(1, 18)


def test_brick_jet_constant_and_gradient():
    p = BrickParams(1, 2, Fraction(1, 2))
    jet = brick_jet(p, (Fraction(0), Fraction(0)), 2)
    assert jet.kind == EXACT
    assert jet.coefficient((0, 0)) == Fraction(1, 2)
    assert jet.coefficient((1, 0)) == 1
    assert jet.coefficient((0, 1)) == 0  # even in x2


def test_brick_jet_constant_matches_value_off_origin():
    # the jet must expand about the requested base point, not a shifted one
    p = BrickParams(2, 3, Fraction(1, 3))
    for base in [(Fraction(1, 2), Fraction(-1, 5)), (Fraction(-2), Fraction(3, 7))]:
        jet = brick_jet(p, base, 3)
        assert jet.coefficient((0, 0)) == brick_value(p, *base)


def test_kernel_bound_sweep():
    res = cauchy_kernel_check([Fraction(1), Fraction(1, 2), Fraction(5)], degree=6, points=4)
    assert res.ok
    assert res.checked == 3 * 4 * 28  # 28 multi-indices up to degree 6
    assert res.max_log_ratio <= 0
    assert 0 < res.empirical_constant <= 8


def test_brick_taylor_bound_sweep():
    params = [
        BrickParams(1, 1, 1),
        BrickParams(3, 4, Fraction(1, 3)),
    ]
    res = brick_taylor_check(params, degree=6, points=4)
    assert res.ok
    assert res.max_log_ratio <= 0
    assert 0 < res.empirical_constant <= 8


def test_polar_brick_bound_sweep():
    res = polar_brick_bound_check([BrickParams(1, 2, Fraction(1, 2))], degree=4, radii=4, angles=3)
    assert res.ok
    assert res.empirical_constant > 0


def test_polar_jet_even_in_angle():
    # at theta = 0 the composed jet is even in theta, so odd angular
    # coefficients vanish identically (checked exactly)
    for p in (BrickParams(1, 2, Fraction(1, 2)), BrickParams(0, 1, 1)):
        for r0 in (Fraction(0), Fraction(1, 3), Fraction(7, 2)):
            jet = polar_brick_jet(p, (r0, Fraction(0)), 8)
            assert jet.kind == EXACT
            assert all(v == 0 for (_, j), v in jet.coeffs.items() if j % 2 == 1)


def test_polar_jet_exact_needs_zero_angle():
    p = BrickParams(1, 2, Fraction(1, 2))
    for theta in (Fraction(1, 3), 1):
        with pytest.raises(JetError):
            polar_brick_jet(p, (Fraction(1), theta), 4)


def test_polar_jet_matches_cartesian_on_axis():
    # at theta = 0 the radial line is the x1 axis, so pure radial derivatives
    # coincide with pure x1 derivatives of the Cartesian jet
    p = BrickParams(2, 3, Fraction(1, 4))
    r0 = Fraction(5, 4)
    polar = polar_brick_jet(p, (r0, Fraction(0)), 6)
    cart = brick_jet(p, (r0, Fraction(0)), 6)
    assert polar.kind == cart.kind == EXACT
    for k in range(7):
        assert polar.coefficient((k, 0)) == cart.coefficient((k, 0))


def test_polar_samples_shape():
    rng = random.Random(11)
    samples = polar_samples(rng, 6, 3)
    assert len(samples) == 18
    radii = [r for r, _ in samples[::3]]
    assert radii[0] == 0.0
    assert all(r == radii[i // 3] for i, (r, _) in enumerate(samples))
    assert all(1e-4 <= r <= 10 for r in radii[1:])
    assert all(-math.pi <= th <= math.pi for _, th in samples)
    # every radius is drawn before the first angle
    rng = random.Random(11)
    lo, hi = math.log(1e-4), math.log(10.0)
    assert radii[1:] == [math.exp(rng.uniform(lo, hi)) for _ in range(5)]


def fraction_record_squares(res, lhs_sq, rhs_sq, tag):
    """`SweepResult.record_squares` on the Fraction square formed first: the
    exact comparison its integer one replaces, kept here as its oracle."""
    res.checked += 1
    if lhs_sq > rhs_sq:
        res.failures.append(tag)
    if lhs_sq > 0 and rhs_sq > 0:
        log_ratio = (log_of_fraction(lhs_sq) - log_of_fraction(rhs_sq)) / 2
        res.max_log_ratio = max(res.max_log_ratio, log_ratio)


# nonnegative coefficients and bounds of either sign, some of up to 2000 bits
wide_fractions = st.builds(
    Fraction, st.integers(-(2**2000), 2**2000), st.integers(1, 2**2000)
) | st.fractions(max_denominator=50)


@given(st.lists(st.tuples(wide_fractions.map(abs), wide_fractions), max_size=8))
def test_exact_record_squares_is_the_fraction_square(pairs):
    got, want = SweepResult(), SweepResult()
    for i, (lhs, rhs_sq) in enumerate(pairs):
        got.record_squares(lhs, rhs_sq, i)
        fraction_record_squares(want, lhs * lhs, rhs_sq, i)
    assert (got.checked, got.failures) == (want.checked, want.failures)
    assert got.max_log_ratio.hex() == want.max_log_ratio.hex()


# -- brick jets, one-term bump sums, against the formula they replaced --------

def denominator_brick_of(p: BrickParams, x1: Jet2, x2: Jet2) -> Jet2:
    """The bump composed with coordinate jets x1, x2 as `_brick_of` formed
    it before it became one `reciprocal_sum` call, kept here as its oracle:
    the denominator by jet arithmetic, then `.reciprocal()`, then `.scale`."""
    denom = p.rho**2 + (x1 - p.rho * p.q) ** 2 + (p.m * x2) ** 2
    return denom.reciprocal().scale(p.rho**2)


def _bits(jet):
    """Every coefficient in graded order: a float by its IEEE bytes (so the
    sign of a zero counts), a Fraction by its type and reduced value."""
    return [
        struct.pack("<d", c) if type(c) is float else (type(c), c.numerator, c.denominator)
        for _, c in jet.graded_items()
    ]


brick_params = st.builds(
    BrickParams,
    st.sampled_from([0, 1, 2, Fraction(3, 2)]),
    st.sampled_from([1, 2, 3, Fraction(7, 2)]),
    st.sampled_from([1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 13)]),
)
small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@given(
    brick_params,
    st.integers(0, 9),
    st.one_of(
        st.tuples(st.floats(-8.0, 8.0), st.one_of(st.just(0.0), st.floats(-8.0, 8.0))),
        st.tuples(small_fractions, st.one_of(st.just(Fraction(0)), small_fractions)),
    ),
)
@settings(max_examples=150, deadline=None)
def test_brick_jet_is_the_denominator_formula(p, degree, base):
    x1, x2 = Jet2.variable(0, base, degree), Jet2.variable(1, base, degree)
    assert _bits(brick_jet(p, base, degree)) == _bits(denominator_brick_of(p, x1, x2))


@given(
    brick_params,
    st.integers(0, 9),
    st.one_of(
        st.tuples(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
            st.one_of(st.sampled_from([0.0, -0.0, math.pi]), st.floats(-4.0, 4.0)),
        ),
        st.tuples(st.fractions(min_value=0, max_value=10, max_denominator=12), st.just(Fraction(0))),
    ),
)
@settings(max_examples=150, deadline=None)
# at a subnormal radius the theta coefficient of 1 / denominator is nonzero
# and its scale by rho^2 underflows to -0.0
@example(BrickParams(2, 1, Fraction(1, 2)), 1, (5e-324, 1.0))
def test_polar_brick_jet_is_the_denominator_formula(p, degree, base):
    want = denominator_brick_of(p, *polar_coordinates(base, degree))
    assert _bits(polar_brick_jet(p, base, degree)) == _bits(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_raises_on_a_non_finite_coefficient(bad):
    jet = Jet2((0.0, 0.0), 3, {(0, 0): 1.0, (1, 1): bad})
    with pytest.raises(OverflowError):
        SweepResult().sweep(jet, ("nan",), lambda a, n: ([], 10.0))


# (log tails, log rhs) at every coefficient
@pytest.mark.parametrize(
    "bound", [([], math.inf), ([], math.nan), ([0.0, math.inf], 10.0), ([math.nan], 10.0)]
)
def test_sweep_raises_on_a_non_finite_bound_or_tail(bound):
    with pytest.raises(OverflowError):
        SweepResult().sweep(Jet2.constant(1.0, (0.0, 0.0), 2), ("inf",), lambda a, n: bound)


def test_sweep_compares_in_the_jets_kind():
    # an exact jet meets a squared Fraction bound, a float jet a log bound;
    # the constant 3 passes at its own bound and fails just below it
    exact = Jet2.constant(Fraction(3), (Fraction(0), Fraction(0)), 1)
    res = SweepResult()
    res.sweep(exact, ("at",), lambda a, n: Fraction(9))
    res.sweep(exact, ("below",), lambda a, n: Fraction(9) - Fraction(1, 10**40))
    assert (res.checked, res.failures) == (6, [("below", (0, 0))])
    flt = Jet2.constant(3.0, (0.0, 0.0), 1)
    res = SweepResult()
    res.sweep(flt, ("at",), lambda a, n: ([], math.log(3.0)))
    res.sweep(flt, ("below",), lambda a, n: ([], math.nextafter(math.log(3.0), 0.0)))
    assert (res.checked, res.failures) == (6, [("below", (0, 0))])


def test_sweep_takes_zero_bounds_and_empty_tails():
    # -inf is a log of zero, not an overflow: the tail adds nothing and a
    # zero bound fails every nonzero coefficient
    res = SweepResult()
    res.sweep(Jet2.constant(1.0, (0.0, 0.0), 1), ("zero",), lambda a, n: ([-math.inf], -math.inf))
    assert (res.checked, res.failures) == (3, [("zero", (0, 0))])
