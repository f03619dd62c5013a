"""Truncated bivariate Taylor arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carleman.jets import (
    EXACT,
    FLOAT,
    Jet2,
    JetError,
    JetMismatch,
    SingularJet,
    central_difference,
    finite_difference,
    jet_sin_cos,
)

B0 = (Fraction(0), Fraction(0))


def poly_jet(coeffs, base=B0, degree=4, kind=EXACT):
    return Jet2(base, degree, kind, dict(coeffs))


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
coeff_dicts = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda a: a[0] + a[1] <= 3),
    rationals.filter(lambda q: q != 0),
    max_size=5,
)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    A, B, C = poly_jet(a), poly_jet(b), poly_jet(c)
    assert (A + B).coeffs == (B + A).coeffs
    assert ((A + B) + C).coeffs == (A + (B + C)).coeffs
    assert (A * B).coeffs == (B * A).coeffs
    assert ((A * B) * C).coeffs == (A * (B * C)).coeffs
    assert (A * (B + C)).coeffs == (A * B + A * C).coeffs


@given(coeff_dicts)
@settings(max_examples=40, deadline=None)
def test_reciprocal_round_trip(a):
    a = dict(a)
    a[(0, 0)] = a.get((0, 0), Fraction(0)) + 1  # keep it invertible
    if a[(0, 0)] == 0:
        a[(0, 0)] = Fraction(2)
    J = poly_jet(a)
    one = J * J.reciprocal()
    assert one.coefficient((0, 0)) == 1
    for alpha, v in one.coeffs.items():
        if alpha != (0, 0):
            assert v == 0


def test_reciprocal_of_zero_constant_raises():
    with pytest.raises(SingularJet):
        poly_jet({(1, 0): Fraction(1)}).reciprocal()


def test_incompatible_jets_raise():
    a = poly_jet({(0, 0): Fraction(1)})
    b = Jet2((Fraction(1), Fraction(0)), 4, EXACT, {(0, 0): Fraction(1)})
    with pytest.raises(JetMismatch):
        a + b


def test_variable_includes_base_constant():
    x = Jet2.variable(0, (Fraction(3), Fraction(-2)), 3, EXACT)
    assert x.coefficient((0, 0)) == 3
    assert x.coefficient((1, 0)) == 1
    y = Jet2.variable(1, (Fraction(3), Fraction(-2)), 3, EXACT)
    assert y.coefficient((0, 0)) == -2
    assert y.coefficient((0, 1)) == 1


def test_known_expansion_geometric():
    # 1/(1 - x) = 1 + x + x^2 + ... around 0
    x = Jet2.variable(0, B0, 5, EXACT)
    inv = (1 - x).reciprocal()
    for n in range(6):
        assert inv.coefficient((n, 0)) == 1


def test_known_expansion_kernel_at_offset():
    # 1/(2 + x^2) at x = 1: value 1/3, d/dx = -2x/(2+x^2)^2 = -2/9
    base = (Fraction(1), Fraction(0))
    x = Jet2.variable(0, base, 3, EXACT)
    g = (2 + x * x).reciprocal()
    assert g.coefficient((0, 0)) == Fraction(1, 3)
    assert g.coefficient((1, 0)) == Fraction(-2, 9)


def test_sin_cos_pythagoras_exact():
    t = Jet2.variable(1, B0, 6, EXACT)
    s, c = jet_sin_cos(t)
    unit = s * s + c * c
    assert unit.coefficient((0, 0)) == 1
    assert all(v == 0 for a, v in unit.coeffs.items() if a != (0, 0))


def test_sin_cos_known_series():
    t = Jet2.variable(1, B0, 5, EXACT)
    s, c = jet_sin_cos(t)
    assert s.coefficient((0, 1)) == 1
    assert s.coefficient((0, 3)) == Fraction(-1, 6)
    assert s.coefficient((0, 5)) == Fraction(1, 120)
    assert c.coefficient((0, 2)) == Fraction(-1, 2)
    assert c.coefficient((0, 4)) == Fraction(1, 24)


def test_sin_cos_float_nonzero_angle():
    base = (0.0, 0.7)
    t = Jet2.variable(1, base, 4, FLOAT)
    s, c = jet_sin_cos(t)
    assert s.coefficient((0, 0)) == pytest.approx(math.sin(0.7))
    assert c.coefficient((0, 0)) == pytest.approx(math.cos(0.7))
    assert s.coefficient((0, 1)) == pytest.approx(math.cos(0.7))


def test_exact_sin_cos_nonzero_angle_rejected():
    base = (Fraction(0), Fraction(1, 2))
    t = Jet2.variable(1, base, 4, EXACT)
    with pytest.raises(JetError):
        jet_sin_cos(t)


def test_float_scalar_in_exact_jet_rejected():
    with pytest.raises(JetError):
        Jet2.constant(0.5, B0, 3, EXACT)


def test_value_and_derivative_conventions():
    f = poly_jet({(0, 0): Fraction(7), (2, 1): Fraction(5)})
    assert f.value() == 7
    # the coefficient is the derivative over the factorials: 10 / (2! * 1!)
    assert f.coefficient((2, 1)) == 5


def test_finite_difference_matches_analytic():
    f = lambda pt: math.exp(0.3 * pt[0]) * math.cos(pt[1])
    at = (0.2, -0.4)
    want = 0.3 * math.exp(0.3 * at[0]) * -math.sin(at[1])  # d2 of d1 f
    got = finite_difference(f, at, (1, 1))
    assert got == pytest.approx(want, rel=1e-8)


def test_finite_difference_order_cap():
    with pytest.raises(JetError):
        finite_difference(lambda pt: 0.0, (0, 0), (3, 2))


def test_central_difference_first_order():
    f = lambda pt: pt[0] ** 2 + 3 * pt[0] * pt[1]
    got = central_difference(f, (1.0, 2.0), (1, 0), 1e-4)
    assert got == pytest.approx(2.0 + 6.0, rel=1e-6)
