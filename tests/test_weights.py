"""Weight families, diagnostics, and the summation identity."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carleman.weights import (
    ConvexityError,
    WeightError,
    WeightSequence,
    abel_identity_terms,
    analytic,
    compare,
    custom_table,
    gevrey,
    log_power,
    parse_family,
    power,
    quasianalyticity_diagnostic,
    shift,
    square_vs_shift_diagnostic,
)


def test_analytic_is_constant_one():
    M = analytic()
    for k in (0, 1, 5, 40):
        assert M.log_weight(k) == 0.0
        assert M.exact(k) == 1


def test_gevrey_exact_values():
    M = gevrey(1)
    assert M.exact(0) == 1
    assert M.exact(5) == 120
    assert M.exact_ratio(3) == 4  # M_4 / M_3 = 4!/3!
    M2 = gevrey(2)
    assert M2.exact(4) == 576  # (4!)^2


def test_gevrey_fractional_has_no_exact_path():
    M = gevrey(0.5)
    assert not M.has_exact
    assert M.log_weight(6) == pytest.approx(0.5 * math.lgamma(7), rel=1e-12)


def test_log_power_normalization_and_growth():
    M = log_power(math.e)
    assert M.log_weight(0) == 0.0
    # M_k = (log(k + c))^k grows slower than k!
    assert M.log_weight(50) < gevrey(1).log_weight(50)
    M.validate(500)


def test_custom_table_validates_convexity():
    good = custom_table([0.0, 0.0, 1.0, 3.0])  # ratios 0, 1, 2
    assert good.log_weight(3) == 3.0
    # construction already validates the available prefix
    with pytest.raises(ConvexityError):
        custom_table([0.0, 0.0, 2.0, 3.0])  # ratios 0, 2, 1


def test_shift_and_power():
    M = gevrey(1)
    # shift by p reads the subsequence M_(p k), the square-shift partner of
    # the k-th-power comparison
    S = shift(M, 2)
    assert S.exact(3) == math.factorial(6)
    assert S.exact(1) == 2
    P = power(M, 2)
    assert P.exact(3) == 36
    # fractional power loses the exact path but keeps logs
    Ph = power(M, 0.5)
    assert Ph.log_weight(4) == pytest.approx(0.5 * math.lgamma(5))


def test_parse_family_round_trips():
    assert parse_family("analytic").log_weight(9) == 0.0
    assert parse_family("gevrey:1").exact(4) == 24
    assert parse_family("gevrey:2").name == "gevrey:2"
    assert parse_family("shift:2:gevrey:1").exact(1) == 2  # reads M_2
    assert parse_family("power:2:gevrey:1").exact(3) == 36
    lp = parse_family("logpow:2.718281828459045")
    assert lp.log_weight(0) == 0.0
    with pytest.raises((WeightError, ValueError)):
        parse_family("nonsense:1")


def test_validate_rejects_nonconvex():
    # ratio drops from 1.0 to 0.5; rejected as soon as the table is built
    with pytest.raises(ConvexityError):
        custom_table([0.0, 1.0, 1.5])


@given(st.integers(1, 30), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_gevrey_ratio_identity(k, s):
    M = gevrey(s)
    assert M.exact_ratio(k) == M.exact(k + 1) / M.exact(k)


@pytest.mark.parametrize(
    "spec",
    [
        "analytic",
        "gevrey:0",
        "gevrey:1",
        "gevrey:2",
        "gevrey:3",
        "shift:2:gevrey:1",
        "shift:3:gevrey:2",
        "power:2:gevrey:1",
        "power:2:shift:2:gevrey:1",
    ],
)
def test_family_ratio_is_the_weight_quotient(spec):
    # each built-in exact family supplies m_k itself as an integer, and M_k
    # is their product, so m_k is M_{k+1}/M_k exactly
    M = parse_family(spec)
    for k in range(61):
        m = M.exact_ratio(k)
        assert isinstance(m, int)
        assert m == M.exact(k + 1) / M.exact(k)


GREEDY_KS = (0, 1, 2, 12, 52, 212, 852, 3412)  # 0, 1 and the greedy gevrey:1 orders


@pytest.mark.parametrize(
    "spec, closed_form",
    [
        *[
            pytest.param(f"gevrey:{s}", lambda k, s=s: math.factorial(k) ** s, id=f"gevrey:{s}")
            for s in range(4)
        ],
        pytest.param("analytic", lambda k: 1, id="analytic"),
        pytest.param("shift:2:gevrey:1", lambda k: math.factorial(2 * k), id="shift:2:gevrey:1"),
        pytest.param("shift:3:gevrey:2", lambda k: math.factorial(3 * k) ** 2, id="shift:3:gevrey:2"),
        pytest.param("power:2:gevrey:1", lambda k: math.factorial(k) ** 2, id="power:2:gevrey:1"),
    ],
)
def test_ratio_product_is_the_closed_form(spec, closed_form):
    # the closed forms the families no longer carry, as oracles for the
    # product of their ratios
    M = parse_family(spec)
    for k in GREEDY_KS:
        assert M.exact(k) == closed_form(k)


def test_quasianalyticity_verdicts():
    # divergent-sum family vs convergent-sum family, frozen verdicts
    assert quasianalyticity_diagnostic(analytic(), 200).verdict == "diverging-like"
    assert quasianalyticity_diagnostic(gevrey(1), 200).verdict == "converging-like"


def test_compare_verdicts_frozen():
    assert compare(analytic(), gevrey(1), 200).verdict == "strictly-contained-diagnostic"
    assert compare(gevrey(1), analytic(), 200).verdict == "not-contained-diagnostic"
    same = compare(gevrey(1), gevrey(1), 200)
    assert same.verdict == "contained"
    with pytest.raises(WeightError):
        compare(gevrey(1), gevrey(1), 8)


def test_square_vs_shift_inequality_families():
    for M in (analytic(), gevrey(1), gevrey(2), log_power(math.e)):
        rep = square_vs_shift_diagnostic(M, 300)
        assert rep.inequality_ok, M.name
        assert rep.worst_gap >= -1e-12


def test_square_vs_shift_gevrey_value():
    # for k! the two sides are computable by hand at k = 2:
    # A_2 = (2!)^(3/2) / 3! = 2 sqrt 2 / 6, B_2 = (4 / 24)^(1/2)
    rep = square_vs_shift_diagnostic(gevrey(1), 10)
    A2 = 2 * math.sqrt(2) / 6
    B2 = math.sqrt(4 / 24)
    assert A2 >= B2  # sanity on the hand computation
    assert rep.inequality_ok


def test_abel_identity_exact_evens():
    evens = list(range(2, 101, 2))
    harmonic, other = abel_identity_terms(evens, 100)
    assert harmonic == other
    # value is half the 50th harmonic number
    H50 = sum(Fraction(1, j) for j in range(1, 51))
    assert harmonic == H50 / 2


def test_abel_identity_exact_sparse():
    lam = [1, 3, 9, 27, 81]
    harmonic, other = abel_identity_terms(lam, 80)
    assert harmonic == other == Fraction(1) + Fraction(1, 3) + Fraction(1, 9) + Fraction(1, 27)


def test_memoization_returns_same_object_values():
    M = gevrey(1)
    a = M.log_weight(25)
    b = M.log_weight(25)
    assert a == b
    assert M.exact(25) == math.factorial(25)


def test_exact_refuses_a_negative_index():
    M = gevrey(1)
    with pytest.raises(WeightError, match="negative index"):
        M.exact(-1)
    assert M.exact(3) == 6
    with pytest.raises(WeightError, match="negative index"):
        M.exact(-1)
    assert M.exact(4) == 24


def test_exact_reads_rational_ratios_in_any_order():
    M = WeightSequence("threehalves", lambda k: k * math.log(1.5), lambda k: Fraction(3, 2))
    for k in (0, 7, 7, 30, 2, 0, 12):
        value = M.exact(k)
        assert type(value) is Fraction and value == Fraction(3, 2) ** k


@pytest.mark.parametrize(
    "spec", ["gevrey:nan", "gevrey:inf", "logpow:nan", "logpow:inf", "power:nan:gevrey:1"]
)
def test_non_finite_family_rejected(spec):
    with pytest.raises(WeightError, match="not finite"):
        parse_family(spec)


def test_non_finite_log_weight_rejected_on_first_use():
    M = WeightSequence("late", lambda k: 0.0 if k < 20 else math.inf)
    assert M.log_weight(19) == 0.0
    for _ in range(2):  # a rejected value is not memoized
        with pytest.raises(WeightError, match="log M_20"):
            M.log_weight(20)
