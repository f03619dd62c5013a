"""Tests for the base bump superposition and its rescaled blocks.

For the factorial family the bump weights have the closed form
w_k = k! / (2^k (k+1)^k), which the tests recompute independently of the
phi identity the implementation uses.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from carleman import blocks
from carleman.blocks import (
    MIN_TERMS,
    BaseFunction,
    Block,
    LowerBoundRow,
    base_lower_check,
    base_upper_check,
    block_lower_check,
    block_upper_check,
    polar_block_bound_check,
    polar_block_jet,
    _bracket_factored,
    _integer_weights,
    _lowest_terms,
    _prime_factors,
    _reduced,
    _times_factored,
)
from carleman.intervals import RInterval, _bracket_sign, _log_bracketed
from carleman.jets import EXACT, FLOAT, Jet2, jet_sin_cos
from carleman.logscale import log_of_fraction
from carleman.ostrowski import phi
from carleman.weights import (
    ConvexityError,
    WeightError,
    WeightSequence,
    analytic,
    custom_table,
    gevrey,
    log_power,
    parse_family,
    shift,
)


def closed_form_weight(k: int) -> Fraction:
    return Fraction(math.factorial(k), 2**k * (k + 1) ** k)


def test_weights_match_closed_form():
    bf = BaseFunction(gevrey(1), terms=12)
    assert bf.k_range == range(1, 13)
    for k in bf.k_range:
        assert bf.weight_exact(k) == closed_form_weight(k)
        assert bf.weight_log(k) == pytest.approx(
            math.log(closed_form_weight(k)), rel=1e-12
        )


DEEP_K = (500, 1000, 3424)  # 3424 bump terms: the sixth greedy block's layout


@pytest.mark.parametrize(
    "spec, ks",
    [
        pytest.param("gevrey:1", [*range(1, 65), *DEEP_K], id="gevrey:1"),
        *[
            pytest.param(spec, list(range(1, 65)), id=spec)
            for spec in ("gevrey:2", "analytic", "shift:2:gevrey:1", "power:2:gevrey:1")
        ],
    ],
)
def test_exact_weights_match_the_phi_search(spec, ks):
    # reference: w_k = m_k^2 / (2^k phi(m_k)) with phi found by its argmax
    # search; the log reads the reduced phi(m_k) = m_k^(k+2)/M_k, bit for bit
    M = parse_family(spec)
    bf = BaseFunction(M, terms=max(ks))
    for k in ks:
        m = M.exact_ratio(k)
        assert bf.weight_exact(k) == m**2 / (2**k * phi(M, m).exact)
        log_phi = log_of_fraction(m ** (k + 2) / M.exact(k))
        assert bf.weight_log(k) == 2 * M.log_ratio(k) - k * math.log(2) - log_phi


@pytest.mark.parametrize(
    "spec", ["gevrey:1", "gevrey:2", "analytic", "shift:2:gevrey:1", "power:2:gevrey:1"]
)
def test_exact_weights_are_reduced_in_any_order(spec):
    # reference: the gcd-reduced quotient M_k / (2 m_k)^k; the first read, of
    # the last k, builds every weight, so the later reads are memo hits
    M = parse_family(spec)
    bf = BaseFunction(M, terms=80)
    for k in reversed(bf.k_range):
        w, ref = bf.weight_exact(k), Fraction(M.exact(k), (2 * M.exact_ratio(k)) ** k)
        assert (w.numerator, w.denominator) == (ref.numerator, ref.denominator)
    assert list(bf._exact_w) == list(bf.k_range)
    with pytest.raises(KeyError):
        bf.weight_exact(bf.terms + 1)


def trial_division(n):
    """{p: v_p(n)}, dividing by every integer up to sqrt(n): the oracle for
    `_prime_factors`."""
    factors, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def test_prime_factors_match_trial_division():
    assert [_prime_factors(n) for n in range(1, 20000)] == [trial_division(n) for n in range(1, 20000)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 12))
def test_prime_factors_of_powers_match_trial_division(r, e):
    # a cofactor that outlasts SMALL_PRIMES is factored through its perfect-power root
    assert _prime_factors(r**e) == {p: v * e for p, v in trial_division(r).items()}


def exact_division_log_phi(M, terms):
    """log phi(m_k) for k = 1 .. terms from the exact quotients m_k^(k+2)//g
    and M_k//g, g the common factor from M_k's prime valuations: the formula
    the bracketed logs replace, kept here as their oracle."""
    Mk, log_phi, valuations = 1, [], {}
    for k in range(terms + 1):
        m = M.exact_ratio(k).numerator
        factors = _prime_factors(m)
        if k:
            g = math.prod(p ** min(valuations.get(p, 0), (k + 2) * v) for p, v in factors.items())
            log_phi.append(math.log(m ** (k + 2) // g) - math.log(Mk // g))
        Mk *= m
        for p, v in factors.items():
            valuations[p] = valuations.get(p, 0) + v
    return log_phi


def test_bracketed_weights_match_exact_division_at_every_k(monkeypatch):
    # the sixth greedy block's 3424 terms, every k, and no numerator formed
    def bracket_only(lo, hi, t, exact):
        return _log_bracketed(lo, hi, t, lambda: pytest.fail("formed the exact numerator"))

    monkeypatch.setattr(blocks, "_log_bracketed", bracket_only)
    M = gevrey(1)
    M.validate(3425)
    ms, log_phi = _integer_weights(M, 3424)
    assert log_phi == exact_division_log_phi(M, 3424)
    assert ms == [k + 1 for k in range(3425)]
    ks = cursor_reads(3425)
    assert [M.exact(k) for k in ks] == [math.factorial(k) for k in ks]


def cursor_reads(n):
    """k in 0 .. n read forward, repeated and backward."""
    return [*range(0, n + 1, 37), n, n, n - 1, n // 2, n // 2, 5, 1, 0, 0, 2, n]


@pytest.mark.parametrize(
    "spec", ["gevrey:2", "gevrey:3", "shift:2:gevrey:1", "power:2:gevrey:1", "analytic"]
)
def test_bracketed_weights_match_exact_division_on_every_exact_family(spec):
    M = parse_family(spec)
    M.validate(801)
    ms, log_phi = _integer_weights(M, 800)
    assert log_phi == exact_division_log_phi(M, 800)
    assert ms == [M.exact_ratio(k) for k in range(801)]
    ks = cursor_reads(801)
    assert [M.exact(k) for k in ks] == [math.prod(ms[:k]) for k in ks]


def test_base_init_keeps_no_table_of_M_k():
    # the sixth greedy block's base: a table of M_0 .. M_3425 alone is 7.7 MiB
    M = gevrey(1)
    M.validate(3425)
    tracemalloc.start()
    try:
        BaseFunction(M, 3424)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_axis_moment_holds_no_list_of_its_terms():
    # the fifth greedy block's base and row: the 864 terms alone are 1.1 MiB
    h = BaseFunction(gevrey(1), 864)
    tracemalloc.start()
    try:
        h.axis_moment(852)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def ratio_times_10007():
    """m_k = 10007 (k+1): every ratio has a prime factor above 61^2, so
    `_prime_factors` runs its tail past SMALL_PRIMES on each one."""
    return WeightSequence(
        "10007-gevrey:1", lambda k: k * math.log(10007) + math.lgamma(k + 1), lambda k: 10007 * (k + 1)
    )


@pytest.mark.parametrize(
    "terms, family",
    [pytest.param(t, lambda: gevrey(1), id=str(t)) for t in (4, 5, 7, 8, 37, 64)]
    + [
        pytest.param(t, lambda spec=spec: parse_family(spec), id=f"{spec}-{t}")
        for spec, t in [("gevrey:2", 40), ("gevrey:3", 70), ("shift:2:gevrey:1", 33),
                        ("power:2:gevrey:1", 70), ("analytic", 12)]
    ]
    + [pytest.param(20, ratio_times_10007, id="10007-gevrey:1-20")],
)
def test_axis_moment_is_the_sum_of_its_terms(terms, family):
    M = family()
    h = BaseFunction(M, terms)
    for order in (0, 2, 6, terms - 1, terms + 3):
        terms_sum = sum(h.weight_exact(k) * M.exact_ratio(k) ** order for k in h.k_range)
        assert h.axis_moment(order) == terms_sum


@st.composite
def factored_quotients(draw):
    """(num, {p: e}) with num = r prod p^f: f is drawn from 0 (p absent from
    num unless r holds it) to 2e (num holds p more often than e), and 2 may
    carry an exponent in the thousands."""
    num, den = draw(st.integers(1, 2**256)), {}
    for p in draw(st.lists(st.sampled_from([2, 3, 5, 7, 61, 10007]), min_size=1, unique=True)):
        e = draw(st.integers(1, 4000 if p == 2 else 40))
        den[p] = e
        num *= p ** draw(st.integers(0, 2 * e))
    return num, den


@settings(max_examples=300, deadline=None)
@given(factored_quotients())
@example((2**5000 * 3**7 * 11, {2: 4000, 3: 5, 5: 3}))
def test_lowest_terms_matches_fraction(quotient):
    num, den = quotient
    want = Fraction(num, math.prod(p**e for p, e in den.items()))
    got_num, left = _lowest_terms(num, den)
    assert set(left) <= set(den) and all(e > 0 for e in left.values())
    got = _reduced(got_num, math.prod(p**e for p, e in left.items()))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)


MOMENT_PRIMES = (2, 3, 5, 7, 61, 10007)
BASE_PRIMES = (2, 3, 11, 13, 101, 2**61 - 1)  # 2 and 3 may also be moment primes


@st.composite
def moment_products(draw):
    """(x, bases, y, primes) for `_times_factored`: y = N/D reduced with D =
    prod p^e over `primes`, and x = a/b reduced with b a product of powers of
    `bases`. a may be 0 or hold a moment prime up to 2e times, and N may hold a
    prime of a base (the fallback) unless that prime divides D."""
    primes = {
        p: draw(st.integers(1, 300 if p == 2 else 30))
        for p in draw(st.lists(st.sampled_from(MOMENT_PRIMES), min_size=1, unique=True))
    }
    bases = draw(st.lists(
        st.lists(st.sampled_from(BASE_PRIMES), min_size=1, max_size=3).map(math.prod), max_size=4
    ))
    b = math.prod(q ** draw(st.integers(0, 6)) for q in bases)
    a = draw(st.integers(-(2**200), 2**200))
    for p, e in primes.items():
        a *= p ** draw(st.integers(0, 2 * e))
    N = draw(st.integers(1, 2**400)) * math.prod(draw(st.lists(st.sampled_from(BASE_PRIMES))))
    for p in primes:
        while N % p == 0:
            N //= p
    return Fraction(a, b), bases, Fraction(N, math.prod(p**e for p, e in primes.items())), primes


@settings(max_examples=300, deadline=None)
@given(moment_products())
@example((Fraction(2**50 * 3**9 * 7, 11**4), [11, 13], Fraction(5, 2**40 * 3**4), {2: 40, 3: 4}))  # a holds 2, 3 past e
@example((Fraction(1, 11**3 * 13), [11 * 13], Fraction(11 * 17, 2**5), {2: 5}))  # N shares 11 with b
@example((Fraction(0), [6], Fraction(7, 2), {2: 1}))  # a zero multiplier
def test_times_factored_matches_fraction(case):
    x, bases, y, primes = case
    want, got = x * y, _times_factored(x, bases, y, primes)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)


@settings(max_examples=300, deadline=None)
@given(moment_products())
@example((Fraction(2**50 * 3**9 * 7, 11**4), [11, 13], Fraction(5, 2**40 * 3**4), {2: 40, 3: 4}))
@example((Fraction(1, 11**3 * 13), [11 * 13], Fraction(11 * 17, 2**5), {2: 5}))
def test_bracketed_products_read_as_the_exact_product(case):
    # the brackets enclose the lowest-terms numerator and denominator of x y,
    # so the logs read from them are log_of_fraction's bit for bit, and each
    # comparison they decide is the exact one
    x, bases, y, primes = case
    want = x * y
    brackets = _bracket_factored(x, bases, y.numerator, primes, {})
    if brackets is None:  # the Fraction product: a <= 0 or a base shares a prime with N
        assert x <= 0 or any(math.gcd(y.numerator, q) > 1 for q in bases)
        return
    for (lo, hi, t), end in zip(brackets, (want.numerator, want.denominator)):
        assert lo << t <= end <= hi << t
    num, den = brackets
    log = _log_bracketed(*num, lambda: want.numerator) - _log_bracketed(*den, lambda: want.denominator)
    assert log == log_of_fraction(want)
    for bound in (want, want / 2, want * 2, want * (1 + Fraction(1, 2**100)), Fraction(0)):
        sign = _bracket_sign(num, den, bound)
        assert sign in (None, (want > bound) - (want < bound))
        assert sign is not None or bound == want  # a relative gap of 2^-100 is decided


def test_exact_family_needs_integer_ratios():
    half = Fraction(3, 2)
    M = WeightSequence("threehalves", lambda k: k * math.log(1.5), lambda k: half)
    with pytest.raises(WeightError, match="not an integer"):
        BaseFunction(M, terms=8)


def test_table_weights_need_no_entries_past_the_last_ratio():
    # 40 terms read M_0 .. M_41; a longer table gives the same weights
    short = BaseFunction(custom_table([k * (k - 1) / 2 for k in range(43)]), terms=40)
    long = BaseFunction(custom_table([k * (k - 1) / 2 for k in range(70)]), terms=40)
    assert [short.weight_log(k) for k in short.k_range] == [long.weight_log(k) for k in long.k_range]


def test_weights_need_nondecreasing_ratios():
    table = [k * (k - 1) / 2 - 5 * max(0, k - 12) for k in range(43)]  # m_12 < m_11
    with pytest.raises(ConvexityError, match="k=12"):
        BaseFunction(custom_table(table), terms=40)


def test_needs_minimum_terms():
    with pytest.raises(ValueError):
        BaseFunction(gevrey(1), terms=3)


def test_value_exact_hand_sum():
    bf = BaseFunction(gevrey(1), terms=10)
    x1, x2 = Fraction(1), Fraction(1, 2)
    want = sum(
        closed_form_weight(k) / (1 + x1**2 + (Fraction(k + 1) * x2) ** 2)
        for k in range(1, 11)
    )
    assert bf.value(x1, x2, exact=True) == want
    assert bf.value(1.0, 0.5) == pytest.approx(float(want), rel=1e-12)


def test_value_truncation_tail_is_honest():
    coarse = BaseFunction(gevrey(1), terms=20)
    fine = BaseFunction(gevrey(1), terms=40)
    for x in [(Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(-2, 3))]:
        gap = fine.value(*x, exact=True) - coarse.value(*x, exact=True)
        assert 0 <= gap
        # the dropped k > K terms sum below M_0 2^-K
        assert gap <= coarse.M.exact(0) / 2**coarse.terms


def test_jet_constant_term_is_value_at_base():
    bf = BaseFunction(gevrey(1), terms=10)
    base = (Fraction(2, 3), Fraction(-1, 4))
    jet = bf.jet(base, 3)
    assert jet.coefficient((0, 0)) == bf.value(*base, exact=True)


def axis_derivative(bf, order, t):
    """d^order/dx2^order of the truncated base at (t, 0): the sign times
    order! times the axis sum at the point 1 + t^2."""
    sign = -1 if (order // 2) % 2 else 1
    axis_sum = bf.axis_sum_interval(order, RInterval.exactly(1 + t**2))
    assert axis_sum.lo == axis_sum.hi
    return sign * math.factorial(order) * axis_sum.lo


def test_axis_second_derivative_closed_form():
    # d^2/dx2^2 of w/(1 + x1^2 + m^2 x2^2) at (t, 0) is -2 w m^2 / (1+t^2)^2
    bf = BaseFunction(gevrey(1), terms=10)
    for t in (Fraction(0), Fraction(1, 2)):
        a = 1 + t**2
        want = -2 * sum(
            closed_form_weight(k) * Fraction(k + 1) ** 2 / a**2 for k in range(1, 11)
        )
        assert axis_derivative(bf, 2, t) == want


def test_axis_derivative_matches_exact_jet():
    bf = BaseFunction(gevrey(1), terms=8)
    t = Fraction(1, 2)
    jet = bf.jet((t, Fraction(0)), 8)
    for order in (2, 4, 6, 8):
        assert axis_derivative(bf, order, t) == jet.coefficient((0, order)) * math.factorial(order)


def test_axis_odd_orders_vanish():
    # h is even in x2, so its odd pure-x2 derivatives vanish on the axis
    bf = BaseFunction(gevrey(1), terms=8)
    jet = bf.jet((Fraction(1, 3), Fraction(0)), 7)
    assert all(jet.coefficient((0, order)) == 0 for order in (1, 3, 5, 7))
    with pytest.raises(ValueError):
        base_lower_check(BaseFunction(gevrey(1), 40), [3])


def test_axis_truncation_bound_is_honest():
    coarse = BaseFunction(gevrey(1), terms=20)
    fine = BaseFunction(gevrey(1), terms=60)
    for order in (2, 4, 8):
        drop = math.factorial(order) * (fine.axis_moment(order) - coarse.axis_moment(order))
        assert 0 <= drop <= math.factorial(order) * coarse.axis_tail_exact(order)


def test_base_lower_rows():
    rows = base_lower_check(BaseFunction(gevrey(1), 40), [2, 4, 6, 8])
    assert [r.order for r in rows] == [2, 4, 6, 8]
    assert all(r.exact_ok and r.ok for r in rows)


def test_base_lower_rejects_bad_orders():
    with pytest.raises(ValueError):
        base_lower_check(BaseFunction(gevrey(1), 40), [3])
    with pytest.raises(ValueError):
        base_lower_check(BaseFunction(gevrey(1), 40), [0])
    with pytest.raises(ValueError):
        base_lower_check(BaseFunction(gevrey(1), 40), [42])
    with pytest.raises(ValueError):
        base_lower_check(BaseFunction(gevrey(1), 40), [])
    with pytest.raises(ValueError):
        block_lower_check(BaseFunction(gevrey(1), 40), [(Fraction(2), Fraction(1, 2))], [])


def test_base_upper_sweep():
    res = base_upper_check(BaseFunction(gevrey(1), 40), degree=4, points=6, seed=3)
    assert res.ok
    assert res.checked == 6 * 15
    assert res.max_log_ratio <= 0


def test_base_upper_other_family():
    res = base_upper_check(BaseFunction(analytic(), 40), degree=4, points=4)
    assert res.ok


def test_block_validation():
    bf = BaseFunction(gevrey(1), terms=6)
    Block(bf, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        Block(bf, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Block(bf, 2, 1)
    with pytest.raises(ValueError):
        Block(bf, 2, 0)


def test_block_value_is_rescaled_base():
    bf = BaseFunction(gevrey(1), terms=8)
    blk = Block(bf, 3, Fraction(1, 4))
    assert blk.center == (Fraction(3, 4), Fraction(0))
    x = (Fraction(1, 2), Fraction(-1, 3))
    want = bf.value(
        (x[0] - blk.center[0]) / blk.rho, x[1] / blk.rho, exact=True
    )
    assert blk.value(*x, exact=True) == want
    # the peak sits at the center
    assert blk.value(*blk.center, exact=True) == bf.value(0, 0, exact=True)


def test_block_jet_constant_term():
    bf = BaseFunction(gevrey(1), terms=8)
    blk = Block(bf, 2, Fraction(1, 3))
    base_pt = (Fraction(1), Fraction(1, 5))
    jet = blk.jet(base_pt, 3)
    assert jet.coefficient((0, 0)) == blk.value(*base_pt, exact=True)


def test_block_axis_derivative_rescales():
    bf = BaseFunction(gevrey(1), terms=8)
    blk = Block(bf, 2, Fraction(1, 3))
    c1 = blk.center[0]
    jet = blk.jet((c1, Fraction(0)), 4)
    for order in (2, 4):
        # at the center the block derivative is the base one over rho^order
        want = axis_derivative(bf, order, Fraction(0)) / blk.rho**order
        assert jet.coefficient((0, order)) * math.factorial(order) == want


def test_block_sweeps():
    geoms = [(Fraction(1), Fraction(1, 2)), (Fraction(4), Fraction(1, 8))]
    up = block_upper_check(BaseFunction(gevrey(1), 40), geoms, degree=4, points=4)
    assert up.ok
    low = block_lower_check(BaseFunction(gevrey(1), 40), geoms, [2, 4])
    assert all(r.exact_ok and r.ok for r in low)
    with pytest.raises(ValueError):
        block_lower_check(BaseFunction(gevrey(1), 40), geoms, [5])


def test_polar_block_jet_value_and_axis():
    bf = BaseFunction(gevrey(1), terms=8)
    blk = Block(bf, 2, Fraction(1, 4))
    r0 = Fraction(3, 4)
    polar = polar_block_jet(blk, (r0, Fraction(0)), 4)
    cart = blk.jet((r0, Fraction(0)), 4)
    assert polar.kind == cart.kind == EXACT
    # theta = 0 sends the radial line onto the x1 axis
    for k in range(5):
        assert polar.coefficient((k, 0)) == cart.coefficient((k, 0))


def test_polar_block_jet_float_constant():
    bf = BaseFunction(gevrey(1), terms=8)
    blk = Block(bf, 2, Fraction(1, 4))
    r0, th = 1.2, 0.7
    jet = polar_block_jet(blk, (r0, th), 3)
    want = blk.value(r0 * math.cos(th), r0 * math.sin(th))
    assert jet.coefficient((0, 0)) == pytest.approx(want, rel=1e-12)


def _per_term_sum(bf, y1, y2):
    """The kernel sum written out term by term, one reciprocal per bump."""
    total = Jet2.constant(0, y1.base, y1.degree)
    for k in bf.k_range:
        if y1.kind == EXACT:
            w, m = bf.weight_exact(k), bf.M.exact_ratio(k)
        else:
            w, m = math.exp(bf.weight_log(k)), math.exp(bf.M.log_ratio(k))
        total = total + (1 + y1 * y1 + (y2.scale(m)) ** 2).reciprocal().scale(w)
    return total


_FLOAT_PTS = {"": (0.37, 0.61), "x2zero-": (0.37, 0.0), "neg-": (-1.3, -0.45)}
_EXACT_PT = (Fraction(3, 4), Fraction(0))
_LOGPOW_E = "logpow:2.718281828459045"  # no exact weights: w_k, m_k from logs


# equality is exact: the kernel sum runs the bump index innermost but keeps
# every float operation of the per-term formula in the same order
@pytest.mark.parametrize(
    "family, terms, kind, pt, degree",
    [
        pytest.param("gevrey:1", 8, FLOAT, _FLOAT_PTS[""], 4, id="float-pt0"),
        pytest.param("gevrey:1", 8, EXACT, _EXACT_PT, 4, id="exact-pt1"),
        pytest.param("gevrey:1", 8, FLOAT, _FLOAT_PTS["x2zero-"], 4, id="float-x2zero-4"),
        *[
            pytest.param("gevrey:1", 8, FLOAT, pt, degree, id=f"float-{name}{degree}")
            for degree in (0, 1, 6, 8)
            for name, pt in _FLOAT_PTS.items()
        ],
        *[
            pytest.param("gevrey:1", 8, EXACT, _EXACT_PT, degree, id=f"exact-{degree}")
            for degree in (0, 1, 6, 8)
        ],
        *[
            pytest.param("gevrey:1", terms, kind, pt, 4, id=f"{kind}-terms{terms}")
            for terms in (MIN_TERMS, 60)
            for kind, pt in [(FLOAT, _FLOAT_PTS[""]), (EXACT, _EXACT_PT)]
        ],
        pytest.param(_LOGPOW_E, 24, FLOAT, _FLOAT_PTS[""], 6, id="logpow-float-6"),
        pytest.param(_LOGPOW_E, 24, FLOAT, _FLOAT_PTS["x2zero-"], 6, id="logpow-float-x2zero-6"),
    ],
)
def test_superposition_jets_match_per_term_formula(family, terms, kind, pt, degree):
    bf = BaseFunction(parse_family(family), terms=terms)
    blk = Block(bf, Fraction(3, 2), Fraction(1, 4))
    if kind == EXACT:
        inv_rho, q = 1 / blk.rho, blk.q
    else:
        inv_rho, q = 1 / float(blk.rho), float(blk.q)
    x1 = Jet2.variable(0, pt, degree)
    x2 = Jet2.variable(1, pt, degree)
    assert x1.kind == kind
    assert bf.jet(pt, degree) == _per_term_sum(bf, x1, x2)
    assert blk.jet(pt, degree) == _per_term_sum(
        bf, x1.scale(inv_rho) - q, x2.scale(inv_rho)
    )
    s, c = jet_sin_cos(x2)
    r1, r2 = x1 * c, x1 * s
    assert polar_block_jet(blk, pt, degree) == _per_term_sum(
        bf, r1.scale(inv_rho) - q, r2.scale(inv_rho)
    )


coords = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@given(
    st.data(),
    st.sampled_from(["cartesian", "block", "polar"]),
    st.sampled_from([FLOAT, EXACT]),
    st.integers(min_value=MIN_TERMS, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_kernel_sum_equals_per_term_sum(data, shape, kind, terms):
    degree = data.draw(st.integers(0, 6), label="degree")
    x1 = data.draw(coords, label="x1")
    # exact polar jets need base theta = 0
    x2 = Fraction(0) if kind == EXACT and shape == "polar" else data.draw(coords, label="x2")
    if kind == FLOAT:
        x1, x2 = float(x1), float(x2)
    bf = BaseFunction(gevrey(1), terms=terms)
    y1 = Jet2.variable(0, (x1, x2), degree)
    y2 = Jet2.variable(1, (x1, x2), degree)
    assert y1.kind == kind
    if shape == "polar":
        s, c = jet_sin_cos(y2)
        y1, y2 = y1 * c, y1 * s
    if shape != "cartesian":
        q = data.draw(st.fractions(min_value=1, max_value=4, max_denominator=8), label="q")
        rho = data.draw(
            st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16),
            label="rho",
        )
        inv_rho, q = (1 / rho, q) if kind == EXACT else (1 / float(rho), float(q))
        y1, y2 = y1.scale(inv_rho) - q, y2.scale(inv_rho)
    assert bf.kernel_sum(y1, y2) == _per_term_sum(bf, y1, y2)


def test_polar_block_sweep_and_normalization():
    res = polar_block_bound_check(
        BaseFunction(gevrey(1), 12), [(Fraction(1), Fraction(1, 2))], degree=3, radii=3, angles=2
    )
    assert res.ok
    assert res.empirical_constant > 0
    with pytest.raises(ValueError):
        polar_block_bound_check(
            BaseFunction(shift(gevrey(1), 2)), [(Fraction(1), Fraction(1, 2))]
        )


# -- axis sums pinned against the per-term loops they replaced ---------------

def _per_term_axis_interval(bf, order, one_plus_t2):
    """One interval product per bump term, summed term by term."""
    inv = (one_plus_t2 ** (order // 2 + 1)).reciprocal()
    total = RInterval.exactly(0)
    for k in bf.k_range:
        total = total + inv * (bf.weight_exact(k) * bf.M.exact_ratio(k) ** order)
    return total


def _per_term_axis_exact(bf, order, one_plus_t2):
    p = order // 2 + 1
    return sum(
        bf.weight_exact(k) * bf.M.exact_ratio(k) ** order / one_plus_t2**p
        for k in bf.k_range
    )


@pytest.mark.parametrize("order", range(2, 17))
@pytest.mark.parametrize(
    "one_plus_t2",
    [
        RInterval.exactly(Fraction(13, 9)),
        RInterval(Fraction(1), Fraction(1)),
        RInterval(Fraction(5, 4), Fraction(7, 3)),
    ],
)
def test_axis_sum_interval_matches_per_term_loop(order, one_plus_t2):
    bf = BaseFunction(gevrey(1), terms=24)
    got = bf.axis_sum_interval(order, one_plus_t2)
    want = _per_term_axis_interval(bf, order, one_plus_t2)
    assert (got.lo, got.hi) == (want.lo, want.hi)


@pytest.mark.parametrize("order", range(2, 17, 2))
def test_axis_derivatives_match_per_term_sum(order):
    bf = BaseFunction(gevrey(1), terms=24)
    sign = -1 if (order // 2) % 2 else 1
    for t in (Fraction(0), Fraction(2, 3), Fraction(-7, 5), Fraction(6, 5)):
        want = sign * math.factorial(order) * _per_term_axis_exact(bf, order, 1 + t**2)
        assert axis_derivative(bf, order, t) == want


# (order, log_lhs, log_rhs, exact_ok), frozen outputs of the certified checks
BASE_LOWER_ROWS = {
    "gevrey:1": [
        (2, 1.264768851456438, -6.661338147750939e-16, True),
        (4, 5.814631358356337, 3.5835189384561086, True),
        (6, 11.792444974986552, 8.999619340660534, True),
        (8, 18.919772967992003, 15.664028361010935, True),
    ],
    "logpow:e": [
        (2, 1.5091529403534663, 0.18522596008990067, None),
        (4, 5.492707992422939, 2.9830412981919143, None),
        (6, 10.494771954622356, 7.056060198516588, None),
    ],
}
BLOCK_LOWER_ROWS = {
    "gevrey:1": [
        (2, 2.651063212576446, 1.38629436111989, True),
        (4, 8.587220080596126, 6.35610766069589, True),
        (2, 5.423651934816235, 4.158883083359671, True),
        (4, 14.132397525075703, 11.901285105175452, True),
    ],
    "logpow:e": [
        (2, 2.895447301473357, 1.5715203212097912, None),
        (4, 8.26529671466272, 5.7556300204316955, None),
        (2, 5.668036023713138, 4.344109043449572, None),
        (4, 13.81047415914228, 11.300807464911257, None),
    ],
}
FAMILIES = {"gevrey:1": lambda: gevrey(1), "logpow:e": lambda: log_power(math.e)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lower_check_rows_frozen(family):
    M = FAMILIES[family]()
    orders = [r[0] for r in BASE_LOWER_ROWS[family]]
    rows = base_lower_check(BaseFunction(M, 40), orders)
    assert [(r.order, r.log_lhs, r.log_rhs, r.exact_ok) for r in rows] == BASE_LOWER_ROWS[family]
    assert all(r.ok for r in rows)
    geoms = [(Fraction(1), Fraction(1, 2)), (Fraction(4), Fraction(1, 8))]
    rows = block_lower_check(BaseFunction(M, 40), geoms, [2, 4])
    assert [(r.order, r.log_lhs, r.log_rhs, r.exact_ok) for r in rows] == BLOCK_LOWER_ROWS[family]
    assert all(r.ok for r in rows)


# logpow:e at (q, rho) = (5/2, 1/6), a centre off the dyadic grid: in floats
# q rho / rho - q is 4.4e-16, not 0, while the rows read the moment at the
# exact centre
OFF_DYADIC_LOWER_ROWS = [
    (2, 5.092671878809576, 3.768744898546011, None),
    (4, 12.659745869335158, 10.150079175104134, None),
    (6, 21.245328769990685, 17.806617013884917, None),
    (8, 30.567540378308472, 26.3032033447895, None),
]


def test_block_lower_rows_frozen_off_dyadic_centre():
    geoms = [(Fraction(5, 2), Fraction(1, 6))]
    rows = block_lower_check(BaseFunction(log_power(math.e), 40), geoms, [2, 4, 6, 8])
    assert [(r.order, r.log_lhs, r.log_rhs, r.exact_ok) for r in rows] == OFF_DYADIC_LOWER_ROWS
    assert all(r.ok for r in rows)


def test_float_lower_row_has_no_favourable_slack():
    # a float row passes on log_lhs >= log_rhs alone: 1e-13 below fails
    log_rhs = OFF_DYADIC_LOWER_ROWS[0][2]
    assert LowerBoundRow(2, log_rhs, log_rhs, None).ok
    assert not LowerBoundRow(2, log_rhs - 1e-13, log_rhs, None).ok
    # an exact row is decided by its exact verdict, not its logs
    assert not LowerBoundRow(2, log_rhs + 1.0, log_rhs, False).ok
