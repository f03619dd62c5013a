"""Tests for the ratio-step schedule and its verification battery.

The frozen numbers (max b, min g, gap sum, entry digits) are pinned outputs
of the builder at pairs=8; any drift in the schedule rule shows up here.
The schedule is held in power form and its boundary reads come from the
exponents, so a test-local copy of the exact-int builder is kept as their
oracle, with each k-th root log summed from exact gap ratios.
"""

import bisect
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import carleman.counterexample as ce
from carleman import cli
from carleman.counterexample import (
    BURST,
    FLOAT_SAFE_BITS,
    LOG3,
    MAX_PAIRS,
    WITNESS_WINDOW,
    CounterexampleSequence,
    build_schedule,
    counterexample_sequence,
    full_verification,
    log_v,
    v_sq,
    verify_diff_closed,
    verify_gap_sums,
    verify_level_growth,
    verify_log_convex,
    verify_strict_window,
)
from carleman.weights import WeightError


@pytest.fixture(scope="module")
def seq():
    return counterexample_sequence(8)


def test_schedule_shape(seq):
    bs = [ce._form(*p) for p in seq.powers]
    assert len(bs) == 25
    assert bs[:10] == list(BURST)
    assert len(seq.doubled_at) == 8
    assert seq.doubled_at[0] == (1, 9)  # 100's partner 200 closes the burst
    assert all(a < b for a, b in zip(bs, bs[1:]))
    # each pair really doubles
    assert all(2 * bs[i] == bs[j] for i, j in seq.doubled_at)
    # past the burst every boundary is beyond the int API's range
    assert bs[len(BURST)].bit_length() > 2400 > FLOAT_SAFE_BITS


def test_levels_monotone(seq):
    lv = seq.levels
    assert lv[0] == 0.0
    assert all(a <= b for a, b in zip(lv, lv[1:]))
    assert lv[1] == pytest.approx(math.log(2), rel=1e-15)


def test_log_v_values():
    assert log_v(0) == 0.0
    assert log_v(1) == pytest.approx(math.log(2), rel=1e-15)
    assert log_v(2) == pytest.approx(math.log(2) + math.log(1 + 1 / math.sqrt(2)), rel=1e-15)
    with pytest.raises(ValueError):
        log_v(-1)


def test_level_lookup(seq):
    assert seq.level(1) == 0.0
    assert seq.level(100) == 0.0  # levels rule half-open blocks from the right
    assert seq.level(101) == pytest.approx(math.log(2), rel=1e-15)
    with pytest.raises(ValueError):
        seq.level(0)


def test_last_entry_size(seq):
    assert seq.last_digits == pytest.approx(714262.2995518068, rel=1e-9)


def test_b_stays_below_four(seq):
    rep = verify_diff_closed(seq)
    assert rep.ok
    assert rep.details["max_b"] == pytest.approx(1.0304950838638058, rel=1e-9)
    assert rep.details["argmax"] == 114
    # inside the first block the ratio is 1, so b = 1 exactly
    assert seq.b(50) == 1.0


def test_gap_ratio_frozen_values(seq):
    assert seq.g(1) == 1.0
    assert seq.g(2) == 1.0
    rep = verify_strict_window(seq)
    assert rep.ok
    assert rep.details["g_min"] == pytest.approx(0.03585936805839124, rel=1e-9)
    assert rep.details["g_min_at"] == 106
    assert all(seq.g(k) <= 0.1 for k in WITNESS_WINDOW)
    # the exact oracle's value (below), which a 60-digit Decimal sum confirms
    assert rep.details["pair_g_max"] == pytest.approx(0.8242659161988843, rel=1e-14)


def test_gap_sum_frozen(seq):
    rep = verify_gap_sums(seq)
    assert rep.ok
    assert len(rep.details["terms"]) == 8
    assert rep.details["sum"] == pytest.approx(8.000300300310277, rel=1e-9)
    # every generated gap certifies just over one unit
    assert all(1.0 <= t < 1.1 for t in rep.details["terms"])


def test_root_log_dual_path(seq):
    # k-th root route vs direct log-weight route on the float-safe range
    for k in (150, 200, 500, 5000):
        assert seq.root_log(k) == pytest.approx(seq.log_weight(k) / k, rel=1e-12)
    assert seq.root_log(57) == 0.0  # M_k = 1 through the first block


def test_root_never_exceeds_step(seq):
    for pair in seq.doubled_at:
        for i in pair:
            assert seq.root_log_at(i) <= seq.level_at(i) + 1e-12


def test_float_paths_refuse_huge_indices(seq):
    for read in (seq.log_weight, seq.level, seq.root_log, seq.g, seq.b):
        with pytest.raises(WeightError):
            read(2**901)
    # boundary-sized indices are read by boundary index
    assert math.isfinite(seq.root_log_at(len(seq.powers) - 1))


def test_weights_adapter(seq):
    M = seq.weights
    assert M.name == "counterexample:8"
    for k in (1, 7, 100, 150, 1000):
        assert M.log_weight(k) == seq.log_weight(k)
    M.validate(256)
    assert not M.has_exact


def test_log_convexity_check(seq):
    assert verify_log_convex(seq).ok


def test_level_growth_direction(seq):
    rep = verify_level_growth(seq)
    assert rep.ok
    first, last = rep.details["one_step_first_last"]
    assert first > last > 1.0
    assert rep.details["doubling_ratio_increasing"]
    assert "one-step ratio decreases to 1" in rep.details["note"]


def test_full_verification_envelope():
    checks = full_verification(8)
    assert [c.name for c in checks] == [
        "log-convexity",
        "difference-closedness",
        "gap-sums",
        "strict-gap-window",
        "level-growth-direction",
    ]
    assert all(c.ok for c in checks)


def test_schedule_needs_two_pairs():
    with pytest.raises(ValueError):
        build_schedule(1)


def test_builder_is_cached():
    assert counterexample_sequence(8) is counterexample_sequence(8)


# -- the exact-int oracle ----------------------------------------------------

def exact_schedule(pairs):
    """The schedule as exact ints, 3**m and all: the builder the power form
    replaced, kept here as its oracle."""
    lam = list(BURST)
    doubled = [100]
    gap_terms = []
    for j in range(2, pairs + 2):
        pos = len(lam) - 1
        m = math.ceil(v_sq(pos) / LOG3)
        gap_terms.append(m * LOG3 / v_sq(pos))
        mu = 2 * lam[-1] * 3**m
        lam.append(mu)
        if j <= pairs:
            lam.append(2 * mu)
            doubled.append(mu)
    return lam, doubled, gap_terms


class ExactOracle:
    """root_log, b, g and level on the exact ints: each root log sums the
    correctly rounded gap ratios gap/k, with no log of a boundary's size."""

    def __init__(self, pairs):
        self.lam, self.doubled, self.gap_terms = exact_schedule(pairs)
        self.levels = [log_v(n) for n in range(len(self.lam))]

    def level(self, k):
        i = bisect.bisect_left(self.lam, k) - 1
        return self.levels[min(i, len(self.lam) - 1)]

    def root_log(self, k):
        lam = self.lam
        gaps = [min(hi, k) - lo for lo, hi in zip(lam, lam[1:]) if lo < k]
        if k > lam[-1]:
            gaps.append(k - lam[-1])
        # int true division rounds correctly, to float(Fraction(gap, k)),
        # without the gcd of two boundary-sized ints
        return math.fsum(gap / k * lv for gap, lv in zip(gaps, self.levels))

    def g(self, k):
        return math.exp(2 * (self.root_log(k) - self.root_log(2 * k)))

    def b(self, k):
        lv = self.level(k + 1)
        if lv == 0.0:
            return 1.0
        return math.exp(math.exp(math.log(lv) - math.log(k)))


ORACLE_PAIRS = range(2, 9)


@pytest.fixture(scope="module")
def oracles():
    return {pairs: ExactOracle(pairs) for pairs in ORACLE_PAIRS}


@pytest.mark.parametrize("pairs", ORACLE_PAIRS)
def test_power_form_matches_the_exact_schedule(pairs, oracles):
    o = oracles[pairs]
    seq = CounterexampleSequence(pairs)
    assert [ce._form(*p) for p in seq.powers] == o.lam
    assert [o.lam[i] for i, _ in seq.doubled_at] == o.doubled
    assert all(2 * o.lam[i] == o.lam[j] for i, j in seq.doubled_at)
    assert seq.gap_terms == o.gap_terms
    assert seq.last_digits == o.lam[-1].bit_length() * math.log10(2)


@pytest.mark.parametrize("pairs", ORACLE_PAIRS)
def test_reads_at_boundaries_and_doubles_match_the_oracle(pairs, oracles):
    o = oracles[pairs]
    seq = CounterexampleSequence(pairs)
    for i, lam in enumerate(o.lam[1:], 1):
        assert seq.root_log_at(i) == pytest.approx(o.root_log(lam), rel=1e-14)
        assert seq.level_at(i) == o.level(lam)
        assert seq.b_at(i) == o.b(lam)
    for lam in BURST[1:]:  # the int API's boundaries
        for k in (lam, 2 * lam):
            assert seq.root_log(k) == pytest.approx(o.root_log(k), rel=1e-14)
            assert seq.g(k) == pytest.approx(o.g(k), rel=1e-14)
            assert seq.b(k) == o.b(k)
            assert seq.level(k) == o.level(k)
    for i, j in seq.doubled_at:
        assert seq.g_at(i, j) == pytest.approx(o.g(o.lam[i]), rel=1e-14)


def oracle_details(o, checks):
    """The schedule-dependent details of the battery, computed on the exact
    ints as the int-list battery did."""
    best, best_at = 1.0, 1
    for i in range(1, len(o.lam)):
        k = o.lam[i]
        b = o.b(k)
        if b > best:
            best, best_at = b, k if k.bit_length() < 64 else -i
    window = {str(k): o.g(k) for k in WITNESS_WINDOW}
    g_min_at = min(WITNESS_WINDOW, key=o.g)
    return {
        "difference-closedness": {**checks["difference-closedness"], "max_b": best, "argmax": best_at},
        "gap-sums": {
            **checks["gap-sums"],
            "sum": math.fsum(o.gap_terms),
            "terms": list(o.gap_terms),
            "dyadic_root_le_step": all(
                o.root_log(k) <= o.level(k) + 1e-12 for mu in o.doubled for k in (mu, 2 * mu)
            ),
        },
        "strict-gap-window": {
            **checks["strict-gap-window"],
            "g_at_1": o.g(1),
            "window": window,
            "g_min": window[str(g_min_at)],
            "g_min_at": g_min_at,
            "pair_g_max": max(o.g(mu) for mu in o.doubled),
        },
    }


@pytest.mark.parametrize("pairs", ORACLE_PAIRS)
def test_every_verification_detail_matches_the_oracle(pairs, oracles):
    checks = {c.name: c.details for c in full_verification(pairs)}
    for name, expected in oracle_details(oracles[pairs], checks).items():
        got = dict(checks[name])
        # the g values sum rounded gap ratios two ways, so they agree to 1e-14
        for key in ("window", "g_min", "pair_g_max"):
            if key in expected:
                assert got.pop(key) == pytest.approx(expected.pop(key), rel=1e-14), (name, key)
        assert got == expected, name


@given(st.integers(1, 10**6), st.integers(0, 5000), st.integers(0, 5000))
@settings(max_examples=200, deadline=None)
def test_bracketed_bit_length_matches_the_formed_int(c, a, s):
    assert ce._bits(c, a, s) == (c * 3**s << a).bit_length()


coefficient = st.integers(100, 200)  # the c of every boundary past 0
power = st.tuples(coefficient, st.integers(0, 5000), st.integers(0, 5000))


@given(power, coefficient, st.integers(0, 5), st.integers(0, 5000), power)
@settings(max_examples=200, deadline=None)
def test_gap_term_log_matches_the_fraction(low, ch, da, ds, top):
    """log((high - low) / top) from exponent differences, for a high that
    steps up from low as the schedule's boundaries do."""
    (c, a, s), (ct, at, st_) = low, top
    high = (ch, a + da, s + ds)
    assume(ch >= c and high != low)
    ratio = Fraction(ce._form(*high) - ce._form(*low), ce._form(*top))
    with localcontext() as ctx:
        ctx.prec = 50
        want = float(Decimal(ratio.numerator).ln() - Decimal(ratio.denominator).ln())
    # each exponent part is rounded once; log(high/top)'s parts may cancel
    parts = abs(math.log(ch / ct)) + abs(a + da - at) * math.log(2) + abs(s + ds - st_) * LOG3
    assert abs(ce._gap_term_log(low, high, top) - want) <= 2e-15 * (1 + parts + abs(want))


def test_no_boundary_past_the_float_safe_range_is_formed(monkeypatch, tmp_path):
    form = ce._form

    def guarded(c, a, s):
        n = form(c, a, s)
        assert n.bit_length() <= FLOAT_SAFE_BITS, f"formed a {n.bit_length()}-bit boundary"
        return n

    monkeypatch.setattr(ce, "_form", guarded)
    counterexample_sequence.cache_clear()
    try:
        assert all(c.ok for c in full_verification(8))
        counterexample_sequence.cache_clear()
        assert cli.main(["counterexample", "--pairs", "8", "--out", str(tmp_path)]) == 0
    finally:
        counterexample_sequence.cache_clear()


# pairs: (last_entry_digits, gap sum, pair_g_max); the digits and the gap
# sum from the exact-int builder, pair_g_max as computed
PAST_PAIRS_8 = {
    10: (3193772.019427091, 10.000300642924689, 0.8360392194562896),
    11: (6497642.448438331, 11.000300656404354, 0.8410554584396599),
    12: (12926787.628573293, 12.000300697571339, 0.8456129112051147),
}
# max_pairs g from a 60-digit Decimal sum over the exact powers of 2 and 3
# in each gap ratio, the float levels taken as given
PAIR_G_REFERENCE = {10: 0.8360392194562888, 11: 0.8410554584396599, 12: 0.8456129112051147}


@pytest.mark.parametrize("pairs", sorted(PAST_PAIRS_8))
def test_pins_past_eight_pairs(pairs):
    digits, gap_sum, pair_g_max = PAST_PAIRS_8[pairs]
    checks = {c.name: c for c in full_verification(pairs)}
    assert all(c.ok for c in checks.values())
    assert counterexample_sequence(pairs).last_digits == digits
    assert checks["gap-sums"].details["sum"] == gap_sum
    assert checks["strict-gap-window"].details["pair_g_max"] == pair_g_max
    assert pair_g_max == pytest.approx(PAIR_G_REFERENCE[pairs], rel=1e-14)


def test_pairs_past_the_tested_range_are_refused():
    assert len(build_schedule(MAX_PAIRS)[0]) == len(BURST) + 2 * MAX_PAIRS - 1
    for pairs in (MAX_PAIRS + 1, 20000):
        with pytest.raises(WeightError, match="at most 12 pairs"):
            build_schedule(pairs)
