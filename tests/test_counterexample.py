"""Tests for the ratio-step schedule and its verification battery.

The frozen numbers (max b, min g, gap sum, entry digits) are pinned outputs
of the builder at pairs=8; any drift in the schedule rule shows up here.
"""

import math

import pytest

from carleman.counterexample import (
    BURST,
    WITNESS_WINDOW,
    build_schedule,
    counterexample_sequence,
    full_verification,
    log_v,
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
    assert len(seq.boundaries) == 25
    assert seq.boundaries[:10] == list(BURST)
    assert len(seq.doubled) == 8
    assert seq.doubled[0] == 100
    bs = seq.boundaries
    assert all(a < b for a, b in zip(bs, bs[1:]))
    # each generated pair really doubles
    for mu in seq.doubled:
        assert 2 * mu in bs or mu == 100  # 100's partner 200 closes the burst
    assert 200 in bs


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
    assert rep.details["pair_g_max"] == pytest.approx(0.8242659153930372, rel=1e-9)


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
    for mu in seq.doubled:
        for k in (mu, 2 * mu):
            assert seq.root_log(k) <= seq.level(k) + 1e-12


def test_float_paths_refuse_huge_indices(seq):
    with pytest.raises(WeightError):
        seq.log_weight(2**901)
    # but the root route handles boundary-sized integers
    assert math.isfinite(seq.root_log(seq.boundaries[-1]))


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
