"""A ratio-step weight schedule separating two finite-order diagnostics.

The log-ratio sequence a_k takes the constant value log v_n on the block
lam_n < k <= lam_(n+1), where v_n = prod_{j<=n} (1 + 1/sqrt(j)). Constant
ratios on blocks make the sequence exactly log-convex, and v_n -> infinity
slowly enough that b_k = (M_{k+1}/M_k)^(1/k) stays below 4.

The boundary schedule has three parts:
  * a burst 100, 102, ..., 114, 200 whose tightly stepped levels push
    g_k = (M_k^2 / M_{2k})^(1/k) below 0.1 throughout the window
    [100, 114] while g = 1 exactly on the first block;
  * doubling pairs (mu_j, 2 mu_j) with mu_j = 2 * prev * 3^m and
    m = ceil(v^2 / log 3): each gap contributes about 1 to the running
    gap-certificate sum, which is what defeats the quasianalyticity-style
    summation term by term;
  * one closing boundary generated by the same gap rule.

Boundary values reach ~10^700000, so nothing here converts them to floats
or decimal strings: k-th-root quantities go through math.log on integers
(exact for the sizes involved to ~1e-15 relative), and reports give the
size of the last entry by its log10.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field

from .weights import WeightError, WeightSequence

LOG3 = math.log(3.0)
BURST = (0, 100, 102, 104, 106, 108, 110, 112, 114, 200)
WITNESS_WINDOW = tuple(range(100, 115, 2))
FLOAT_SAFE_BITS = 900  # beyond this the float paths refuse instead of overflowing
# thresholds of the five checks
LOG_CONVEX_SCAN_TO = 256  # direct ratio scan through the burst region
DIFF_CLOSED_BOUND = 4.0  # max_k b_k
GAP_SUM_MIN_FRACTION = 0.9  # gap-certificate sum per pair
STRICT_WINDOW_CUTOFF = 0.1  # g_k on the burst window
LEVEL_GROWTH_HORIZON = 512  # last n of the doubling ratio v(2n)/v(n)

_lv_cache = [0.0]


def log_v(n: int) -> float:
    """log of v_n = prod_{j<=n} (1 + 1/sqrt(j)), v_0 = 1."""
    if n < 0:
        raise ValueError("negative level index")
    while len(_lv_cache) <= n:
        j = len(_lv_cache)
        _lv_cache.append(_lv_cache[-1] + math.log(1 + 1 / math.sqrt(j)))
    return _lv_cache[n]


def v_sq(n: int) -> float:
    return math.exp(2 * log_v(n))


def build_schedule(pairs: int = 8) -> tuple[list[int], list[int], list[float]]:
    """(boundaries, doubled, gap_terms): the burst, pairs - 1 generated
    doubling pairs and the closing boundary. doubled lists the mu with both
    mu and 2 mu in the schedule; gap_terms holds m * log3 / v^2 at each
    generated append decision."""
    if pairs < 2:
        raise ValueError("need at least 2 pairs (the burst plus one generated)")
    lam = list(BURST)
    doubled = [100]
    gap_terms = []
    for j in range(2, pairs + 2):
        pos = len(lam) - 1
        m = math.ceil(v_sq(pos) / LOG3)
        gap_terms.append(m * LOG3 / v_sq(pos))
        mu = 2 * lam[-1] * 3**m
        lam.append(mu)
        if j <= pairs:  # the last pass appends the closing boundary alone
            lam.append(2 * mu)
            doubled.append(mu)
    return lam, doubled, gap_terms


class CounterexampleSequence:
    def __init__(self, pairs: int = 8):
        t0 = time.perf_counter()
        self.pairs = pairs
        self.boundaries, self.doubled, self.gap_terms = build_schedule(pairs)
        lam = self.boundaries
        # levels[i] rules (lam[i], lam[i+1]]; the last rules the tail
        self.levels = [log_v(n) for n in range(len(lam))]
        self.build_seconds = time.perf_counter() - t0
        # float prefix of log M at boundaries, only while it fits a float
        self._prefix: list[float] = [0.0]
        for i in range(len(lam) - 1):
            if lam[i + 1].bit_length() > FLOAT_SAFE_BITS:
                break
            self._prefix.append(self._prefix[-1] + (lam[i + 1] - lam[i]) * self.levels[i])

    @property
    def last_digits(self) -> float:
        return self.boundaries[-1].bit_length() * math.log10(2)

    def block_index(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be positive")
        i = bisect.bisect_left(self.boundaries, k) - 1
        return min(i, len(self.boundaries) - 1)

    def level(self, k: int) -> float:
        """a_k, the log-ratio in force at index k."""
        return self.levels[self.block_index(k)]

    def log_weight(self, k: int) -> float:
        """log M_k on the float-safe range; big indices must use root_log."""
        if k == 0:
            return 0.0
        if k.bit_length() > FLOAT_SAFE_BITS:
            raise WeightError("index too large for the float log-weight path")
        lam = self.boundaries
        i = self.block_index(k)
        if i >= len(self._prefix):
            raise WeightError("index beyond the float-safe prefix")
        return self._prefix[i] + (k - lam[i]) * self.levels[i]

    def root_log(self, k: int) -> float:
        """log of M_k^(1/k); safe for boundary-sized integers."""
        if k < 1:
            raise ValueError("index must be positive")
        lam = self.boundaries
        lk = math.log(k)  # math.log takes arbitrary ints without overflow
        terms = []
        for i in range(len(lam) - 1):
            if lam[i] >= k:
                break
            gap = min(lam[i + 1], k) - lam[i]
            if gap > 0 and self.levels[i] != 0.0:
                terms.append(math.exp(math.log(gap) - lk) * self.levels[i])
        if k > lam[-1]:
            terms.append(math.exp(math.log(k - lam[-1]) - lk) * self.levels[-1])
        return math.fsum(terms)

    def g(self, k: int) -> float:
        """g_k = (M_k^2 / M_{2k})^(1/k), via k-th roots."""
        return math.exp(2 * (self.root_log(k) - self.root_log(2 * k)))

    def b(self, k: int) -> float:
        """(M_{k+1}/M_k)^(1/k), computed without converting k to float."""
        lv = self.level(k + 1)
        if lv == 0.0:
            return 1.0
        return math.exp(math.exp(math.log(lv) - math.log(k)))

    @functools.cached_property
    def weights(self) -> WeightSequence:
        return WeightSequence(f"counterexample:{self.pairs}", self.log_weight, validate_on_init=8)


@functools.lru_cache(maxsize=4)
def counterexample_sequence(pairs: int = 8) -> CounterexampleSequence:
    return CounterexampleSequence(pairs)


# -- verification ------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)


def verify_log_convex(seq: CounterexampleSequence) -> CheckReport:
    """Levels nondecreasing (so ratios are nondecreasing everywhere), plus a
    direct ratio scan through the burst region via the adapter."""
    lv = seq.levels
    monotone = all(lv[i + 1] >= lv[i] for i in range(len(lv) - 1))
    ok = monotone
    try:
        seq.weights.validate(LOG_CONVEX_SCAN_TO)
    except WeightError:
        ok = False
    return CheckReport(
        "log-convexity",
        ok,
        {"levels_monotone": monotone, "scan_to": LOG_CONVEX_SCAN_TO},
    )


def verify_diff_closed(seq: CounterexampleSequence) -> CheckReport:
    """max_k b_k <= DIFF_CLOSED_BOUND. Within a block the level is constant and 1/k
    decreases, so the maximum is attained where a block begins; scanning the
    boundary set covers every candidate."""
    best, best_at = 1.0, 1
    for i in range(1, len(seq.boundaries)):
        k = seq.boundaries[i]
        b = seq.b(k)
        if b > best:
            best, best_at = b, k if k.bit_length() < 64 else -i
    return CheckReport(
        "difference-closedness",
        best <= DIFF_CLOSED_BOUND,
        {"max_b": best, "argmax": best_at, "bound": DIFF_CLOSED_BOUND},
    )


def verify_gap_sums(seq: CounterexampleSequence) -> CheckReport:
    """Each generated gap certifies about one unit; the total must reach
    GAP_SUM_MIN_FRACTION per pair. Also the k-th root level never exceeds the step
    level at the doubled elements and their doubles."""
    total = math.fsum(seq.gap_terms)
    target = GAP_SUM_MIN_FRACTION * seq.pairs
    dyadics_ok = all(
        seq.root_log(k) <= seq.level(k) + 1e-12
        for mu in seq.doubled
        for k in (mu, 2 * mu)
    )
    return CheckReport(
        "gap-sums",
        total >= target and dyadics_ok,
        {
            "sum": total,
            "target": target,
            "terms": list(seq.gap_terms),
            "dyadic_root_le_step": dyadics_ok,
        },
    )


def verify_strict_window(seq: CounterexampleSequence) -> CheckReport:
    """g = 1 exactly on the first block, g <= STRICT_WINDOW_CUTOFF on the
    whole burst window, and the doubled elements keep g strictly below 1.
    The two g computations (k-th roots vs direct log-weights) must agree to
    1e-12 wherever the float path is defined."""
    g_first = seq.g(1)
    window = {k: seq.g(k) for k in WITNESS_WINDOW}
    window_ok = all(v <= STRICT_WINDOW_CUTOFF for v in window.values())
    g_min_at = min(window, key=window.get)
    pair_g = [seq.g(mu) for mu in seq.doubled]
    pair_ok = all(v < 0.9 for v in pair_g)
    dual_ok = True
    for k in (1, 2, 50) + WITNESS_WINDOW:
        direct = math.exp((2 * seq.log_weight(k) - seq.log_weight(2 * k)) / k)
        if abs(direct - seq.g(k)) > 1e-12 * max(1.0, direct):
            dual_ok = False
    return CheckReport(
        "strict-gap-window",
        g_first == 1.0 and window_ok and pair_ok and dual_ok,
        {
            "g_at_1": g_first,
            "window": {str(k): v for k, v in window.items()},
            "g_min": window[g_min_at],
            "g_min_at": g_min_at,
            "pair_g_max": max(pair_g),
            "dual_path_ok": dual_ok,
        },
    )


def verify_level_growth(seq: CounterexampleSequence) -> CheckReport:
    """Pin down which ratio of the level scale v actually grows.

    The one-step ratio v_{n+1}/v_n = 1 + 1/sqrt(n+1) is decreasing with
    limit 1; it is only the doubling ratio v_{2n}/v_n that increases without
    bound, and that is the quantity the gap argument leans on. Both
    directions are checked numerically and recorded so the report states
    the behaviour explicitly instead of leaving it implied.
    """
    steps = [math.exp(log_v(n + 1) - log_v(n)) for n in range(1, 41)]
    one_step_decreasing = all(a > b for a, b in zip(steps, steps[1:]))
    ns, doubles = [], []
    n = 1
    while n <= LEVEL_GROWTH_HORIZON:
        ns.append(n)
        doubles.append(math.exp(log_v(2 * n) - log_v(n)))
        n *= 2
    doubling_increasing = all(a < b for a, b in zip(doubles, doubles[1:]))
    doubling_large = doubles[-1] > 100.0
    return CheckReport(
        "level-growth-direction",
        one_step_decreasing and doubling_increasing and doubling_large,
        {
            "one_step_ratio_decreasing_to_1": one_step_decreasing,
            "one_step_first_last": (steps[0], steps[-1]),
            "doubling_ratio_increasing": doubling_increasing,
            "doubling_at": {str(n): d for n, d in zip(ns, doubles)},
            "note": (
                "only the doubling ratio v(2n)/v(n) grows without bound; "
                "the one-step ratio decreases to 1"
            ),
        },
    )


def full_verification(pairs: int = 8) -> list[CheckReport]:
    """The five checks on the cached sequence, in report order."""
    seq = counterexample_sequence(pairs)
    return [
        verify_log_convex(seq),
        verify_diff_closed(seq),
        verify_gap_sums(seq),
        verify_strict_window(seq),
        verify_level_growth(seq),
    ]
