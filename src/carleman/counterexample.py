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

Boundary values reach ~10^714000 at 8 pairs and about twice as many digits
with each further pair, so every boundary is held in power form c 2^a 3^s:
the burst's entries as they are, and each generated boundary as 200 2^a 3^s,
since each generated step multiplies by 2 3^m or by 2. The verification
battery reads each boundary index from these exponents: a ratio
lam_p/lam_q has the log log(c_p/c_q) + (a_p - a_q) log 2 + (s_p - s_q) log 3,
so the k-th root log at a boundary sums terms gap/lam whose logs are small
differences, and no log of a boundary's size enters it. Only the size of
the last entry is read from a bracket (`intervals`).

The int API (`level`, `log_weight`, `root_log`, `b`, `g`) takes indices k
of at most FLOAT_SAFE_BITS bits and refuses larger ones. Every generated
boundary has more than 2400 bits, so below that size every boundary is a
burst entry, and no boundary is formed as an int.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import time
from dataclasses import dataclass, field

from .intervals import _power_bracket
from .weights import WeightError, WeightSequence

Power = tuple[int, int, int]  # (c, a, s) for the boundary c 2^a 3^s
LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
# the largest pair count whose values are tested: against the exact ints to
# 8 pairs and against 60-digit references at 10 and 12. The last entry's bit
# length comes from a fixed 128-bit bracket of 3^s, which has no widening
# past 32-bit exponents; s is 27 million at 12 pairs and passes 2^32 at 21,
# where the bracket's exact fallback would form an int of billions of bits
MAX_PAIRS = 12
BURST = (0, 100, 102, 104, 106, 108, 110, 112, 114, 200)
WITNESS_WINDOW = tuple(range(100, 115, 2))
FLOAT_SAFE_BITS = 900  # the int API refuses larger indices
# thresholds of the five checks
LOG_CONVEX_SCAN_TO = 256  # direct ratio scan through the burst region
DIFF_CLOSED_BOUND = 4.0  # max_k b_k
GAP_SUM_MIN_FRACTION = 0.9  # gap-certificate sum per pair
STRICT_WINDOW_CUTOFF = 0.1  # g_k on the burst window
PAIR_G_CUTOFF = 0.9  # g at every doubled pair, strictly below
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


def _form(c: int, a: int, s: int) -> int:
    """c 2^a 3^s as an int: the one place a boundary is formed."""
    return c * 3**s << a


def _bits(c: int, a: int, s: int) -> int:
    """int.bit_length of c 2^a 3^s for c >= 1, from a bracket of 3^s; the
    int is formed only if the bracket's ends differ in length."""
    lo, hi, t = _power_bracket(3, s)
    lo, hi = lo * c, hi * c
    if lo.bit_length() != hi.bit_length():
        return _form(c, a, s).bit_length()
    return lo.bit_length() + t + a


def _log_ratio(p: Power, q: Power) -> float:
    """log(lam_p / lam_q) for power forms p = (c, a, s) and q with c_p/c_q
    in [1/2, 2], as every c is 100 to 200: there log1p keeps log(c_p/c_q)
    to full relative precision."""
    return math.log1p((p[0] - q[0]) / q[0]) + (p[1] - q[1]) * LOG2 + (p[2] - q[2]) * LOG3


def _gap_term_log(low: Power, high: Power, top: Power) -> float:
    """log((high - low) / top) for power forms low < high: log(high/top) plus
    log1p(-low/high), the latter taken as log(-expm1(log(low/high)))."""
    return _log_ratio(high, top) + math.log(-math.expm1(_log_ratio(low, high)))


def _b(level: float, log_k: float) -> float:
    """(M_{k+1}/M_k)^(1/k) from the level in force at k + 1 and log k."""
    if level == 0.0:
        return 1.0
    return math.exp(math.exp(math.log(level) - log_k))


def build_schedule(
    pairs: int = 8,
) -> tuple[list[Power], list[tuple[int, int]], list[float]]:
    """(powers, doubled_at, gap_terms): the burst, pairs - 1 generated
    doubling pairs and the closing boundary, each boundary lam_i as its power
    form (c, a, s), lam_i = c 2^a 3^s. doubled_at lists the index pairs (i, j)
    with lam_j = 2 lam_i; gap_terms holds m * log3 / v^2 at each generated
    append decision. More than MAX_PAIRS pairs raise WeightError."""
    if pairs < 2:
        raise ValueError("need at least 2 pairs (the burst plus one generated)")
    if pairs > MAX_PAIRS:
        raise WeightError(
            f"counterexample:{pairs}: at most {MAX_PAIRS} pairs, the range whose "
            "values are tested"
        )
    powers = [(n, 0, 0) for n in BURST]
    doubled_at = [(1, len(BURST) - 1)]  # 100 and the 200 that closes the burst
    gap_terms = []
    for j in range(2, pairs + 2):
        pos = len(powers) - 1
        m = math.ceil(v_sq(pos) / LOG3)
        gap_terms.append(m * LOG3 / v_sq(pos))
        c, a, s = powers[-1]
        powers.append((c, a + 1, s + m))  # mu = 2 * lam[-1] * 3^m
        if j <= pairs:  # the last pass appends the closing boundary alone
            powers.append((c, a + 2, s + m))
            doubled_at.append((pos + 1, pos + 2))
    return powers, doubled_at, gap_terms


class CounterexampleSequence:
    """The schedule in power form (`powers`), its levels and the index pairs
    of its doubled elements (`doubled_at`). Boundary reads (`*_at`) come
    from the exponents; the int API covers the burst (see the module
    docstring)."""

    def __init__(self, pairs: int = 8):
        t0 = time.perf_counter()
        self.pairs = pairs
        self.powers, self.doubled_at, self.gap_terms = build_schedule(pairs)
        # levels[i] rules (lam[i], lam[i+1]]; the last rules the tail
        self.levels = [log_v(n) for n in range(len(self.powers))]
        self.last_digits = _bits(*self.powers[-1]) * math.log10(2)
        self.build_seconds = time.perf_counter() - t0
        # float prefix of log M at the burst's entries
        steps = [(hi - lo) * lv for lo, hi, lv in zip(BURST, BURST[1:], self.levels)]
        self._prefix = list(itertools.accumulate(steps, initial=0.0))

    def block_index(self, k: int) -> int:
        """The i with lam_i < k <= lam_(i+1), for 1 <= k < 2^FLOAT_SAFE_BITS."""
        if k < 1:
            raise ValueError("index must be positive")
        if k.bit_length() > FLOAT_SAFE_BITS:
            raise WeightError(f"index of more than {FLOAT_SAFE_BITS} bits")
        return bisect.bisect_left(BURST, k) - 1

    def level(self, k: int) -> float:
        """a_k, the log-ratio in force at index k."""
        return self.levels[self.block_index(k)]

    def level_at(self, i: int) -> float:
        """level(lam_i) for a boundary index i >= 1."""
        return self.levels[i - 1]

    def log_weight(self, k: int) -> float:
        """log M_k for k in the int API's range."""
        if k == 0:
            return 0.0
        i = self.block_index(k)
        return self._prefix[i] + (k - BURST[i]) * self.levels[i]

    def root_log(self, k: int) -> float:
        """log of M_k^(1/k): the full gaps below lam_i, then k - lam_i."""
        i = self.block_index(k)
        gaps = [hi - lo for lo, hi in zip(BURST, BURST[1 : i + 1])] + [k - BURST[i]]
        log_k = math.log(k)
        return math.fsum(math.exp(math.log(gap) - log_k) * lv for gap, lv in zip(gaps, self.levels))

    def root_log_at(self, j: int) -> float:
        """root_log(lam_j) for a boundary index j >= 1: each gap below lam_j
        over lam_j, from the exponents (lv[0] = 0 skips lam_0 = 0)."""
        p, lv = self.powers, self.levels
        return math.fsum(math.exp(_gap_term_log(p[i], p[i + 1], p[j])) * lv[i] for i in range(1, j))

    def g(self, k: int) -> float:
        """g_k = (M_k^2 / M_{2k})^(1/k), via k-th roots."""
        return math.exp(2 * (self.root_log(k) - self.root_log(2 * k)))

    def g_at(self, i: int, j: int) -> float:
        """g(lam_i) for boundary indices with lam_j = 2 lam_i."""
        return math.exp(2 * (self.root_log_at(i) - self.root_log_at(j)))

    def b(self, k: int) -> float:
        """(M_{k+1}/M_k)^(1/k), computed without converting k to float."""
        return _b(self.level(k + 1), math.log(k))

    def b_at(self, i: int) -> float:
        """b(lam_i) for a boundary index i >= 1: levels[i] rules lam_i + 1.
        A burst entry's log is math.log(c) exactly; a generated one's makes
        b round to 1."""
        c, a, s = self.powers[i]
        return _b(self.levels[i], math.log(c) + a * LOG2 + s * LOG3)

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
    for i in range(1, len(seq.powers)):
        b = seq.b_at(i)
        if b > best:
            best, best_at = b, BURST[i] if i < len(BURST) else -i
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
        seq.root_log_at(i) <= seq.level_at(i) + 1e-12
        for pair in seq.doubled_at
        for i in pair
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
    whole burst window, and g < PAIR_G_CUTOFF at every doubled pair.
    The two g computations (k-th roots vs direct log-weights) must agree to
    1e-12 wherever the float path is defined."""
    g_first = seq.g(1)
    window = {k: seq.g(k) for k in WITNESS_WINDOW}
    window_ok = all(v <= STRICT_WINDOW_CUTOFF for v in window.values())
    g_min_at = min(window, key=window.get)
    pair_g = [seq.g_at(i, j) for i, j in seq.doubled_at]
    pair_ok = all(v < PAIR_G_CUTOFF for v in pair_g)
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
