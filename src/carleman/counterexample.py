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
since each generated step multiplies by 2 3^m or by 2. The bit length of
each boundary, its log and the log of the gap to the next one are read once
per boundary index from 128-bit outward-rounded brackets (`intervals`);
each is the value int.bit_length or math.log of the exact int gives, and
the int is formed only if a bracket straddles a rounding boundary. The
verification battery reads these per-index values. The int API (`level`,
`root_log`, `b`, `g`) forms a boundary only to compare it with a caller's k
of the same bit length, and reports give the size of the last entry by its
log10.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field

from .intervals import _log_bracketed, _power_bracket, _trim
from .logscale import LOG_ZERO
from .weights import WeightError, WeightSequence

LOG3 = math.log(3.0)
# the largest pair count whose float checks are tested against the exact
# ints; past it root_log's terms exp(gap_log - log k) lose digits to two
# logs of size log lam, and far past it the verdicts are noise
MAX_PAIRS = 12
BURST = (0, 100, 102, 104, 106, 108, 110, 112, 114, 200)
WITNESS_WINDOW = tuple(range(100, 115, 2))
FLOAT_SAFE_BITS = 900  # beyond this the float paths refuse instead of overflowing
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


def _bracket(c: int, a: int, s: int) -> tuple[int, int, int]:
    """(lo, hi, t) with lo 2^t <= c 2^a 3^s <= hi 2^t, ends rounded outward."""
    lo, hi, t = _power_bracket(3, s)
    return _trim(lo * c << a, hi * c << a, t)


def _bits_and_log(c: int, a: int, s: int) -> tuple[int, float]:
    """(bit_length, math.log) of c 2^a 3^s for c >= 1, from its bracket."""
    lo, hi, t = _bracket(c, a, s)

    def exact() -> int:
        return _form(c, a, s)

    bits = lo.bit_length() + t if lo.bit_length() == hi.bit_length() else exact().bit_length()
    return bits, _log_bracketed(lo, hi, t, exact)


def _gap_log(c: int, a: int, s: int, da: int, ds: int) -> float:
    """math.log of the gap from c 2^a 3^s up to c 2^(a+da) 3^(s+ds), which
    is c 2^a 3^s (2^da 3^ds - 1): a bracket product."""
    flo, fhi, ft = _bracket(1, da, ds)
    # minus one: take a unit of 2^ft off the lower end; the upper end drops
    # the one only where the bracket is exact (ft = 0)
    flo, fhi = flo - 1, fhi - (ft == 0)
    lo, hi, t = _bracket(c, a, s)
    return _log_bracketed(
        lo * flo, hi * fhi, t + ft, lambda: _form(c, a, s) * (_form(1, da, ds) - 1)
    )


def _b(level: float, log_k: float) -> float:
    """(M_{k+1}/M_k)^(1/k) from the level in force at k + 1 and log k."""
    if level == 0.0:
        return 1.0
    return math.exp(math.exp(math.log(level) - log_k))


def build_schedule(
    pairs: int = 8,
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]], list[float]]:
    """(powers, doubled, gap_terms): the burst, pairs - 1 generated doubling
    pairs and the closing boundary, each boundary lam_i as its power form
    (c, a, s), lam_i = c 2^a 3^s. doubled lists the index pairs (i, j) with
    lam_j = 2 lam_i; gap_terms holds m * log3 / v^2 at each generated append
    decision. More than MAX_PAIRS pairs raise WeightError."""
    if pairs < 2:
        raise ValueError("need at least 2 pairs (the burst plus one generated)")
    if pairs > MAX_PAIRS:
        raise WeightError(
            f"counterexample:{pairs}: at most {MAX_PAIRS} pairs, the range whose "
            "float checks are tested against the exact schedule"
        )
    powers = [(n, 0, 0) for n in BURST]
    doubled = [(1, len(BURST) - 1)]  # 100 and the 200 that closes the burst
    gap_terms = []
    for j in range(2, pairs + 2):
        pos = len(powers) - 1
        m = math.ceil(v_sq(pos) / LOG3)
        gap_terms.append(m * LOG3 / v_sq(pos))
        c, a, s = powers[-1]
        powers.append((c, a + 1, s + m))  # mu = 2 * lam[-1] * 3^m
        if j <= pairs:  # the last pass appends the closing boundary alone
            powers.append((c, a + 2, s + m))
            doubled.append((pos + 1, pos + 2))
    return powers, doubled, gap_terms


class CounterexampleSequence:
    """The schedule in power form, with the bit length and log of each
    boundary (`bits`, `logs`) and the log of each gap to the next boundary
    (`gap_logs`), read from brackets. The float log-weight prefix forms the
    boundaries of at most FLOAT_SAFE_BITS bits; `boundaries` and `doubled`
    are the exact ints, formed on first use for callers that want them."""

    def __init__(self, pairs: int = 8):
        t0 = time.perf_counter()
        self.pairs = pairs
        self.powers, self.doubled_at, self.gap_terms = build_schedule(pairs)
        powers = self.powers
        # levels[i] rules (lam[i], lam[i+1]]; the last rules the tail
        self.levels = [log_v(n) for n in range(len(powers))]
        reads = [_bits_and_log(*p) for p in powers[1:]]  # lam_0 = 0
        self.bits = [0] + [bits for bits, _ in reads]
        self.logs = [LOG_ZERO] + [log for _, log in reads]
        # the burst's gaps are small; each generated one is lam (2^da 3^ds - 1)
        burst = len(BURST) - 1
        self.gap_logs = [math.log(hi - lo) for lo, hi in zip(BURST, BURST[1:])] + [
            _gap_log(c, a, s, a1 - a, s1 - s)
            for (c, a, s), (_, a1, s1) in zip(powers[burst:], powers[burst + 1 :])
        ]
        self._ints: dict[int, int] = {}
        self.build_seconds = time.perf_counter() - t0
        # float prefix of log M at boundaries, only while it fits a float
        self._prefix: list[float] = [0.0]
        for i in range(len(powers) - 1):
            if self.bits[i + 1] > FLOAT_SAFE_BITS:
                break
            gap = self.boundary(i + 1) - self.boundary(i)
            self._prefix.append(self._prefix[-1] + gap * self.levels[i])

    def boundary(self, i: int) -> int:
        """lam_i as an int, formed on first use."""
        n = self._ints.get(i)
        if n is None:
            n = self._ints[i] = _form(*self.powers[i])
        return n

    @functools.cached_property
    def boundaries(self) -> list[int]:
        return [self.boundary(i) for i in range(len(self.powers))]

    @functools.cached_property
    def doubled(self) -> list[int]:
        """The mu with both mu and 2 mu in the schedule."""
        return [self.boundary(i) for i, _ in self.doubled_at]

    @property
    def last_digits(self) -> float:
        return self.bits[-1] * math.log10(2)

    def _count_below(self, k: int) -> int:
        """How many boundaries lie below k. Bit lengths decide all but the
        boundaries of k's own length, which are formed to compare."""
        kb = k.bit_length()
        j = bisect.bisect_left(self.bits, kb)
        while j < len(self.bits) and self.bits[j] == kb and self.boundary(j) < k:
            j += 1
        return j

    def block_index(self, k: int) -> int:
        if k < 1:
            raise ValueError("index must be positive")
        return min(self._count_below(k) - 1, len(self.powers) - 1)

    def level(self, k: int) -> float:
        """a_k, the log-ratio in force at index k."""
        return self.levels[self.block_index(k)]

    def level_at(self, i: int) -> float:
        """level(lam_i) for a boundary index i >= 1."""
        return self.levels[i - 1]

    def log_weight(self, k: int) -> float:
        """log M_k on the float-safe range; big indices must use root_log."""
        if k == 0:
            return 0.0
        if k.bit_length() > FLOAT_SAFE_BITS:
            raise WeightError("index too large for the float log-weight path")
        i = self.block_index(k)
        if i >= len(self._prefix):
            raise WeightError("index beyond the float-safe prefix")
        return self._prefix[i] + (k - self.boundary(i)) * self.levels[i]

    def _root_log(self, j: int, log_k: float, log_last_gap: float) -> float:
        """log of M_k^(1/k) for lam_(j-1) < k <= lam_j (past the last
        boundary when j is the entry count): the full gaps below lam_(j-1),
        then k - lam_(j-1), whose log is log_last_gap."""
        lv = self.levels
        terms = [math.exp(self.gap_logs[i] - log_k) * lv[i] for i in range(j - 1) if lv[i] != 0.0]
        if lv[j - 1] != 0.0:
            terms.append(math.exp(log_last_gap - log_k) * lv[j - 1])
        return math.fsum(terms)

    def root_log(self, k: int) -> float:
        """log of M_k^(1/k); safe for boundary-sized integers."""
        if k < 1:
            raise ValueError("index must be positive")
        j = self._count_below(k)
        # math.log takes arbitrary ints without overflow
        return self._root_log(j, math.log(k), math.log(k - self.boundary(j - 1)))

    def root_log_at(self, i: int) -> float:
        """root_log(lam_i) for a boundary index i >= 1, from the per-index logs."""
        return self._root_log(i, self.logs[i], self.gap_logs[i - 1])

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
        """b(lam_i) for a boundary index i >= 1: levels[i] rules lam_i + 1."""
        return _b(self.levels[i], self.logs[i])

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
            best, best_at = b, seq.boundary(i) if seq.bits[i] < 64 else -i
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
