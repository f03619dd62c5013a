"""Log-convex weight sequences and their comparison/quasianalyticity diagnostics.

A WeightSequence serves log M_k, normalized to M_0 = 1. An exact family is
given by its ratios m_k = M_{k+1}/M_k alone (integers for the built-in
families), and its exact M_k is their product m_0 ... m_(k-1). Construction
validates that the ratio sequence is nondecreasing over every queried range;
a violation is a hard error, not a warning.

Trend verdicts ("diverging-like", "strictly-contained-diagnostic", ...) are
finite-horizon diagnostics with documented thresholds, never claims about
actual limits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .logscale import LogMagnitude

RATIO_SLACK = 1e-12  # float-level slack for the monotone-ratio validation
LOG_POWER_INIT_HORIZON = 10_000  # log_power validates its ratios this far on construction
SUMMATION_THRESHOLD = 0.05  # doubling increment separating the summation-trend verdicts


class WeightError(ValueError):
    pass


class ConvexityError(WeightError):
    """Ratio sequence decreased somewhere in a queried range."""


class WeightSequence:
    """log M_k provider with memoization and ratio validation; `ratio_fn`,
    when given, supplies the exact m_k, and M_k is their running product."""

    def __init__(
        self,
        name: str,
        log_weight_fn: Callable[[int], float],
        ratio_fn: Optional[Callable[[int], Union[int, Fraction]]] = None,
        validate_on_init: int = 8,
    ):
        self.name = name
        self._log_fn = log_weight_fn
        self._ratio_fn = ratio_fn
        self._memo: dict[int, float] = {}
        self._checked_to = 0
        self._cursor = (0, 1)  # exact's one cached (k, M_k)
        m0 = self.log_weight(0)
        if abs(m0) > 1e-15:
            raise WeightError(f"{name}: M_0 must be 1, got log M_0 = {m0}")
        self.validate(validate_on_init)

    def log_weight(self, k: int) -> float:
        if k < 0:
            raise WeightError("negative index")
        v = self._memo.get(k)
        if v is None:
            v = float(self._log_fn(k))
            if not math.isfinite(v):
                raise WeightError(f"{self.name}: log M_{k} = {v} is not finite")
            self._memo[k] = v
        return v

    def exact(self, k: int) -> Optional[Fraction]:
        """M_k = m_0 ... m_(k-1), exact, from one cached (k, M_k) pair: a
        larger k multiplies forward from it, a smaller one restarts at M_0 = 1.
        Read in increasing k it costs one product per step and holds one M_k,
        where a table of M_0 .. M_K holds about K^2 log2(K) / 2 bits."""
        if k < 0:
            raise WeightError("negative index")
        if self._ratio_fn is None:
            return None
        j, M_j = self._cursor if k >= self._cursor[0] else (0, 1)
        for i in range(j, k):
            M_j *= self._ratio_fn(i)
        self._cursor = k, M_j
        return Fraction(M_j)

    @property
    def has_exact(self) -> bool:
        return self._ratio_fn is not None

    def log_ratio(self, k: int) -> float:
        """log m_k = log(M_{k+1}/M_k)."""
        return self.log_weight(k + 1) - self.log_weight(k)

    def exact_ratio(self, k: int) -> Optional[Union[int, Fraction]]:
        """m_k = M_{k+1}/M_k, exact, as the family supplies it."""
        if self._ratio_fn is None:
            return None
        return self._ratio_fn(k)

    def validate(self, K: int) -> None:
        """Assert m_k nondecreasing for k < K (log domain, tiny float slack)."""
        start = self._checked_to
        prev = self.log_ratio(start - 1) if start > 0 else None
        for k in range(start, K):
            r = self.log_ratio(k)
            if prev is not None and r < prev - RATIO_SLACK * max(1.0, abs(prev)):
                raise ConvexityError(
                    f"{self.name}: ratio decreases at k={k} ({prev} -> {r})"
                )
            prev = r
        self._checked_to = max(self._checked_to, K)


# -- families ----------------------------------------------------------------

def analytic() -> WeightSequence:
    return WeightSequence("analytic", lambda k: 0.0, lambda k: 1)


def gevrey(s: float) -> WeightSequence:
    """M_k = (k!)^s, m_k = (k+1)^s. Exact for integer s >= 0."""
    if s < 0:
        raise WeightError("gevrey exponent must be >= 0")
    ratio = None
    if float(s).is_integer():
        si = int(s)
        ratio = lambda k: (k + 1) ** si
    name = f"gevrey:{int(s) if float(s).is_integer() else s}"
    return WeightSequence(name, lambda k: s * math.lgamma(k + 1), ratio)


def log_power(c: float) -> WeightSequence:
    """M_k = (log(k+c))^k for k >= 1, M_0 = 1; needs c >= e for convexity."""
    if c < math.e:
        raise WeightError(f"log_power needs c >= e, got {c}")

    def lw(k: int) -> float:
        return 0.0 if k == 0 else k * math.log(math.log(k + c))

    return WeightSequence(f"logpow:{c:g}", lw, validate_on_init=LOG_POWER_INIT_HORIZON)


def custom_table(log_values: Sequence[float], name: str = "table") -> WeightSequence:
    vals = [float(v) for v in log_values]
    if not vals or vals[0] != 0.0:
        raise WeightError("custom table must start with log M_0 = 0")

    def lw(k: int) -> float:
        if k >= len(vals):
            raise WeightError(f"custom table has no entry for k={k}")
        return vals[k]

    return WeightSequence(name, lw, validate_on_init=min(8, len(vals) - 1))


def shift(M: WeightSequence, p: int) -> WeightSequence:
    """The p-step shift M^(p): k -> M_{pk}, with ratio m_{pk} ... m_{pk+p-1}."""
    if p < 1:
        raise WeightError("shift step must be >= 1")
    ratio = None
    if M.has_exact:
        ratio = lambda k: math.prod(M.exact_ratio(p * k + j) for j in range(p))
    return WeightSequence(f"shift:{p}:{M.name}", lambda k: M.log_weight(p * k), ratio)


def power(M: WeightSequence, p: float) -> WeightSequence:
    """The termwise power M^p: k -> (M_k)^p, with ratio m_k^p."""
    if p <= 0:
        raise WeightError("power exponent must be > 0")
    ratio = None
    if M.has_exact and float(p).is_integer():
        pi = int(p)
        ratio = lambda k: M.exact_ratio(k) ** pi
    name = f"power:{int(p) if float(p).is_integer() else p}:{M.name}"
    return WeightSequence(name, lambda k: p * M.log_weight(k), ratio)


def parse_family(spec: str) -> WeightSequence:
    """Family from a CLI string: analytic | gevrey:s | logpow:c |
    shift:p:REST | power:p:REST | counterexample[:pairs] | table:v0,v1,...
    """
    head, _, rest = spec.partition(":")
    if head == "analytic":
        return analytic()
    if head == "gevrey":
        return gevrey(float(rest))
    if head == "logpow":
        return log_power(float(rest))
    if head == "shift":
        p, _, inner = rest.partition(":")
        return shift(parse_family(inner), int(p))
    if head == "power":
        p, _, inner = rest.partition(":")
        return power(parse_family(inner), float(p))
    if head == "counterexample":
        from .counterexample import counterexample_sequence

        pairs = int(rest) if rest else 8
        return counterexample_sequence(pairs).weights
    if head == "table":
        return custom_table([float(v) for v in rest.split(",")])
    raise WeightError(f"unknown weight family {spec!r}")


# -- scalar diagnostics ------------------------------------------------------

@dataclass
class ClosureDiagnostic:
    """sup over 1 <= k <= K of (M_{k+1}/M_k)^(1/k)."""

    K: int
    sup_root: float
    argmax_k: int
    last_value: float


def closure_diagnostic(M: WeightSequence, K: int) -> ClosureDiagnostic:
    M.validate(K + 1)
    best, best_k, last = -math.inf, 0, 0.0
    for k in range(1, K + 1):
        v = math.exp(M.log_ratio(k) / k)
        last = v
        if v > best:
            best, best_k = v, k
    return ClosureDiagnostic(K, best, best_k, last)


@dataclass
class QuasianalyticityDiagnostic:
    K: int
    partial_sums: dict  # checkpoint n -> S_n
    deltas: list  # doubling increments, most recent first
    threshold: float
    verdict: str  # diverging-like | converging-like | inconclusive


def quasianalyticity_diagnostic(M: WeightSequence, K: int) -> QuasianalyticityDiagnostic:
    """Trend of S_n = sum_{k<=n} M_k/((k+1) M_{k+1}) at doubling checkpoints."""
    if K < 16:
        raise WeightError("quasianalyticity diagnostic needs K >= 16")
    checkpoints = sorted({K >> 3, K >> 2, K >> 1, K})
    terms = [math.exp(-M.log_ratio(k) - math.log(k + 1)) for k in range(0, K + 1)]
    acc, next_idx, sums = 0.0, 0, {}
    for n in checkpoints:
        acc += math.fsum(terms[next_idx : n + 1])
        next_idx = n + 1
        sums[n] = acc
    cps = checkpoints
    deltas = [sums[cps[i + 1]] - sums[cps[i]] for i in range(len(cps) - 1)]
    deltas.reverse()  # most recent doubling first
    if all(d >= SUMMATION_THRESHOLD for d in deltas):
        verdict = "diverging-like"
    elif all(d < SUMMATION_THRESHOLD for d in deltas) and all(
        deltas[i] <= 0.6 * deltas[i + 1] for i in range(len(deltas) - 1)
    ):
        verdict = "converging-like"
    else:
        verdict = "inconclusive"
    return QuasianalyticityDiagnostic(K, sums, deltas, SUMMATION_THRESHOLD, verdict)


@dataclass
class ComparisonReport:
    """Trend of (N_k/M_k)^(1/k) over 1 <= k <= K."""

    K: int
    sup_root: LogMagnitude
    sup_at: int
    inf_root: LogMagnitude
    inf_at: int
    verdict: str  # contained | strictly-contained-diagnostic |
    #               not-contained-diagnostic | inconclusive


def compare(N: WeightSequence, M: WeightSequence, K: int) -> ComparisonReport:
    if K < 32:
        raise WeightError("compare needs K >= 32")
    r = [0.0] * (K + 1)
    for k in range(1, K + 1):
        r[k] = (N.log_weight(k) - M.log_weight(k)) / k  # log of the k-th root
    sup_at = max(range(1, K + 1), key=lambda k: r[k])
    inf_at = min(range(1, K + 1), key=lambda k: r[k])
    w = max(1, K // 16)
    mid = K // 4
    hi_end = max(r[K - w : K + 1])
    hi_mid = max(r[max(1, mid - w) : mid + w + 1])
    lo_end = min(r[K - w : K + 1])
    lo_mid = min(r[max(1, mid - w) : mid + w + 1])
    LOG2 = math.log(2.0)
    growing = hi_end >= hi_mid + LOG2 / 2 and sup_at > K - 2 * w
    shrinking = lo_end <= lo_mid - LOG2 / 2
    if growing:
        verdict = "not-contained-diagnostic"
    elif shrinking:
        verdict = "strictly-contained-diagnostic"
    elif hi_end <= hi_mid + 0.05:
        verdict = "contained"
    else:
        verdict = "inconclusive"
    return ComparisonReport(
        K,
        LogMagnitude(1, r[sup_at]),
        sup_at,
        LogMagnitude(1, r[inf_at]),
        inf_at,
        verdict,
    )


@dataclass
class SquareShiftReport:
    """Square-vs-shift criterion data: A_k = M_k^(1+1/k)/M_{k+1} against
    B_k = (M_k^2/M_{2k})^(1/k), with the pointwise inequality B_k <= A_k."""

    K: int
    inf_A: float
    inf_A_at: int
    inf_B: float
    inf_B_at: int
    inequality_ok: bool
    worst_gap: float  # min over k of log A_k - log B_k (>= -tol when ok)


def square_vs_shift_diagnostic(M: WeightSequence, K: int) -> SquareShiftReport:
    inf_A, inf_A_at = math.inf, 0
    inf_B, inf_B_at = math.inf, 0
    worst = math.inf
    ok = True
    for k in range(1, K + 1):
        logA = (1 + 1 / k) * M.log_weight(k) - M.log_weight(k + 1)
        logB = (2 * M.log_weight(k) - M.log_weight(2 * k)) / k
        A, B = math.exp(logA), math.exp(logB)
        if A < inf_A:
            inf_A, inf_A_at = A, k
        if B < inf_B:
            inf_B, inf_B_at = B, k
        gap = logA - logB
        worst = min(worst, gap)
        if gap < -1e-12 * max(1.0, abs(logA)):
            ok = False
    return SquareShiftReport(K, inf_A, inf_A_at, inf_B, inf_B_at, ok, worst)


# -- the Abel summation identity ---------------------------------------------

def _count_upto(lam: Sequence[int], x) -> int:
    return bisect.bisect_right(lam, x)


def abel_identity_terms(lam: Sequence[int], n: int) -> tuple[Fraction, Fraction]:
    """Exact (harmonic sum, integral + boundary) for the counting function.

    sum_{k in lam, k <= n} 1/k  ==  int_1^n A(x)/x^2 dx + A(n)/n with
    A(x) = #{k in lam : k <= x}; the integral is a finite sum because A is a
    step function jumping at the elements.
    """
    harmonic = Fraction(0)
    for k in lam:
        if k > n:
            break
        if k < 1:
            raise WeightError("index set must contain positive integers only")
        harmonic += Fraction(1, k)
    cuts = [1] + [k for k in lam if 1 < k <= n] + [n]
    cuts = sorted(set(cuts))
    integral = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        integral += _count_upto(lam, a) * (Fraction(1, a) - Fraction(1, b))
    boundary = Fraction(_count_upto(lam, n), n)
    return harmonic, integral + boundary
