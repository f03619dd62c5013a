"""Log-domain scalars for magnitudes far outside float range."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LOG_ZERO = float("-inf")


def log_of_fraction(x: Fraction | int) -> float:
    """log|x| for an exact rational, safe for huge numerators/denominators:
    log|n| - log d of its lowest terms n/d, read off a Fraction directly."""
    if x == 0:
        return LOG_ZERO
    if type(x) is int:
        return math.log(abs(x))
    if type(x) is not Fraction:
        x = Fraction(x)
    return math.log(abs(x.numerator)) - math.log(x.denominator)


@dataclass(frozen=True)
class LogMagnitude:
    """A real number recorded as (sign, log|x|), for reports.

    sign is -1, 0, or +1; log_abs is -inf exactly when sign == 0.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_abs == LOG_ZERO):
            raise ValueError("sign 0 exactly when log_abs is -inf")


def log_diff(a: float, b: float) -> float:
    """log(e^a - e^b), or LOG_ZERO unless a > b."""
    if not a > b:
        return LOG_ZERO
    return a + math.log(-math.expm1(b - a))


def logsumexp(logs) -> float:
    """log(sum e^l) for nonnegative-term sums; tolerates -inf entries."""
    logs = list(logs)
    if not logs:
        return LOG_ZERO
    m = max(logs)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))
