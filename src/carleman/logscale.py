"""Sign/log-magnitude scalars for products and sums far outside float range."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LOG_ZERO = float("-inf")


def log_of_fraction(x: Fraction | int) -> float:
    """log|x| for an exact rational, safe for huge numerators/denominators."""
    if x == 0:
        return LOG_ZERO
    n, d = abs(Fraction(x)).as_integer_ratio()
    return math.log(n) - math.log(d)


@dataclass(frozen=True)
class LogMagnitude:
    """A real number stored as (sign, log|x|).

    sign is -1, 0, or +1; log_abs is -inf exactly when sign == 0.
    """

    sign: int
    log_abs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_abs == LOG_ZERO):
            raise ValueError("sign 0 exactly when log_abs is -inf")

    @classmethod
    def zero(cls) -> "LogMagnitude":
        return cls(0, LOG_ZERO)

    @classmethod
    def from_fraction(cls, x: Fraction | int) -> "LogMagnitude":
        if x == 0:
            return cls.zero()
        return cls(1 if x > 0 else -1, log_of_fraction(x))

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "LogMagnitude":
        if sign == 0 or log_abs == LOG_ZERO:
            return cls.zero()
        return cls(sign, log_abs)

    def __abs__(self) -> "LogMagnitude":
        return LogMagnitude(abs(self.sign), self.log_abs)

    def __add__(self, other: "LogMagnitude") -> "LogMagnitude":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.log_abs >= other.log_abs else (other, self)
        d = lo.log_abs - hi.log_abs  # <= 0
        if self.sign == other.sign:
            return LogMagnitude(hi.sign, hi.log_abs + math.log1p(math.exp(d)))
        # opposite signs: |e^a - e^b|; exact cancellation gives zero
        if d == 0.0:
            return LogMagnitude.zero()
        m = -math.expm1(d)  # 1 - e^d in (0, 1)
        return LogMagnitude(hi.sign, hi.log_abs + math.log(m))


def logsumexp(logs) -> float:
    """log(sum e^l) for nonnegative-term sums; tolerates -inf entries."""
    logs = list(logs)
    if not logs:
        return LOG_ZERO
    m = max(logs)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))
