"""Rational interval arithmetic with directed rounding for root-taking.

Sums, products and integer powers of Fractions are exact, so intervals only
widen at nth roots. Roots are enclosed by scaled integer root extraction:
both endpoints are rationals whose correctness is checkable by raising back
to the nth power. Inequality certificates then compare conservative
endpoints only; an interval answer of "unknown" is reported, never guessed.

Endpoints grow to hundreds of thousands of bits, so no operation compares
them more than it must. Only the constructor and the root enclosures check
lo <= hi; every arithmetic result is ordered by construction. Products are
sign-aware: when both factors are nonnegative the product is (lo lo', hi hi'),
and only the other sign cases form and order all four endpoint products.

Where only a logarithm of a huge integer is wanted, it is read from a dyadic
bracket lo 2^t <= N <= hi 2^t with ends of at most BRACKET_BITS bits, each
operation rounded outward, so N itself is formed only in the rare case that
the bracket cannot decide the double math.log(N) would give. A quotient of
two brackets is compared with an exact rational at its ends (`_bracket_sign`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

ROOT_DIGITS = 40  # decimal digits of every root enclosure
BRACKET_BITS = 128  # width of the integer brackets a log is read from

Number = Union[int, Fraction]
Bracket = tuple[int, int, int]  # (lo, hi, t): lo 2^t <= x <= hi 2^t, t >= 0


def integer_nth_root(N: int, n: int) -> int:
    """floor(N ** (1/n)) for N >= 0, exact.

    Integer Newton steps x -> ((n-1) x + N // x^(n-1)) // n from a float
    seed just above the root. Whatever the seed, one step lands at or above
    the floor of the root (AM-GM), and from there the steps decrease
    strictly until they reach it; the float only decides how few it takes.
    """
    if N < 0 or n < 1:
        raise ValueError("need N >= 0 and n >= 1")
    if N in (0, 1) or n == 1:
        return N if n == 1 else int(N > 0)
    if n == 2:
        return math.isqrt(N)
    log2_root = math.log2(N) / n
    shift = max(0, int(log2_root) - 52)  # keep 53 significant bits in the float
    x = (int(2.0 ** (log2_root - shift) * (1 + 2.0**-30)) + 1) << shift
    x = ((n - 1) * x + N // x ** (n - 1)) // n
    while True:
        y = ((n - 1) * x + N // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def exact_nth_root(x: Fraction, n: int) -> Union[Fraction, None]:
    """x^(1/n) when it is rational, else None."""
    x = Fraction(x)
    if x < 0 or n < 1:
        return None
    rn = integer_nth_root(x.numerator, n)
    rd = integer_nth_root(x.denominator, n)
    if rn**n == x.numerator and rd**n == x.denominator:
        return Fraction(rn, rd)
    return None


def nth_root_bounds(x: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x^(1/n) <= hi with hi - lo <= 10^-ROOT_DIGITS."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("no real root of a negative number")
    if x == 0:
        return Fraction(0), Fraction(0)
    r_exact = exact_nth_root(x, n)
    if r_exact is not None:
        return r_exact, r_exact
    scale = 10**ROOT_DIGITS
    # x^(1/n) = (num * scale^n / den)^(1/n) / scale
    N = x.numerator * scale**n // x.denominator
    r = integer_nth_root(N, n)
    lo = Fraction(r, scale)
    hi = Fraction(r + 1, scale)
    # endpoints are certified: lo^n <= x iff r^n <= x*scale^n, which floor
    # division guarantees; hi^n > x likewise
    return lo, hi


def _trim(lo: int, hi: int, t: int) -> Bracket:
    """[lo, hi] 2^t rounded outward to at most BRACKET_BITS-bit ends and t >= 0."""
    r = max(hi.bit_length() - BRACKET_BITS, -t, 0)
    lo, hi = lo >> r, -(-hi >> r)
    if hi >> BRACKET_BITS:  # hi rounded up to 2^BRACKET_BITS
        lo, hi, r = lo >> 1, hi >> 1, r + 1
    return lo, hi, t + r


def _bracket(n: int) -> Bracket:
    """An integer n >= 0, rounded outward to a bracket."""
    return _trim(n, n, 0)


def _bracket_mul(x: Bracket, y: Bracket) -> Bracket:
    """The product of two brackets, rounded outward."""
    return _trim(x[0] * y[0], x[1] * y[1], x[2] + y[2])


def _bracket_div(x: Bracket, g: int) -> Bracket:
    """x / g for an integer g >= 1, divided once with g's width in guard
    bits: floor below, ceiling above."""
    lo, hi, t = x
    b = g.bit_length()
    return _trim((lo << b) // g, -(-(hi << b) // g), t - b)


def _bracket_sign(num: Bracket, den: Bracket, r: Fraction) -> Optional[int]:
    """The sign of n/d - r for every n in num and every d > 0 in den, by
    exact comparisons of the ends with r's numerator and denominator; None
    when the brackets do not decide it, as when n/d can equal r."""
    (n_lo, n_hi, s), (d_lo, d_hi, t) = num, den
    p, q = r.numerator, r.denominator
    # n/d - r has the sign of n q - p d, and p d is least at d_least
    d_least, d_most = (d_lo, d_hi) if p >= 0 else (d_hi, d_lo)

    def above(a: int, b: int) -> bool:  # a 2^s > b 2^t
        return a << max(s - t, 0) > b << max(t - s, 0)

    if above(n_lo * q, p * d_most):
        return 1
    if above(-n_hi * q, -p * d_least):
        return -1
    return None


def _log_bracketed(lo: int, hi: int, t: int, exact: Callable[[], int]) -> float:
    """math.log(N) for an integer N with lo 2^t <= N <= hi 2^t, t >= 0.

    For an int, math.log reads only N rounded to 53 bits (round half to
    even, as `float(N)` rounds), and that rounding is monotone: when lo and
    hi round alike, N rounds with them and lo 2^t stands in for it. Only
    when the bracket straddles a rounding boundary is N formed, by `exact`."""
    lo, hi, t = _trim(lo, hi, t)
    if float(lo) == float(hi):
        return math.log(lo << t)
    return math.log(exact())


def _power_bracket(base: int, e: int, g: int = 1, c: int = 0) -> Bracket:
    """(lo, hi, t) with lo 2^t <= base^e / (g 2^c) <= hi 2^t for base, g >= 1,
    g odd where 2^c holds the 2-adic part: base^(e >> j), under 2 BRACKET_BITS
    bits, is formed exactly and square and multiply over the last j bits of e
    rounds each step outward to BRACKET_BITS bits; g divides once with its
    width in guard bits and c comes off t, floor below and ceiling above."""
    j = (e * base.bit_length() // (2 * BRACKET_BITS)).bit_length()
    lo = hi = base ** (e >> j)
    t = 0
    for i in reversed(range(j)):
        f = base if e >> i & 1 else 1
        lo, hi, t = lo * lo * f, hi * hi * f, 2 * t
        r = hi.bit_length() - BRACKET_BITS
        if r > 0:
            lo, hi, t = lo >> r, -(-hi >> r), t + r
    return _bracket_div((lo, hi, t - c), g)


@dataclass(frozen=True)
class RInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def _ordered(cls, lo: Fraction, hi: Fraction) -> "RInterval":
        """[lo, hi] for Fractions the calling operation orders; unchecked."""
        iv = object.__new__(cls)
        object.__setattr__(iv, "lo", lo)
        object.__setattr__(iv, "hi", hi)
        return iv

    @classmethod
    def exactly(cls, v: Number) -> "RInterval":
        f = Fraction(v)
        return cls._ordered(f, f)

    @classmethod
    def nth_root(cls, x: Number, n: int) -> "RInterval":
        lo, hi = nth_root_bounds(Fraction(x), n)
        return cls(lo, hi)

    @classmethod
    def rational_power(cls, x: Number, p: Fraction) -> "RInterval":
        """x^p for x > 0 and rational p."""
        p = Fraction(p)
        base = Fraction(x) ** p.numerator  # exact; may invert
        return cls.nth_root(base, p.denominator)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def _coerce(self, other) -> "RInterval":
        if isinstance(other, RInterval):
            return other
        return RInterval.exactly(other)

    def __add__(self, other) -> "RInterval":
        o = self._coerce(other)
        return RInterval._ordered(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RInterval":
        return RInterval._ordered(-self.hi, -self.lo)

    def __sub__(self, other) -> "RInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RInterval":
        o = self._coerce(other)
        if self.lo.numerator >= 0 and o.lo.numerator >= 0:
            return RInterval._ordered(self.lo * o.lo, self.hi * o.hi)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RInterval._ordered(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "RInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return RInterval._ordered(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "RInterval":
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "RInterval":
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, n: int) -> "RInterval":
        if n == 0:
            return RInterval.exactly(1)
        if n < 0:
            return (self**-n).reciprocal()
        if n % 2 or self.lo >= 0:  # t -> t^n increases here
            return RInterval._ordered(self.lo**n, self.hi**n)
        if self.hi <= 0:  # even power of a nonpositive interval decreases
            return RInterval._ordered(self.hi**n, self.lo**n)
        return RInterval._ordered(Fraction(0), max(self.lo**n, self.hi**n))

    def sqrt(self) -> "RInterval":
        return self.root(2)

    def root(self, n: int) -> "RInterval":
        lo, _ = nth_root_bounds(self.lo, n)
        _, hi = nth_root_bounds(self.hi, n)
        return RInterval(lo, hi)

    def abs(self) -> "RInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RInterval._ordered(Fraction(0), max(-self.lo, self.hi))

    # certified comparisons: True/False only when the intervals prove it
    def certainly_ge(self, other) -> bool:
        return self.lo >= self._coerce(other).hi

    def certainly_le(self, other) -> bool:
        return self.hi <= self._coerce(other).lo

    def certainly_lt(self, other) -> bool:
        return self.hi < self._coerce(other).lo

    def certainly_gt(self, other) -> bool:
        return self.lo > self._coerce(other).hi
