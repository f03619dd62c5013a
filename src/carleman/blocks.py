"""The base superposition of bumps and its rescaled, recentered blocks.

The base function for a weight sequence M is

    h(x) = sum_{k>=1} w_k / (1 + x1^2 + (m_k x2)^2),  w_k = m_k^2 / (2^k phi(m_k)),

where m_k = M_{k+1}/M_k and phi is the trace-growth function (the sum starts
at k = 1); nondecreasing ratios give phi(m_k) = m_k^(k+2)/M_k. Two facts
make h certifiable at finite order: the weights are summable with an explicit
geometric tail (w_k m_k^j <= M_j 2^-k for every j), and pure-x2 derivatives
on the axis have a closed form whose terms all share one sign, so truncation
error is controlled and no cancellation occurs.

For an exact family the log weights are bit-identical to the logs of the
reduced quotients m_k^(k+2)/g and M_k/g, yet neither is formed: math.log of
an int reads only its 53-bit rounding, decided by the leading bits and a
sticky bit. A shift and a short division give those of M_k/g; one square and
multiply on m_k, divided by g, brackets the numerator, formed only when the
bracket straddles a rounding boundary: gevrey:1 to 13664 terms, gevrey:2,
gevrey:3, shift:2:gevrey:1 and power:2:gevrey:1 never do. M_k is never kept
as a table, which would grow like K^2 log K bits (2.4 GiB at the eighth
greedy block's 54624 terms): base init, the moments and the exact weights
carry it as one running product; other exact reads ask `WeightSequence.exact`.
The moments keep their denominators factored as {p: exponent} and are put
in lowest terms by trial division over those known primes, never by a gcd
of their huge numerators; the certificate's products with a moment cancel
over the same primes and are read from 128-bit brackets that multiply
neither the product nor the denominator out (`_bracket_factored`), with the
plain `Fraction` product as the fallback.

A block is h((x - c)/rho) with c = (q rho, 0), q >= 1, 0 < rho < 1; it
concentrates the same profile at scale rho around c. Every bound check takes
the `BaseFunction` it checks; the base is the case rho = 1 of both the lower
rows (one loop) and the upper sweep (one bound and its tail, `_upper_bound`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Optional, Sequence, Union

from .bricks import SweepResult, polar_samples
from .intervals import (
    Bracket,
    RInterval,
    _bracket,
    _bracket_mul,
    _log_bracketed,
    _power_bracket,
)
from .jets import EXACT, Jet2, polar_coordinates, reciprocal_sum
from .logscale import LOG_ZERO, log_diff, log_of_fraction, logsumexp
from .weights import WeightError, WeightSequence

DEFAULT_TERMS = 40
MIN_TERMS = 4
POLAR_BLOCK_C = 2 * 8**5
LOG2, LOG8 = math.log(2), math.log(8)
GUARD_BITS = 64  # leading bits of M_k/g kept past the 53 a double rounds to

Scalar = Union[int, float, Fraction]


SMALL_PRIMES = tuple(p for p in range(2, 64) if all(p % d for d in range(2, p)))


def _perfect_root(n: int, least: int) -> tuple[int, int]:
    """(r, e) with r^e == n, for n with no prime factor below `least`: e is
    as large as float estimates of the roots find. A root over 50 bits is
    not tried; a missed root costs trial divisions, never a wrong factor."""
    e, q = 1, 2
    while least**q <= n:
        if n.bit_length() <= 50 * q:
            r = round(math.exp(math.log(n) / q))
            if r**q == n:
                n, e = r, e * q
                continue
        q += 1
    return n, e


def _prime_factors(n: int) -> dict[int, int]:
    """{p: v_p(n)} for a positive integer, by trial division.

    The cofactor left by SMALL_PRIMES is r^e for its perfect-power root r,
    and r's primes carry e times their exponent: a ratio (k+1)^s with k+1
    prime then stops at sqrt(k+1), not k+1. A ratio below 61^2, such as
    gevrey:1's k+1 through 3424 terms, never leaves SMALL_PRIMES."""
    factors: dict[int, int] = {}
    e = 1
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    else:
        p = SMALL_PRIMES[-1] + 2
        n, e = _perfect_root(n, p)
        while p * p <= n:
            while n % p == 0:
                factors[p] = factors.get(p, 0) + e
                n //= p
            p += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + e
    return factors


def _integer_weights(M: WeightSequence, terms: int) -> tuple[list[int], list[float]]:
    """m_0 .. m_terms as integers and log phi(m_k) for k = 1 .. terms.

    M_k is one running product, read for its leading bits and 2-adic
    valuation at each k and then multiplied on; no table of M_k is kept.
    phi(m_k) = m_k^(k+2)/M_k is read in lowest terms, as `log_of_fraction`
    would: g = 2^c_2 g_odd with c_p = min(v_p(M_k), (k+2) v_p(m_k)) for
    p | m_k, from a running count of M_k's prime exponents, and each odd
    p^c_p multiplied up from the last k with p | m_k.

    - M_k/g: (M_k >> (c_2 + s)) // g_odd == (M_k // g) >> s has at least
      GUARD_BITS leading bits; the bits below s are nonzero exactly when
      v_2(M_k) - c_2 < s, so this log is exact with no fallback.
    - m_k^(k+2)/g: `_power_bracket` brackets m_k^(k+2) by one square and
      multiply, takes c_2 off its exponent and divides by g_odd outward;
      `_log_bracketed` forms the quotient only when the bracket straddles a
      rounding boundary, at odds of about 2^-62 per k: its relative width
      stays under 2^-115 for these families."""
    ms, log_phi, M_k = [], [], 1
    valuations: dict[int, int] = {}
    odd_powers: dict[int, tuple[int, int]] = {}  # p: (c_p, p^c_p) at the last k with p | m_k
    for k in range(terms + 1):
        m = M.exact_ratio(k)
        if type(m) is not int and Fraction(m).denominator != 1:
            raise WeightError(f"{M.name}: exact ratio m_{k} = {m} is not an integer")
        m = int(m)
        factors = _prime_factors(m)
        if k:
            c2, g_odd = min(valuations.get(2, 0), (k + 2) * factors.get(2, 0)), 1
            for p, v in factors.items():
                if p > 2:
                    c = min(valuations.get(p, 0), (k + 2) * v)
                    last, power = odd_powers.get(p, (0, 1))
                    power = power * p ** (c - last) if c >= last else p**c
                    odd_powers[p] = c, power
                    g_odd *= power
            lo, hi, t = _power_bracket(m, k + 2, g_odd, c2)
            log_num = _log_bracketed(lo, hi, t, lambda: (m ** (k + 2) >> c2) // g_odd)
            s = max(M_k.bit_length() - g_odd.bit_length() - c2 - GUARD_BITS, 1)
            top = (M_k >> (c2 + s)) // g_odd
            sticky = valuations.get(2, 0) - c2 < s
            log_phi.append(log_num - math.log(((top << 1) | sticky) << (s - 1)))
        ms.append(m)
        M_k *= m
        for p, v in factors.items():
            valuations[p] = valuations.get(p, 0) + v
    return ms, log_phi


def _product(factors: list[int]) -> int:
    """The product of a list of ints, multiplied pairwise so that each
    multiplication has operands of like size."""
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def _add_factored(a: tuple[int, dict], b: tuple[int, dict]) -> tuple[int, dict]:
    """n_a/d_a + n_b/d_b for denominators held as {p: exponent}, over their
    lcm: each numerator is multiplied by the prime powers its denominator
    lacks, and no gcd is taken."""
    (n_a, d_a), (n_b, d_b) = a, b
    den, f_a, f_b = dict(d_a), [], []
    for p, e in d_b.items():
        e_a = den.get(p, 0)
        if e > e_a:
            f_a.append(p ** (e - e_a))
            den[p] = e
        elif e_a > e:
            f_b.append(p ** (e_a - e))
    f_b += [p**e for p, e in d_a.items() if p not in d_b]
    return n_a * _product(f_a) + n_b * _product(f_b), den


def _reduced(num: int, den: int) -> Fraction:
    """num/den as a Fraction, for den > 0 coprime to num; takes no gcd."""
    frac = object.__new__(Fraction)
    frac._numerator, frac._denominator = num, den
    return frac


def _from_factored(num: int, den: dict[int, int]) -> Fraction:
    """num / prod p^e as a Fraction, for num coprime to each p; takes no gcd."""
    return _reduced(num, _product([p**e for p, e in den.items()]))


def _lowest_terms(num: int, den: dict[int, int]) -> tuple[int, dict[int, int]]:
    """num / prod p^e for num != 0 and primes p in lowest terms, as its
    numerator and its denominator's {p: exponent}, by trial division, each p
    at most e times: 2 by num's trailing zeros; an odd p only if it divides
    the one remainder of num by the product of the odd primes, then by divmod
    with p^s while it leaves no remainder, s doubling after each exact
    division and halving after each inexact one down to s = 1. No gcd of num
    is taken; `_from_factored` builds the Fraction."""
    left, rest = {}, num % _product([p for p in den if p > 2])
    for p, e in den.items():
        c = 0
        if p == 2:
            c = min(e, (num & -num).bit_length() - 1)
            num >>= c
        elif not rest % p:
            s = 1
            while c < e:
                s = min(s, e - c)
                q, r = divmod(num, p**s)
                if not r:
                    num, c, s = q, c + s, 2 * s
                elif s == 1:
                    break
                else:
                    s //= 2
        if e > c:
            left[p] = e - c
    return num, left


def _bracket_factored(
    x: Fraction,
    bases: Sequence[int],
    N: int,
    primes: dict[int, int],
    proved: dict[int, bool],
) -> Optional[tuple[Bracket, Bracket]]:
    """Brackets of the numerator a' N and the denominator b D' of x y in
    lowest terms, for reduced x = a/b > 0 whose denominator's primes each
    divide one of `bases`, and reduced y = N/D, N > 0, D = prod p^e over
    `primes`. Neither x y nor D is formed: D' = D / gcd(a, D) is bracketed
    from its prime powers.

    gcd(N, b) = 1 is proved by gcd(N mod q, q) = 1 for each base q, and
    a' = a / gcd(a, D) comes by trial division over D's primes
    (`_lowest_terms`), so the huge N meets no gcd. `proved` keeps each
    base's verdict {q: bool} for this y, so brackets with one y test a base
    once. None if a check fails, or for x <= 0: then only the Fraction
    product x y serves."""
    a = x.numerator
    for q in bases if a > 0 else ():
        if q not in proved:
            proved[q] = math.gcd(N % q, q) == 1
    if a <= 0 or not all(proved[q] for q in bases):
        return None
    a, left = _lowest_terms(a, primes)
    powers = (_power_bracket(p, e) for p, e in left.items())
    return _bracket_mul(_bracket(a), _bracket(N)), reduce(_bracket_mul, powers, _bracket(x.denominator))


def _moment_terms(m_int: list[int], terms: int, order: int):
    """Yield w_k m_k^order = M_k m_k^(order-k) / 2^k, k = 1 .. terms, for
    m_k = m_int[k], as (numerator, {p: exponent}) in lowest terms: M_k is a
    running product, and the primes it shares with the denominator, read
    from its running valuations, are divided out, so no gcd is taken."""
    factors = cache(_prime_factors)  # each distinct m factored once per loop
    M_k, valuations = 1, {}  # valuations: {p: v_p(M_k)}
    for k in range(1, terms + 1):
        M_k *= m_int[k - 1]
        for p, v in factors(m_int[k - 1]).items():
            valuations[p] = valuations.get(p, 0) + v
        m = m_int[k]
        if k <= order:
            num, den = M_k * m ** (order - k), {2: k}
        else:
            num, den = M_k, {p: v * (k - order) for p, v in factors(m).items()}
            den[2] = den.get(2, 0) + k
        shared = {p: min(e, valuations.get(p, 0)) for p, e in den.items()}
        cut = _product([p**c for p, c in shared.items() if c and p > 2])
        yield (num >> shared[2]) // cut, {p: e - shared[p] for p, e in den.items() if e > shared[p]}


class BaseFunction:
    """K-term truncation of h; exact weights when the family has them.

    An exact family must have integer ratios m_k, kept as an integer table
    and checked once here. M_k is never tabled: the terms of the moments
    sum_k w_k m_k^order (`axis_moment`) and of the exact weights (order 0;
    built on demand, never by the certificate) carry it as a running
    product (`_moment_terms`), and the tail and the lower rows read it from
    `WeightSequence.exact`. Each log weight comes from the prime valuations
    of the ratios and the leading bits of two quotients (`_integer_weights`)."""

    def __init__(self, M: WeightSequence, terms: int = DEFAULT_TERMS):
        if terms < MIN_TERMS:
            raise ValueError(f"need at least {MIN_TERMS} bump terms")
        self.M = M
        self.terms = terms  # series runs over 1 <= k <= terms
        self._exact_w: dict[int, Fraction] = {}  # weight_exact's memo
        # phi(m_k) = m_k^(k+2)/M_k needs nondecreasing ratios through m_terms
        M.validate(terms + 1)
        if M.has_exact:
            self._m_int, log_phi = _integer_weights(M, terms)
            self._weight_terms = _moment_terms(self._m_int, terms, 0)  # weight_exact's cursor
        else:
            log_phi = [(k + 2) * M.log_ratio(k) - M.log_weight(k) for k in self.k_range]
        self._log_w = {
            k: 2 * M.log_ratio(k) - k * math.log(2) - lp for k, lp in zip(self.k_range, log_phi)
        }

    @property
    def k_range(self) -> range:
        return range(1, self.terms + 1)

    def weight_log(self, k: int) -> float:
        return self._log_w[k]

    def weight_exact(self, k: int) -> Fraction:
        """w_k = M_k / (2^k m_k^k); its first use memoises w_1 .. w_k."""
        if not self.M.has_exact:
            raise ValueError(f"{self.M.name} has no exact rational path")
        while k not in self._exact_w and k in self.k_range:
            self._exact_w[len(self._exact_w) + 1] = _from_factored(*next(self._weight_terms))
        return self._exact_w[k]

    # -- evaluation ----------------------------------------------------------

    def value(self, x1: Scalar, x2: Scalar, exact: bool = False) -> Scalar:
        if exact:
            return sum(
                self.weight_exact(k)
                / (1 + Fraction(x1) ** 2 + (self._m_int[k] * Fraction(x2)) ** 2)
                for k in self.k_range
            )
        logs = [
            self._log_w[k] - math.log(1 + x1 * x1 + (m * x2) ** 2)
            for k, m in zip(self.k_range, self._float_terms[1])
        ]
        return math.exp(logsumexp(logs))

    @cached_property
    def _float_terms(self) -> tuple[list[float], list[float]]:
        """([w_k], [m_k]) in floats over k_range, built on the first float
        value or jet; the exact paths never build them."""
        return (
            [math.exp(self._log_w[k]) for k in self.k_range],
            [math.exp(self.M.log_ratio(k)) for k in self.k_range],
        )

    def kernel_sum(self, y1: Jet2, y2: Jet2) -> Jet2:
        """sum_k w_k / (A + (m_k y2)^2), A = 1 + y1^2, for coordinate jets
        y1, y2; exact weights and ratios for exact jets, float ones otherwise.

        `reciprocal_sum` runs the bump index in one compiled loop, and its
        bits are those of the per-term formula
        sum_k (A + y2.scale(m_k)^2).reciprocal().scale(w_k) in increasing k."""
        if y1.kind == EXACT:
            ws = [self.weight_exact(k) for k in self.k_range]
            ms = [self._m_int[k] for k in self.k_range]
        else:
            ws, ms = self._float_terms
        return reciprocal_sum(1 + y1 * y1, y2, ms, ws)

    def jet(self, base: tuple, degree: int) -> Jet2:
        """The jet at base, exact at a rational point, float at a float one."""
        return self.kernel_sum(Jet2.variable(0, base, degree), Jet2.variable(1, base, degree))

    # -- axis derivatives ----------------------------------------------------

    def axis_sum_log(self, order: int) -> float:
        """log of the moment sum_k w_k m_k^order, truncated, in floats; at
        1+t^2 the axis sum's log is this minus (order/2+1) log(1+t^2)."""
        return logsumexp(self._log_w[k] + order * self.M.log_ratio(k) for k in self.k_range)

    def axis_moment(self, order: int) -> Fraction:
        """sum_k w_k m_k^order over the truncation, exact (`_axis_moment`)."""
        return _from_factored(*self._axis_moment(order))

    def _axis_moment(self, order: int) -> tuple[int, dict[int, int]]:
        """The exact moment sum_k w_k m_k^order in lowest terms, as its
        numerator and its denominator's {p: exponent}, for the brackets of
        its products, which cancel by trial division and never multiply the
        denominator out (`_bracket_factored`). The terms (`_moment_terms`)
        are summed pairwise as they come: a stack holds the sums of runs of
        2^j consecutive terms, j falling up the stack, and the k-th term
        closes one run per trailing zero bit of k, so about log2 K partial
        sums are held. A merge multiplies each numerator by the prime powers
        its denominator lacks (`_add_factored`); the sum is put in lowest
        terms over its denominator's known primes (`_lowest_terms`), so the
        ~877k-bit numerator at order 2 of the 1024 layout meets no gcd."""
        if not self.M.has_exact:
            raise ValueError(f"{self.M.name} has no exact rational path")
        runs = []
        for k, term in enumerate(_moment_terms(self._m_int, self.terms, order), 1):
            runs.append(term)
            j = k
            while not j & 1:
                top = runs.pop()
                runs[-1] = _add_factored(runs[-1], top)
                j >>= 1
        while len(runs) > 1:
            top = runs.pop()
            runs[-1] = _add_factored(runs[-1], top)
        return _lowest_terms(*runs[0])

    def axis_sum_interval(self, order: int, one_plus_t2: RInterval) -> RInterval:
        """sum_k w_k m_k^order / (1+t^2)^(order/2+1) for an enclosure of 1+t^2."""
        return (one_plus_t2 ** (order // 2 + 1)).reciprocal() * self.axis_moment(order)

    def axis_tail_exact(self, order: int) -> Fraction:
        """Rigorous bound on the dropped k > terms part of the moment of order
        n: M_n 2^-K."""
        if not self.M.has_exact:
            raise ValueError("exact tail needs an exact family")
        return self.M.exact(order) / 2**self.terms


# -- finite-order bound checks -----------------------------------------------
# Each check takes the truncated base function it checks and reads the
# family and term count K from it.

def _upper_bound(h: BaseFunction, log_d: float, two_log_rho: float):
    """The `log_bound` of |d^a f| <= 64 rho^2 8^(|a|+1) a! M_a2 / D^(1+|a|/2),
    log D = log_d, for a block of scale rho or the base (rho = 1, two_log_rho
    = 0.0, which adds no bit).

    Jets are truncated at K terms; the dropped contribution is bounded by
    rho^2 8^(|a|+1) a! M_a2 2^-K over the same denominator power and is added
    to the left side, so the certified inequality covers the full series."""
    M, log_2k = h.M, h.terms * LOG2

    def log_bound(a, n):
        scale = (1 + n / 2) * log_d
        log_tail = two_log_rho + (n + 1) * LOG8 + M.log_weight(a[1]) - log_2k - scale
        log_rhs = math.log(64) + two_log_rho + (n + 1) * LOG8 + M.log_weight(a[1]) - scale
        return [log_tail], log_rhs

    return log_bound


def base_upper_check(
    h: BaseFunction, degree: int = 6, points: int = 25, seed: int = 3
) -> SweepResult:
    """Sweep |d^a h| <= 64 * 8^(|a|+1) a! M_a2 / (1+|x|^2)^(1+|a|/2), the
    block bound at rho = 1, with its truncation tail."""
    rng = random.Random(seed)
    res = SweepResult()
    pts = [(0.0, 0.0)] + [
        (rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(points - 1)
    ]
    for x in pts:
        log_bound = _upper_bound(h, math.log1p(x[0] ** 2 + x[1] ** 2), 0.0)
        res.sweep(h.jet(x, degree), (x,), log_bound)
    return res


@dataclass
class LowerBoundRow:
    order: int
    log_lhs: float  # log(|truncated derivative| - rigorous tail)
    log_rhs: float
    exact_ok: Optional[bool]

    @property
    def ok(self) -> bool:
        if self.exact_ok is not None:
            return self.exact_ok
        return self.log_lhs >= self.log_rhs


def _lower_rows(
    h: BaseFunction, rhos: Sequence[Fraction], orders: Sequence[int]
) -> list[LowerBoundRow]:
    """One row per (rho, order n): at the centre of a block of scale rho,
    |d^n f/dx2^n| = n! axis_moment(n) / rho^n; minus its tail
    n! M_n / (2^K rho^n), it must reach n! M_n / (4^(n/2) rho^n). Decided
    exactly for an exact family, else in logs. The base itself is rho = 1."""
    if not orders:
        raise ValueError("no orders to check")
    if any(order % 2 or not 2 <= order <= h.terms for order in orders):
        raise ValueError(f"orders must be even, >= 2 and <= terms = {h.terms}")
    M = h.M
    rows = []
    for rho in rhos:
        for order in orders:
            lf, log_scale = math.lgamma(order + 1), order * log_of_fraction(rho)
            log_rhs = lf + M.log_weight(order) - (order // 2) * math.log(4) - log_scale
            exact_ok = None
            if M.has_exact:
                scale = Fraction(math.factorial(order)) / rho**order
                lhs = scale * (h.axis_moment(order) - h.axis_tail_exact(order))
                exact_ok = lhs >= scale * M.exact(order) / 4 ** (order // 2)
                log_lhs = log_of_fraction(lhs) if lhs > 0 else LOG_ZERO
            else:
                value = lf + h.axis_sum_log(order) - log_scale
                tail = lf + (M.log_weight(order) - h.terms * math.log(2)) - log_scale
                log_lhs = log_diff(value, tail)
            rows.append(LowerBoundRow(order, log_lhs, log_rhs, exact_ok))
    return rows


def base_lower_check(h: BaseFunction, orders: Sequence[int]) -> list[LowerBoundRow]:
    """|d^(2n) h / dx2^(2n) (0,0)| >= (2n)! M_2n / 4^n for n >= 1, checked
    with the rigorous tail bound subtracted from the truncated sum."""
    return _lower_rows(h, [Fraction(1)], orders)


# -- blocks ------------------------------------------------------------------

class Block:
    """h((x - c)/rho) with c = (q rho, 0), q >= 1, 0 < rho < 1."""

    def __init__(self, base: BaseFunction, q: Fraction, rho: Fraction):
        self.base = base
        self.q, self.rho = self.geometry(q, rho)

    @staticmethod
    def geometry(q: Fraction, rho: Fraction) -> tuple[Fraction, Fraction]:
        """(q, rho) as Fractions; ValueError unless q >= 1 and 0 < rho < 1."""
        q, rho = Fraction(q), Fraction(rho)
        if q < 1:
            raise ValueError("block offset q must be >= 1")
        if not 0 < rho < 1:
            raise ValueError("block scale rho must lie in (0, 1)")
        return q, rho

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        return (self.q * self.rho, Fraction(0))

    def value(self, x1: Scalar, x2: Scalar, exact: bool = False) -> Scalar:
        if exact:
            return self.base.value(
                Fraction(x1) / self.rho - self.q, Fraction(x2) / self.rho, True
            )
        r = float(self.rho)
        return self.base.value(x1 / r - float(self.q), x2 / r)

    def jet_of(self, x1: Jet2, x2: Jet2) -> Jet2:
        """The block composed with coordinate jets x1, x2."""
        if x1.kind == EXACT:
            inv_rho, q = 1 / self.rho, self.q
        else:
            inv_rho, q = 1 / float(self.rho), float(self.q)
        return self.base.kernel_sum(x1.scale(inv_rho) - q, x2.scale(inv_rho))

    def jet(self, base_pt: tuple, degree: int) -> Jet2:
        """The jet at base_pt, exact at a rational point, float at a float one."""
        return self.jet_of(Jet2.variable(0, base_pt, degree), Jet2.variable(1, base_pt, degree))


def block_upper_check(
    h: BaseFunction,
    geometries: Sequence[tuple[Fraction, Fraction]],
    degree: int = 6,
    points: int = 6,
    seed: int = 4,
) -> SweepResult:
    """Sweep |d^a f| <= 64 rho^2 8^(|a|+1) a! M_a2 / (|x-c|^2 + rho^2)^(1+|a|/2)."""
    rng = random.Random(seed)
    res = SweepResult()
    for q, rho in geometries:
        blk = Block(h, q, rho)
        c1, rr = float(blk.center[0]), float(rho)
        pts = [(c1, 0.0)] + [
            (c1 + rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(points - 1)
        ]
        for x in pts:
            log_d = math.log((x[0] - c1) ** 2 + x[1] ** 2 + rr * rr)
            log_bound = _upper_bound(h, log_d, 2 * math.log(rr))
            res.sweep(blk.jet(x, degree), ((q, rho), x), log_bound)
    return res


def block_lower_check(
    h: BaseFunction,
    geometries: Sequence[tuple[Fraction, Fraction]],
    orders: Sequence[int],
) -> list[LowerBoundRow]:
    """At the block center, |d^(2n)/dx2^(2n) f| >= (2n)! M_2n / (4^n rho^2n),
    with the rigorous tail subtracted."""
    return _lower_rows(h, [Block.geometry(q, rho)[1] for q, rho in geometries], orders)


# -- polar composition -------------------------------------------------------

def polar_block_jet(blk: Block, base_pt: tuple, degree: int) -> Jet2:
    """Jet of f(r cos theta, r sin theta) at base_pt = (r, theta), of the
    point's kind; an exact point needs theta = 0 exactly."""
    return blk.jet_of(*polar_coordinates(base_pt, degree))


def polar_tail_log(h: BaseFunction, w_log: float, growth: float, a: tuple, n: int) -> float:
    """log of the K-term tail of a block of weight e^w_log at coefficient a
    of a polar sweep: w (1 + q rho)^a2 8^(5(n+1)) M_n 2^-K, growth =
    log(1 + q rho). The single block has w_log = 0.0, which adds no bit."""
    return w_log + a[1] * growth + 5 * (n + 1) * LOG8 + h.M.log_weight(n) - h.terms * LOG2


def polar_block_bound_check(
    h: BaseFunction,
    geometries: Sequence[tuple[Fraction, Fraction]],
    degree: int = 5,
    radii: int = 5,
    angles: int = 4,
    C: float = POLAR_BLOCK_C,
    seed: int = 5,
) -> SweepResult:
    """Sweep |d^a (f o polar)| <= (1 + q rho)^a2 C^(|a|+1) a! M_|a| in float.

    Needs M_1 = 1 (the lemma's normalization; it makes the weighted ratio
    sums collapse to M_|a|)."""
    M = h.M
    if abs(M.log_weight(1)) > 1e-12:
        raise WeightError("polar block bound requires M_1 = 1")
    rng = random.Random(seed)
    res = SweepResult()
    logC = math.log(C)
    for q, rho in geometries:
        blk = Block(h, q, rho)
        growth = math.log1p(float(q * rho))

        def log_bound(a, n):
            log_rhs = a[1] * growth + (n + 1) * logC + M.log_weight(n)
            return [polar_tail_log(h, 0.0, growth, a, n)], log_rhs

        def constant(a, n, coef):
            norm = math.log(coef) - a[1] * growth - M.log_weight(n)
            return math.exp(norm / (n + 1))

        for r, th in polar_samples(rng, radii, angles):
            jet = polar_block_jet(blk, (r, th), degree)
            res.sweep(jet, ((q, rho), r, th), log_bound, constant)
    return res
