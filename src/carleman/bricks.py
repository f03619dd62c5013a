"""Single rational bump functions and certified derivative bounds.

The bump with parameters (q, m, rho) is

    u(x) = rho^2 / (rho^2 + (x1 - rho*q)^2 + (m*x2)^2),

an anisotropic Cauchy kernel centered at (rho*q, 0), whose jet is the one-term
`reciprocal_sum` (the K = 1 case of `BaseFunction.kernel_sum`). Taylor
coefficients come from exact jet arithmetic; the derivative bounds carry
half-integer powers of the denominator, so exact certification compares
squares of both sides, which stay rational.

Every derivative-bound check, here and in `blocks` and `flat`, runs through
one coefficient sweep, `SweepResult.sweep`: the check supplies only its bound
(and, where it reports one, its empirical-constant formula), squared for an
exact jet and in logs for a float one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .jets import EXACT, Jet2, polar_coordinates, reciprocal_sum
from .logscale import LOG_ZERO, log_of_fraction, logsumexp

Scalar = Union[int, float, Fraction]

POLAR_C_DEFAULT = 8**5


@dataclass(frozen=True)
class BrickParams:
    q: Fraction
    m: Fraction
    rho: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "m", Fraction(self.m))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.q < 0:
            raise ValueError("offset q must be >= 0")
        if self.m < 1:
            raise ValueError("aspect m must be >= 1")
        if not 0 < self.rho <= 1:
            raise ValueError("scale rho must lie in (0, 1]")

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        return (self.rho * self.q, Fraction(0))


def brick_value(p: BrickParams, x1: Scalar, x2: Scalar) -> Scalar:
    return p.rho**2 / (p.rho**2 + (x1 - p.rho * p.q) ** 2 + (p.m * x2) ** 2)


def _brick_of(p: BrickParams, x1: Jet2, x2: Jet2) -> Jet2:
    """The bump composed with coordinate jets x1, x2: rho^2 times the
    one-term bump sum 1 / (A + (m x2)^2), A = rho^2 + (x1 - rho q)^2. The
    scale by rho^2 comes after the sum, as in 1 / denominator * rho^2: a
    float sum's running total reads a zero term as 0.0, so a coefficient
    that underflows to -0.0 only in the scale keeps its sign."""
    return reciprocal_sum(p.rho**2 + (x1 - p.rho * p.q) ** 2, x2, [p.m], [1]).scale(p.rho**2)


def brick_jet(p: BrickParams, base: tuple, degree: int) -> Jet2:
    """The jet of u at base, exact at a rational point, float at a float one."""
    return _brick_of(p, Jet2.variable(0, base, degree), Jet2.variable(1, base, degree))


def polar_brick_jet(p: BrickParams, base: tuple, degree: int) -> Jet2:
    """Jet of u composed with (r, theta) -> (r cos theta, r sin theta) at
    base = (r, theta), of the point's kind; an exact point needs theta = 0
    exactly, as `polar_coordinates` does."""
    return _brick_of(p, *polar_coordinates(base, degree))


@dataclass
class SweepResult:
    """Outcome of sweeping |coefficient| <= bound over points and orders."""

    checked: int = 0
    failures: list = field(default_factory=list)
    max_log_ratio: float = -math.inf  # log(lhs/rhs), <= 0 everywhere when ok
    empirical_constant: float = 0.0  # smallest constant the sweep would allow

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, log_lhs: float, log_rhs: float, tag) -> None:
        """Compare log lhs <= log rhs; a NaN or +inf, which no comparison
        fails, raises OverflowError."""
        for v in (log_lhs, log_rhs):
            if not v < math.inf:
                raise OverflowError(f"a sweep read {v!r}")
        self.checked += 1
        if log_lhs > log_rhs:
            self.failures.append(tag)
        if log_lhs > LOG_ZERO:
            self.max_log_ratio = max(self.max_log_ratio, log_lhs - log_rhs)

    def record_squares(self, lhs: Fraction, rhs_sq: Fraction, tag) -> None:
        """Compare lhs^2 <= rhs_sq for a rational lhs >= 0. lhs = n/d in
        lowest terms has the square n^2/d^2 in lowest terms, so the
        comparison and its log ratio are read from integers."""
        self.checked += 1
        n, d = lhs.numerator ** 2, lhs.denominator ** 2
        N, D = rhs_sq.numerator, rhs_sq.denominator
        if n * D > N * d:
            self.failures.append(tag)
        if n and N > 0:
            log_ratio = math.log(n) - math.log(d) - log_of_fraction(rhs_sq)
            self.max_log_ratio = max(self.max_log_ratio, log_ratio / 2)

    def sweep(
        self, jet: Jet2, tag: tuple, bound: Callable, constant: Optional[Callable] = None
    ) -> None:
        """Check |coefficient a| of jet against bound(a, n = |a|) for every
        |a| up to the jet's degree, compared in the jet's kind:
          exact  bound is the squared bound, a Fraction, and
                 `record_squares` compares squares over the integers;
          float  bound is (log tails, log rhs), the tails folded into the
                 log of the coefficient before `record` compares.
        constant(a, n, |coefficient|), called for nonzero coefficients, is
        the smallest constant that coefficient allows; empirical_constant
        keeps the running maximum. A failure is tagged (*tag, a). A float
        coefficient, log bound or log tail that is NaN or +inf raises
        OverflowError: it makes the compared log NaN or +inf.
        """
        exact = jet.kind == EXACT
        for a, coef in jet.graded_items():
            n = a[0] + a[1]
            coef = abs(coef)
            if exact:
                self.record_squares(coef, bound(a, n), (*tag, a))
            else:
                log_tails, log_rhs = bound(a, n)
                log_coef = math.log(coef) if coef else LOG_ZERO
                self.record(logsumexp([log_coef] + log_tails), log_rhs, (*tag, a))
            if constant is not None and coef != 0:
                self.empirical_constant = max(self.empirical_constant, constant(a, n, coef))


def _rational_points(rng: random.Random, n: int, span: int = 12) -> list[tuple[Fraction, Fraction]]:
    pts = [(Fraction(0), Fraction(0))]
    while len(pts) < n:
        pts.append(
            (
                Fraction(rng.randint(-4 * span, 4 * span), rng.randint(1, span)),
                Fraction(rng.randint(-4 * span, 4 * span), rng.randint(1, span)),
            )
        )
    return pts


def cauchy_kernel_check(
    c_values: Sequence[Fraction],
    degree: int = 8,
    points: int = 6,
    seed: int = 0,
) -> SweepResult:
    """Certify |d^a g / a!| <= 8 * 8^|a| / (c + |x|^2)^(1 + |a|/2) for the
    kernel g(x) = 1/(c + x1^2 + x2^2), exactly at rational sample points."""
    rng = random.Random(seed)
    res = SweepResult()
    for c in c_values:
        c = Fraction(c)
        if c <= 0:
            raise ValueError("kernel offset c must be positive")
        for x in _rational_points(rng, points):
            x1 = Jet2.variable(0, x, degree)
            x2 = Jet2.variable(1, x, degree)
            g = (c + x1 * x1 + x2 * x2).reciprocal()
            base_sq = c + x[0] ** 2 + x[1] ** 2
            log_base_sq = log_of_fraction(base_sq)
            bounds = [Fraction(64 * 64**n) / base_sq ** (n + 2) for n in range(degree + 1)]

            def rhs_sq(a, n):
                return bounds[n]

            def constant(a, n, coef):
                log_lhs = log_of_fraction(coef) + (1 + n / 2) * log_base_sq
                return math.exp(log_lhs / (n + 1))

            res.sweep(g, (c, x), rhs_sq, constant)
    return res


def brick_taylor_check(
    params: Iterable[BrickParams],
    degree: int = 8,
    points: int = 5,
    seed: int = 1,
) -> SweepResult:
    """Certify |d^a u / a!| <= rho^2 m^a2 8^(|a|+1) (u(x)/rho^2)^(1+|a|/2)
    exactly, squaring both sides to clear the half-integer power."""
    rng = random.Random(seed)
    res = SweepResult()
    for p in params:
        log_rho2 = 2 * log_of_fraction(p.rho)
        log_m = log_of_fraction(p.m)
        for x in _rational_points(rng, points):
            jet = brick_jet(p, x, degree)
            u = brick_value(p, x[0], x[1])
            scaled = u / p.rho**2
            log_u = log_of_fraction(u)

            def rhs_sq(a, n):
                return p.rho**4 * p.m ** (2 * a[1]) * Fraction(64) ** (n + 1) * scaled ** (n + 2)

            def constant(a, n, coef):
                log_norm = (
                    log_of_fraction(coef)
                    - log_rho2
                    - a[1] * log_m
                    - (1 + n / 2) * (log_u - log_rho2)
                )
                return math.exp(log_norm / (n + 1))

            res.sweep(jet, (p, x), rhs_sq, constant)
    return res


def polar_samples(rng: random.Random, radii: int, angles: int) -> list[tuple[float, float]]:
    """(r, theta) points: r = 0 and radii - 1 log-uniform radii in [1e-4, 10],
    all drawn first, then angles uniform thetas in [-pi, pi] per radius."""
    lo, hi = math.log(1e-4), math.log(10.0)
    rs = [0.0] + [math.exp(rng.uniform(lo, hi)) for _ in range(radii - 1)]
    return [(r, rng.uniform(-math.pi, math.pi)) for r in rs for _ in range(angles)]


def polar_brick_bound_check(
    params: Iterable[BrickParams],
    degree: int = 6,
    radii: int = 5,
    angles: int = 4,
    C: float = POLAR_C_DEFAULT,
    seed: int = 2,
) -> SweepResult:
    """Sweep |d^a (u o polar) / a!| <= m^|a| (1 + q rho)^a2 C^(|a|+1) in float
    arithmetic, compared in logs, over log-uniform radii and uniform angles."""
    rng = random.Random(seed)
    res = SweepResult()
    log_C = math.log(C)
    for p in params:
        m = float(p.m)
        growth2 = 1.0 + float(p.q * p.rho)
        log_m, log_growth2 = math.log(m), math.log(growth2)

        def log_bound(a, n):
            return [], n * log_m + a[1] * log_growth2 + (n + 1) * log_C

        def constant(a, n, coef):
            norm = coef / (m**n * growth2 ** a[1])
            return norm ** (1.0 / (n + 1))

        for r, th in polar_samples(rng, radii, angles):
            jet = polar_brick_jet(p, (r, th), degree)
            res.sweep(jet, (p, r, th), log_bound, constant)
    return res

