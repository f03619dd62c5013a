"""Truncated bivariate Taylor arithmetic with exact-rational or float scalars.

A Jet2 holds the Taylor coefficients of a smooth function of two variables at a
base point, complete through a fixed total degree. coefficient(alpha) is the
normalized derivative d^alpha f / alpha!; callers multiply the factorials back
in themselves. Arithmetic truncates at the common degree; reciprocals are
solved order by order; sin/cos split off the (possibly irrational) angle
constant and run Maclaurin series on the nilpotent part, which also gives the
polar coordinate jets (r cos theta, r sin theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

EXACT = "exact"
FLOAT = "float"


class JetError(ValueError):
    pass


class JetMismatch(JetError):
    """Operands disagree on base point, degree, or scalar kind."""


class SingularJet(JetError):
    """Reciprocal of a jet whose constant term is zero."""


def _coerce(kind: str, value):
    if kind == EXACT:
        if isinstance(value, float):
            raise JetError("float scalar in an exact jet")
        return value if isinstance(value, Fraction) else Fraction(value)
    return float(value)


@dataclass(frozen=True)
class Jet2:
    base: tuple
    degree: int
    kind: str
    coeffs: dict = field(default_factory=dict)  # {(i, j): scalar}, zeros omitted

    def __post_init__(self):
        if self.kind not in (EXACT, FLOAT):
            raise JetError(f"unknown scalar kind {self.kind!r}")
        if self.degree < 0:
            raise JetError("degree must be >= 0")

    @classmethod
    def constant(cls, value, base, degree, kind=EXACT) -> "Jet2":
        base = (_coerce(kind, base[0]), _coerce(kind, base[1]))
        v = _coerce(kind, value)
        coeffs = {(0, 0): v} if v != 0 else {}
        return cls(base, degree, kind, coeffs)

    @classmethod
    def variable(cls, index: int, base, degree, kind=EXACT) -> "Jet2":
        """The coordinate function x_index expanded at the base point."""
        if index not in (0, 1):
            raise JetError("variable index must be 0 or 1")
        base = (_coerce(kind, base[0]), _coerce(kind, base[1]))
        coeffs = {}
        if base[index] != 0:
            coeffs[(0, 0)] = base[index]
        if degree >= 1:
            coeffs[(1, 0) if index == 0 else (0, 1)] = _coerce(kind, 1)
        return cls(base, degree, kind, coeffs)

    # -- basic ring structure ------------------------------------------------

    def _check_compatible(self, other: "Jet2"):
        if self.base != other.base or self.degree != other.degree or self.kind != other.kind:
            raise JetMismatch(
                f"incompatible jets: base {self.base}/{other.base}, "
                f"degree {self.degree}/{other.degree}, kind {self.kind}/{other.kind}"
            )

    def _wrap(self, coeffs: dict) -> "Jet2":
        return Jet2(self.base, self.degree, self.kind, coeffs)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.base, self.degree, self.kind)
        self._check_compatible(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            s = out.get(a, 0) + c
            if s == 0:
                out.pop(a, None)
            else:
                out[a] = s
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.base, self.degree, self.kind)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "Jet2":
        s = _coerce(self.kind, s)
        if s == 0:
            return self._wrap({})
        return self._wrap({a: c * s for a, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        self._check_compatible(other)
        out = {}
        D = self.degree
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > D:
                    continue
                key = (i, j)
                s = out.get(key, 0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Jet2":
        if n < 0:
            return self.reciprocal() ** (-n)
        out = Jet2.constant(1, self.base, self.degree, self.kind)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet2)
            and self.base == other.base
            and self.degree == other.degree
            and self.kind == other.kind
            and self.coeffs == other.coeffs
        )

    # -- queries -------------------------------------------------------------

    def coefficient(self, alpha) -> object:
        """Taylor coefficient at alpha, i.e. d^alpha f / alpha!."""
        i, j = alpha
        if i < 0 or j < 0 or i + j > self.degree:
            raise JetError(f"multi-index {alpha} outside degree {self.degree}")
        return self.coeffs.get((i, j), _coerce(self.kind, 0))

    def value(self) -> object:
        return self.coeffs.get((0, 0), _coerce(self.kind, 0))

    # -- nonlinear operations ------------------------------------------------

    def reciprocal(self) -> "Jet2":
        a00 = self.value()
        if a00 == 0:
            raise SingularJet("reciprocal of a jet with zero constant term")
        inv0 = (Fraction(1) / a00) if self.kind == EXACT else 1.0 / a00
        out = {(0, 0): inv0}
        # solve sum_{beta <= alpha} a_beta r_{alpha - beta} = [alpha == 0]
        # in graded order; only nonzero a_beta with beta != 0 contribute
        others = [(a, c) for a, c in self.coeffs.items() if a != (0, 0)]
        for deg in range(1, self.degree + 1):
            for i in range(deg + 1):
                j = deg - i
                acc = 0
                for (bi, bj), c in others:
                    ri, rj = i - bi, j - bj
                    if ri < 0 or rj < 0:
                        continue
                    r = out.get((ri, rj))
                    if r is not None:
                        acc = acc + c * r
                if acc != 0:
                    out[(i, j)] = -inv0 * acc
        return self._wrap(out)


def jet_sin_cos(t: Jet2) -> tuple[Jet2, Jet2]:
    """(sin t, cos t) via angle addition at the constant term.

    Exact jets must have zero constant term; sin/cos of a nonzero rational is
    irrational, so there is nothing exact to return otherwise.
    """
    t0 = t.value()
    if t.kind == EXACT:
        if t0 != 0:
            raise JetError("exact sin/cos needs zero constant term")
        s0, c0 = Fraction(0), Fraction(1)
    else:
        s0, c0 = math.sin(t0), math.cos(t0)
    p = t - t0  # nilpotent part
    one = Jet2.constant(1, t.base, t.degree, t.kind)
    sin_p = Jet2.constant(0, t.base, t.degree, t.kind)
    cos_p = one
    power = one
    for n in range(1, t.degree + 1):
        power = power * p
        if not power.coeffs:
            break
        inv_fact = Fraction(1, math.factorial(n)) if t.kind == EXACT else 1.0 / math.factorial(n)
        term = power.scale(inv_fact)
        if n % 2 == 1:
            sin_p = sin_p + (term if n % 4 == 1 else -term)
        else:
            cos_p = cos_p + (term if n % 4 == 0 else -term)
    sin_t = sin_p.scale(c0) + cos_p.scale(s0)
    cos_t = cos_p.scale(c0) - sin_p.scale(s0)
    return sin_t, cos_t


def polar_coordinates(base_pt: tuple, degree: int, kind: str) -> tuple[Jet2, Jet2]:
    """(r cos theta, r sin theta) as jets at base_pt = (r, theta).

    Exact kind needs base theta = 0, as jet_sin_cos does.
    """
    r = Jet2.variable(0, base_pt, degree, kind)
    s, c = jet_sin_cos(Jet2.variable(1, base_pt, degree, kind))
    return r * c, r * s


# -- finite differences ------------------------------------------------------

def central_difference(f: Callable, x, alpha, h: float) -> float:
    """Product central-difference stencil for d^alpha f at x, error O(h^2)."""
    a1, a2 = alpha
    total = 0.0
    for i in range(a1 + 1):
        for j in range(a2 + 1):
            w = (-1) ** (i + j) * math.comb(a1, i) * math.comb(a2, j)
            p = (x[0] + (a1 / 2 - i) * h, x[1] + (a2 / 2 - j) * h)
            total += w * f(p)
    return total / h ** (a1 + a2)


def finite_difference(f: Callable, x, alpha, h: float = 2e-2) -> float:
    """Richardson-extrapolated central difference for orders |alpha| <= 4.

    Two extrapolation levels over steps h, h/2, h/4 lift the O(h^2) stencil
    to O(h^6). The default step is deliberately coarse: halving further
    would trade truncation error (already ~1e-8 for unit-scale functions)
    for roundoff amplified by h^-|alpha|.
    """
    a1, a2 = alpha
    if a1 + a2 > 4:
        raise JetError("finite differences supported for |alpha| <= 4 only")
    if a1 + a2 == 0:
        return f((float(x[0]), float(x[1])))
    x = (float(x[0]), float(x[1]))
    d1 = central_difference(f, x, alpha, h)
    d2 = central_difference(f, x, alpha, h / 2)
    d3 = central_difference(f, x, alpha, h / 4)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0
