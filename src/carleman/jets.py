"""Truncated bivariate Taylor arithmetic with exact-rational or float scalars.

A Jet2 holds the Taylor coefficients of a smooth function of two variables at a
base point, complete through a fixed total degree, as one flat list in graded
order (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ...: alpha = (i, j) of total
degree n sits at position n(n+1)/2 + i. coefficient(alpha) is the normalized
derivative d^alpha f / alpha!; callers multiply the factorials back in
themselves. Arithmetic truncates at the common degree. Products and
reciprocals walk a table built once per degree: for each position a, the
positions of a + b for every b that stays within the degree, and for each
output position alpha, the (beta, alpha - beta) pairs of the reciprocal's
order-by-order solve. Both skip zero operands, so exact jets pay nothing for
zero entries and no 0 * inf appears in float ones. An exact reciprocal runs
that solve on integers, the jet scaled by the lcm of its denominators, and
forms each coefficient once as a reduced Fraction instead of normalising
after every scalar operation. `reciprocal_sum` gives the bump superposition
sum_k w_k / (A + (m_k y2)^2) with the bump index k innermost: each
coefficient is a list over k, walked once through the same tables, and each
list operation repeats for every k the scalar operation of the per-term
product, reciprocal, scale and running sum in the same order, so its floats
are bit for bit those of the per-term formula. sin/cos split off the
(possibly irrational) angle constant and run Maclaurin series on the
nilpotent part, which also gives the polar coordinate jets
(r cos theta, r sin theta).

The scalar kind is read from the base point, never passed: a point whose two
coordinates are int or Fraction gives an exact jet (Fraction scalars), and a
point with a float coordinate gives a float jet. The jet builders of `bricks`
and `blocks` take it from their point the same way; `FlatFunction`, whose
block weights are floats, makes its point float first. `Jet2.kind` records
the kind for the operations that dispatch on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from operator import add, mul
from types import MappingProxyType
from typing import Callable

EXACT = "exact"
FLOAT = "float"
_ZERO = {EXACT: Fraction(0), FLOAT: 0.0}


class JetError(ValueError):
    pass


class JetMismatch(JetError):
    """Operands disagree on base point, degree, or scalar kind."""


class SingularJet(JetError):
    """Reciprocal of a jet whose constant term is zero."""


def _kind_of(base) -> str:
    """EXACT for a point of ints and Fractions, FLOAT if a coordinate is a float."""
    if len(base) == 2:
        x1, x2 = base
        if isinstance(x1, (int, Fraction)) and isinstance(x2, (int, Fraction)):
            return EXACT
        if isinstance(x1, (int, Fraction, float)) and isinstance(x2, (int, Fraction, float)):
            return FLOAT
    raise JetError(f"base point {base!r} is not two int, Fraction or float coordinates")


def _coerce(kind: str, value):
    if kind == EXACT:
        if isinstance(value, float):
            raise JetError("float scalar in an exact jet")
        return value if isinstance(value, Fraction) else Fraction(value)
    return float(value)


def _size(degree: int) -> int:
    """Number of multi-indices of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


def _pos(i: int, j: int) -> int:
    """Position of (i, j) in the graded order."""
    return (i + j) * (i + j + 1) // 2 + i


@cache
def _tables(degree: int) -> tuple:
    """(alphas, sums, solve) for one degree, positions in graded order.

    sums[a] lists the position of alpha_a + alpha_b for b = 0, 1, ... while
    the total degree stays <= degree (a prefix, as the order is graded);
    solve[p] lists (beta, alpha_p - beta) for every 0 < beta <= alpha_p.
    """
    alphas = tuple((i, n - i) for n in range(degree + 1) for i in range(n + 1))
    sums = tuple(
        tuple(_pos(i + k, j + l) for k, l in alphas[: _size(degree - i - j)])
        for i, j in alphas
    )
    solve = tuple(
        tuple((_pos(k, l), _pos(i - k, j - l)) for k, l in alphas[1:] if k <= i and l <= j)
        for i, j in alphas
    )
    return alphas, sums, solve


_new = object.__new__


class Jet2:
    __slots__ = ("base", "degree", "kind", "_c")

    def __init__(self, base: tuple, degree: int, coeffs=None):
        """The jet at base with the given {(i, j): scalar} coefficients, zero
        elsewhere; its kind is the base point's (`_kind_of`)."""
        kind = _kind_of(base)
        if degree < 0:
            raise JetError("degree must be >= 0")
        c = [_ZERO[kind]] * _size(degree)
        for (i, j), v in (coeffs or {}).items():
            if i < 0 or j < 0 or i + j > degree:
                raise JetError(f"multi-index {(i, j)} outside degree {degree}")
            c[_pos(i, j)] = _coerce(kind, v)
        self.base = (_coerce(kind, base[0]), _coerce(kind, base[1]))
        self.degree, self.kind, self._c = degree, kind, c

    @classmethod
    def constant(cls, value, base, degree) -> "Jet2":
        return cls(base, degree, {(0, 0): value})

    @classmethod
    def variable(cls, index: int, base, degree) -> "Jet2":
        """The coordinate function x_index expanded at the base point."""
        if index not in (0, 1):
            raise JetError("variable index must be 0 or 1")
        coeffs = {(0, 0): base[index]}
        if degree >= 1:
            coeffs[(1, 0) if index == 0 else (0, 1)] = 1
        return cls(base, degree, coeffs)

    def _wrap(self, c: list) -> "Jet2":
        """A jet on self's base, degree and kind, unchecked."""
        jet = _new(Jet2)
        jet.base, jet.degree, jet.kind, jet._c = self.base, self.degree, self.kind, c
        return jet

    def _filled(self, out: list) -> "Jet2":
        """_wrap with each None (an entry nothing contributed to) made zero."""
        zero = _ZERO[self.kind]
        return self._wrap([zero if v is None else v for v in out])

    # -- basic ring structure ------------------------------------------------

    def _check_compatible(self, other: "Jet2"):
        if self.base != other.base or self.degree != other.degree or self.kind != other.kind:
            raise JetMismatch(
                f"incompatible jets: base {self.base}/{other.base}, "
                f"degree {self.degree}/{other.degree}, kind {self.kind}/{other.kind}"
            )

    def __add__(self, other):
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.base, self.degree)
        self._check_compatible(other)
        return self._wrap([a + b if b else a for a, b in zip(self._c, other._c)])

    __radd__ = __add__

    def __neg__(self):
        return self._wrap([-a for a in self._c])

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            other = Jet2.constant(other, self.base, self.degree)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "Jet2":
        s = _coerce(self.kind, s)
        if s == 0:
            return self._wrap([_ZERO[self.kind]] * len(self._c))
        return self._wrap([a * s if a else a for a in self._c])

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return self.scale(other)
        self._check_compatible(other)
        sums = _tables(self.degree)[1]
        y = [(q, b) for q, b in enumerate(other._c) if b]
        out = [None] * len(sums)
        for p, a in enumerate(self._c):
            if a:
                row = sums[p]
                n = len(row)
                for q, b in y:
                    if q >= n:
                        break
                    k = row[q]
                    v = out[k]
                    out[k] = a * b if v is None else v + a * b
        return self._filled(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Jet2":
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return Jet2.constant(1, self.base, self.degree)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet2)
            and self.base == other.base
            and self.degree == other.degree
            and self.kind == other.kind
            and self._c == other._c
        )

    def __repr__(self) -> str:
        return f"Jet2({self.base!r}, {self.degree}, {dict(self.coeffs)!r})"

    # -- queries -------------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {(i, j): scalar} of the nonzero coefficients."""
        return MappingProxyType({a: c for a, c in self.graded_items() if c})

    def graded_items(self):
        """(alpha, coefficient) for every alpha of total degree <= degree, in
        graded order, zeros included (a float zero may be -0.0)."""
        return zip(_tables(self.degree)[0], self._c)

    def coefficient(self, alpha) -> object:
        """Taylor coefficient at alpha, i.e. d^alpha f / alpha!."""
        i, j = alpha
        if i < 0 or j < 0 or i + j > self.degree:
            raise JetError(f"multi-index {alpha} outside degree {self.degree}")
        return self._c[_pos(i, j)] or _ZERO[self.kind]

    def value(self) -> object:
        return self._c[0] or _ZERO[self.kind]

    # -- nonlinear operations ------------------------------------------------

    def reciprocal(self) -> "Jet2":
        a = self._c
        a00 = a[0]
        if a00 == 0:
            raise SingularJet("reciprocal of a jet with zero constant term")
        if self.kind == EXACT:
            return self._exact_reciprocal()
        inv0 = 1.0 / a00
        # solve sum_{beta <= alpha} a_beta r_{alpha - beta} = [alpha == 0] in
        # graded order; only nonzero a_beta with beta != 0 contribute
        a = [c if c else None for c in a]
        out = [None] * len(a)
        out[0] = inv0
        solve = _tables(self.degree)[2]
        for p in range(1, len(a)):
            acc = 0
            for b, r in solve[p]:
                ab = a[b]
                if ab is not None:
                    rr = out[r]
                    if rr is not None:
                        acc = acc + ab * rr
            if acc != 0:
                out[p] = -inv0 * acc
        return self._filled(out)

    def _exact_reciprocal(self) -> "Jet2":
        """The graded solve on integers: with D the lcm of the denominators
        and P = D a, S_0 = 1 and
        S_alpha = -sum_{0 < beta <= alpha} P_beta S_(alpha-beta) P_0^(|beta|-1)
        give r_alpha = D S_alpha / P_0^(|alpha|+1), one reduced Fraction each."""
        D = reduce(math.lcm, (c.denominator for c in self._c if c), 1)
        P = [c.numerator * (D // c.denominator) if c else None for c in self._c]
        powers = [1]  # P_0^0 .. P_0^(degree+1)
        for _ in range(self.degree + 1):
            powers.append(powers[-1] * P[0])
        alphas, _, solve = _tables(self.degree)
        S = [None] * len(P)
        S[0] = 1
        for p in range(1, len(P)):
            acc = 0
            for b, r in solve[p]:
                pb = P[b]
                if pb is not None:
                    s = S[r]
                    if s is not None:
                        i, j = alphas[b]
                        acc += pb * s * powers[i + j - 1]
            if acc:
                S[p] = -acc
        return self._filled(
            [s if s is None else Fraction(D * s, powers[sum(alpha) + 1])
             for s, alpha in zip(S, alphas)]
        )


def reciprocal_sum(A: Jet2, y2: Jet2, ms, ws) -> Jet2:
    """sum_k ws[k] / (A + (ms[k] y2)^2), bit for bit the per-term formula

        total = 0; for k: total = total + (A + ym * ym).reciprocal().scale(w_k),
        ym = y2.scale(m_k).

    The index k runs innermost: every coefficient of an intermediate jet is
    a list over k, and each list operation repeats, for each k, the scalar
    operation of that formula in the same order: the products in __mul__'s
    (p, q) order, reciprocal's solve order and -inv0 * acc, and the running
    total in increasing k. Zeros are skipped by a pattern that does not
    depend on k (the nonzeros of y2 and A), and a list that is zero for
    every k is dropped, so exact jets pay nothing for structural zeros.
    """
    A._check_compatible(y2)
    if len(ms) != len(ws):
        raise JetError(f"{len(ms)} ratios but {len(ws)} weights")
    kind, zero = A.kind, _ZERO[A.kind]
    if not ms:
        return A._wrap([zero] * len(A._c))
    ms = [_coerce(kind, m) for m in ms]
    ws = [_coerce(kind, w) for w in ws]
    _, sums, solve = _tables(A.degree)
    # (m_k y2)_p for every nonzero y2_p, then their squares as in __mul__
    ys = [(p, [b * m for m in ms]) for p, b in enumerate(y2._c) if b]
    sq = [None] * len(sums)
    for p, a in ys:
        row = sums[p]
        n = len(row)
        for q, b in ys:
            if q >= n:
                break
            r = row[q]
            v = sq[r]
            sq[r] = list(map(mul, a, b)) if v is None else list(map(add, v, map(mul, a, b)))
    # Q = A + (m y2)^2: a list over k, or None where it is zero for every k
    Q = []
    for a, v in zip(A._c, sq):
        if v is not None:
            v = [a + b for b in v] if a else v
        elif a:
            v = [a] * len(ms)
        Q.append(v if v is not None and any(v) else None)
    q0 = Q[0]
    if q0 is None or not all(q0):
        raise SingularJet("reciprocal of a jet with zero constant term")
    one = Fraction(1) if kind == EXACT else 1.0
    inv0 = [one / a for a in q0]
    neg_inv0 = [-i for i in inv0]
    out = [None] * len(Q)
    out[0] = inv0
    for p in range(1, len(Q)):
        acc = None
        for b, r in solve[p]:
            qb = Q[b]
            if qb is not None:
                rr = out[r]
                if rr is not None:
                    prod = map(mul, qb, rr)
                    acc = list(prod) if acc is None else list(map(add, acc, prod))
        if acc is not None and any(acc):
            out[p] = list(map(mul, neg_inv0, acc))
    # scale by w_k and add up in increasing k; a zero term leaves the total
    # as it is, just as the per-term formula skips it
    return A._wrap([zero if v is None else reduce(add, map(mul, v, ws), zero) for v in out])


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
    one = Jet2.constant(1, t.base, t.degree)
    sin_p = Jet2.constant(0, t.base, t.degree)
    cos_p = one
    power = one
    for n in range(1, t.degree + 1):
        power = power * p
        if not any(power._c):
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


def polar_coordinates(base_pt: tuple, degree: int) -> tuple[Jet2, Jet2]:
    """(r cos theta, r sin theta) as jets at base_pt = (r, theta), of the
    point's kind. An exact point needs theta = 0 exactly, as jet_sin_cos
    does; any other rational theta raises JetError.
    """
    r = Jet2.variable(0, base_pt, degree)
    s, c = jet_sin_cos(Jet2.variable(1, base_pt, degree))
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
