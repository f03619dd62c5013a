"""Truncated bivariate Taylor arithmetic with exact-rational or float scalars.

A Jet2 holds the Taylor coefficients of a smooth function of two variables at a
base point, complete through a fixed total degree, as one flat list in graded
order (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ...: alpha = (i, j) of total
degree n sits at position n(n+1)/2 + i. coefficient(alpha) is the normalized
derivative d^alpha f / alpha!; callers multiply the factorials back in
themselves. Arithmetic truncates at the common degree. Two tables are built
once per degree: for each position a, the positions of a + b for every b
that stays within the degree, which products walk, skipping zero operands
(so exact jets pay nothing for zero entries and no 0 * inf appears in float
ones); and for each output position alpha, the (beta, alpha - beta) pairs of
the reciprocal's order-by-order solve. `reciprocal_sum` gives the bump
superposition sum_k w_k / (A + (m_k y2)^2), on floats by a straight-line
kernel, generated from both tables once per degree and pattern of nonzero
positions of A and y2 and compiled: one loop over the bump index k with
every intermediate a local float, each the scalar operation of the per-term
product, reciprocal, scale and running sum in the same order. A float
reciprocal is its one-term sum (y2 = 0, w = 1), so every float solve runs
there. An exact reciprocal runs the solve on integers, the jet scaled by the
lcm of its denominators, and forms each coefficient once as a reduced
Fraction; an exact sum adds those reciprocals term by term.
sin/cos split off the (possibly irrational) angle constant and run
Maclaurin series on the nilpotent part; the polar coordinate jets
(r cos theta, r sin theta) are written from the same coefficients in closed
form.

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
from functools import cache, lru_cache, reduce
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
        """1 / self. A float jet is the one-term `reciprocal_sum` (y2 = 0,
        w = 1), whose total reads an underflowed -0.0 as 0.0. An exact jet
        runs the graded solve on integers: with D the lcm of the denominators
        and P = D a, S_0 = 1 and
        S_alpha = -sum_{0 < beta <= alpha} P_beta S_(alpha-beta) P_0^(|beta|-1)
        give r_alpha = D S_alpha / P_0^(|alpha|+1), one reduced Fraction each."""
        if self.kind == FLOAT:
            return reciprocal_sum(self, self._wrap([0.0] * len(self._c)), [0.0], [1.0])
        if self._c[0] == 0:
            raise SingularJet("reciprocal of a jet with zero constant term")
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


_CHUNK = 200  # terms per generated sum statement, far inside the compilers' recursion limits


def _sum_lines(name: str, terms: list[str]) -> list[str]:
    """Statements setting name = terms[0] + terms[1] + ..., added left to
    right, at most _CHUNK terms each."""
    return [
        f"{name} = " + " + ".join([name] * (i > 0) + terms[i : i + _CHUNK])
        for i in range(0, len(terms), _CHUNK)
    ]


@lru_cache(maxsize=64)  # a sweep uses a few patterns per degree (selftest: 15 in all)
def _sum_kernel(degree: int, a_nz: tuple, y_nz: tuple) -> Callable:
    """The straight-line body of `reciprocal_sum` for one degree and the
    nonzero positions a_nz of A and y_nz of y2, compiled once.

    kernel(A, Y, ms, ws) runs k in one loop over floats, every intermediate a
    local scalar named by its table position: u_p = Y_p m, the squares q_r in
    __mul__'s (p, q) order and q_r = a_r + q_r, o_0 = 1.0 / q_0, n_0 = -o_0,
    o_p = n_0 (q_b o_r + ...) in the solve order of `_tables`, and
    t_p = t_p + o_p w. A position nothing reaches is never named; the list it
    returns holds 0.0 there."""
    _, sums, solve = _tables(degree)
    squares = [[] for _ in sums]
    for p in y_nz:
        row = sums[p]
        for q in y_nz:
            if q >= len(row):
                break
            squares[row[q]].append(f"u{p} * u{q}")
    loop = [f"u{p} = y{p} * m" for p in y_nz]
    Q = {}  # position -> the local holding Q = A + (m y2)^2 there
    for r, terms in enumerate(squares):
        if terms:
            loop += _sum_lines(f"q{r}", terms)
            if r in a_nz:
                loop.append(f"q{r} = a{r} + q{r}")
            Q[r] = f"q{r}"
        elif r in a_nz:
            Q[r] = f"a{r}"
    loop += [f"o0 = 1.0 / {Q[0]}", "n0 = -o0"]
    out = {0}
    for p in range(1, len(sums)):
        terms = [f"{Q[b]} * o{r}" for b, r in solve[p] if b in Q and r in out]
        if terms:
            loop += _sum_lines(f"o{p}", terms) + [f"o{p} = n0 * o{p}"]
            out.add(p)
    loop += [f"t{p} = t{p} + o{p} * w" for p in sorted(out)]
    result = ", ".join(f"t{p}" if p in out else "0.0" for p in range(len(sums)))
    src = "\n    ".join(
        ["def kernel(A, Y, ms, ws):"]
        + [f"a{p} = A[{p}]" for p in a_nz]
        + [f"y{p} = Y[{p}]" for p in y_nz]
        + [" = ".join(f"t{p}" for p in sorted(out)) + " = 0.0", "for m, w in zip(ms, ws):"]
        + ["    " + line for line in loop]
        + [f"return [{result}]"]
    )
    namespace = {}
    exec(compile(src, f"<reciprocal_sum kernel, degree {degree}>", "exec"), namespace)
    return namespace["kernel"]


def reciprocal_sum(A: Jet2, y2: Jet2, ms, ws) -> Jet2:
    """sum_k ws[k] / (A + (ms[k] y2)^2), bit for bit the per-term formula

        total = 0; for k: total = total + (A + ym * ym).reciprocal().scale(w_k),
        ym = y2.scale(m_k),

    with .reciprocal() the graded solve in `_tables` order, whenever its
    intermediate values stay finite. Exact scalars give the same sum in any
    order, so an exact jet runs this formula as it stands, each .reciprocal()
    the integer solve. A float .reciprocal() is the kernel, so
    tests/test_jets.py keeps that solve and the formula as its references
    (`table_walk_reciprocal`, `list_over_k_reciprocal_sum`). One compiled
    kernel per degree and pattern of nonzero positions of A and y2
    (`_sum_kernel`) runs k innermost and repeats, for each k, the scalar
    operations of that formula in the same order: the products in __mul__'s
    (p, q) order, reciprocal's solve order and -inv0 * acc, and the running
    total in increasing k. Structural zeros (of A and y2) are never touched;
    a value that is zero only for some k adds a zero of some sign where the
    formula skips it, which leaves every nonzero sum as it is and adds
    nothing to the total.
    """
    A._check_compatible(y2)
    if len(ms) != len(ws):
        raise JetError(f"{len(ms)} ratios but {len(ws)} weights")
    total = A._wrap([_ZERO[A.kind]] * len(A._c))
    if A.kind == EXACT or not ms:
        for m, w in zip(ms, ws):
            total = total + (A + y2.scale(m) ** 2).reciprocal().scale(w)
        return total
    if not (A._c[0] or y2._c[0]):
        raise SingularJet("reciprocal of a jet with zero constant term")
    kernel = _sum_kernel(
        A.degree,
        tuple(p for p, a in enumerate(A._c) if a),
        tuple(p for p, b in enumerate(y2._c) if b),
    )
    try:
        return A._wrap(kernel(A._c, y2._c, [float(m) for m in ms], [float(w) for w in ws]))
    except ZeroDivisionError:
        raise SingularJet("reciprocal of a jet with zero constant term") from None


def _sin_cos_at(kind: str, t0) -> tuple:
    """(sin t0, cos t0) as scalars of the kind. An exact t0 must be zero;
    sin/cos of a nonzero rational is irrational."""
    if kind == EXACT:
        if t0 != 0:
            raise JetError("exact sin/cos needs zero constant term")
        return Fraction(0), Fraction(1)
    return math.sin(t0), math.cos(t0)


def jet_sin_cos(t: Jet2) -> tuple[Jet2, Jet2]:
    """(sin t, cos t) via angle addition at the constant term.

    Exact jets must have zero constant term; sin/cos of a nonzero rational is
    irrational, so there is nothing exact to return otherwise.
    """
    t0 = t.value()
    s0, c0 = _sin_cos_at(t.kind, t0)
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

    Written in closed form, bit for bit r * c, r * s for (s, c) =
    jet_sin_cos(theta): the theta^n coefficients of cos and sin are
    (1/n!) (c0, -s0, -c0, s0)[n % 4] and (1/n!) (s0, c0, -s0, -c0)[n % 4],
    formed as jet_sin_cos forms them, and a nonzero one c_n lands as r0 c_n
    at (0, n) when r0 is nonzero and as c_n at (1, n) below the degree.
    """
    x = Jet2.variable(0, base_pt, degree)
    r0, t0 = x.base
    s0, c0 = _sin_cos_at(x.kind, t0)
    cycles = ((c0, -s0, -c0, s0), (s0, c0, -s0, -c0))
    out = ([_ZERO[x.kind]] * len(x._c), [_ZERO[x.kind]] * len(x._c))
    for n in range(degree + 1):
        f = math.factorial(n)
        inv_fact = Fraction(1, f) if x.kind == EXACT else 1.0 / f
        for coeffs, cycle in zip(out, cycles):
            cn = inv_fact * cycle[n % 4]
            if cn:
                if r0:
                    coeffs[_pos(0, n)] = r0 * cn
                if n < degree:
                    coeffs[_pos(1, n)] = cn
    return x._wrap(out[0]), x._wrap(out[1])


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
