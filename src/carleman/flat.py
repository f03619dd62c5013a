"""A flat superposition of blocks with certified large pure-x2 derivatives.

Blocks at shrinking scales rho_k = M_k/M_{k+1} are placed along the x1 axis
at centers E(rho_k) chosen by a center map E (square root by default), with
summable weights 1/(2^k phi(1/rho_k)). Greedy selection keeps only orders
whose centers at least halve, so the blocks are well separated and the
derivative of order k at the k-th center is dominated by its own block.

Every certified inequality is evaluated two ways: in exact rational
arithmetic (the certificate) and in log-domain floats (the cross-check). The
only intervals on the exact path are the certified root enclosures of the
irrational centers: a certificate row reads its per-block factors at their
ends and forms exact sums from them, taking no gcd where known small bases
prove the result in lowest terms. It reads its products with the huge moment
from 128-bit outward brackets, proved in lowest terms from those bases and
the moment's known primes, and forms the plain `Fraction` product only where
a bracket cannot decide.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .blocks import (
    LOG2,
    LOG8,
    MIN_TERMS,
    POLAR_BLOCK_C,
    BaseFunction,
    Block,
    _bracket_factored,
    _from_factored,
    _reduced,
    polar_tail_log,
)
from .bricks import SweepResult, polar_samples
from .intervals import ROOT_DIGITS, RInterval, _bracket_sign, _log_bracketed
from .jets import Jet2, polar_coordinates
from .logscale import log_of_fraction, logsumexp
from .weights import WeightSequence, compare, parse_family, shift

LAMBDA0_CAP = 10**6  # last order the lambda0 scan tries
# a layout of at most this many bump terms certifies its rows in the calling
# process: on a 2-core Xeon (Python 3.11.7; medians of 11 alternating runs)
# greedy gevrey:1 at 64 (64 terms) took 6.4 ms in turn and 6.7 on two
# processes, gevrey:2 at 128 (138 terms) 48-51 and 26-31, gevrey:1 at 256
# (224 terms) 44-75 and 41-44; the crossover lies between 64 and 138 terms
INPROCESS_MAX_TERMS = 160
SHARPNESS_COMPARE_HORIZON = 64  # K of the sharpness hypothesis comparison
# float logs decide a comparison of roots only when they differ by more than
# this, relative to the larger log; their rounding error is far below it
FLOAT_LOG_MARGIN = 2.0**-30
# the fields of a saved layout and their JSON types
LAYOUT_FIELDS = {"m_family": str, "e_spec": str, "lambda_max": int, "sparsity_enforced": bool,
                 "terms": int, "orders": list, "entries": list}


class LayoutError(ValueError):
    pass


class EFunction:
    """Center map rho -> E(rho) = rho^power, a rational power in (0, 1), so
    every center has an exact interval enclosure."""

    def __init__(self, spec: str, power: Fraction):
        if not 0 < power < 1:
            raise LayoutError("center map power must lie in (0, 1)")
        self.spec = spec
        self.power = power

    @classmethod
    def parse(cls, spec: str) -> "EFunction":
        if spec == "sqrt":
            return cls("sqrt", Fraction(1, 2))
        head, _, rest = spec.partition(":")
        if head == "power":
            try:
                power = Fraction(rest)
            except (ValueError, ZeroDivisionError):
                raise LayoutError(f"center map power must be rational, got {rest!r}") from None
            return cls(spec, power)
        raise LayoutError(f"unknown center map {spec!r}")

    def interval(self, rho: Fraction) -> RInterval:
        return RInterval.rational_power(Fraction(rho), self.power)


@dataclass(frozen=True)
class LayoutEntry:
    order: int
    rho: Fraction
    center_iv: RInterval
    weight: Fraction  # 1/(2^n phi(1/rho)) = M_n rho^(n+2) / 2^n, n the order

    @property
    def center(self) -> float:
        return float(self.center_iv)

    @property
    def offset_ratio(self) -> float:
        # scaled by 2^k into (1/2, 1]: a normal rho rounds alike, a tiny one cannot underflow
        k = self.rho.denominator.bit_length() - self.rho.numerator.bit_length()
        return float(self.center_iv.mid * 2**k) / float(self.rho * 2**k)

    @cached_property
    def weight_log(self) -> float:
        return log_of_fraction(self.weight)


@dataclass
class Layout:
    m_family: str
    e_spec: str
    lambda_max: int
    sparsity_enforced: bool
    terms: int
    entries: list[LayoutEntry]
    eps_lo: Fraction = Fraction(0)
    eps_hi: Fraction = Fraction(0)
    eps_exact: Optional[Fraction] = None
    delta_min_lo: Fraction = Fraction(0)

    @property
    def orders(self) -> list[int]:
        return [e.order for e in self.entries]

    def entry(self, order: int) -> LayoutEntry:
        for e in self.entries:
            if e.order == order:
                return e
        raise LayoutError(f"no block of order {order}")

    @property
    def eps(self) -> float:
        return float(self.eps_exact) if self.eps_exact is not None else float(
            (self.eps_lo + self.eps_hi) / 2
        )

    @property
    def B(self) -> float:
        return 8**5 / self.eps

    def to_json_dict(self) -> dict:
        return {
            "m_family": self.m_family,
            "e_spec": self.e_spec,
            "lambda_max": self.lambda_max,
            "sparsity_enforced": self.sparsity_enforced,
            "terms": self.terms,
            "orders": self.orders,
            "entries": [
                {
                    "order": e.order,
                    "rho": str(e.rho),
                    "center": e.center,
                    "offset_ratio": e.offset_ratio,
                    "weight_log": e.weight_log,
                }
                for e in self.entries
            ],
            "eps": self.eps,
            "eps_exact": None if self.eps_exact is None else str(self.eps_exact),
            "delta_min": float(self.delta_min_lo),
            "B": self.B,
        }

    def to_json(self) -> str:
        """The layout file's text; LayoutError where a float field cannot hold its value."""
        try:
            text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise LayoutError(f"a float field of the layout cannot hold its value: {exc}") from None
        return text + "\n"

    def save(self, path) -> None:
        text = self.to_json()  # a refused layout leaves the file as it was
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Layout":
        """The layout rebuilt from its family, centre map and orders, checked
        against what the file stores: each entry's order, rho and centre, and
        eps_exact (null exactly when the rebuild has no exact eps). The other
        stored floats (eps, delta_min, B, each entry's weight_log and
        offset_ratio) are derived from these and only informational: they are
        not read back."""
        # exact types: a JSON true or false is no number
        if not isinstance(data, dict) or any(
            type(data.get(k)) is not t for k, t in LAYOUT_FIELDS.items()
        ):
            fields = ", ".join(f"{k} ({t.__name__})" for k, t in LAYOUT_FIELDS.items())
            raise LayoutError(f"layout must be a JSON object with fields {fields}")
        orders, entries = data["orders"], data["entries"]
        if not (
            len(entries) == len(orders)
            and all(type(order) is int for order in orders)
            and all(isinstance(e, dict) and type(e.get("order")) is int and e["order"] == order
                    and type(e.get("rho")) is str and type(e.get("center")) in (int, float)
                    for e, order in zip(entries, orders))
        ):
            raise LayoutError(
                "layout needs one entry (order: int, rho: str, center: number) per integer "
                "order, in the same order"
            )
        M = parse_family(data["m_family"])
        E = EFunction.parse(data["e_spec"])
        rebuilt = layout_from_orders(
            M,
            E,
            orders,
            lambda_max=data["lambda_max"],
            require_sparsity=data["sparsity_enforced"],
            terms=data["terms"],
        )
        # every centre is E(rho) < 1, and some are far below 1e-9: compare relatively
        for want, have in zip(entries, rebuilt.entries):
            rho = _stored_rational("rho", want["rho"])
            centre_ok = abs(want["center"] - have.center) <= 1e-9 * have.center
            if rho != have.rho or not centre_ok:
                raise LayoutError("stored layout disagrees with its rebuild")
        stored = data.get("eps_exact")
        eps_exact = None if stored is None else _stored_rational("eps_exact", stored)
        if eps_exact != rebuilt.eps_exact:
            raise LayoutError(f"stored eps_exact {stored!r} disagrees with its rebuild")
        return rebuilt

    @classmethod
    def load(cls, path) -> "Layout":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _stored_rational(name: str, text) -> Fraction:
    """A layout file's rational field, written as a string such as "1/3"."""
    try:
        if type(text) is str:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise LayoutError(f"layout {name} {text!r} is no rational number")


def _entry_for(M: WeightSequence, E: EFunction, order: int) -> LayoutEntry:
    rho = Fraction(1, M.exact_ratio(order))
    return LayoutEntry(
        order=order,
        rho=rho,
        center_iv=E.interval(rho),
        weight=M.exact(order) * rho ** (order + 2) / 2**order,
    )


def _clearly_above(a: float, b: float) -> bool:
    """True when the exact logs that floats a and b approximate certainly
    satisfy a > b."""
    return a - b > FLOAT_LOG_MARGIN * max(1.0, abs(a), abs(b))


def _require_exact(M: WeightSequence) -> None:
    if not M.has_exact:
        raise LayoutError(f"layout requires an exact weight family, got {M.name}")


def build_layout(
    M: WeightSequence,
    E: EFunction,
    lambda_max: int,
    terms: Optional[int] = None,
) -> Layout:
    """Greedy selection: even orders whose center is below half the previous
    accepted center, starting from the first admissible order (offset ratio
    above one, so the block sits to the right of its own scale). The scan
    reads only rho and its center; entries are built for the kept orders.

    A center's enclosure reaches up to its true value, so a center whose
    float log clears half the last kept center's lower end cannot halve: it
    is skipped without an enclosure, and the enclosures decide the rest."""
    _require_exact(M)
    orders: list[int] = []
    prev: Optional[RInterval] = None
    half_prev_log = 0.0
    power = float(E.power)
    for order in range(2, lambda_max + 1, 2):
        m = M.exact_ratio(order)
        if prev is not None and _clearly_above(-power * log_of_fraction(m), half_prev_log):
            continue
        rho = Fraction(1, m)
        center = E.interval(rho)
        if not center.certainly_gt(rho):
            continue
        if prev is not None and not center.certainly_lt(prev * Fraction(1, 2)):
            continue
        orders.append(order)
        prev = center
        half_prev_log = log_of_fraction(center.lo / 2)
    if not orders:
        raise LayoutError(f"no admissible orders up to {lambda_max}")
    return layout_from_orders(
        M, E, orders, lambda_max=lambda_max, require_sparsity=True, terms=terms
    )


def layout_from_orders(
    M: WeightSequence,
    E: EFunction,
    orders: Sequence[int],
    lambda_max: Optional[int] = None,
    require_sparsity: bool = False,
    terms: Optional[int] = None,
) -> Layout:
    """Layout with a caller-chosen order list. Sparsity (halving centers) is
    validated only when requested; admissibility (center > rho) always is."""
    _require_exact(M)
    if not orders or sorted(set(orders)) != list(orders):
        raise LayoutError("orders must be strictly increasing and nonempty")
    entries = []
    prev = None
    for order in orders:
        if order % 2 or order < 2:
            raise LayoutError("orders must be even and >= 2")
        e = _entry_for(M, E, order)
        if not e.center_iv.certainly_gt(e.rho):
            raise LayoutError(f"order {order} is inadmissible: center <= rho")
        if require_sparsity and prev is not None and not e.center_iv.certainly_lt(
            prev * Fraction(1, 2)
        ):
            raise LayoutError(f"order {order} violates the halving rule")
        entries.append(e)
        prev = e.center_iv
    top = orders[-1]
    lambda_max = lambda_max if lambda_max is not None else top
    if lambda_max < top:
        raise LayoutError(f"lambda_max {lambda_max} is below the largest order {top}")
    terms = terms if terms is not None else max(64, top + 12)
    if terms <= top or terms < MIN_TERMS:
        raise LayoutError(
            f"terms must exceed the largest order {top} and be at least "
            f"{MIN_TERMS}, got {terms}"
        )
    # a rational root comes back as a point, so eps is exact when the
    # minima agree: the root with the least upper end is then a point there.
    # A root whose float log clears the least one's truly exceeds it by about
    # least * margin; once that is 100 enclosure widths, its enclosure lies
    # above both minima and is left out. Tinier roots are all enclosed.
    logs = [2 * log_of_fraction(e.rho) / e.order for e in entries]
    least = min(logs)
    tiny = math.exp(least) * FLOAT_LOG_MARGIN <= 100 * 10.0**-ROOT_DIGITS
    roots = [
        RInterval.nth_root(e.rho**2, e.order)
        for e, log in zip(entries, logs)
        if tiny or not _clearly_above(log, least)
    ]
    eps_lo = min(r.lo for r in roots)
    eps_hi = min(r.hi for r in roots)
    gaps = [
        (a.center_iv - b.center_iv).abs().lo
        for i, a in enumerate(entries)
        for b in entries[i + 1 :]
    ]
    return Layout(
        m_family=M.name,
        e_spec=E.spec,
        lambda_max=lambda_max,
        sparsity_enforced=require_sparsity,
        terms=terms,
        entries=entries,
        eps_lo=eps_lo,
        eps_hi=eps_hi,
        eps_exact=eps_lo if eps_lo == eps_hi else None,
        delta_min_lo=min(gaps) if gaps else Fraction(0),
    )


# -- evaluation --------------------------------------------------------------

class FlatFunction:
    """The weighted sum of blocks described by a layout."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self.M = parse_family(layout.m_family)
        self.base = BaseFunction(self.M, layout.terms)
        self._blocks = [
            Block(self.base, Fraction(e.center) / e.rho, e.rho)
            for e in layout.entries
        ]

    def _jet_of(self, x1: Jet2, x2: Jet2) -> Jet2:
        total = Jet2.constant(0, x1.base, x1.degree)
        for e, b in zip(self.layout.entries, self._blocks):
            total = total + b.jet_of(x1, x2).scale(math.exp(e.weight_log))
        return total

    def jet(self, pt: tuple, degree: int) -> Jet2:
        """The float jet at pt; the block weights are floats, so pt is made
        float first."""
        pt = (float(pt[0]), float(pt[1]))
        return self._jet_of(Jet2.variable(0, pt, degree), Jet2.variable(1, pt, degree))

    def polar_jet(self, pt: tuple, degree: int) -> Jet2:
        """The float jet of F(r cos theta, r sin theta) at pt = (r, theta)."""
        return self._jet_of(*polar_coordinates((float(pt[0]), float(pt[1])), degree))


# -- the pure-x2 derivative at a block center --------------------------------

@dataclass
class FlatAxisValue:
    """|d^order/dx2^order F| at the center of block `at`, split into the
    block's own (dominant) term and the cross terms of the other blocks.

    All sources share the sign (-1)^(order/2); magnitudes add. Every source's
    axis sum is the order's (huge) moment times a small factor, so the value
    keeps the moment as its numerator and factored denominator, the target's
    scale and the other blocks' factor, whose ends are exact sums
    (`_add_coprime`) kept with bases that cover their denominators' primes.
    A certificate row reads three products with the moment, `dominant_exact`,
    `cross_hi` and `total_lower`, through `log` and `compare`: each is proved
    in lowest terms, each base once for all three, and read from 128-bit
    brackets of its numerator and denominator (`_bracket_factored`), so
    neither the product nor the moment's denominator is formed unless a
    proof fails or a bracket does not decide; then the product is the plain
    `Fraction` product with the moment. The lower end is a certified lower
    bound (truncation drops positive terms), and total plus tail bounds the
    full sum above; `paths_agree` compares the log of `total_lower` with the
    float log. The exact products and `cross_iv` and `total_iv`, the
    interval products, are kept as the oracle.
    """

    order: int
    at: int
    sign: int
    factor: RInterval  # sum over the other blocks of scale_e / (1+t_e^2)^p
    moment_num: int  # sum_k w_k m_k^order, the base's truncated moment, in lowest terms
    target_scale: Fraction  # the target block's weight * order! / rho^order
    tail_exact: Fraction
    total_log_float: float
    lo_bases: tuple[int, ...]  # every prime of factor.lo's denominator divides one
    hi_bases: tuple[int, ...]  # likewise for factor.hi
    moment_primes: dict[int, int]  # the moment's denominator as {p: exponent}

    @cached_property
    def moment(self) -> Fraction:
        return _from_factored(self.moment_num, self.moment_primes)

    @cached_property
    def _multipliers(self) -> dict[str, tuple[Fraction, tuple[int, ...]]]:
        """Each product's small factor, with bases that cover its denominator."""
        scale = (self.target_scale, (self.target_scale.denominator,))
        return {
            "dominant_exact": scale,
            "cross_hi": (self.factor.hi, self.hi_bases),
            "total_lower": _add_coprime((self.factor.lo, self.lo_bases), scale),
        }

    def _times_moment(self, name: str) -> Fraction:
        return self._multipliers[name][0] * self.moment

    @cached_property
    def dominant_exact(self) -> Fraction:
        return self._times_moment("dominant_exact")

    @cached_property
    def cross_hi(self) -> Fraction:
        return self._times_moment("cross_hi")

    @cached_property
    def total_lower(self) -> Fraction:
        return self._times_moment("total_lower")

    @cached_property
    def _brackets(self) -> dict[str, Optional[tuple]]:
        """Each product's numerator and denominator brackets
        (`_bracket_factored`, which tests each base once for all three), or
        None where only the exact product serves."""
        proved = {}
        return {
            name: _bracket_factored(x, bases, self.moment_num, self.moment_primes, proved)
            for name, (x, bases) in self._multipliers.items()
        }

    def log(self, name: str) -> float:
        """log|product| as `log_of_fraction` reads the exact product `name`."""
        brackets = self._brackets[name]
        if brackets is None:
            return log_of_fraction(getattr(self, name))
        num, den = brackets
        return (_log_bracketed(*num, lambda: getattr(self, name).numerator)
                - _log_bracketed(*den, lambda: getattr(self, name).denominator))

    def compare(self, name: str, bound: Fraction) -> int:
        """The sign of the product `name` minus bound."""
        brackets = self._brackets[name]
        sign = None if brackets is None else _bracket_sign(*brackets, bound)
        if sign is None:
            exact = getattr(self, name)
            return (exact > bound) - (exact < bound)
        return sign

    @property
    def cross_iv(self) -> RInterval:
        return self.factor * self.moment

    @property
    def total_iv(self) -> RInterval:
        return (self.factor + self.target_scale) * self.moment

    @property
    def paths_agree(self) -> bool:
        return abs(self.log("total_lower") - self.total_log_float) < 1e-9


def _add_coprime(x: tuple, y: tuple) -> tuple:
    """x + y for (Fraction, bases) pairs, each prime of a denominator dividing
    one of its bases. When each base of x is coprime to each base of y, the
    reduced a/b and c/d have coprime denominators, so no prime of b d divides
    a d + c b: (a d + c b)/(b d) is in lowest terms and no gcd is taken.
    Otherwise it is a Fraction sum."""
    (u, u_bases), (v, v_bases) = x, y
    if all(math.gcd(q, r) == 1 for q in u_bases for r in v_bases):
        (a, b), (c, d) = u.as_integer_ratio(), v.as_integer_ratio()
        return _reduced(a * d + c * b, b * d), u_bases + v_bases
    return u + v, u_bases + v_bases


def flat_axis_derivative(
    fn: FlatFunction, order: int, at: int
) -> FlatAxisValue:
    if order % 2:
        raise LayoutError("axis derivatives of odd order vanish; use even order")
    layout, base = fn.layout, fn.base
    if order >= layout.terms:
        raise LayoutError("order must be below the term horizon")
    target = layout.entry(at)
    sign = -1 if (order // 2) % 2 else 1
    fact = Fraction(math.factorial(order))
    lf = math.lgamma(order + 1)
    tail_unit = base.axis_tail_exact(order)  # M_n / 2^K, n the order

    def scale(e: LayoutEntry) -> Fraction:
        return e.weight * fact / e.rho**order

    target_scale = scale(target)
    log_moment = base.axis_sum_log(order)
    dom_log = target.weight_log + lf - order * log_of_fraction(target.rho) + log_moment

    # every source's axis sum is the order's moment over (1+t^2)^p, so sum the
    # small factors first, exactly at both ends; FlatAxisValue multiplies by
    # the (huge) moment only the values it is asked for
    p = order // 2 + 1
    ends = [(Fraction(0), ())] * 2  # factor.lo and factor.hi, with their bases
    scales = target_scale
    logs = [dom_log]
    for e in layout.entries:
        if e.order == at:
            continue
        t_iv = (target.center_iv - e.center_iv) / e.rho
        one_plus = RInterval.exactly(1) + t_iv**2
        e_scale = scale(e)
        # lo over the upper end of 1+t^2, hi over the lower; a term's
        # denominator divides e_scale's times the end's numerator^p
        ends = [
            _add_coprime(s, (e_scale / end**p, (e_scale.denominator, end.numerator)))
            for s, end in zip(ends, (one_plus.hi, one_plus.lo))
        ]
        scales += e_scale
        t_f = (target.center - e.center) / float(e.rho)
        logs.append(
            e.weight_log
            + lf
            - order * log_of_fraction(e.rho)
            + (log_moment - p * math.log1p(t_f * t_f))
        )

    moment_num, moment_primes = base._axis_moment(order)
    return FlatAxisValue(
        order,
        at,
        sign,
        RInterval._ordered(ends[0][0], ends[1][0]),
        moment_num,
        target_scale,
        scales * tail_unit,
        logsumexp(logs),
        ends[0][1],
        ends[1][1],
        moment_primes,
    )


# -- the lower-bound certificate ---------------------------------------------

@dataclass
class CertificateRow:
    order: int
    lhs_log: float  # certified lower bound on |d^order F / dx2^order|
    rhs_log: float  # eps^n n! M_n^2 / 4^n, n the order (upper end)
    ratio_root: float  # (lhs/rhs)^(1/order)
    ok: bool
    dominant_log: float
    dominant_floor_log: float  # order! rho^2 M^2 / 4^order, proved <= dominant
    dominant_ok: bool
    cross_log: float
    cross_bound_log: float  # proof-side envelope for the cross terms
    cross_ok: bool
    tail_log: float
    paths_agree: bool


@dataclass
class LowerCertificate:
    layout: Layout
    rows: list[CertificateRow]
    lambda0_estimate: Optional[int]
    rows_s: dict[int, float]  # seconds per row, by order
    workers: int  # the processes that ran rows

    @property
    def all_ok(self) -> bool:
        return all(r.ok and r.dominant_ok and r.cross_ok for r in self.rows)

    def csv_rows(self) -> list[tuple[int, float, float, float]]:
        return [(r.order, r.lhs_log, r.rhs_log, r.ratio_root) for r in self.rows]


def _lambda0_scan(M: WeightSequence, layout: Layout) -> Optional[int]:
    """Smallest even order at which the proof-side cross envelope falls below
    half the dominant floor, using this layout's separation. Diagnostic only."""
    delta = layout.delta_min_lo
    if delta <= 0:
        return None
    log_delta = log_of_fraction(delta)
    log_s2 = math.log(math.fsum(2.0 ** -o for o in layout.orders))
    lam = 2
    while lam <= LAMBDA0_CAP:
        lhs = 2 * (M.log_weight(lam) - M.log_weight(lam + 1)) + M.log_weight(lam) - lam * math.log(4)
        rhs = (lam + 3) * LOG8 + log_s2 - lam * log_delta + LOG2
        if lhs >= rhs:
            return lam
        lam += 2
    return None


def _certificate_row(fn: FlatFunction, target: LayoutEntry) -> CertificateRow:
    """The certificate row of one block: its own exact moment decides it, so
    no row reads another's numbers. Its products with the moment are read
    from brackets, exact where they cannot decide (`FlatAxisValue.compare`,
    `FlatAxisValue.log`)."""
    layout, M = fn.layout, fn.M
    lam = target.order
    ax = flat_axis_derivative(fn, lam, lam)
    fact = Fraction(math.factorial(lam))
    M_lam = M.exact(lam)

    rhs_hi = layout.eps_hi**lam * fact * M_lam**2 / 4**lam
    ok = ax.compare("total_lower", rhs_hi) >= 0

    floor = fact * target.rho**2 * M_lam**2 / 4**lam
    dominant_ok = ax.compare("dominant_exact", floor) >= 0

    others = [o for o in layout.orders if o != lam]
    s2 = sum(Fraction(1, 2**o) for o in others)
    cross_bound = fact * M_lam * Fraction(8) ** (lam + 3) / layout.delta_min_lo**lam * s2
    # cross_hi + tail <= bound, with the small tail moved right: no huge sum
    cross_ok = ax.compare("cross_hi", cross_bound - ax.tail_exact) <= 0

    lhs_log = ax.log("total_lower")
    rhs_log = log_of_fraction(rhs_hi)
    return CertificateRow(
        order=lam,
        lhs_log=lhs_log,
        rhs_log=rhs_log,
        ratio_root=math.exp((lhs_log - rhs_log) / lam),
        ok=ok,
        dominant_log=ax.log("dominant_exact"),
        dominant_floor_log=log_of_fraction(floor),
        dominant_ok=dominant_ok,
        cross_log=ax.log("cross_hi"),
        cross_bound_log=log_of_fraction(cross_bound),
        cross_ok=cross_ok,
        tail_log=log_of_fraction(ax.tail_exact),
        paths_agree=ax.paths_agree,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_map(f: Callable, items: Sequence, workers: int) -> list:
    """[f(x) for x in items] on at most `workers` processes at once: this one
    and workers - 1 forked children. Process j runs item j first; then each
    process takes the next unclaimed item, in order, from a shared pipe, so a
    faster process takes more. A child pickles back only its (index, result)
    pairs, or its exception, which is raised here with its own type, and
    ends with os._exit. Every child is reaped before this returns or raises.
    With one worker or item, more than 1024 items, without os.fork, or in a
    process with other threads (whose locks a child would inherit held), it
    is the plain loop."""
    workers = min(workers, len(items))
    if (workers <= 1 or len(items) > 1024 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [f(x) for x in items]
    # imported here, so that only a call that forks pays for them
    import pickle
    import signal

    # the queue holds the indices past the first items, 4 bytes each; it is
    # filled before anyone reads it, so it must fit the smallest pipe buffer
    # (one 4096-byte page), and a 4-byte read takes one whole index
    queue_r, queue_w = os.pipe()
    os.write(queue_w, b"".join(i.to_bytes(4, "little") for i in range(workers, len(items))))
    os.close(queue_w)

    def run(first: int) -> list[tuple[int, object]]:
        done = [(first, f(items[first]))]
        while chunk := os.read(queue_r, 4):
            i = int.from_bytes(chunk, "little")
            done.append((i, f(items[i])))
        return done

    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    with os.fdopen(w, "wb") as pipe:
                        try:
                            out = (True, run(j))
                        except Exception as exc:
                            out = (False, exc)
                        try:
                            data = pickle.dumps(out)
                        except Exception:  # an exception that does not pickle
                            data = pickle.dumps((False, RuntimeError(repr(out[1]))))
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = r
        parts = [run(0)]
        for pid, r in list(children.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            if not data:
                del children[pid]
                os.close(r)
                _, status = os.waitpid(pid, 0)
                raise RuntimeError(f"worker {pid} ended with wait status {status} and no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            parts.append(value)
    finally:
        os.close(queue_r)
        # a child that has sent its part is only exiting
        for pid, r in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
    results = [None] * len(items)
    for part in parts:
        for i, value in part:
            results[i] = value
    return results


def lower_bound_certificate(fn: FlatFunction) -> LowerCertificate:
    """One row per block, lowest order first. The rows are independent, so on
    a layout of more than `INPROCESS_MAX_TERMS` terms they are spread over
    the usable CPUs: this process and one forked child per further CPU
    (`_fork_map`) each take the next row in order, the largest moments
    first; a smaller layout, a single CPU, a platform without os.fork or a
    process with other threads runs them here in turn. The rows are the
    same either way. `rows_s` times each row in the process that ran it, and
    `workers` counts those processes."""
    layout = fn.layout
    # the cross envelope divides by the least separation of two centres
    if len(layout.entries) < 2:
        raise LayoutError("the certificate needs a layout of at least two blocks")

    def timed_row(target: LayoutEntry) -> tuple[CertificateRow, float, int]:
        t0 = time.perf_counter()
        row = _certificate_row(fn, target)
        return row, time.perf_counter() - t0, os.getpid()

    workers = 1 if fn.base.terms <= INPROCESS_MAX_TERMS else _usable_cpus()
    timed = _fork_map(timed_row, layout.entries, workers)
    return LowerCertificate(
        layout,
        [row for row, _, _ in timed],
        _lambda0_scan(fn.M, layout),
        {row.order: s for row, s, _ in timed},
        len({pid for _, _, pid in timed}),
    )


# -- finite-order upper bounds for the superposition -------------------------

def flat_upper_check(
    fn: FlatFunction, degree: int = 6, points: int = 8, seed: int = 6
) -> SweepResult:
    """Sweep |d^a F| <= 8^(|a|+3) a! M_|a|^2 at float points, truncation tail
    added to the left side."""
    rng = random.Random(seed)
    layout = fn.layout
    res = SweepResult()
    pts = [(e.center, 0.0) for e in layout.entries[:2]] + [
        (rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(points)
    ]
    entry_logs = [(e.weight_log, log_of_fraction(e.rho)) for e in layout.entries]

    def log_bound(a, n):
        tail_logs = [
            w_log
            + (n + 1) * LOG8
            + fn.M.log_weight(a[1])
            - layout.terms * LOG2
            - n * rho_log
            for w_log, rho_log in entry_logs
        ]
        return tail_logs, (n + 3) * LOG8 + 2 * fn.M.log_weight(n)

    for x in pts:
        res.sweep(fn.jet(x, degree), (x,), log_bound)
    return res


def polar_flat_check(
    fn: FlatFunction,
    degree: int = 5,
    radii: int = 4,
    angles: int = 3,
    C: float = POLAR_BLOCK_C,
    seed: int = 7,
) -> SweepResult:
    """Sweep |d^a (F o polar)| <= (2C)^(|a|+1) a! M_|a| in float arithmetic,
    each block's `polar_tail_log` added to the left side."""
    if abs(fn.M.log_weight(1)) > 1e-12:
        raise LayoutError("polar bound requires M_1 = 1")
    rng = random.Random(seed)
    res = SweepResult()
    log2C = math.log(2 * C)
    entry_logs = [(e.weight_log, math.log1p(e.center)) for e in fn.layout.entries]

    def log_bound(a, n):
        tail_logs = [polar_tail_log(fn.base, w_log, growth, a, n) for w_log, growth in entry_logs]
        return tail_logs, (n + 1) * log2C + fn.M.log_weight(n)

    for r, th in polar_samples(rng, radii, angles):
        res.sweep(fn.polar_jet((r, th), degree), (r, th), log_bound)
    return res


# -- sharpness against a target family ---------------------------------------

@dataclass
class SharpnessRow:
    order: int
    deriv_log: float
    root: float  # (|d^order F| / (order! N_order))^(1/order)
    ratio_to_prev: Optional[float]


@dataclass
class SharpnessReport:
    target_family: str
    rows: list[SharpnessRow]
    verdict: str  # growing-diagnostic | bounded-diagnostic | inconclusive
    hypothesis_verdict: str
    hypothesis_note: str


def sharpness_scan(
    fn: FlatFunction, N: WeightSequence, cert_rows: Sequence[CertificateRow]
) -> SharpnessReport:
    """Roots r_order = (|d^order F|/(order! N_order))^(1/order) over the
    layout's orders, reading |d^order F| from the certificate rows of fn
    (their certified lower bound lhs_log). Bounded roots are the signature
    of membership in the target class at finite order; growing roots
    witness escape.

    The report also labels, never enforces, the comparison hypothesis
    between the target and the square-shifted build family."""
    rows: list[SharpnessRow] = []
    prev = None
    for cert_row in cert_rows:
        lam, dlog = cert_row.order, cert_row.lhs_log
        root = math.exp((dlog - math.lgamma(lam + 1) - N.log_weight(lam)) / lam)
        rows.append(
            SharpnessRow(lam, dlog, root, None if prev is None else root / prev)
        )
        prev = root
    roots = [r.root for r in rows]
    if roots[-1] >= 2 * roots[0] and roots[-1] == max(roots):
        verdict = "growing-diagnostic"
    elif max(roots) <= 2 * min(roots):
        verdict = "bounded-diagnostic"
    else:
        verdict = "inconclusive"
    hyp = compare(N, shift(fn.M, 2), SHARPNESS_COMPARE_HORIZON)
    return SharpnessReport(
        N.name,
        rows,
        verdict,
        hyp.verdict,
        "target vs square-shifted build family over k <= "
        f"{SHARPNESS_COMPARE_HORIZON}: {hyp.verdict}",
    )
