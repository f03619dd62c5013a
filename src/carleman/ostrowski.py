"""The trace-growth function phi(r) = sup_n r^(n+2)/M_n of a weight sequence.

Because the ratios m_n = M_{n+1}/M_n are nondecreasing, the terms
r^(n+2)/M_n increase while m_n < r and decrease after, so the sup is attained
at the first n with m_n >= r. That argmax is located by exponential search
plus bisection on the ratio sequence, never a linear scan, so huge radii are
cheap. If no ratio reaches r below the horizon the result is flagged
saturated and reports the value at the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .logscale import log_of_fraction
from .weights import WeightSequence

DEFAULT_HORIZON = 10**6

Radius = Union[int, float, Fraction]


@dataclass(frozen=True)
class PhiValue:
    log_r: float
    log_phi: float
    argmax: int
    saturated: bool
    exact: Optional[Fraction] = None


def _first_ratio_at_least(M: WeightSequence, log_r: float, horizon: int) -> Optional[int]:
    """Smallest n < horizon with log m_n >= log_r, or None."""
    if M.log_ratio(0) >= log_r:
        return 0
    hi = 1
    while hi < horizon and M.log_ratio(hi) < log_r:
        hi *= 2
    if hi >= horizon and M.log_ratio(min(hi, horizon - 1)) < log_r:
        return None
    lo = hi // 2  # m_lo < r <= m_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if M.log_ratio(mid) >= log_r:
            hi = mid
        else:
            lo = mid
    return hi


def phi(M: WeightSequence, r: Radius, horizon: int = DEFAULT_HORIZON) -> PhiValue:
    """Evaluate phi at radius r > 0; exact when both M and r are rational."""
    r_exact = Fraction(r) if isinstance(r, (int, Fraction)) else None
    log_r = log_of_fraction(r_exact) if r_exact is not None else math.log(r)
    if (r_exact is not None and r_exact <= 0) or not math.isfinite(log_r):
        raise ValueError("radius must be positive and finite")

    n = _first_ratio_at_least(M, log_r, horizon)
    saturated = n is None
    if saturated:
        n = horizon - 1
    elif r_exact is not None and M.has_exact:
        # pin the boundary exactly; float bisection can be off by one on ties
        while n > 0 and M.exact_ratio(n - 1) >= r_exact:
            n -= 1
        while M.exact_ratio(n) < r_exact:
            n += 1

    log_phi = (n + 2) * log_r - M.log_weight(n)
    exact = None
    if not saturated and r_exact is not None and M.has_exact:
        exact = r_exact ** (n + 2) / M.exact(n)
        log_phi = log_of_fraction(exact)
    return PhiValue(log_r, log_phi, n, saturated, exact)


def phi_at_ratio(M: WeightSequence, k: int) -> PhiValue:
    """phi evaluated at r = m_k, using the exact ratio when available."""
    if M.has_exact:
        return phi(M, M.exact_ratio(k))
    v = _first_ratio_at_least(M, M.log_ratio(k), DEFAULT_HORIZON)
    n = k if v is None else v
    log_r = M.log_ratio(k)
    return PhiValue(log_r, (n + 2) * log_r - M.log_weight(n), n, v is None)


@dataclass(frozen=True)
class PhiIdentityCheck:
    """m_k^(k+2)/phi(m_k) should reproduce M_k on the nose."""

    k: int
    exact_ok: Optional[bool]
    log_residual: float

    @property
    def ok(self) -> bool:
        if self.exact_ok is not None:
            return self.exact_ok
        return self.log_residual <= 1e-12


def verify_phi_identity(M: WeightSequence, k: int) -> PhiIdentityCheck:
    pv = phi_at_ratio(M, k)
    if pv.saturated:
        raise ValueError("identity check hit the saturation horizon")
    if pv.exact is not None:
        lhs = M.exact_ratio(k) ** (k + 2) / pv.exact
        ok = lhs == M.exact(k)
        return PhiIdentityCheck(k, ok, 0.0 if ok else math.inf)
    # absolute residual in log scale; the tolerance is not relative
    residual = abs((k + 2) * M.log_ratio(k) - pv.log_phi - M.log_weight(k))
    return PhiIdentityCheck(k, None, residual)


def phi_grid(
    M: WeightSequence, radii: Sequence[Radius], horizon: int = DEFAULT_HORIZON
) -> list[tuple[float, float, int]]:
    """(r, log phi(r), argmax) rows for reporting; saturated rows get argmax -1."""
    rows = []
    for r in radii:
        pv = phi(M, r, horizon)
        rows.append((float(r), pv.log_phi, -1 if pv.saturated else pv.argmax))
    return rows
