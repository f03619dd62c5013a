"""The acceptance suite: eleven end-to-end checks with time budgets.

Each criterion exercises one published-quality claim of the package at fixed
parameters and seeds, returns a single pass/fail verdict plus a short detail
string, and must finish inside its budget. The suite is what `selftest` runs
and what the acceptance tests assert, so the parameters here are frozen;
loosening them is an interface change, not a tweak.
"""

from __future__ import annotations

import math
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .blocks import (
    BaseFunction,
    base_lower_check,
    base_upper_check,
    polar_block_bound_check,
)
from .bricks import (
    BrickParams,
    brick_jet,
    brick_taylor_check,
    brick_value,
    cauchy_kernel_check,
    polar_brick_bound_check,
    polar_brick_jet,
)
from .counterexample import counterexample_sequence, full_verification
from .flat import (
    EFunction,
    FlatFunction,
    build_layout,
    flat_upper_check,
    layout_from_orders,
    lower_bound_certificate,
    polar_flat_check,
    sharpness_scan,
)
from .jets import Jet2, finite_difference
from .ostrowski import verify_phi_identity
from .weights import (
    WeightSequence,
    abel_identity_terms,
    analytic,
    gevrey,
    log_power,
    shift,
    square_vs_shift_diagnostic,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    seconds: float
    budget: float
    detail: str
    extras: dict = field(default_factory=dict)

    @property
    def in_budget(self) -> bool:
        return self.seconds <= self.budget

    def line(self) -> str:
        status = "PASS" if self.ok and self.in_budget else "FAIL"
        note = "" if self.in_budget else f" [over budget {self.budget:.0f}s]"
        return (
            f"[{self.index:2d}] {self.name}: {status} "
            f"({self.seconds:.2f}s){note} - {self.detail}"
        )


Outcome = tuple[bool, str, dict]


def _crit_trace_growth_identity() -> Outcome:
    M = gevrey(1)
    exact_fail = [
        k for k in range(1, 51) if not verify_phi_identity(M, k).exact_ok
    ]
    float_fail = []
    worst = 0.0
    for fam in (log_power(math.e), counterexample_sequence(8).weights):
        for k in range(1, 31):
            chk = verify_phi_identity(fam, k)
            worst = max(worst, chk.log_residual)
            if chk.log_residual > 1e-12:
                float_fail.append((fam.name, k))
    ok = not exact_fail and not float_fail
    return (
        ok,
        f"exact k<=50 all reproduce M_k; float residual max {worst:.2e}",
        {"exact_failures": exact_fail, "float_failures": float_fail},
    )


def _crit_kernel_taylor() -> Outcome:
    rng = random.Random(20)
    c_values = [Fraction(rng.randint(1, 48), rng.randint(1, 12)) for _ in range(20)]
    kernel = cauchy_kernel_check(c_values, degree=8, points=5, seed=21)
    params = [BrickParams(2, 3, Fraction(1, 2)), BrickParams(1, 1, 1)]
    brick = brick_taylor_check(params, degree=8, points=3, seed=22)
    ok = kernel.ok and brick.ok
    return (
        ok,
        f"{kernel.checked + brick.checked} exact coefficient bounds, "
        f"margins all >= 0 (worst log ratio {max(kernel.max_log_ratio, brick.max_log_ratio):.2f})",
        {
            "kernel_checked": kernel.checked,
            "brick_checked": brick.checked,
            "kernel_empirical_constant": kernel.empirical_constant,
        },
    )


def _crit_base_lower() -> Outcome:
    rows = base_lower_check(BaseFunction(gevrey(1), 60), orders=range(2, 17, 2))
    bad = [r.order for r in rows if not r.ok]
    margin = min(r.log_lhs - r.log_rhs for r in rows)
    return (
        not bad,
        f"axis lower bound holds after tail subtraction, min log margin {margin:.3f}",
        {"orders": [r.order for r in rows], "failures": bad},
    )


def _crit_base_upper() -> Outcome:
    res = base_upper_check(BaseFunction(gevrey(1), 60), degree=6, points=25, seed=23)
    return (
        res.ok,
        f"{res.checked} coefficient bounds with truncation tail folded in, "
        f"worst log ratio {res.max_log_ratio:.2f}",
        {"checked": res.checked, "failures": len(res.failures)},
    )


def _crit_polar_bounds() -> Outcome:
    params = [
        BrickParams(q, m, rho)
        for q in (1, 3)
        for m in (1, 4)
        for rho in (1, Fraction(1, 3))
    ]
    brick = polar_brick_bound_check(params, degree=6, radii=5, angles=5, seed=24)
    geoms = [
        (Fraction(2), Fraction(1, 2)),
        (Fraction(3), Fraction(1, 3)),
        (Fraction(3, 2), Fraction(1, 4)),
        (Fraction(5), Fraction(1, 5)),
    ]
    block = polar_block_bound_check(
        BaseFunction(gevrey(1)), geoms, degree=5, radii=5, angles=10, seed=25
    )
    ok = brick.ok and block.ok
    return (
        ok,
        f"polar sweeps clean; empirical constants {brick.empirical_constant:.1f} "
        f"(brick, cap 8^5) and {block.empirical_constant:.1f} (block, cap 2*8^5)",
        {
            "brick_samples": len(params) * 5 * 5,
            "block_samples": len(geoms) * 5 * 10,
            "brick_empirical_constant": brick.empirical_constant,
            "block_empirical_constant": block.empirical_constant,
        },
    )


def _crit_flat_lower() -> Outcome:
    layout = layout_from_orders(gevrey(1), EFunction.parse("sqrt"), [2, 4])
    cert = lower_bound_certificate(FlatFunction(layout))
    agree = all(r.paths_agree for r in cert.rows)
    ok = cert.all_ok and agree
    worst = min(r.ratio_root for r in cert.rows)
    return (
        ok,
        f"certificate holds at orders {layout.orders} with dominant/cross "
        f"bracket; min ratio root {worst:.3f}",
        {
            "rows": [
                {
                    "order": r.order,
                    "lhs_log": r.lhs_log,
                    "rhs_log": r.rhs_log,
                    "ratio_root": r.ratio_root,
                }
                for r in cert.rows
            ],
            "paths_agree": agree,
        },
    )


def _greedy_flat() -> FlatFunction:
    layout = build_layout(gevrey(1), EFunction.parse("sqrt"), 64)
    return FlatFunction(layout)


def _crit_flat_upper() -> Outcome:
    fn = _greedy_flat()
    cart = flat_upper_check(fn, degree=5, points=48, seed=26)
    polar = polar_flat_check(fn, degree=5, radii=5, angles=10, seed=27)
    ok = cart.ok and polar.ok
    return (
        ok,
        f"{cart.checked + polar.checked} upper bounds hold "
        f"(worst log ratios {cart.max_log_ratio:.2f} cartesian, "
        f"{polar.max_log_ratio:.2f} polar)",
        {"cartesian_checked": cart.checked, "polar_checked": polar.checked},
    )


def _crit_sharpness() -> Outcome:
    fn = _greedy_flat()
    rows = lower_bound_certificate(fn).rows
    inside = sharpness_scan(fn, gevrey(1), rows)
    matched = sharpness_scan(fn, shift(gevrey(1), 2), rows)
    ok = (
        inside.verdict == "growing-diagnostic"
        and matched.verdict == "bounded-diagnostic"
    )
    return (
        ok,
        f"roots grow against the build family ({inside.verdict}) and stay "
        f"bounded against its square shift ({matched.verdict})",
        {
            "inside_roots": [r.root for r in inside.rows],
            "matched_roots": [r.root for r in matched.rows],
            "inside_hypothesis": inside.hypothesis_verdict,
            "matched_hypothesis": matched.hypothesis_verdict,
        },
    )


def _crit_schedule() -> Outcome:
    checks = {c.name: c for c in full_verification(8)}
    all_ok = all(c.ok for c in checks.values())
    seq = counterexample_sequence(8)
    scan_ok = True
    prev = -math.inf
    b_max = 0.0
    for k in range(1, 5001):
        a = seq.level(k)
        if a < prev - 1e-15:
            scan_ok = False
        prev = a
        b_max = max(b_max, seq.b(k))
    partials_ok = all(
        math.fsum(seq.gap_terms[: j + 1]) >= 0.9 * (j + 1)
        for j in range(len(seq.gap_terms))
    )
    ok = all_ok and scan_ok and b_max <= 4.0 and partials_ok
    window = checks["strict-gap-window"].details
    return (
        ok,
        f"schedule checks pass to k=5000; b max {b_max:.4f}, "
        f"g bottoms out at {window['g_min']:.4f} (k={window['g_min_at']}), "
        f"gap sum {checks['gap-sums'].details['sum']:.4f}",
        {
            "all_ok": all_ok,
            "b_max": b_max,
            "monotone_to_5000": scan_ok,
            "partials_ok": partials_ok,
        },
    )


def _crit_jet_consistency() -> Outcome:
    rel_tol = 1e-6
    worst = 0.0
    failures = []

    # the step is matched to each function's feature scale: too small and
    # the order-4 stencil drowns in roundoff, too large and the truncation
    # term (step / scale)^6 dominates
    p = BrickParams(2, 3, Fraction(1, 2))
    cases: list[tuple[str, Callable, Optional[Callable], tuple, float]] = [
        (
            "brick",
            lambda pt: brick_value(p, pt[0], pt[1]),
            lambda base, d: brick_jet(p, base, d),
            (0.7, -0.3),
            0.02,
        ),
        (
            "kernel",
            lambda pt: 1.0 / (5.0 + pt[0] * pt[0] + pt[1] * pt[1]),
            None,
            (0.4, 1.1),
            0.1,
        ),
        (
            "polar-brick",
            lambda pt: brick_value(p, pt[0] * math.cos(pt[1]), pt[0] * math.sin(pt[1])),
            lambda base, d: polar_brick_jet(p, base, d),
            (1.3, 0.5),
            0.02,
        ),
    ]
    # few terms on purpose: the largest aspect ratio in the sum sets the
    # feature scale the difference stencil must resolve
    h = BaseFunction(gevrey(1), terms=6)
    cases.append(
        (
            "base",
            lambda pt: h.value(pt[0], pt[1]),
            lambda base, d: h.jet(base, d),
            (0.2, 0.6),
            0.02,
        )
    )

    for name, f, jet_of, base, step in cases:
        if jet_of is None:
            def jet_of(b, d):
                x = Jet2.variable(0, b, d)
                y = Jet2.variable(1, b, d)
                return (x * x + y * y + 5.0).reciprocal()

        jet = jet_of(base, 4)
        for a1 in range(5):
            for a2 in range(5 - a1):
                if a1 + a2 == 0:
                    continue
                want = finite_difference(f, base, (a1, a2), h=step)
                got = jet.coefficient((a1, a2)) * math.factorial(a1) * math.factorial(a2)
                scale = max(abs(want), abs(got), 1e-9)
                err = abs(want - got) / scale
                worst = max(worst, err)
                if err > rel_tol:
                    failures.append((name, (a1, a2), err))

    # the axis closed form must agree with the exact jet on the nose
    M = gevrey(1)
    hK = BaseFunction(M, terms=60)
    jet = hK.jet((Fraction(0), Fraction(0)), 8)
    exact_bad = []
    for order in (2, 4, 6, 8):
        sign = -1 if (order // 2) % 2 else 1
        closed = sign * math.factorial(order) * hK.axis_moment(order)
        from_jet = jet.coefficient((0, order)) * math.factorial(order)
        if closed != from_jet:
            exact_bad.append(order)

    ok = not failures and not exact_bad
    return (
        ok,
        f"finite differences agree to {worst:.1e} rel; axis closed form matches "
        f"the exact jet identically through order 8",
        {"fd_worst_rel": worst, "fd_failures": failures, "exact_mismatch": exact_bad},
    )


def _crit_family_inequalities() -> Outcome:
    families = [analytic(), gevrey(1), gevrey(2), gevrey(0.5), log_power(math.e)]
    bad = []
    for M in families:
        rep = square_vs_shift_diagnostic(M, 1000)
        if not rep.inequality_ok:
            bad.append((M.name, "square-vs-shift"))
        for k in range(1, 1001):
            lw2 = 2 * M.log_weight(k)
            lw = M.log_weight(2 * k)
            if lw2 > lw + 1e-9 * max(1.0, abs(lw)):
                bad.append((M.name, f"square at k={k}"))
                break
    evens = list(range(2, 101, 2))
    harmonic, abel = abel_identity_terms(evens, 100)
    if harmonic != abel:
        bad.append(("evens", "abel-identity"))
    return (
        not bad,
        f"pointwise inequalities hold for {len(families)} families to k=1000; "
        f"summation identity exact ({harmonic})",
        {"failures": bad},
    )


CRITERIA: list[tuple[str, float, Callable[[], Outcome]]] = [
    ("trace-growth-identity", 1.0, _crit_trace_growth_identity),
    ("kernel-taylor-bounds", 10.0, _crit_kernel_taylor),
    ("base-lower-bound", 5.0, _crit_base_lower),
    ("base-upper-bound", 30.0, _crit_base_upper),
    ("polar-bounds", 60.0, _crit_polar_bounds),
    ("flat-lower-certificate", 30.0, _crit_flat_lower),
    ("flat-upper-bounds", 60.0, _crit_flat_upper),
    ("sharpness-roots", 60.0, _crit_sharpness),
    ("ratio-step-schedule", 10.0, _crit_schedule),
    ("jet-consistency", 30.0, _crit_jet_consistency),
    ("family-inequalities", 5.0, _crit_family_inequalities),
]


def run_criterion(index: int) -> CriterionResult:
    """Run one criterion by 1-based index; exceptions count as failures."""
    name, budget, fn = CRITERIA[index - 1]
    t0 = time.perf_counter()
    try:
        ok, detail, extras = fn()
    except Exception:
        ok, detail, extras = False, "raised", {"traceback": traceback.format_exc()}
    return CriterionResult(
        index, name, ok, time.perf_counter() - t0, budget, detail, extras
    )


def run_all(only: Optional[Sequence[int]] = None) -> list[CriterionResult]:
    indices = list(only) if only else list(range(1, len(CRITERIA) + 1))
    return [run_criterion(i) for i in indices]
