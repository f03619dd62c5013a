"""Command-line front end.

Subcommands map one-to-one onto the library's check layers:

  analyze         weight-family diagnostics (convexity, summation trend)
  compare         k-th-root comparison of two families
  ostrowski       trace-growth function on a radius grid, CSV output
  verify-bounds   finite-order derivative bounds for bumps and blocks
  construct-flat  build and save a flat-superposition layout
  certify         lower-bound certificate (and sharpness scan) for a layout
  counterexample  ratio-step schedule construction and its checks
  selftest        the full acceptance suite

Every run writes a JSON report envelope; grid-like results also land in CSV
files with fixed headers. Exit status: 0 when no check failed, 1 when some
check failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .acceptance import CRITERIA, run_all
from .blocks import (
    DEFAULT_TERMS,
    MIN_TERMS,
    base_lower_check,
    base_upper_check,
    block_lower_check,
    block_upper_check,
    polar_block_bound_check,
    BaseFunction,
    Block,
)
from .bricks import (
    BrickParams,
    brick_taylor_check,
    polar_brick_bound_check,
)
from .counterexample import counterexample_sequence, full_verification
from .flat import (
    EFunction,
    FlatFunction,
    Layout,
    LayoutError,
    build_layout,
    layout_from_orders,
    lower_bound_certificate,
    sharpness_scan,
)
from .ostrowski import phi_grid, verify_phi_identity
from .reports import ReportBuilder, output_dir, write_csv
from .weights import (
    WeightError,
    closure_diagnostic,
    compare,
    parse_family,
    quasianalyticity_diagnostic,
    square_vs_shift_diagnostic,
)

CERTIFICATE_HEADER = ("lambda", "lhs_log", "rhs_log", "ratio_root")
SHARPNESS_HEADER = ("lambda", "deriv_log", "target_log", "r")
OSTROWSKI_HEADER = ("r", "phi_log", "argmax")
SCHEDULE_HEADER = ("k", "a_k", "b_k", "g_k")

# the highest verify-bounds degree: the jet tables and compiled kernels grow
# as degree^4, and polar-block, the heaviest target, peaks near 90 MiB at 40
DMAX_LIMIT = 40


def _family(spec: str):
    try:
        return parse_family(spec)
    except (WeightError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})")


def _orders(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values:
        raise argparse.ArgumentTypeError(f"no integers in {text!r}")
    return values


def _criteria(text: str) -> list[int]:
    indices = _orders(text)
    if not all(1 <= i <= len(CRITERIA) for i in indices):
        raise argparse.ArgumentTypeError(f"criterion indices run from 1 to {len(CRITERIA)}")
    if len(set(indices)) != len(indices):
        raise argparse.ArgumentTypeError(f"repeated criterion index in {text!r}")
    return indices


def _at_least(lo: int):
    def integer(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid integer value"
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return integer


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory (default $CARLEMAN_OUT or cwd)")


class UsageError(ValueError):
    """Bad input a handler finds after parsing; main exits 2 with its message."""


def _finish(rb: ReportBuilder, out: Optional[str], filename: str, quiet: bool = False) -> int:
    path = rb.write(output_dir(out) / filename)
    if not quiet:
        for c in rb.checks:
            print(f"{c.status.upper():10s} {c.name}")
        print(f"report: {path}")
    return 1 if rb.failed else 0


# -- subcommand handlers -----------------------------------------------------
# Each handler fills the report main opened for it. Bad input raises
# UsageError, WeightError or LayoutError before the handler writes anything;
# main exits 2 on those and on an OSError from writing the outputs.

def _cmd_analyze(args, rb: ReportBuilder) -> None:
    M = args.family
    rb.config = {"family": M.name, "K": args.K}
    try:
        M.validate(args.K)
        rb.add("log-convexity", True, {"K": args.K})
    except WeightError as exc:
        rb.add("log-convexity", False, {"error": str(exc)})
    clo = closure_diagnostic(M, args.K)
    rb.add_diagnostic("ratio-root-sup", clo)
    qa = quasianalyticity_diagnostic(M, args.K)
    rb.add_diagnostic("summation-trend", qa)
    sq = square_vs_shift_diagnostic(M, args.K // 2)
    rb.add("square-vs-shift-inequality", sq.inequality_ok, sq)
    print(f"{M.name}: summation trend {qa.verdict}")


def _cmd_compare(args, rb: ReportBuilder) -> None:
    rep = compare(args.N, args.M, args.K)
    rb.config = {"N": args.N.name, "M": args.M.name, "K": args.K}
    rb.add_diagnostic("root-comparison", rep)
    print(f"{args.N.name} vs {args.M.name}: {rep.verdict}")


def _cmd_ostrowski(args, rb: ReportBuilder) -> None:
    M = args.family
    if not 0 < args.r_min < args.r_max < math.inf:  # also rejects nan
        raise UsageError("need finite 0 < r-min < r-max")
    lo, hi = math.log(args.r_min), math.log(args.r_max)
    radii = [
        math.exp(lo + (hi - lo) * i / (args.count - 1)) for i in range(args.count)
    ]
    rows = phi_grid(M, radii, horizon=args.horizon)
    rb.config = {
        "family": M.name,
        "r_min": args.r_min,
        "r_max": args.r_max,
        "count": args.count,
        "horizon": args.horizon,
    }
    saturated = sum(1 for r in rows if r[2] < 0)
    rb.add("grid-computed", True, {"rows": len(rows), "saturated_rows": saturated})
    ident = [verify_phi_identity(M, k) for k in range(1, args.identity_k + 1)]
    rb.add(
        "ratio-identity",
        all(c.ok for c in ident),
        {"k_max": args.identity_k, "worst_residual": max(c.log_residual for c in ident)},
    )
    csv_path = write_csv(output_dir(args.out) / "ostrowski.csv", OSTROWSKI_HEADER, rows)
    print(f"grid: {csv_path}")


def _cmd_verify_bounds(args, rb: ReportBuilder) -> None:
    target = args.target
    if args.Dmax > DMAX_LIMIT:
        raise UsageError(f"--Dmax {args.Dmax} is above the limit of {DMAX_LIMIT}")
    is_brick = target in ("brick", "polar-brick")
    try:
        # the one brick or block the sweep checks; the base target has neither
        bricks = [BrickParams(args.q, args.m, args.rho)] if is_brick else []
        geom = [Block.geometry(args.q, args.rho)] if target in ("block", "polar-block") else []
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if target in ("base", "block") and args.Dmax < 1:
        raise UsageError("the lower-bound rows need --Dmax >= 1")
    # the float sweeps divide by rho and take logs of sums of rho^2
    if target in ("polar-brick", "block", "polar-block") and float(args.rho) ** 2 < sys.float_info.min:
        raise UsageError("--rho is too small: rho^2 is below the range of a double")
    rb.config = {
        "target": target,
        "family": None if is_brick else args.family.name,
        "q": args.q,
        "m": args.m,
        "rho": args.rho,
        "Dmax": args.Dmax,
        "samples": args.samples,
        "terms": args.terms,
        "seed": args.seed,
    }
    try:
        _sweep_bounds(args, rb, bricks, geom)
    except OverflowError:
        raise UsageError("a float sweep left the range of a double; lower --q, --m or --Dmax, or raise --rho") from None


def _sweep_bounds(args, rb: ReportBuilder, bricks: list, geom: list) -> None:
    target = args.target
    radii = max(2, int(math.sqrt(args.samples)))
    angles = max(1, -(-args.samples // radii))
    if target in ("brick", "polar-brick"):
        if target == "brick":
            chk = brick_taylor_check(bricks, degree=args.Dmax, points=args.samples, seed=args.seed)
            rb.add("brick-taylor-bound", chk.ok, chk)
        else:
            chk = polar_brick_bound_check(
                bricks, degree=args.Dmax, radii=radii, angles=angles, seed=args.seed
            )
            rb.add("polar-brick-bound", chk.ok, chk)
        return
    h = BaseFunction(args.family, args.terms)
    orders = list(range(2, min(2 * args.Dmax, args.terms) + 1, 2))
    if target == "base":
        up = base_upper_check(h, degree=args.Dmax, points=args.samples, seed=args.seed)
        rb.add("base-upper-bound", up.ok, up)
        low = base_lower_check(h, orders)
        rb.add("base-lower-bound", all(r.ok for r in low), low)
        xs = [i / 4 for i in range(-40, 41)]
        profile = [(x, h.value(x, 0.0), h.value(0.0, x)) for x in xs]
        ppath = write_csv(
            output_dir(args.out) / "base_profile.csv",
            ("x", "h_axis1", "h_axis2"),
            profile,
        )
        print(f"profile: {ppath}")
    elif target == "block":
        up = block_upper_check(h, geom, degree=args.Dmax, points=args.samples, seed=args.seed)
        rb.add("block-upper-bound", up.ok, up)
        low = block_lower_check(h, geom, orders)
        rb.add("block-lower-bound", all(r.ok for r in low), low)
    else:
        chk = polar_block_bound_check(
            h, geom, degree=args.Dmax, radii=radii, angles=angles, seed=args.seed
        )
        rb.add("polar-block-bound", chk.ok, chk)


def _cmd_construct_flat(args, rb: ReportBuilder) -> None:
    # --gamma must name a file, in a directory that exists or is --out itself,
    # before --out is made
    root = output_dir(args.out, create=False)
    path = root / args.gamma
    if Path(args.gamma).name in ("", "..") or path.is_dir():
        raise UsageError(f"--gamma: {args.gamma} names a directory, not a layout file")
    if path.parent != root and not path.parent.is_dir():
        raise UsageError(f"--gamma: directory {path.parent} does not exist")
    E = EFunction.parse(args.E)
    t0 = time.perf_counter()
    if args.orders:
        layout = layout_from_orders(
            args.family, E, args.orders, lambda_max=args.lambda_max, terms=args.terms
        )
    else:
        lambda_max = args.lambda_max if args.lambda_max is not None else 64
        layout = build_layout(args.family, E, lambda_max, terms=args.terms)
    t1 = time.perf_counter()
    text = layout.to_json()
    output_dir(args.out)
    path.write_text(text)
    rb.timings.update(layout_build_s=t1 - t0, layout_save_s=time.perf_counter() - t1)
    rb.config = {
        "family": args.family.name,
        "E": args.E,
        "lambda_max": layout.lambda_max,
        "orders": args.orders,
        "terms": layout.terms,
    }
    rb.add(
        "layout-built",
        True,
        {
            "orders": layout.orders,
            "eps": layout.eps,
            "eps_exact": layout.eps_exact,
            "separation_lower": layout.delta_min_lo,
            "file": str(path),
        },
    )
    print(f"layout orders {layout.orders} -> {path}")


def _cmd_certify(args, rb: ReportBuilder) -> None:
    t0 = time.perf_counter()
    try:
        layout = Layout.load(Path(args.gamma))
    except (OSError, LayoutError, KeyError, ValueError) as exc:
        raise UsageError(f"cannot load layout: {exc}") from None
    t1 = time.perf_counter()
    fn = FlatFunction(layout)
    t2 = time.perf_counter()
    cert = lower_bound_certificate(fn)
    rb.timings.update(
        layout_load_s=t1 - t0,
        flat_build_s=t2 - t1,
        certificate_s=time.perf_counter() - t2,
        certificate_workers=cert.workers,
        rows_s=cert.rows_s,
    )
    rb.config = {
        "gamma": str(args.gamma),
        "family": layout.m_family,
        "N": args.N.name if args.N is not None else None,
    }
    # the scan rejects a target family too short for the layout, so it runs
    # before either CSV is written
    sharp = sharpness_scan(fn, args.N, cert.rows) if args.N is not None else None
    rb.add(
        "lower-certificate",
        cert.all_ok,
        {
            "orders": layout.orders,
            "lambda0_estimate": cert.lambda0_estimate,
            "rows": cert.rows,
        },
    )
    cpath = write_csv(
        output_dir(args.out) / "certificate.csv", CERTIFICATE_HEADER, cert.csv_rows()
    )
    print(f"certificate: {cpath}")
    if sharp is not None:
        rb.add_diagnostic("sharpness", sharp)
        rows = [
            (
                r.order,
                r.deriv_log,
                math.lgamma(r.order + 1) + args.N.log_weight(r.order),
                r.root,
            )
            for r in sharp.rows
        ]
        spath = write_csv(output_dir(args.out) / "sharpness.csv", SHARPNESS_HEADER, rows)
        print(f"sharpness ({sharp.verdict}): {spath}")


def _cmd_counterexample(args, rb: ReportBuilder) -> None:
    seq = counterexample_sequence(args.pairs)
    rb.config = {"pairs": args.pairs, "k_max": args.k_max}
    for c in full_verification(args.pairs):
        rb.add(c.name, c.ok, c.details)
    rb.add_diagnostic(
        "schedule-size",
        {"entries": len(seq.powers), "last_entry_digits": seq.last_digits},
    )
    rb.timings["schedule_build_s"] = seq.build_seconds
    rows = [
        (k, seq.level(k), seq.b(k), seq.g(k)) for k in range(1, args.k_max + 1)
    ]
    cpath = write_csv(output_dir(args.out) / "schedule.csv", SCHEDULE_HEADER, rows)
    print(f"schedule: {cpath}")


def _cmd_selftest(args, rb: ReportBuilder) -> None:
    results = run_all(args.only)
    rb.config = {"only": args.only}
    rb.timings["criteria"] = {r.name: r.seconds for r in results}
    for r in results:
        print(r.line())
        rb.add(
            r.name,
            r.ok and r.in_budget,
            {"index": r.index, "budget": r.budget, "detail": r.detail, **r.extras},
        )
    total = sum(r.seconds for r in results)
    n_ok = sum(1 for r in results if r.ok and r.in_budget)
    print(f"{n_ok}/{len(results)} criteria passed in {total:.1f}s")


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carleman",
        description="certified finite-order analysis of log-convex weight sequences",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="diagnostics for one weight family")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--K", type=int, default=200)
    _add_out(p)
    p.set_defaults(handler=_cmd_analyze, report="analyze.json")

    p = sub.add_parser("compare", help="k-th-root comparison of two families")
    p.add_argument("--N", type=_family, required=True)
    p.add_argument("--M", type=_family, required=True)
    p.add_argument("--K", type=int, default=200)
    _add_out(p)
    p.set_defaults(handler=_cmd_compare, report="compare.json")

    p = sub.add_parser("ostrowski", help="trace-growth function on a radius grid")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--r-min", type=float, default=0.5)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--count", type=_at_least(2), default=40)
    p.add_argument("--horizon", type=_at_least(1), default=10**6)
    p.add_argument("--identity-k", type=_at_least(1), default=20)
    _add_out(p)
    p.set_defaults(handler=_cmd_ostrowski, report="ostrowski.json")

    p = sub.add_parser("verify-bounds", help="finite-order derivative bounds")
    p.add_argument(
        "--target",
        required=True,
        choices=["brick", "polar-brick", "base", "block", "polar-block"],
    )
    p.add_argument("--family", type=_family, default="gevrey:1")
    p.add_argument("--q", type=_fraction, default=Fraction(2))
    p.add_argument("--m", type=_fraction, default=Fraction(3))
    p.add_argument("--rho", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--Dmax", type=_at_least(0), default=6)
    p.add_argument("--samples", type=_at_least(1), default=6)
    p.add_argument("--terms", type=_at_least(MIN_TERMS), default=DEFAULT_TERMS)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(handler=_cmd_verify_bounds, report="bounds.json")

    p = sub.add_parser("construct-flat", help="build and save a layout")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--E", default="sqrt")
    p.add_argument("--lambda-max", type=int, default=None,
                   help="greedy scan limit (default 64); with --orders, the layout's lambda_max")
    p.add_argument("--orders", type=_orders, default=None,
                   help="comma-separated explicit orders (skips greedy selection)")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--gamma", default="layout.json", help="layout filename")
    _add_out(p)
    p.set_defaults(handler=_cmd_construct_flat, report="construct_flat.json")

    p = sub.add_parser("certify", help="lower-bound certificate for a layout")
    p.add_argument("--gamma", required=True, help="layout JSON file")
    p.add_argument("--N", type=_family, default=None,
                   help="target family for the sharpness scan")
    _add_out(p)
    p.set_defaults(handler=_cmd_certify, report="certify.json")

    p = sub.add_parser("counterexample", help="ratio-step schedule and checks")
    p.add_argument("--pairs", type=_at_least(2), default=8)
    p.add_argument("--k-max", type=_at_least(1), default=256)
    _add_out(p)
    p.set_defaults(handler=_cmd_counterexample, report="counterexample.json")

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", type=_criteria, default=None,
                   help="comma-separated criterion indices")
    _add_out(p)
    p.set_defaults(handler=_cmd_selftest, report="selftest.json")

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rb = ReportBuilder(args.command, {})  # starts the clock
    try:
        args.handler(args, rb)
        rb.config.setdefault("seed", None)
        return _finish(rb, args.out, args.report, quiet=args.command == "selftest")
    except (UsageError, WeightError, LayoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
