"""One benchmark operation in a fresh interpreter, so it pays cold caches.

run.py starts this file once per operation; it is not meant to be imported.

  python3 perfbench/op.py KIND --out DIR --result FILE [options]

KIND is one of
  certify     `carleman certify --gamma LAYOUT` through carleman.cli.main
  selftest    `carleman selftest` through carleman.cli.main
  construct   build_layout(gevrey(1), sqrt, 4096), Layout.save/load, FlatFunction
  gen-layout  write the greedy gevrey:1/sqrt layout at lambda_max 256 to --layout

The result file gets `t_ready` (time.monotonic() once carleman is imported
and the inputs exist), `wall_s` of the timed call, `rss_mb` (peak resident
memory when the call returns), `observed` (what checks.py compares with the
reference, computed after the timed region), per-criterion seconds measured
around acceptance.run_criterion, and with --trace the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import fraction_digest

CERTIFY_LAMBDA_MAX = 256
CONSTRUCT_LAMBDA_MAX = 4096
ROW_KEYS = ("order", "ok", "dominant_ok", "cross_ok", "lhs_log", "rhs_log")
PAYLOAD_FIELDS = ("index", "seconds", "budget", "detail")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def op_certify(args, ready) -> dict:
    from carleman import cli

    ready()
    t0 = time.perf_counter()
    code = cli.main(["certify", "--gamma", args.layout, "--out", args.out])
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    check = json.loads((Path(args.out) / "certify.json").read_text())["checks"][0]
    rows = [{k: r[k] for k in ROW_KEYS} for r in check["payload"]["rows"]]
    return {
        "wall_s": wall,
        "rss_mb": rss,
        "observed": {"exit_code": code, "status": check["status"], "rows": rows},
    }


def op_selftest(args, ready) -> dict:
    from carleman import acceptance, cli

    inner = acceptance.run_criterion
    results, seconds = {}, {}

    def timed(index):
        t0 = time.perf_counter()
        r = inner(index)
        seconds[index] = time.perf_counter() - t0
        results[index] = r
        return r

    acceptance.run_criterion = timed  # run_all looks it up at call time
    ready()
    t0 = time.perf_counter()
    code = cli.main(["selftest", "--out", args.out])
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    report = json.loads((Path(args.out) / "selftest.json").read_text())
    criteria = {}
    for c in report["checks"]:
        p = c["payload"]
        r = results[p["index"]]
        criteria[str(p["index"])] = {
            "name": c["name"],
            "status": c["status"],
            "ok": r.ok,
            "in_budget": r.in_budget,
            "detail": p["detail"],
            "extras": {k: v for k, v in p.items() if k not in PAYLOAD_FIELDS},
        }
    return {
        "wall_s": wall,
        "rss_mb": rss,
        "criterion_s": {str(i): s for i, s in seconds.items()},
        "observed": {"exit_code": code, "criteria": criteria},
    }


def op_construct(args, ready) -> dict:
    from carleman import flat
    from carleman.weights import gevrey

    M, E = gevrey(1), flat.EFunction.parse("sqrt")
    path = Path(args.out) / "layout.json"
    ready()  # looked up through the module below, so the tracer's wrappers apply
    t0 = time.perf_counter()
    layout = flat.build_layout(M, E, CONSTRUCT_LAMBDA_MAX)
    layout.save(path)
    loaded = flat.Layout.load(path)
    fn = flat.FlatFunction(loaded)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()
    base = fn.base
    observed = {
        "orders_built": layout.orders,
        "orders_loaded": loaded.orders,
        "terms": base.terms,
        "rho": fraction_digest(e.rho for e in loaded.entries),
        "eps_lo": fraction_digest([loaded.eps_lo]),
        "eps_hi": fraction_digest([loaded.eps_hi]),
        "eps_exact": fraction_digest([loaded.eps_exact]),
        "delta_min_lo": fraction_digest([loaded.delta_min_lo]),
        "weights": fraction_digest(base.weight_exact(k) for k in base.k_range),
    }
    return {"wall_s": wall, "rss_mb": rss, "observed": observed}


def op_gen_layout(args, ready) -> dict:
    from carleman.flat import EFunction, build_layout
    from carleman.weights import gevrey

    ready()
    build_layout(gevrey(1), EFunction.parse("sqrt"), CERTIFY_LAMBDA_MAX).save(args.layout)
    return {}


KINDS = {
    "certify": op_certify,
    "selftest": op_selftest,
    "construct": op_construct,
    "gen-layout": op_gen_layout,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=sorted(KINDS))
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--out", required=True, help="report directory for the CLI")
    ap.add_argument("--result", required=True)
    ap.add_argument("--layout")
    ap.add_argument("--setup-only", action="store_true", help="stop once the inputs exist")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="gzip CSV file for the recorded spans")
    args = ap.parse_args()

    result: dict = {}
    tracer = None

    def ready():
        nonlocal tracer
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["t_ready"] = time.monotonic()
        if args.setup_only:
            raise SystemExit(0)

    try:
        import carleman
        import carleman.cli  # noqa: F401  (the CLI loads every module of the package)

        where = Path(carleman.__file__).resolve().parent.parent
        if where != Path(args.src).resolve():
            raise RuntimeError(f"imported carleman from {where}, expected {args.src}")
        result.update(KINDS[args.kind](args, ready))
        if tracer is not None:
            result["trace"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    except SystemExit:
        pass
    except Exception:
        result["error"] = traceback.format_exc()
    Path(args.result).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
