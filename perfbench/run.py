"""Benchmark of the carleman certified pipeline; see README.md beside this file.

  python3 perfbench/run.py --workload certify-256 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout. Every operation runs in a fresh interpreter
(op.py) with the checkout's src/ on PYTHONPATH, so nothing needs installing.
With --trace 0 the run repeats the workload's operation until --seconds have
passed and reports the end-to-end metrics as medians; on selftest it also
prints and records the times of criteria 2, 5 and 7, which the JSON line
leaves out. With --trace 1 it runs the operation once untraced and twice
traced and reports the per-layer metrics, the tracing overhead, and whether
the work counters repeated.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
output checks against reference.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import compare, expected_checks, fail_frac, load_reference
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# workload -> operation kind in op.py
WORKLOADS = {"certify-256": "certify", "selftest": "selftest", "construct-4096": "construct"}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_frac": "ratio"}
# criterion timings printed and recorded for selftest only, and the
# acceptance criterion each one times
CRITERIA = {"selftest.polar_s": 5, "selftest.flat_upper_s": 7, "selftest.kernel_taylor_s": 2}
TRACE_UNITS = {**{n: u for n, (u, _, _) in PER_LAYER.items()}, "trace.overhead_s": "s"}
# per-layer counters that must repeat exactly between the two traced runs
WORK_COUNTER_SUFFIXES = (".calls", ".terms", "_ratio", "intervals.endpoint_bits_max")
MIN_ROUNDS = 2  # rounds per run even when one round outlasts --seconds
RUN_CAP_S = 150  # start no round expected to end after this
OP_TIMEOUT_S = 170


class OpFailed(Exception):
    pass


class Runner:
    def __init__(self, tmp: Path, reference: dict):
        self.tmp = tmp
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        self.count = 0
        self.checks: list[tuple[str, bool]] = []

    def spawn(self, kind: str, *extra: str, trace=False, spans=None, setup_only=False) -> dict:
        """Start op.py, wait for it, return its result with setup_s and total_s."""
        self.count += 1
        out = self.tmp / f"op{self.count}"
        out.mkdir()
        result_file = self.tmp / f"op{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "op.py"), kind, "--src", str(SRC),
            "--out", str(out), "--result", str(result_file), *extra,
        ]
        cmd += ["--trace"] if trace else []
        cmd += ["--spans", str(spans)] if spans else []
        cmd += ["--setup-only"] if setup_only else []
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=out, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S,
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"timed out after {OP_TIMEOUT_S} s"
        total = time.monotonic() - t0
        data = json.loads(result_file.read_text()) if result_file.exists() else {}
        if "t_ready" not in data or "error" in data:
            data.setdefault("error", stderr[-4000:] or "no result")
            return data
        data["setup_s"] = data["t_ready"] - t0
        data["total_s"] = total
        return data

    def checked(self, kind: str, data: dict, budgets_apply=True) -> dict:
        """Record the operation's output checks; a crashed operation fails
        every check it would have made."""
        if "observed" in data:
            self.checks += compare(kind, data["observed"], self.reference, budgets_apply)
        else:
            n = expected_checks(kind, self.reference, budgets_apply)
            self.checks += [(f"{kind}-raised", False)] * n
            print(f"error in {kind}: {data.get('error', '')}", file=sys.stderr)
        return data

    def operation(self, workload: str, trace=False, spans=None, setup_only=False) -> dict:
        """One fresh-interpreter run of the workload's operation. For
        certify-256 the layout is generated first, in its own interpreter,
        and that time counts as set-up."""
        kind = WORKLOADS[workload]
        extra: tuple = ()
        gen_s = 0.0
        if kind == "certify":
            layout = self.tmp / f"layout{self.count + 1}.json"
            gen = self.spawn("gen-layout", "--layout", str(layout))
            if "error" in gen:
                raise OpFailed(gen["error"])
            gen_s = gen["total_s"]
            extra = ("--layout", str(layout))
        data = self.spawn(kind, *extra, trace=trace, spans=spans, setup_only=setup_only)
        if "setup_s" in data:
            data["setup_s"] += gen_s
        if setup_only:
            if "error" in data:
                raise OpFailed(data["error"])
            return data
        return self.checked(kind, data, budgets_apply=not trace)


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict, dict]:
    """Repeat rounds of one set-up-only interpreter and one operation until
    --seconds have passed, at least MIN_ROUNDS times; report medians."""
    setups, walls, rss = [], [], []
    crit = {name: [] for name in CRITERIA}
    rounds, begin = 0, time.monotonic()
    while True:
        setups.append(runner.operation(workload, setup_only=True)["setup_s"])
        op = runner.operation(workload)
        if "wall_s" in op:
            setups.append(op["setup_s"])
            walls.append(op["wall_s"])
            rss.append(op["rss_mb"])
            for name, index in CRITERIA.items():
                if str(index) in op.get("criterion_s", {}):
                    crit[name].append(op["criterion_s"][str(index)])
        rounds += 1
        elapsed = time.monotonic() - begin
        if (rounds >= MIN_ROUNDS and elapsed >= seconds) or elapsed * (rounds + 1) / rounds > RUN_CAP_S:
            break
    metrics = {
        "wall_s": _median(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(rss),
        "pass_frac": 1 - fail_frac(runner.checks),
    }
    extra = {name: _median(v) for name, v in crit.items() if v}
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss, **crit}
    return metrics, extra, samples


def measure_traced(runner: Runner, workload: str, spans: Path) -> tuple[dict, dict, dict]:
    untraced = runner.operation(workload)
    traced = [runner.operation(workload, trace=True, spans=spans if i == 0 else None) for i in range(2)]
    layers = [t["trace"] for t in traced if "trace" in t]
    if len(layers) < 2 or "wall_s" not in untraced:
        raise OpFailed("a traced or untraced operation failed")
    metrics = {}
    for name, (unit, _, _) in PER_LAYER.items():
        values = [m[name] for m in layers]
        metrics[name] = _median(values) if unit == "s" else values[0]
    counters = [n for n in PER_LAYER if n.endswith(WORK_COUNTER_SUFFIXES)]
    repeat = all(layers[0][n] == layers[1][n] for n in counters)
    runner.checks.append(("work-counters-repeat", repeat))
    if not repeat:
        diff = {n: (layers[0][n], layers[1][n]) for n in counters if layers[0][n] != layers[1][n]}
        print(f"work counters differ between traced runs: {diff}", file=sys.stderr)
    walls = [t["wall_s"] for t in traced]
    metrics["trace.overhead_s"] = _median(walls) - untraced["wall_s"]
    samples = {"untraced_wall_s": untraced["wall_s"], "traced_wall_s": walls}
    return metrics, {}, samples


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout when it is a git repository, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    runner = Runner(tmp, load_reference())
    try:
        if trace:
            spans = RESULTS / f"spans-{workload}-seed{seed}.csv.gz"
            metrics, extra, samples = measure_traced(runner, workload, spans)
            units = TRACE_UNITS
        else:
            metrics, extra, samples = measure(runner, workload, seconds)
            units = END_TO_END_UNITS
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, extra, samples, units = {}, {}, {}, {}
        runner.checks.append(("operation", False))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = [name for name, ok in runner.checks if not ok]
    out = {
        "correct": bool(metrics) and not failed,
        "attempted": max(1, len(runner.checks)),
        "failed": len(failed) if runner.checks else 1,
        "metrics": {  # a metric with no sample (its operation failed) is left out
            n: {"value": metrics[n], "unit": units[n]}
            for n in units if n in metrics and not math.isnan(metrics[n])
        },
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "fail_frac": out["failed"] / out["attempted"],
        "failed_checks": failed, "samples": samples, **out,
        "criteria": {n: {"value": v, "unit": "s"} for n, v in extra.items()},
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"{workload} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"fail_frac {record['fail_frac']:.4g} of {out['attempted']} checks")
    for name, m in {**out["metrics"], **record["criteria"]}.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0, help="recorded; these workloads are deterministic")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "carleman" / "__init__.py").is_file():
        print(f"error: no carleman sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {w: run_one(w, args.seed, args.seconds, bool(args.trace), env) for w in names}
    if len(outs) == 1:
        final = outs[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{w}/{n}": m for w, o in outs.items() for n, m in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
