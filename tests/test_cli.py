"""End-to-end tests for the command-line front end.

These drive main() in process and pin the external contract: exit codes,
report filenames, CSV headers, and rerun stability modulo the `timings`
block.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carleman.blocks import BaseFunction
from carleman.cli import DMAX_LIMIT, main
from carleman.counterexample import counterexample_sequence, full_verification
from carleman.flat import EFunction, LayoutError, layout_from_orders
from carleman.reports import ReportBuilder, render_json, strip_volatile, to_jsonable
from carleman.weights import gevrey


def run(*argv):
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_usage_error_bad_family(capsys):
    with pytest.raises(SystemExit) as ei:
        run("analyze", "--family", "nonsense:1")
    assert ei.value.code == 2


def test_usage_error_missing_subcommand():
    with pytest.raises(SystemExit) as ei:
        run()
    assert ei.value.code == 2


def test_analyze(tmp_path, capsys):
    assert run("analyze", "--family", "gevrey:1", "--K", "64", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "summation trend" in out
    env = read_json(tmp_path / "analyze.json")
    assert env["tool"] == "analyze"
    assert env["config"]["family"] == "gevrey:1"
    assert not env["failed"]
    names = [c["name"] for c in env["checks"]]
    assert "log-convexity" in names and "square-vs-shift-inequality" in names


def test_compare_frozen_verdict(tmp_path, capsys):
    assert run("compare", "--N", "analytic", "--M", "gevrey:1", "--out", str(tmp_path)) == 0
    assert "strictly-contained-diagnostic" in capsys.readouterr().out
    assert (tmp_path / "compare.json").exists()


def test_ostrowski_csv_contract(tmp_path):
    assert (
        run(
            "ostrowski", "--family", "gevrey:1", "--r-min", "1", "--r-max", "100",
            "--count", "10", "--identity-k", "10", "--out", str(tmp_path),
        )
        == 0
    )
    lines = (tmp_path / "ostrowski.csv").read_text().splitlines()
    assert lines[0] == "r,phi_log,argmax"
    assert len(lines) == 11
    env = read_json(tmp_path / "ostrowski.json")
    assert all(c["status"] == "pass" for c in env["checks"])


def test_ostrowski_bad_range(tmp_path, capsys):
    for r_min, r_max in (("5", "2"), ("0", "2"), ("nan", "2"), ("1", "nan"), ("1", "inf")):
        argv = ("--family", "gevrey:1", "--r-min", r_min, "--r-max", r_max)
        assert run("ostrowski", *argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


# each verify-bounds target and the name of its sweep check
SWEEP_CHECKS = {
    "brick": "brick-taylor-bound",
    "polar-brick": "polar-brick-bound",
    "base": "base-upper-bound",
    "block": "block-upper-bound",
    "polar-block": "polar-block-bound",
}
# sha256 of each target's bounds.json below, without its timings block
BOUNDS_PINS = {
    "brick": "acecfd5f47a98212121902adb6c9945c281b45afd39a497688e997d5fd5bc267",
    "polar-brick": "4ae5ca8d3533773bfe45f57aaa0e19636f82a83ec895349663dc2c51f68480d3",
    "base": "01e987a59e75c59540a9556a9e31cc94d94c69cdbc2d6aa1c1de724475cdbf88",
    "block": "5d88de27404dbf45406d0b8128304ce6d24a028d2ec78345f5dacd21bdd75ce2",
    "polar-block": "ca72911aa521436b41c2dc060919b8b82ae32ff3a6f4a34bb437e15fe64a7ef4",
}


@pytest.mark.parametrize("target", list(SWEEP_CHECKS))
def test_verify_bounds_target(target, tmp_path):
    assert (
        run(
            "verify-bounds", "--target", target, "--Dmax", "4", "--samples", "3",
            "--out", str(tmp_path),
        )
        == 0
    )
    env = read_json(tmp_path / "bounds.json")
    assert env["config"]["seed"] == 0
    assert env["checks"][0]["name"] == SWEEP_CHECKS[target]
    assert env["checks"][0]["payload"]["checked"] > 0
    assert not env["failed"]
    text = render_json(strip_volatile(env))
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDS_PINS[target]


@pytest.mark.parametrize("target", ["base", "block"])
def test_verify_bounds_builds_one_base_function(target, tmp_path, monkeypatch):
    # the upper sweep, the lower rows and the base profile share one h
    builds = []
    init = BaseFunction.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BaseFunction, "__init__", counting_init)
    argv = ("verify-bounds", "--target", target, "--Dmax", "3", "--samples", "2")
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert len(builds) == 1


def test_verify_bounds_base_writes_profile(tmp_path):
    assert (
        run(
            "verify-bounds", "--target", "base", "--family", "gevrey:1",
            "--Dmax", "3", "--samples", "4", "--out", str(tmp_path),
        )
        == 0
    )
    lines = (tmp_path / "base_profile.csv").read_text().splitlines()
    assert lines[0] == "x,h_axis1,h_axis2"
    assert len(lines) == 82  # header + x from -10 to 10 in quarter steps


def test_construct_flat_greedy_and_certify(tmp_path, capsys):
    assert (
        run(
            "construct-flat", "--family", "gevrey:1", "--lambda-max", "64",
            "--out", str(tmp_path),
        )
        == 0
    )
    assert "[2, 12, 52]" in capsys.readouterr().out
    layout_file = tmp_path / "layout.json"
    assert layout_file.exists()

    assert (
        run(
            "certify", "--gamma", str(layout_file), "--N", "gevrey:1",
            "--out", str(tmp_path),
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "growing-diagnostic" in out
    cert = (tmp_path / "certificate.csv").read_text().splitlines()
    assert cert[0] == "lambda,lhs_log,rhs_log,ratio_root"
    assert [row.split(",")[0] for row in cert[1:]] == ["2", "12", "52"]
    sharp = (tmp_path / "sharpness.csv").read_text().splitlines()
    assert sharp[0] == "lambda,deriv_log,target_log,r"
    assert len(sharp) == 4


def test_construct_flat_reports_the_layouts_lambda_max(tmp_path):
    # with --orders the layout's top order, not the --lambda-max default, is built
    argv = ("construct-flat", "--family", "gevrey:1", "--orders", "2,12,52,212")
    assert run(*argv, "--out", str(tmp_path)) == 0
    report = read_json(tmp_path / "construct_flat.json")
    assert read_json(tmp_path / "layout.json")["lambda_max"] == 212
    assert report["config"]["lambda_max"] == 212


def test_construct_flat_orders_keep_an_explicit_lambda_max(tmp_path):
    argv = ("construct-flat", "--family", "gevrey:1", "--orders", "2,12", "--lambda-max", "64")
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert read_json(tmp_path / "layout.json")["lambda_max"] == 64
    assert read_json(tmp_path / "construct_flat.json")["config"]["lambda_max"] == 64


def test_construct_flat_rejects_bad_orders(tmp_path, capsys):
    for argv in (("--orders", "3"), ("--E", "power:abc"), ("--terms", "2")):
        assert run("construct-flat", "--family", "gevrey:1", *argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


def test_construct_flat_reads_offset_ratios_of_underflowing_scales(tmp_path, capsys):
    # rho = 1/11^300 is 0.0 as a float; the offset ratio comes from the exact rho
    for family in ("gevrey:300", "power:200:gevrey:1"):
        out = tmp_path / family.replace(":", "-")
        assert run("construct-flat", "--family", family, "--out", str(out)) == 0
        entries = read_json(out / "layout.json")["entries"]
        assert all(math.isfinite(e["offset_ratio"]) and e["offset_ratio"] > 1 for e in entries)
    # past what a float holds, exit 2 and write nothing
    argv = ("construct-flat", "--family", "power:400:gevrey:1", "--out", str(tmp_path / "big"))
    assert run(*argv) == 2
    assert "error: a float field of the layout" in capsys.readouterr().err
    assert not (tmp_path / "big").exists()


def test_construct_flat_rejects_a_directory_as_the_layout(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    argv = ("construct-flat", "--family", "gevrey:1", "--gamma", "taken")
    assert run(*argv, "--out", str(tmp_path)) == 2
    assert "names a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not list((tmp_path / "taken").iterdir())


def test_construct_flat_records_stage_timings(tmp_path):
    argv = ("construct-flat", "--family", "gevrey:1", "--lambda-max", "64")
    assert run(*argv, "--out", str(tmp_path)) == 0
    timings = read_json(tmp_path / "construct_flat.json")["timings"]
    stages = [timings[key] for key in ("layout_build_s", "layout_save_s")]
    assert all(s >= 0 for s in stages)
    assert sum(stages) <= timings["total_s"]


def test_certify_records_stage_timings(tmp_path):
    layout = tmp_path / "layout.json"
    argv = ("construct-flat", "--family", "gevrey:1", "--lambda-max", "64")
    assert run(*argv, "--gamma", str(layout), "--out", str(tmp_path)) == 0
    reports = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run("certify", "--gamma", str(layout), "--out", str(out)) == 0
        reports.append(read_json(out / "certify.json"))
    for env in reports:
        timings = env["timings"]
        stages = [timings[key] for key in ("layout_load_s", "flat_build_s", "certificate_s")]
        assert all(s >= 0 for s in stages)
        assert sum(stages) <= timings["total_s"]
        # a 64-term layout certifies its rows in the calling process
        assert timings["certificate_workers"] == 1
        assert [int(k) for k in timings["rows_s"]] == env["checks"][0]["payload"]["orders"]
        assert sum(timings["rows_s"].values()) <= timings["certificate_s"]
    assert strip_volatile(reports[0]) == strip_volatile(reports[1])


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def layout_256(tmp_path_factory):
    out = tmp_path_factory.mktemp("layout256")
    argv = ("construct-flat", "--family", "gevrey:1", "--lambda-max", "256")
    assert run(*argv, "--out", str(out)) == 0
    return str(out / "layout.json")


def test_certify_reports_the_same_bytes_from_forked_rows(layout_256, tmp_path, monkeypatch):
    outs = {}
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        outs[cpus] = tmp_path / str(cpus)
        argv = ("certify", "--gamma", layout_256, "--N", "shift:2:gevrey:1")
        assert run(*argv, "--out", str(outs[cpus])) == 0
        _no_child_left()
    reports = {cpus: read_json(out / "certify.json") for cpus, out in outs.items()}
    assert strip_volatile(reports[2]) == strip_volatile(reports[1])
    for name in ("certificate.csv", "sharpness.csv"):
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the four rows shared by this process and one child
    assert reports[2]["timings"]["certificate_workers"] == 2
    assert reports[1]["timings"]["certificate_workers"] == 1
    for env in reports.values():
        assert list(env["timings"]["rows_s"]) == ["2", "12", "52", "212"]


def test_certify_exits_two_on_a_layout_error_in_a_row_worker(layout_256, tmp_path, monkeypatch, capsys):
    from carleman import flat

    row_of = flat._certificate_row

    def failing_row(fn, target):
        if target.order == 12:  # the child's first row
            raise LayoutError("no row at order 12")
        return row_of(fn, target)

    monkeypatch.setattr(flat, "_certificate_row", failing_row)
    _usable_cpus(monkeypatch, 2)
    out = tmp_path / "cert"
    assert run("certify", "--gamma", layout_256, "--out", str(out)) == 2
    _no_child_left()
    err = capsys.readouterr().err
    assert "error: no row at order 12" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_certify_missing_layout(tmp_path, capsys):
    assert run("certify", "--gamma", str(tmp_path / "absent.json")) == 2
    assert "cannot load layout" in capsys.readouterr().err


def test_certify_rejects_a_short_target_family_before_writing(tmp_path, capsys):
    # table:0,1 has no M_2, so the sharpness scan fails on the order-2 row;
    # the certificate is already computed then, but nothing may be written
    layout_dir, out = tmp_path / "layout", tmp_path / "cert"
    argv = ("construct-flat", "--family", "gevrey:1", "--orders", "2,4")
    assert run(*argv, "--out", str(layout_dir)) == 0
    capsys.readouterr()
    gamma = str(layout_dir / "layout.json")
    assert run("certify", "--gamma", gamma, "--N", "table:0,1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: custom table has no entry for k=2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unwritable_output_exits_two(tmp_path, capsys):
    # an --out that is a regular file fails in the report writer, after the handler
    blocker = tmp_path / "report-here"
    blocker.write_text("")
    assert run("analyze", "--family", "gevrey:1", "--K", "16", "--out", str(blocker)) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


def _with_center(data, value):
    first = {**data["entries"][0], "center": value}
    return {**data, "entries": [first, *data["entries"][1:]]}


@pytest.mark.parametrize(
    "tamper",
    [
        lambda d: {**d, "orders": 5},
        lambda d: {**d, "orders": [2.0, 12, 52]},
        lambda d: {**d, "terms": "abc"},
        lambda d: {**d, "m_family": 3},
        lambda d: {**d, "e_spec": 5},
        lambda d: _with_center(d, "x"),
        lambda d: _with_center(d, float("nan")),
        lambda d: {**d, "entries": []},
        lambda d: {k: v for k, v in d.items() if k != "terms"},
        lambda d: d["orders"],
        lambda d: {**d, "lambda_max": -5},
        lambda d: {**d, "lambda_max": 50},
    ],
    ids=["orders-int", "orders-float", "terms-str", "family-int", "E-int",
         "center-str", "center-nan", "no-entries", "missing-terms", "list",
         "lambda-max-negative", "lambda-max-below-top"],
)
def test_certify_rejects_malformed_layout(tamper, tmp_path, capsys):
    assert run(
        "construct-flat", "--family", "gevrey:1", "--lambda-max", "64", "--out", str(tmp_path)
    ) == 0
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(tamper(read_json(path))))
    capsys.readouterr()
    assert run("certify", "--gamma", str(path), "--out", str(tmp_path / "cert")) == 2
    err = capsys.readouterr().err
    assert "error: cannot load layout:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cert").exists()


def test_counterexample_schedule_csv(tmp_path):
    assert run("counterexample", "--k-max", "32", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert lines[0] == "k,a_k,b_k,g_k"
    assert len(lines) == 33
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.0 and float(first[3]) == 1.0
    env = read_json(tmp_path / "counterexample.json")
    assert not env["failed"]
    assert {c["name"] for c in env["checks"]} >= {
        "log-convexity", "gap-sums", "strict-gap-window",
    }


def test_counterexample_payloads_are_the_check_details(tmp_path):
    assert run("counterexample", "--pairs", "3", "--k-max", "8", "--out", str(tmp_path)) == 0
    env = read_json(tmp_path / "counterexample.json")
    checks = full_verification(3)
    assert [c["name"] for c in env["checks"]] == [c.name for c in checks] + ["schedule-size"]
    for got, c in zip(env["checks"], checks):
        assert got["status"] == ("pass" if c.ok else "fail")
        assert got["payload"] == json.loads(json.dumps(to_jsonable(c.details)))


def test_reports_stable_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run(
                "construct-flat", "--family", "gevrey:1", "--lambda-max", "64",
                "--out", str(out),
            )
            == 0
        )
        assert run("certify", "--gamma", str(out / "layout.json"), "--out", str(out)) == 0
    assert (a / "certificate.csv").read_bytes() == (b / "certificate.csv").read_bytes()
    assert (a / "layout.json").read_bytes() == (b / "layout.json").read_bytes()
    ea = strip_volatile(read_json(a / "certify.json"))
    eb = strip_volatile(read_json(b / "certify.json"))
    # the config echoes the input path, which differs by construction
    ea["config"].pop("gamma")
    eb["config"].pop("gamma")
    assert ea == eb
    for argv, report in (
        (("counterexample", "--pairs", "3"), "counterexample.json"),
        (("selftest", "--only", "3,6"), "selftest.json"),
    ):
        for out in (a, b):
            counterexample_sequence.cache_clear()  # a rerun builds the schedule afresh
            assert run(*argv, "--out", str(out)) == 0
        assert strip_volatile(read_json(a / report)) == strip_volatile(read_json(b / report))
    assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CARLEMAN_OUT", str(tmp_path / "envout"))
    assert run("compare", "--N", "gevrey:1", "--M", "gevrey:2", "--K", "64") == 0
    assert (tmp_path / "envout" / "compare.json").exists()


def test_failed_check_exits_one(tmp_path):
    # the exit-1 path is driven by the report builder's failed flag
    from carleman.cli import _finish

    rb = ReportBuilder("demo", {})
    rb.add("broken", False)
    assert _finish(rb, str(tmp_path), "demo.json", quiet=True) == 1
    assert read_json(tmp_path / "demo.json")["failed"]


def test_selftest_single_criterion(tmp_path, capsys):
    assert run("selftest", "--only", "1", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1/1 criteria passed" in out
    env = read_json(tmp_path / "selftest.json")
    assert env["checks"][0]["name"] == "trace-growth-identity"
    # the clock starts at dispatch, so the total covers the criterion
    timings = env["timings"]
    assert list(timings["criteria"]) == ["trace-growth-identity"]
    assert timings["total_s"] >= timings["criteria"]["trace-growth-identity"] > 0
    assert "seconds" not in env["checks"][0]["payload"]


# log M_k = k(k-1)/2 through k = 12, then ratio 7 after ratio 11: the
# ratio drops at k = 12, past the table's own 8-entry validation
RATIO_DROP_TABLE = "table:" + ",".join(str(k * (k - 1) / 2 - 5 * max(0, k - 12)) for k in range(43))


@pytest.mark.parametrize(
    "argv",
    [
        ("selftest", "--only", "0"),
        ("selftest", "--only", "1,99"),
        ("ostrowski", "--family", "gevrey:1", "--count", "1"),
        ("verify-bounds", "--target", "base", "--terms", "2"),
        ("verify-bounds", "--target", "brick", "--Dmax", "-1"),
        ("verify-bounds", "--target", "polar-brick", "--samples", "-1"),
        ("counterexample", "--pairs", "0"),
        ("counterexample", "--pairs", "1"),
        ("counterexample", "--k-max", "-1"),
        ("counterexample", "--k-max", "0"),
        ("ostrowski", "--family", "gevrey:1", "--identity-k", "0"),
        ("ostrowski", "--family", "gevrey:1", "--horizon", "0"),
        ("analyze", "--family", "gevrey:nan"),
        ("analyze", "--family", "gevrey:inf"),
        ("analyze", "--family", "logpow:nan"),
        ("analyze", "--family", "logpow:inf"),
        ("analyze", "--family", "power:nan:gevrey:1"),
        ("compare", "--N", "gevrey:nan", "--M", "analytic"),
        ("verify-bounds", "--target", "brick", "--rho", "2"),
        ("verify-bounds", "--target", "brick", "--q", "-1"),
        ("verify-bounds", "--target", "polar-brick", "--m", "1/2"),
        ("verify-bounds", "--target", "block", "--rho", "0"),
        ("verify-bounds", "--target", "polar-block", "--family", "shift:2:gevrey:1"),
        ("verify-bounds", "--target", "polar-block", "--family", "logpow:3"),
        ("verify-bounds", "--target", "base", "--Dmax", "0"),
        ("verify-bounds", "--target", "block", "--Dmax", "0"),
        ("verify-bounds", "--target", "base", "--family", RATIO_DROP_TABLE),
        ("construct-flat", "--family", "gevrey:1", "--orders", ","),
        ("construct-flat", "--family", "gevrey:1", "--gamma", "nosuchdir/layout.json"),
        ("selftest", "--only", ","),
        ("selftest", "--only", "3,3"),
        ("verify-bounds", "--target", "polar-brick", "--m", "1e165"),
        ("verify-bounds", "--target", "block", "--q", "1e330"),
        ("verify-bounds", "--target", "polar-block", "--q", "1e330"),
        ("verify-bounds", "--target", "block", "--rho", "1e-330"),
        # the jets hold NaN and inf coefficients (3 and 1), which no
        # comparison fails
        ("verify-bounds", "--target", "block", "--rho", "1e-60"),
        # the squared bound overflows to inf from about degree 30
        ("verify-bounds", "--target", "polar-brick", "--Dmax", "40"),
        # refused before any jet or table is built
        ("verify-bounds", "--target", "polar-block", "--Dmax", str(DMAX_LIMIT + 1)),
    ],
)
def test_bad_input_exits_two(argv, tmp_path, capsys):
    # argparse rejects most of these (SystemExit), the handler the rest
    try:
        code = run(*argv, "--out", str(tmp_path))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--K", "5"),
        ("compare", "--K", "5"),
        ("ostrowski", "--family", "gevrey:1", "--r-min", "2", "--r-max", "1"),
        ("verify-bounds", "--target", "block", "--rho", "2"),
        ("construct-flat", "--family", "logpow:3"),
        ("construct-flat", "--family", "gevrey:1", "--gamma", "nosuchdir/layout.json"),
        ("construct-flat", "--family", "gevrey:1", "--gamma", "."),
        ("construct-flat", "--family", "gevrey:1", "--gamma", ".."),
        ("construct-flat", "--family", "gevrey:1", "--orders", "2,12", "--lambda-max", "8"),
        ("certify", "--gamma", "absent.json"),
        ("certify", "--gamma", "one-block.json"),
        ("counterexample", "--pairs", "1"),
        ("counterexample", "--pairs", "13"),
        ("counterexample", "--pairs", "20000"),
        ("analyze", "--family", "counterexample:20000"),
        ("selftest", "--only", "0"),
        ("certify", "--gamma", "rho-over-zero.json"),
        ("certify", "--gamma", "eps-edited.json"),
    ],
)
def test_bad_input_in_subprocess_exits_two(argv, tmp_path):
    # a fresh interpreter, so an uncaught exception would print a traceback
    layout = layout_from_orders(gevrey(1), EFunction.parse("sqrt"), [12])
    layout.save(tmp_path / "one-block.json")
    data = layout.to_json_dict()
    data["entries"][0]["rho"] = "1/0"
    (tmp_path / "rho-over-zero.json").write_text(json.dumps(data))
    data = layout_from_orders(gevrey(1), EFunction.parse("sqrt"), [2, 12]).to_json_dict()
    data["eps_exact"] = "abc"
    (tmp_path / "eps-edited.json").write_text(json.dumps(data))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("CARLEMAN_OUT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "carleman.cli", *argv, "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
