"""Tests for the shared report envelope and serialization helpers."""

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from carleman import __version__
from carleman.intervals import RInterval
from carleman.logscale import LogMagnitude
from carleman.reports import (
    DIAGNOSTIC,
    FAIL,
    OUTPUT_DIR_ENV,
    PASS,
    ReportBuilder,
    output_dir,
    render_json,
    strip_volatile,
    to_jsonable,
    write_csv,
)


def test_to_jsonable_fractions_round_trip():
    assert to_jsonable(Fraction(-3, 7)) == "-3/7"
    assert Fraction(to_jsonable(Fraction(10**40, 3))) == Fraction(10**40, 3)


def test_to_jsonable_interval_and_magnitude():
    iv = RInterval(Fraction(1, 3), Fraction(1, 2))
    assert to_jsonable(iv) == {"lo": "1/3", "hi": "1/2"}
    lm = LogMagnitude(-1, 2.5)
    assert to_jsonable(lm) == {"sign": -1, "log_abs": 2.5}


def test_to_jsonable_dataclass_and_containers():
    @dataclasses.dataclass
    class Row:
        k: int
        v: Fraction

    out = to_jsonable({"rows": [Row(1, Fraction(1, 2))], 3: (1, 2)})
    assert out == {"rows": [{"k": 1, "v": "1/2"}], "3": [1, 2]}


def test_to_jsonable_nonfinite_floats():
    assert to_jsonable(math.inf) == "inf"
    assert to_jsonable(-math.inf) == "-inf"
    assert to_jsonable(math.nan) == "nan"
    # the rendered JSON stays parseable with allow_nan off
    render_json({"x": to_jsonable(-math.inf)})


def test_to_jsonable_fallback_repr():
    assert to_jsonable({1, 2} if False else range(3)) == "range(0, 3)"


def test_envelope_shape_and_order():
    rb = ReportBuilder("demo", {"seed": 7})
    rb.add("first", True, {"x": 1})
    rb.add_diagnostic("second", "note")
    rb.add("third", False)
    env = rb.envelope()
    assert list(env) == ["tool", "version", "config", "timings", "checks", "failed"]
    assert list(env["timings"]) == ["total_s"]
    assert env["tool"] == "demo"
    assert env["version"] == __version__
    assert env["config"] == {"seed": 7}
    assert [c["status"] for c in env["checks"]] == [PASS, DIAGNOSTIC, FAIL]
    assert env["failed"]
    assert rb.failed


def test_strip_volatile_makes_reruns_identical():
    def build(seconds):
        rb = ReportBuilder("demo", {"seed": 7})
        rb.add("only", True, {"v": Fraction(2, 3)})
        rb.timings["stage_s"] = seconds
        return rb.envelope()

    a, b = build(0.5), build(2.0)
    assert strip_volatile(a) == strip_volatile(b)
    assert list(strip_volatile(a)) == ["tool", "version", "config", "checks", "failed"]


def test_write_and_render(tmp_path):
    rb = ReportBuilder("demo", {})
    rb.add("only", True)
    out = rb.write(tmp_path / "r.json")
    data = json.loads(out.read_text())
    assert data["checks"][0] == {"name": "only", "status": "pass", "payload": None}
    assert out.read_text().endswith("\n")


def test_output_dir_env_and_override(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envdir"))
    assert output_dir() == tmp_path / "envdir"
    assert (tmp_path / "envdir").is_dir()
    # explicit override wins over the environment
    assert output_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_write_csv_formats(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ("k", "x", "q"),
        [(1, 0.1, Fraction(1, 3)), (2, float(10) ** 20, Fraction(-2))],
    )
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "k,x,q"
    assert lines[1] == "1,0.1,1/3"
    assert lines[2] == "2,1e+20,-2/1"
    # repr round-trips the floats exactly
    assert float(lines[1].split(",")[1]) == 0.1
