"""Report envelopes and serialization shared by the command-line tools.

Every tool emits the same JSON shape: tool name and version, the echoed
configuration (including any RNG seed), a `timings` block of wall-clock
seconds, and a list of checks, each with a name, a status of pass / fail /
diagnostic, and a free payload. Field order is fixed and every wall-clock
value lives in `timings`, so reruns differ only in that block; the golden
tests rely on that.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from . import __version__

OUTPUT_DIR_ENV = "CARLEMAN_OUT"

PASS = "pass"
FAIL = "fail"
DIAGNOSTIC = "diagnostic"


def output_dir(override: Optional[str] = None, create: bool = True) -> Path:
    """Reports land in --out if given, else $CARLEMAN_OUT, else cwd; the
    directory is made unless create is false."""
    path = Path(override or os.environ.get(OUTPUT_DIR_ENV) or ".")
    if create:
        path.mkdir(parents=True, exist_ok=True)
    return path


def to_jsonable(obj: Any) -> Any:
    """Recursively rewrite values into JSON-safe primitives.

    Fractions become "p/q" strings (exactness survives the round trip) and
    dataclasses become their fields in declaration order, so an interval is
    {lo, hi} in that encoding and a log magnitude {sign, log_abs}. Tuples
    become lists; dict keys are stringified.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf" / "-inf" / "nan"; allow_nan is off downstream
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@dataclasses.dataclass
class CheckEntry:
    name: str
    status: str  # pass | fail | diagnostic
    payload: Any = None


class ReportBuilder:
    """Accumulates checks for one tool run and renders the envelope."""

    def __init__(self, tool: str, config: dict):
        self.tool = tool
        self.config = dict(config)
        self.checks: list[CheckEntry] = []
        # unrounded seconds on one clock, so total_s bounds any stage's sum
        self.timings: dict[str, Any] = {}
        self._t0 = time.perf_counter()

    def add(self, name: str, ok: bool, payload: Any = None) -> None:
        self.checks.append(CheckEntry(name, PASS if ok else FAIL, payload))

    def add_diagnostic(self, name: str, payload: Any = None) -> None:
        self.checks.append(CheckEntry(name, DIAGNOSTIC, payload))

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    def envelope(self) -> dict:
        return {
            "tool": self.tool,
            "version": __version__,
            "config": to_jsonable(self.config),
            "timings": {"total_s": time.perf_counter() - self._t0, **self.timings},
            "checks": [
                {"name": c.name, "status": c.status, "payload": to_jsonable(c.payload)}
                for c in self.checks
            ],
            "failed": self.failed,
        }

    def write(self, path: Path) -> Path:
        path.write_text(render_json(self.envelope()))
        return path


def render_json(envelope: dict) -> str:
    # keys stay in insertion order on purpose: the field layout is part of
    # the interface, sort_keys would scramble it
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def strip_volatile(envelope: dict) -> dict:
    """Drop the timings block so byte comparisons across reruns work."""
    return {k: v for k, v in envelope.items() if k != "timings"}


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Plain comma-joined CSV with a fixed header line.

    Floats are rendered with repr (shortest round-trip form); no quoting is
    needed because none of the emitted fields contain commas.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _csv_cell(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)
