"""Output checks against the seed reference, shared by the runner and its self-check.

Each operation child reports an `observed` dict; `compare` turns it into a
list of named pass/fail checks against `reference.json`. Huge rationals are
compared through digests built from `int.to_bytes`, never `str()`: Python
refuses int-to-str conversions above 4300 digits, and the benchmark must not
lift that limit for the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
LOG_REL_TOL = 1e-12
ROW_FLAGS = ("ok", "dominant_ok", "cross_ok")


def fraction_digest(values) -> str:
    """sha256 over sign, length and big-endian bytes of each numerator and
    denominator; `None` entries hash as a marker."""
    h = hashlib.sha256()
    for v in values:
        if v is None:
            h.update(b"N")
            continue
        v = Fraction(v)
        for n in (v.numerator, v.denominator):
            raw = abs(n).to_bytes(max(1, (abs(n).bit_length() + 7) // 8), "big")
            h.update(b"-" if n < 0 else b"+")
            h.update(len(raw).to_bytes(8, "big"))
            h.update(raw)
    return h.hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):  # "inf" / "-inf" renderings
        return a == b
    return math.isclose(a, b, rel_tol=LOG_REL_TOL, abs_tol=0.0)


def compare_certify(observed: dict, ref: dict) -> list[tuple[str, bool]]:
    checks = [("exit-and-verdict", observed["exit_code"] == 0 and observed["status"] == "pass")]
    got = {r["order"]: r for r in observed["rows"]}
    for want in ref["rows"]:
        row = got.get(want["order"])
        ok = (
            row is not None
            and all(row[f] == want[f] for f in ROW_FLAGS)
            and _close(row["lhs_log"], want["lhs_log"])
            and _close(row["rhs_log"], want["rhs_log"])
        )
        checks.append((f"row-{want['order']}", ok))
    return checks


def compare_selftest(observed: dict, ref: dict, budgets_apply: bool) -> list[tuple[str, bool]]:
    """One check per criterion. Traced runs are slowed by the tracer, so
    there the time budgets are not part of the verdict."""
    checks = []
    if budgets_apply:
        checks.append(("exit", observed["exit_code"] == 0))
    for index, got in sorted(observed["criteria"].items(), key=lambda kv: int(kv[0])):
        want = ref["criteria"][index]
        ok = (
            got["ok"]
            and (got["in_budget"] or not budgets_apply)
            and got["name"] == want["name"]
            and got["detail"] == want["detail"]
            and got["extras"] == want["extras"]
        )
        checks.append((f"c{int(index):02d}-{want['name']}", ok))
    return checks


def compare_construct(observed: dict, ref: dict) -> list[tuple[str, bool]]:
    return [
        ("orders", observed["orders_built"] == ref["orders"] == observed["orders_loaded"]),
        ("rho", observed["rho"] == ref["rho"]),
        ("eps", all(observed[k] == ref[k] for k in ("eps_lo", "eps_hi", "eps_exact"))),
        ("delta_min_lo", observed["delta_min_lo"] == ref["delta_min_lo"]),
        ("weights", observed["terms"] == ref["terms"] and observed["weights"] == ref["weights"]),
    ]


def compare(kind: str, observed: dict, reference: dict, budgets_apply: bool = True) -> list[tuple[str, bool]]:
    if kind == "certify":
        return compare_certify(observed, reference["certify-256"])
    if kind == "selftest":
        return compare_selftest(observed, reference["selftest"], budgets_apply)
    if kind == "construct":
        return compare_construct(observed, reference["construct-4096"])
    raise ValueError(f"no checks for operation kind {kind!r}")


def expected_checks(kind: str, reference: dict, budgets_apply: bool = True) -> int:
    """How many checks an operation of this kind makes, so an operation that
    crashed before reporting counts every one of them as failed."""
    if kind == "certify":
        return 1 + len(reference["certify-256"]["rows"])
    if kind == "selftest":
        return int(budgets_apply) + len(reference["selftest"]["criteria"])
    if kind == "construct":
        return 5
    raise ValueError(kind)


def fail_frac(checks: list[tuple[str, bool]]) -> float:
    """Failed checks over checks attempted."""
    return sum(1 for _, ok in checks if not ok) / max(1, len(checks))
