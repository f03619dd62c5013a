"""Show that the output checks catch wrong results.

  python3 perfbench/selfcheck.py

Runs each workload's operation once, in a fresh interpreter as run.py does,
and checks the output twice: against reference.json, where fail_frac must
be 0, and against copies of the reference with one value corrupted, where
fail_frac must be above 0. Exits 1 if either expectation fails.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

from checks import compare, fail_frac, load_reference
from run import RESULTS, WORKLOADS, Runner


def _scale_lhs(ref):
    ref["certify-256"]["rows"][-1]["lhs_log"] *= 1 + 1e-9


def _flip_ok(ref):
    ref["certify-256"]["rows"][0]["cross_ok"] = False


def _edit_detail(ref):
    ref["selftest"]["criteria"]["7"]["detail"] += "."


def _edit_extras(ref):
    ref["selftest"]["criteria"]["2"]["extras"]["kernel_checked"] += 1


def _flip_digest(ref):
    w = ref["construct-4096"]["weights"]
    ref["construct-4096"]["weights"] = w[:-1] + ("0" if w[-1] != "0" else "1")


def _drop_order(ref):
    ref["construct-4096"]["orders"] = ref["construct-4096"]["orders"][:-1]


CORRUPTIONS = {
    "certify-256": (_scale_lhs, _flip_ok),
    "selftest": (_edit_detail, _edit_extras),
    "construct-4096": (_flip_digest, _drop_order),
}


def main() -> int:
    reference = load_reference()
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    bad = 0
    try:
        runner = Runner(tmp, reference)
        for workload, corruptions in CORRUPTIONS.items():
            kind = WORKLOADS[workload]
            observed = runner.operation(workload)["observed"]
            clean = fail_frac(compare(kind, observed, reference))
            print(f"{workload}: fail_frac {clean:.4g} against the reference")
            bad += clean != 0
            for corrupt in corruptions:
                ref = copy.deepcopy(reference)
                corrupt(ref)
                frac = fail_frac(compare(kind, observed, ref))
                print(f"{workload}: fail_frac {frac:.4g} with {corrupt.__name__.strip('_')}")
                bad += frac == 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
