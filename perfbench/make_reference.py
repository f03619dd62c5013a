"""Write reference.json: the outputs the benchmark's checks compare against.

  python3 perfbench/make_reference.py

The reference was recorded once from the seed code. Re-run this only when a
reviewed change deliberately alters results; a performance change must
leave reference.json as it is, so that its outputs are checked against the
seed's.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import RESULTS, Runner
from checks import REFERENCE


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    runner = Runner(tmp, reference={})
    try:
        layout = tmp / "layout.json"
        runner.spawn("gen-layout", "--layout", str(layout))
        ops = {
            "certify-256": runner.spawn("certify", "--layout", str(layout)),
            "selftest": runner.spawn("selftest"),
            "construct-4096": runner.spawn("construct"),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, op in ops.items():
        if "error" in op:
            print(f"{name}: {op['error']}", file=sys.stderr)
            return 1
    cert = ops["certify-256"]["observed"]
    crit = ops["selftest"]["observed"]["criteria"]
    cons = dict(ops["construct-4096"]["observed"])
    if cert["status"] != "pass" or not all(c["status"] == "pass" for c in crit.values()):
        print("refusing to record a reference from failing checks", file=sys.stderr)
        return 1
    cons["orders"] = cons.pop("orders_built")
    del cons["orders_loaded"]
    reference = {
        "certify-256": {"rows": cert["rows"]},
        "selftest": {
            "criteria": {
                i: {k: c[k] for k in ("name", "detail", "extras")} for i, c in crit.items()
            }
        },
        "construct-4096": cons,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
