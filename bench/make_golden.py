"""Write the golden outputs the benchmark compares sweep CSV and threshold bytes with.

    python3 bench/make_golden.py

Runs every variant of every sweep and threshold slot (``workloads.all_cases``)
through the package in ``src/`` and writes ``golden/<workload>.json``, a map
from case key to output text.  The committed files were written by the seed
code; regenerate them only to add cases, never to absorb a change in output.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    pkg = run.load_package()
    (run.HERE / "golden").mkdir(exist_ok=True)
    for workload in ("sweep_bell_ladder", "threshold_bisect", "sweep_ghz_wide"):
        golden = {}
        for case in workloads.all_cases(workload):
            out = run.make_call(case, pkg)()
            if case.kind == "threshold":
                code, data = out
                text = data.decode("utf-8") if code == 0 else ""
                if text.count("\n") != len(case.p_grid):
                    raise SystemExit(f"{case.key}: expected one row per p, got {text!r}")
                out = text
            golden[case.key] = out
        path = run.HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: {len(golden)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
