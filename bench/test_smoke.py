"""Smoke test of the benchmark: every workload briefly, plain and traced.

    python3 -m pytest bench/test_smoke.py -q

Each run must exit 0 with a result line that names exactly the metrics
BENCHMARK.json lists, with their units, print each of them on a readable line
with its unit, and report no failed call (error_rate 0).  Outside a source
checkout the benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import compare
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(
        SPEC["command"] + args, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.SLOTS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in specs}
    text = "\n".join(lines)
    for m in specs:
        pattern = rf"{re.escape(m['name'])}\s*=\s*\S+\s+{re.escape(m['unit'])}(\s|$)"
        assert re.search(pattern, text), m["name"]
    if not trace:
        assert re.search(r"error_rate\s*=\s*0\s+ratio", text)
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_exits_nonzero_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    metric = {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    parent = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(parent, parent, metric)[0] == "no worse"
    assert compare.verdict(parent, {s: 50.0 + s for s in range(10)}, metric)[0] == "improved"
    assert compare.verdict(parent, {s: 130.0 + s for s in range(10)}, metric)[0] == "worse"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, {s: 120.0 for s in range(10)}, metric)[0] == "unresolved"
