"""Replay every golden sweep and threshold output of the benchmark.

``bench/workloads.all_cases`` lists every input the benchmark's sweep and
threshold calls can get (each slot in each of its variants), and
``bench/golden/<workload>.json`` holds the seed code's output for each:
sweep CSV text and threshold ``.dat`` text.  Each case here runs the public
call and must reproduce those bytes exactly.  Nothing under ``bench/`` is
written.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from entroll.experiments import (
    ExperimentConfig,
    find_threshold,
    run_sweep,
    sweep_to_csv,
    threshold_to_dat,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
CASES = [
    (workload, case)
    for workload in ("sweep_bell_ladder", "sweep_ghz_wide", "threshold_bisect")
    for case in workloads.all_cases(workload)
]
GOLDEN = {
    workload: json.loads((BENCH / "golden" / f"{workload}.json").read_text(encoding="utf-8"))
    for workload in {workload for workload, _ in CASES}
}


def test_every_golden_case_is_replayed():
    kinds = [case.kind for _, case in CASES]
    assert (kinds.count("sweep"), kinds.count("threshold")) == (48, 16)
    for workload, golden in GOLDEN.items():
        assert sorted(golden) == sorted(case.key for w, case in CASES if w == workload)


@pytest.mark.parametrize("workload, case", CASES, ids=[case.key for _, case in CASES])
def test_output_matches_golden_bytes(workload, case):
    config = ExperimentConfig(
        kappa_b_hat=case.kappa_b_hat,
        n_o=case.n_o,
        target=case.target,
        p_grid=case.p_grid,
        t_grid_ms=case.t_grid,
    )
    if case.kind == "sweep":
        out = sweep_to_csv(run_sweep(config))
    else:
        rows, diagnostics = find_threshold(config, level=0.5)
        assert diagnostics == []
        out = threshold_to_dat(rows)
    assert out.encode("utf-8") == GOLDEN[workload][case.key].encode("utf-8")
