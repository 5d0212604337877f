import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entroll import cli
from entroll.experiments import (
    ExperimentConfig,
    find_threshold,
    run_sweep,
    sweep_to_csv,
    threshold_to_dat,
    verify,
)
from entroll.gtl import GtlParams, build_gtl, gtl_to_json
from entroll.noise import propagate, standard_noise, component_fidelities
from entroll.oracle import MAX_CROSSCHECK_QUBITS, crosscheck
from entroll.rolling import default_resolution_plan

# The CLI runs in a child process; point it at this checkout's package.
SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


class TestConfig:
    def test_from_json_with_inf(self):
        config = ExperimentConfig.from_json(
            {"kappa_b_hat": 2, "n_o": 2, "p_grid": [0.9], "T_grid_ms": ["inf", 10]}
        )
        assert math.isinf(config.t_grid_ms[0])
        assert config.t_grid_ms[1] == 10.0

    def test_round_trip(self):
        config = ExperimentConfig(kappa_b_hat=2, n_o=3, p_grid=(0.8, 1.0), t_grid_ms=(1.0, math.inf))
        assert ExperimentConfig.from_json(json.loads(json.dumps(config.to_json()))) == config

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=())

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(1.5,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_grid", 0.9),
            ("p_grid", "0.9"),
            ("T_grid_ms", [None]),
            ("qubit_times_ms", [1, 2]),
            ("plan", 5),
            ("n_o", None),
        ],
    )
    def test_malformed_field_is_named(self, field, value):
        data = {"kappa_b_hat": 2, "n_o": 2, field: value}
        with pytest.raises(ValueError, match=f"config field '{field}'"):
            ExperimentConfig.from_json(data)

    def test_missing_required_field_is_named(self):
        with pytest.raises(ValueError, match="config field 'n_o' is required"):
            ExperimentConfig.from_json({"kappa_b_hat": 2})

    def test_workers_key_is_ignored(self):
        config = ExperimentConfig.from_json({"kappa_b_hat": 2, "n_o": 2, "workers": 4})
        assert config == ExperimentConfig(kappa_b_hat=2, n_o=2)


class TestSweep:
    def test_noiseless_point_gives_unit_fidelity(self):
        config = ExperimentConfig(
            kappa_b_hat=2, n_o=4, p_grid=(1.0,), t_grid_ms=(math.inf,)
        )
        rows = run_sweep(config)
        assert len(rows) == 4
        assert all(row.fidelity == pytest.approx(1.0) for row in rows)

    def test_row_count_and_ranges(self):
        config = ExperimentConfig(
            kappa_b_hat=2, n_o=2, p_grid=(0.8, 0.9), t_grid_ms=(1.0, 10.0)
        )
        rows = run_sweep(config)
        assert len(rows) == 2 * 2 * 2
        assert all(0.0 <= row.fidelity <= 1.0 for row in rows)

    def test_ghz_central_beats_boundary(self):
        config = ExperimentConfig(
            kappa_b_hat=3,
            n_o=4,
            target="ghz",
            p_grid=(0.8, 0.9, 1.0),
            t_grid_ms=(1.0, 10.0),
        )
        rows = run_sweep(config)
        state = build_gtl(GtlParams.specialized(3, 4))
        plan = default_resolution_plan(state, "ghz")
        boundary_support = plan.steps[-1][1]
        by_point: dict[tuple[float, float], dict[str, float]] = {}
        for row in rows:
            by_point.setdefault((row.p, row.t_ms), {})[row.resource_id] = row.fidelity
        for fids in by_point.values():
            boundary = [f for rid, f in fids.items() if str(boundary_support) in rid.split("-")]
            central = [f for rid, f in fids.items() if str(boundary_support) not in rid.split("-")]
            assert len(boundary) == 1 and len(central) == 3
            assert min(central) >= boundary[0] - 1e-12

    def test_depolarizing_only_column_matches_oracle(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        config = ExperimentConfig(
            kappa_b_hat=2, n_o=2, p_grid=(0.9,), t_grid_ms=(math.inf,), protocol_time_ms=0.0
        )
        rows = run_sweep(config)
        report = crosscheck(state, plan, p=0.9, t_ms=0.0)
        dense = {
            "-".join(str(v) for v in e.component): e.fidelity_dense for e in report.entries
        }
        for row in rows:
            assert row.fidelity == pytest.approx(dense[row.resource_id], abs=1e-9)

    def test_deterministic_csv(self):
        config = ExperimentConfig(
            kappa_b_hat=2, n_o=3, p_grid=(0.7, 0.9), t_grid_ms=(1.0, 100.0), seed=7
        )
        csv_a = sweep_to_csv(run_sweep(config))
        csv_b = sweep_to_csv(run_sweep(config))
        assert csv_a.encode() == csv_b.encode()

    def test_staggered_qubit_times(self):
        uniform = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(1.0,), t_grid_ms=(5.0,))
        staggered = ExperimentConfig(
            kappa_b_hat=2,
            n_o=2,
            p_grid=(1.0,),
            t_grid_ms=(5.0,),
            qubit_times_ms=((2, 3.0), (3, 3.0)),
        )
        parsed = ExperimentConfig.from_json(json.loads(json.dumps(staggered.to_json())))
        assert parsed == staggered
        base = {r.resource_id: r.fidelity for r in run_sweep(uniform)}
        slow = {r.resource_id: r.fidelity for r in run_sweep(staggered)}
        # longer waits on the first pair's qubits hurt only that pair
        assert slow["2-3"] < base["2-3"]
        assert slow["6-7"] == pytest.approx(base["6-7"])


class TestThreshold:
    def test_threshold_points_reevaluate_to_level(self):
        config = ExperimentConfig(
            kappa_b_hat=2, n_o=2, p_grid=(0.85, 0.9), t_grid_ms=(1.0, 100.0)
        )
        rows, _ = find_threshold(config, level=0.5)
        assert rows
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        for p, t in rows:
            ns = propagate(standard_noise(state.graph, p, 1.0, t), plan)
            worst = min(component_fidelities(ns).values())
            assert worst == pytest.approx(0.5, abs=1e-4)

    def test_p_one_column_matches_dephasing_only(self):
        full = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(1.0,), t_grid_ms=(0.5, 50.0))
        rows, _ = find_threshold(full, level=0.8)
        assert len(rows) == 1
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        _, t_star = rows[0]
        ns = propagate(standard_noise(state.graph, 1.0, 1.0, t_star), plan)
        worst = min(component_fidelities(ns).values())
        assert worst == pytest.approx(0.8, abs=1e-4)

    def test_rows_equal_a_stepwise_bisection(self):
        config = ExperimentConfig(kappa_b_hat=2, n_o=10, p_grid=(0.9, 0.95), t_grid_ms=(1.0, 1000.0))
        state = build_gtl(GtlParams.specialized(2, 10))
        plan = default_resolution_plan(state, "bell")

        def worst(p, t):
            ns = propagate(standard_noise(state.graph, p, 1.0, t), plan)
            return min(component_fidelities(ns).values())

        # find_threshold's bisection, with every probe propagated step by step.
        expected = []
        for p in config.p_grid:
            assert worst(p, 1.0) < 0.5 <= worst(p, 1000.0)
            lo, hi = 1.0, 1000.0
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                f_mid = worst(p, mid)
                lo, hi = (lo, mid) if f_mid >= 0.5 else (mid, hi)
                if (hi - lo) / hi < 1e-7 and abs(f_mid - 0.5) < 1e-6:
                    break
            expected.append((p, hi))
        assert find_threshold(config, level=0.5) == (expected, [])

    def test_unreachable_level_is_diagnosed(self):
        config = ExperimentConfig(kappa_b_hat=2, n_o=4, p_grid=(0.7,), t_grid_ms=(1.0, 2.0))
        rows, diagnostics = find_threshold(config, level=0.99)
        assert rows == []
        assert any("unreachable" in d for d in diagnostics)

    def test_larger_chains_need_longer_memory(self):
        curves = {}
        for n_o in (2, 3):
            config = ExperimentConfig(
                kappa_b_hat=2, n_o=n_o, p_grid=(0.85, 0.9), t_grid_ms=(1.0, 100.0)
            )
            curves[n_o] = dict(find_threshold(config, level=0.5)[0])
        for p in curves[2]:
            assert curves[3][p] >= curves[2][p]


class TestVerify:
    def test_all_scopes_pass_on_small_bounds(self):
        report = verify(scope="all", max_kappa_b=2, max_n_o=3, max_qubits=8, trials=30)
        assert report.ok, report.lines()

    def test_invalid_state_fails_with_witnesses(self):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        g.remove_edge(1, state.bridges[(0, 1)][0])
        broken = type(state)(
            graph=g, orch=state.orch, peers=state.peers,
            bridges=state.bridges, leaves=state.leaves, params=state.params,
        )
        report = verify(scope="rolling", trials=5, state=broken)
        assert not report.ok
        assert any("C3" in line or "C1" in line for line in report.lines())

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            verify(scope="everything")

    def test_default_bound_is_the_crosscheck_bound(self):
        assert inspect.signature(verify).parameters["max_qubits"].default == MAX_CROSSCHECK_QUBITS
        assert cli.build_parser().parse_args(["verify"]).max_qubits == MAX_CROSSCHECK_QUBITS


class TestCli:
    def run_cli(self, *args, expect=0):
        proc = subprocess.run(
            [sys.executable, "-m", "entroll.cli", *args],
            capture_output=True,
            text=True,
            env=CLI_ENV,
        )
        assert proc.returncode == expect, proc.stderr
        return proc

    def test_build_inspect_resolve(self, tmp_path):
        state_file = tmp_path / "state.json"
        self.run_cli("build", "--kappa-b", "2", "--n-o", "3", "-o", str(state_file))
        proc = self.run_cli("inspect", str(state_file))
        report = json.loads(proc.stdout)
        assert report["valid"] and report["schmidt_upper_bound"] == 3
        proc = self.run_cli("resolve", str(state_file), "--target", "bell")
        outcome = json.loads(proc.stdout)
        assert len(outcome["pairs"]) == 3
        assert outcome["measurement_counts"] == {"X": 3, "Y": 0, "Z": 2}

    def test_resolve_fidelity_report(self, tmp_path):
        state_file = tmp_path / "state.json"
        self.run_cli("build", "--kappa-b", "2", "--n-o", "2", "-o", str(state_file))
        proc = self.run_cli(
            "resolve", str(state_file), "--p", "0.9", "--dephasing-time", "10",
        )
        outcome = json.loads(proc.stdout)
        fids = outcome["fidelities"]
        assert set(fids) == {"-".join(map(str, p)) for p in outcome["pairs"]}
        assert all(0.0 <= f <= 1.0 for f in fids.values())

    def test_sweep_deterministic_bytes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "kappa_b_hat": 2,
                    "n_o": 2,
                    "p_grid": [0.8, 1.0],
                    "T_grid_ms": [1.0, "inf"],
                    "seed": 3,
                }
            )
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        self.run_cli("sweep", "--config", str(config), "-o", str(out_a))
        self.run_cli("sweep", "--config", str(config), "-o", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "p,T_ms,resource_id,fidelity"

    def test_threshold_dat_format(self, tmp_path):
        proc = self.run_cli(
            "threshold", "--kappa-b", "2", "--n-o", "2",
            "--p-grid", "0.9", "--t-grid", "1,100",
        )
        lines = [l for l in proc.stdout.splitlines() if l]
        assert len(lines) == 1
        p, t = lines[0].split(" ")
        assert float(p) == 0.9 and 1.0 <= float(t) <= 100.0

    def test_config_error_exit_code(self):
        self.run_cli("sweep", "--kappa-b", "2", expect=1)

    def test_missing_file_exit_code(self):
        proc = self.run_cli("inspect", "no-such-state.json", expect=1)
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "command, data, field",
        [
            ("sweep", {"kappa_b_hat": 2, "n_o": 2, "p_grid": 0.9}, "p_grid"),
            ("threshold", {"kappa_b_hat": 2, "n_o": 2, "T_grid_ms": {"a": 1}}, "T_grid_ms"),
            ("inspect", {"n": 3, "edges": 5, "orch": [0], "peers": [1, 2]}, "edges"),
            ("resolve", {"n": 2, "labels": 7, "orch": [0], "peers": [1]}, "labels"),
            ("inspect", {"n": 3, "edges": [[0, 1], [0, 2]], "orch": 5, "peers": [1, 2]}, "orch"),
        ],
    )
    def test_malformed_json_is_one_error_line(self, tmp_path, capsys, command, data, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        args = ["--config", str(path)] if command in ("sweep", "threshold") else [str(path)]
        assert cli.main([command, *args]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert repr(field) in err

    def test_malformed_plan_is_one_error_line(self, tmp_path, capsys):
        state_file, plan_file = tmp_path / "state.json", tmp_path / "plan.json"
        state_file.write_text(json.dumps(gtl_to_json(build_gtl(GtlParams.specialized(2, 2)))))
        plan_file.write_text(json.dumps({"steps": 5}))
        assert cli.main(["resolve", str(state_file), "--plan", str(plan_file)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "'steps'" in err

    def test_contradictory_params_is_one_error_line(self, tmp_path, capsys):
        data = gtl_to_json(build_gtl(GtlParams.specialized(2, 2)))
        data["params"]["n_o"] = 5
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        assert cli.main(["resolve", str(path), "--p", "0.9"]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "'params'" in err

    def test_non_object_config_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert cli.main(["sweep", "--config", str(path), "--kappa-b", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_verify_failure_exit_code(self, tmp_path):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        g.remove_edge(1, state.bridges[(0, 1)][0])
        data = gtl_to_json(
            type(state)(
                graph=g, orch=state.orch, peers=state.peers,
                bridges=state.bridges, leaves=state.leaves, params=state.params,
            )
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        proc = self.run_cli(
            "verify", "--scope", "rolling", "--trials", "3", "--state", str(bad), expect=2
        )
        assert "C" in proc.stdout  # witness constraint codes in the report

    def test_verify_ok_exit_code(self):
        self.run_cli(
            "verify", "--scope", "structure", "--max-kappa-b", "2", "--max-n-o", "2",
        )
