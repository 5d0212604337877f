import inspect
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from entroll import cli, experiments
from entroll.experiments import (
    ExperimentConfig,
    find_threshold,
    run_sweep,
    sweep_to_csv,
    threshold_to_dat,
    verify,
)
from entroll.gtl import GtlParams, build_gtl, gtl_to_json
from entroll.noise import (
    NoiseMap,
    compile_plan,
    compiled_fidelities,
    component_fidelities,
    propagate,
    score_points,
    standard_noise,
)
from entroll.oracle import MAX_CROSSCHECK_QUBITS, CrosscheckEntry, CrosscheckReport, crosscheck
from entroll.rolling import bridge_pick_plans, default_resolution_plan

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

    @pytest.mark.parametrize(
        "field, value",
        [("protocol_time_ms", math.nan), ("protocol_time_ms", -1.0), ("qubit_times_ms", ((3, math.nan),))],
    )
    def test_rejects_nan_or_negative_times(self, field, value):
        with pytest.raises(ValueError, match="nonnegative"):
            ExperimentConfig(kappa_b_hat=2, n_o=2, **{field: value})

    def test_missing_required_field_is_named(self):
        with pytest.raises(ValueError, match="config field 'n_o' is required"):
            ExperimentConfig.from_json({"kappa_b_hat": 2})

    def test_workers_key_is_refused(self):
        with pytest.raises(ValueError, match="^config field 'workers' is unknown$"):
            ExperimentConfig.from_json({"kappa_b_hat": 2, "n_o": 2, "workers": 4})


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


def plain_bisection(curves, t_grid, level):
    """find_threshold's rows and diagnostics from a probe-by-probe bisection of each p's curve."""
    t_lo, t_hi = min(t_grid), max(t_grid)
    rows, diagnostics = [], []
    for p, worst in curves.items():
        if worst(t_hi) < level:
            diagnostics.append(f"p={p}: level {level} unreachable (max fidelity {worst(t_hi):.6f})")
            continue
        if worst(t_lo) >= level:
            diagnostics.append(f"p={p}: already above level at T={t_lo} (fidelity {worst(t_lo):.6f})")
            continue
        lo, hi = t_lo, t_hi
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            f_mid = worst(mid)
            lo, hi = (lo, mid) if f_mid >= level else (mid, hi)
            if (hi - lo) / hi < 1e-7 and abs(f_mid - level) < 1e-6:
                break
        rows.append((p, hi))
    return rows, diagnostics


def fake_curve(kind, level, t_grid, rng):
    """A worst fidelity nondecreasing in T whose crossing of ``level`` lies inside ``t_grid``."""
    t_lo, t_hi = t_grid
    t0 = math.exp(rng.uniform(math.log(t_lo) + 0.5, math.log(t_hi) - 0.5))
    if kind == "sigmoid":  # smooth in log T, with a random slope
        k = rng.uniform(0.3, 10.0)
        return lambda t: 1 / (1 + (1 / level - 1) * math.exp(-k * math.log(t / t0)))
    if kind == "step":  # never within 1e-6 of the level, so the search runs its 200 probes
        jump = rng.choice((0.1, 3e-6))
        return lambda t: level + jump if t >= t0 else level - jump
    if kind == "small step":  # within 1e-6 of the level on both sides of the jump
        return lambda t: level + 1e-7 if t >= t0 else level - 1e-7
    if kind == "plateau":  # equal to the level from t0 to t1
        t1 = t0 * rng.uniform(1.0, 5.0)
        return lambda t: level - 0.05 * max(0.0, math.log(t0 / t)) + 0.05 * max(0.0, math.log(t / t1))
    if kind == "at a probe":  # equal to the level at one of the bisection's probes
        lo, hi = t_lo, t_hi
        for _ in range(rng.randrange(1, 25)):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if mid >= t0 else (mid, hi)
        return lambda t: level + 0.1 * math.log(t / mid)
    if kind == "unreachable":
        return lambda t: level * (1 - 0.5 / (1 + t))
    return lambda t: level + 0.1 * t / (1 + t)  # already above


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
        for kb, n_o, p_grid, t_grid in [
            (2, 10, (0.9, 0.95), (1.0, 1000.0)),
            # p = 0.5 never reaches the level; p = 1.0 drops every depolarizing branch.
            (3, 6, (0.5, 0.92, 1.0), (1.0, 1000.0)),
            # p = 1.0 is already above the level at T = 5.
            (3, 6, (1.0, 0.9), (5.0, 1000.0)),
        ]:
            self._assert_rows_equal_a_stepwise_bisection(kb, n_o, p_grid, t_grid)

    @staticmethod
    def _assert_rows_equal_a_stepwise_bisection(kb, n_o, p_grid, t_grid):
        config = ExperimentConfig(kappa_b_hat=kb, n_o=n_o, p_grid=p_grid, t_grid_ms=t_grid)
        state = build_gtl(GtlParams.specialized(kb, n_o))
        plan = default_resolution_plan(state, "bell")

        def worst(p, t):
            ns = propagate(standard_noise(state.graph, p, 1.0, t), plan)
            return min(component_fidelities(ns).values())

        # find_threshold's bisection, probe by probe, with every probe propagated step by step.
        t_lo, t_hi = min(t_grid), max(t_grid)
        rows, diagnostics = [], []
        for p in p_grid:
            f_lo, f_hi = worst(p, t_lo), worst(p, t_hi)
            if f_hi < 0.5:
                diagnostics.append(f"p={p}: level 0.5 unreachable (max fidelity {f_hi:.6f})")
                continue
            if f_lo >= 0.5:
                diagnostics.append(f"p={p}: already above level at T={t_lo} (fidelity {f_lo:.6f})")
                continue
            lo, hi = t_lo, t_hi
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                f_mid = worst(p, mid)
                lo, hi = (lo, mid) if f_mid >= 0.5 else (mid, hi)
                if (hi - lo) / hi < 1e-7 and abs(f_mid - 0.5) < 1e-6:
                    break
            rows.append((p, hi))
        assert rows and len(rows) + len(diagnostics) == len(p_grid)
        assert find_threshold(config, level=0.5) == (rows, diagnostics)

    def test_probe_cap_matches_plain_bisection(self, monkeypatch):
        # A worst fidelity that jumps across the level never comes within
        # 1e-6 of it, so each search runs its 200 probes; the probe trees
        # must stop exactly where a probe-by-probe search stops.
        def step(t):
            return 1.0 if t >= 7.0 else 0.25 * t / 7.0

        scored = []

        def fake_score(config, compiled, points):
            scored.append(points)
            return [[step(t), 2.0] for _, t in points]

        monkeypatch.setattr(experiments, "_score", fake_score)
        config = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(0.9, 0.95), t_grid_ms=(1.0, 100.0))
        lo, hi = 1.0, 100.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if step(mid) >= 0.5 else (mid, hi)
        assert find_threshold(config, level=0.5) == ([(0.9, hi), (0.95, hi)], [])
        # The grid call, then at most ceil(200 / 3) = 67 rounds, as each walks its whole tree.
        assert len(scored) <= 68
        # Each round scores, per search, the tree and a chain that ends at the
        # 1e-7 stop width, which a bisection of [1, 100] reaches in 26 probes;
        # past that width a round scores the tree alone.
        probes = sum(map(len, scored)) - 4  # after the four grid points of the monotonicity check
        depth = experiments.PROBE_TREE_DEPTH
        assert probes <= 2 * ((len(scored) - 1) * (2**depth - 1) + 2 * (depth + 200))

    def test_fake_curves_match_a_probe_by_probe_bisection(self, monkeypatch, rng):
        curves, batches = {}, []

        def fake_score(config, compiled, points):
            batches.append({p for p, _ in points})
            return [[curves[p](t), 2.0] for p, t in points]

        monkeypatch.setattr(experiments, "_score", fake_score)
        for _ in range(40):
            level = rng.choice((0.5, rng.uniform(0.2, 0.8)))
            t_grid = (rng.uniform(0.1, 2.0), rng.uniform(50.0, 5000.0))
            curves.clear()
            for kind in ("sigmoid", "step", "small step", "plateau", "at a probe", "unreachable", "above"):
                p = round(0.5 + len(curves) / 20, 2)
                curves[p] = fake_curve(kind, level, t_grid, rng)
            batches.clear()
            config = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=tuple(curves), t_grid_ms=t_grid)
            rows, diagnostics = find_threshold(config, level=level)
            assert (rows, diagnostics) == plain_bisection(curves, t_grid, level)
            assert len(rows) == 5 and len(diagnostics) == 2
            for p in curves:  # the grid call, then at most ceil(200 / 3) = 67 rounds per search
                assert sum(p in batch for batch in batches[1:]) <= 67

    def test_each_batch_scores_one_tree_depth_and_chains_to_the_stop_width(self, monkeypatch, rng):
        curves, batches = {}, []

        def fake_score(config, compiled, points):
            batches.append(points)
            return [[curves[p](t), 2.0] for p, t in points]

        monkeypatch.setattr(experiments, "_score", fake_score)
        depth = experiments.PROBE_TREE_DEPTH
        for _ in range(20):
            level = rng.uniform(0.2, 0.8)
            t_lo, t_hi = rng.uniform(0.1, 2.0), rng.uniform(50.0, 5000.0)
            grid = (t_hi, math.sqrt(t_lo * t_hi) * 1.5, t_lo)
            curves.clear()
            for kind in ("sigmoid", "step", "small step", "plateau", "at a probe", "unreachable", "above"):
                curves[round(0.5 + len(curves) / 20, 2)] = fake_curve(kind, level, (t_lo, t_hi), rng)
            batches.clear()
            config = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=tuple(curves), t_grid_ms=grid)
            rows, _ = find_threshold(config, level=level)
            tree = experiments._probe_tree(t_lo, t_hi, depth)
            for p in curves:  # len(grid) + 7 points per p
                assert [t for q, t in batches[0] if q == p] == sorted(grid) + tree
            # Replay each search probe by probe: (lo, hi, probes left, scored T).
            searches = {p: (t_lo, t_hi, 200, set(grid + tuple(tree))) for p, _ in rows}
            for i, batch in enumerate(batches):
                for p, (lo, hi, left, scored) in list(searches.items()):
                    scored.update(t for q, t in batch if q == p)
                    f_mid = None
                    while (mid := math.sqrt(lo * hi)) in scored:
                        f_mid = curves[p](mid)
                        lo, hi = (lo, mid) if f_mid >= level else (mid, hi)
                        left -= 1
                        if left == 0 or ((hi - lo) / hi < 1e-7 and abs(f_mid - level) < 1e-6):
                            assert (p, hi) in rows
                            del searches[p]
                            break
                    else:
                        assert f_mid is not None  # every batch advances every search
                        searches[p] = (lo, hi, left, scored)
                if i == len(batches) - 1:
                    assert not searches
                    break
                after = batches[i + 1]
                assert {q for q, _ in after} == set(searches)
                for p, (lo, hi, left, _) in searches.items():
                    ts = [t for q, t in after if q == p]
                    d = min(depth, left)
                    assert ts[: 2**d - 1] == experiments._probe_tree(lo, hi, d)
                    self._assert_chain_ends_at_the_stop_width_or_cap(lo, hi, d, left, ts[2**d - 1 :])

    @staticmethod
    def _assert_chain_ends_at_the_stop_width_or_cap(lo, hi, depth, left, chain):
        def narrow(bracket):
            return (bracket[1] - bracket[0]) / bracket[1] < 1e-7

        brackets = [(lo, hi)]
        for _ in range(depth):
            brackets = [half for a, b in brackets for half in ((a, math.sqrt(a * b)), (math.sqrt(a * b), b))]
        # The chain halves one leaf bracket of the tree, then one half after another.
        for t in chain:
            [bracket] = [br for br in brackets if math.sqrt(br[0] * br[1]) == t]
            assert not narrow(bracket)
            a, b = bracket
            brackets = [(a, t), (t, b)]
        assert depth + len(chain) == left or any(map(narrow, brackets))

    def test_real_searches_take_at_most_four_rounds(self, monkeypatch):
        # Brackets and p pairs of the benchmark's threshold calls on its
        # (2, 10) and (3, 6) instances.  Chains aimed by a straight line in
        # log T between the bracket ends would take 4 rounds on each of them.
        calls = []

        def counting(compiled, points):
            calls.append(points)
            return score_points(compiled, points)

        monkeypatch.setattr(experiments, "score_points", counting)
        rounds = []
        for kb, n_o in [(2, 10), (3, 6)]:
            state = build_gtl(GtlParams.specialized(kb, n_o))
            compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
            for p_grid, t_grid in [((0.9, 0.91), (1.0, 1000.0)), ((0.92, 0.94), (2.0, 500.0)),
                                   ((0.95, 0.96), (0.5, 1000.0)), ((0.98, 0.99), (0.25, 400.0))]:
                calls.clear()
                config = ExperimentConfig(kappa_b_hat=kb, n_o=n_o, p_grid=p_grid, t_grid_ms=t_grid)
                rows, diagnostics = find_threshold(config)
                rounds.append(len(calls))
                curves = {p: lambda t, p=p: min(compiled_fidelities(compiled, p, 1.0, t).values()) for p in p_grid}
                assert (rows, diagnostics) == plain_bisection(curves, t_grid, 0.5)
                assert len(rows) == 2
        assert max(rounds) <= 4
        assert sum(rounds) <= 26  # most calls take 3 rounds

    def test_nan_level_is_rejected(self):
        config = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(0.9,), t_grid_ms=(1.0, 100.0))
        with pytest.raises(ValueError, match="nan"):
            find_threshold(config, level=math.nan)

    def test_unreachable_level_is_diagnosed(self):
        config = ExperimentConfig(kappa_b_hat=2, n_o=4, p_grid=(0.7,), t_grid_ms=(1.0, 2.0))
        rows, diagnostics = find_threshold(config, level=0.99)
        assert rows == []
        assert any("unreachable" in d for d in diagnostics)

    def test_non_monotone_curve_is_refused(self, tmp_path, capsys, monkeypatch):
        # A worst fidelity that falls between grid values is no threshold curve.
        monkeypatch.setattr(experiments, "_score", lambda config, compiled, points: [[1.0 / t] for _, t in points])
        config = ExperimentConfig(kappa_b_hat=2, n_o=2, p_grid=(0.9,), t_grid_ms=(1.0, 100.0))
        message = "worst-resource fidelity is not monotone in T at p=0.9"
        with pytest.raises(ValueError) as info:
            find_threshold(config)
        assert str(info.value) == message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json()))
        assert cli.main(["threshold", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
            graph=g, orch=state.orch, peers=state.peers, params=state.params,
        )
        report = verify(scope="rolling", trials=5, state=broken)
        assert not report.ok
        assert any("C3" in line or "C1" in line for line in report.lines())

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            verify(scope="everything")

    @staticmethod
    def _assert_fails(capsys, line, **kwargs):
        """``verify(**kwargs)`` reports ``line`` and fails; so does ``entroll verify``, with exit 2."""
        report = verify(**kwargs)
        assert report.ok is False
        assert line in report.lines()
        argv = [a for k, v in kwargs.items() for a in (f"--{k.replace('_', '-')}", str(v))]
        assert cli.main(["verify", *argv]) == cli.EXIT_VERIFY
        assert line in capsys.readouterr().out.splitlines()

    def test_structure_failure_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "schmidt_upper_bound", lambda state: state.params.n_o + 1)
        bad = "; ".join(
            f"GtlParams(kappa_b_hat=1, kappa_c={kc}, n_o=1): adjacency rank != 2 n_o" for kc in (2, 3, 4)
        )
        line = f"[FAIL] structure round-trip: {bad}"
        self._assert_fails(capsys, line, scope="structure", max_kappa_b=1, max_n_o=1)

    def test_rolling_failure_is_reported(self, capsys, monkeypatch):
        # A step that changes nothing breaks every postcondition; the detail names the first three.
        monkeypatch.setattr(
            experiments, "rolling_step", lambda state, o, b0: types.SimpleNamespace(graph=state.graph.copy())
        )
        step = "GtlParams(kappa_b_hat=2, kappa_c=4, n_o=2) step 1,3"
        bad = "; ".join(
            f"{step}: {failure}"
            for failure in ("support star broken", "rolled set not adjacent to 0", "non-support bridge 2 kept edges")
        )
        line = f"[FAIL] rolling-step postconditions: {bad}"
        self._assert_fails(capsys, line, scope="rolling", max_kappa_b=2, max_n_o=2, trials=1)

    def test_closed_form_failure_is_reported(self, capsys, monkeypatch):
        # Qubit 0's map of the (2, 3) resource's first plan is replaced by the identity.
        closed_form_maps = experiments.closed_form_maps

        def perturbed(state, plan, p):
            maps = closed_form_maps(state, plan, p)
            if state.params.n_o == 3 and plan == bridge_pick_plans(state, limit=1)[0]:
                maps[0] = NoiseMap.from_weights(0, {(): 1.0})
            return maps

        monkeypatch.setattr(experiments, "closed_form_maps", perturbed)
        bad = "GtlParams(kappa_b_hat=2, kappa_c=4, n_o=3): closed form differs on qubit 0"
        self._assert_fails(capsys, f"[FAIL] closed forms vs stepwise: {bad}", scope="nsf", max_qubits=5)

    def test_crosscheck_failure_is_reported(self, capsys, monkeypatch):
        report = CrosscheckReport((CrosscheckEntry((0, 1), 0.5, 0.75),))
        monkeypatch.setattr(experiments.oracle, "crosscheck_points", lambda state, plan, points: (report,) * len(points))
        params = "GtlParams(kappa_b_hat=2, kappa_c=4, n_o=1)"
        bad = f"{params} p=0.8: delta 2.50e-01; {params} p=1.0: delta 2.50e-01"
        self._assert_fails(capsys, f"[FAIL] oracle crosscheck: {bad}", scope="nsf", max_qubits=5)

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

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    def test_resolve_fidelities_equal_the_stepwise_reference(self, tmp_path, capsys, target):
        state = build_gtl(GtlParams.specialized(2, 3))
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(gtl_to_json(state)))
        plan = default_resolution_plan(state, target)
        for p in (0.9, 1.0):
            for big_t in (10.0, math.inf):
                args = ["resolve", str(state_file), "--target", target, "--p", str(p)]
                if not math.isinf(big_t):
                    args += ["--dephasing-time", str(big_t)]
                assert cli.main(args) == cli.EXIT_OK
                fids = json.loads(capsys.readouterr().out)["fidelities"]
                ns = propagate(standard_noise(state.graph, p, 1.0, big_t), plan)
                assert fids == component_fidelities(ns)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "1.5"], "depolarizing parameter 1.5 outside [0, 1]"),
            (["--p", "0.9", "--protocol-time", "nan"], "wait time must be nonnegative, got nan"),
        ],
    )
    def test_resolve_bad_noise_flags_keep_their_error(self, tmp_path, capsys, flags, message):
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(gtl_to_json(build_gtl(GtlParams.specialized(2, 3)))))
        assert cli.main(["resolve", str(state_file), *flags]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--dephasing-time", "5"], ["--protocol-time", "-1"], ["--protocol-time", "2", "--dephasing-time", "5"]],
    )
    def test_resolve_noise_flags_need_p(self, tmp_path, capsys, flags):
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(gtl_to_json(build_gtl(GtlParams.specialized(2, 3)))))
        assert cli.main(["resolve", str(state_file), *flags]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --dephasing-time and --protocol-time apply only with --p\n"

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    def test_resolve_target_applies_only_without_plan(self, tmp_path, capsys, target):
        state = build_gtl(GtlParams.specialized(2, 3))
        state_file, plan_file = tmp_path / "state.json", tmp_path / "plan.json"
        state_file.write_text(json.dumps(gtl_to_json(state)))
        plan_file.write_text(default_resolution_plan(state, "bell").dumps())
        argv = ["resolve", str(state_file), "--plan", str(plan_file), "--target", target]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --target applies only without --plan\n"

    @pytest.mark.parametrize("flags, name", [(["--n-o", "2"], "kappa_b_hat"), (["--kappa-b", "2"], "n_o")])
    def test_sweep_names_a_missing_required_field(self, capsys, flags, name):
        assert cli.main(["sweep", *flags]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: config field {name!r} is required\n"

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

    @pytest.mark.parametrize(
        "args, config",
        [
            (["threshold", "--kappa-b", "2", "--n-o", "3", "--p-grid", "0.9", "--t-grid", "1,100",
              "--level", "nan"], None),
            (["sweep"], {"kappa_b_hat": 2, "n_o": 2, "protocol_time_ms": "nan"}),
            (["sweep"], {"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": {"3": "nan"}}),
            (["resolve", "STATE", "--p", "0.9", "--protocol-time", "nan"], None),
        ],
    )
    def test_nan_is_one_error_line(self, tmp_path, capsys, args, config):
        state_file = tmp_path / "state.json"
        state_file.write_text(json.dumps(gtl_to_json(build_gtl(GtlParams.specialized(2, 2)))))
        args = [str(state_file) if a == "STATE" else a for a in args]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        out = tmp_path / "out.txt"
        assert cli.main([*args, "-o", str(out)]) == cli.EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "nan" in err

    def test_malformed_plan_is_one_error_line(self, tmp_path, capsys):
        state_file, plan_file = tmp_path / "state.json", tmp_path / "plan.json"
        state_file.write_text(json.dumps(gtl_to_json(build_gtl(GtlParams.specialized(2, 2)))))
        plan_file.write_text(json.dumps({"steps": 5}))
        assert cli.main(["resolve", str(state_file), "--plan", str(plan_file)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "'steps'" in err

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    def test_config_plan_checked_as_resolve_checks_it(self, tmp_path, capsys, command):
        # Step (2, 0) X-measures peer 2; `entroll resolve` rejects this plan.
        plan = {"steps": [[2, 0]], "stop_stage": "after_rolling"}
        config = {"kappa_b_hat": 2, "n_o": 2, "p_grid": [0.9], "T_grid_ms": [1.0, 10.0], "plan": plan}
        path, out = tmp_path / "config.json", tmp_path / "out.txt"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "-o", str(out)]) == cli.EXIT_CONFIG
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == "error: step measures 2, which is not an orchestration qubit\n"

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
                graph=g, orch=state.orch, peers=state.peers, params=state.params,
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
