"""Input boundaries: numbers that are no int, bad vertex ids, non-object JSON.

Every loader names the field an unusable value came from, and a bad support
or target id gives the same error text through every path that measures it.
"""

import dataclasses
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroll import cli
from entroll.experiments import ExperimentConfig, find_threshold
from entroll.graphstate import MAX_QUBITS, Graph, graph_from_json, measure_pauli
from entroll.gtl import (
    GtlParams, GtlState, Violation, build_gtl, gtl_from_json, gtl_to_json, peer_proximity, validate_gtl
)
from entroll.noise import (
    NoiseMap, closed_form_maps, compile_plan, propagate, propagate_measurement, standard_noise
)
from entroll.oracle import DenseState, crosscheck, dense_graph_state, graph_state_overlap
from entroll.rolling import (
    STOP_AFTER_ROLLING, ResolutionPlan, default_resolution_plan, plan_proximity_reduction, resolve
)

# (2, 2): orchestration 0 and 1, bridges 2 and 3, leaves 4, 5 (of 0) and 6, 7 (of 1).
STATE = build_gtl(GtlParams.specialized(2, 2))
STATE_JSON = json.dumps(gtl_to_json(STATE))
TOO_BIG = "cannot convert float infinity to integer"


def _error(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


# (id, loader, JSON text, source, field)
LOADER_CASES = [
    ("graph-n", graph_from_json, '{"n": 1e400, "edges": []}', "graph JSON", "n"),
    ("graph-edges", graph_from_json, '{"n": 2, "edges": [[0, 1e400]]}', "graph JSON", "edges"),
    ("gtl-orch", gtl_from_json, STATE_JSON.replace('"orch": [0, 1]', '"orch": [0, 1e400]'), "GTL JSON", "orch"),
    ("gtl-peers", gtl_from_json, STATE_JSON.replace('"peers": [2', '"peers": [1e400'), "GTL JSON", "peers"),
    ("gtl-params", gtl_from_json, STATE_JSON.replace('"n_o": 2', '"n_o": 1e400'), "GTL JSON", "params"),
    ("plan-steps", ResolutionPlan.from_json, '{"steps": [[0, 1e400]]}', "plan", "steps"),
    ("plan-isolation", ResolutionPlan.from_json, '{"steps": [], "isolation": [1e400]}', "plan", "isolation"),
    ("config-kappa_b_hat", ExperimentConfig.from_json, '{"kappa_b_hat": 1e400, "n_o": 2}', "config", "kappa_b_hat"),
    ("config-n_o", ExperimentConfig.from_json, '{"kappa_b_hat": 2, "n_o": 1e400}', "config", "n_o"),
    ("config-seed", ExperimentConfig.from_json, '{"kappa_b_hat": 2, "n_o": 2, "seed": 1e400}', "config", "seed"),
    (
        "config-plan",
        ExperimentConfig.from_json,
        '{"kappa_b_hat": 2, "n_o": 2, "plan": {"steps": [[1e400, 2]]}}',
        "config",
        "plan",
    ),
    ("noise-origin", NoiseMap.from_json, '{"origin": 1e400, "branches": []}', "noise map", "origin"),
    (
        "noise-support",
        NoiseMap.from_json,
        '{"origin": 0, "branches": [{"p": 1.0, "support": [1e400]}]}',
        "noise map",
        "branches",
    ),
]


class TestNumberTooLargeForAnInt:
    @pytest.mark.parametrize(
        "load, text, source, field",
        [pytest.param(*case[1:], id=case[0]) for case in LOADER_CASES],
    )
    def test_each_loader_names_the_field(self, load, text, source, field):
        data = json.loads(text)
        message = _error(lambda: load(data))
        assert message.startswith(f"{source} field {field!r}: ")
        assert TOO_BIG in message

    @pytest.mark.parametrize(
        "command, text, field",
        [
            pytest.param("inspect", STATE_JSON.replace('"n": 8', '"n": 1e400'), "n", id="inspect-n"),
            pytest.param("sweep", '{"kappa_b_hat": 2, "n_o": 2, "seed": 1e400}', "seed", id="sweep-seed"),
        ],
    )
    def test_cli_prints_one_error_line(self, tmp_path, capsys, command, text, field):
        path = tmp_path / "input.json"
        path.write_text(text)
        args = ["--config", str(path)] if command == "sweep" else [str(path)]
        assert cli.main([command, *args]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"field {field!r}: {TOO_BIG}" in err


# (id, loader, JSON text, source, field, refused value): a bool or a
# fractional float in every integer field.
NOT_AN_INT_CASES = [
    ("graph-n", graph_from_json, '{"n": true, "edges": []}', "graph JSON", "n", True),
    ("graph-edges", graph_from_json, '{"n": 3, "edges": [[0.4, 2.0]]}', "graph JSON", "edges", 0.4),
    ("gtl-orch", gtl_from_json, STATE_JSON.replace('"orch": [0, 1]', '"orch": [0.2, 1.9]'), "GTL JSON", "orch", 0.2),
    ("gtl-peers", gtl_from_json, STATE_JSON.replace('"peers": [2', '"peers": [2.5'), "GTL JSON", "peers", 2.5),
    ("gtl-params", gtl_from_json, STATE_JSON.replace('"n_o": 2', '"n_o": true'), "GTL JSON", "params", True),
    ("plan-steps", ResolutionPlan.from_json, '{"steps": [[0.9, 2.7]]}', "plan", "steps", 0.9),
    ("plan-isolation", ResolutionPlan.from_json, '{"steps": [], "isolation": [false]}', "plan", "isolation", False),
    ("config-kappa_b_hat", ExperimentConfig.from_json, '{"kappa_b_hat": 2.5, "n_o": 2}', "config", "kappa_b_hat", 2.5),
    ("config-n_o", ExperimentConfig.from_json, '{"kappa_b_hat": 2, "n_o": true}', "config", "n_o", True),
    ("config-seed", ExperimentConfig.from_json, '{"kappa_b_hat": 2, "n_o": 2, "seed": 0.5}', "config", "seed", 0.5),
    ("noise-origin", NoiseMap.from_json, '{"origin": 1.5, "branches": []}', "noise map", "origin", 1.5),
    (
        "noise-support",
        NoiseMap.from_json,
        '{"origin": 0, "branches": [{"p": 1.0, "support": [2.7]}]}',
        "noise map",
        "branches",
        2.7,
    ),
]


class TestIntegerFields:
    @pytest.mark.parametrize(
        "load, text, source, field, value",
        [pytest.param(*case[1:], id=case[0]) for case in NOT_AN_INT_CASES],
    )
    def test_bool_or_fraction_is_refused(self, load, text, source, field, value):
        data = json.loads(text)
        assert _error(lambda: load(data)) == f"{source} field {field!r}: expected an integer, got {value!r}"

    def test_ints_integral_floats_and_numeric_strings_load(self):
        graph = graph_from_json(json.loads('{"n": 3.0, "edges": [["0", 1.0], [1, "2"]]}'))
        assert graph == Graph.from_edges(3, [(0, 1), (1, 2)])
        plan = ResolutionPlan.from_json(json.loads('{"steps": [[0.0, "2"]], "isolation": [4.0]}'))
        assert (plan.steps, plan.isolation) == (((0, 2),), (4,))
        noise_map = NoiseMap.from_json(json.loads('{"origin": "3", "branches": [{"p": 1, "support": [3.0]}]}'))
        assert (noise_map.origin, noise_map.weights()) == (3, {frozenset({3}): 1.0})
        config = ExperimentConfig.from_json(json.loads('{"kappa_b_hat": "2", "n_o": 3.0, "seed": 7}'))
        assert (config.kappa_b_hat, config.n_o, config.seed) == (2, 3, 7)
        state = json.loads(STATE_JSON)
        state.update(orch=[0.0, "1"], params={"kappa_b_hat": 2.0, "kappa_c": "4", "n_o": 2})
        assert gtl_from_json(state) == STATE

    def test_sweep_config_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kappa_b_hat": 2, "n_o": true}')
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: config field 'n_o': expected an integer, got True\n"


class TestStateFile:
    def test_negative_label_is_rejected(self):
        data = {"n": 2, "labels": {"-1": "-1", "0": "0"}, "edges": []}
        assert _error(lambda: graph_from_json(data)) == (
            "graph JSON field 'labels': vertex id -1 is negative"
        )

    def test_label_count_must_match_n(self):
        data = {"n": 3, "labels": {"0": "a", "1": "b"}, "edges": []}
        assert _error(lambda: graph_from_json(data)) == "graph JSON: n does not match the labeled vertex count"

    def test_self_loop_is_rejected(self):
        data = {"n": 2, "edges": [[1, 1]]}
        assert _error(lambda: graph_from_json(data)) == "graph JSON field 'edges': self-loop at vertex 1"

    def test_large_label_loads_fast(self):
        top = MAX_QUBITS - 1
        data = {"n": 2, "labels": {"0": "a", str(top): "b"}, "edges": [[0, top]]}
        began = time.perf_counter()
        graph = graph_from_json(data)
        assert time.perf_counter() - began < 1.0
        assert graph.vertices() == (0, top)
        assert graph.edges() == [(0, top)]

    def test_label_above_the_bound_is_one_error_line(self, tmp_path, capsys):
        data = json.loads(STATE_JSON)
        data["labels"]["7790443036900"] = "x"
        data["n"] += 1
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))
        assert cli.main(["inspect", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: graph JSON field 'labels': vertex id 7790443036900 is above the largest supported id "
            f"{MAX_QUBITS - 1}\n"
        )

    def test_vertex_count_above_the_bound(self):
        data = {"n": MAX_QUBITS + 1, "edges": []}
        assert _error(lambda: graph_from_json(data)) == (
            f"graph JSON field 'n': {MAX_QUBITS + 1} vertices exceed the bound of {MAX_QUBITS} qubits"
        )

    def test_noise_support_above_the_bound(self):
        data = {"origin": 0, "branches": [{"p": 1.0, "support": [MAX_QUBITS]}]}
        assert _error(lambda: NoiseMap.from_json(data)) == (
            f"noise map field 'branches': vertex id {MAX_QUBITS} is above the largest supported id {MAX_QUBITS - 1}"
        )

    @pytest.mark.parametrize(
        "origin, message",
        [
            (-1, "vertex id -1 is negative"),
            (5000, f"vertex id 5000 is above the largest supported id {MAX_QUBITS - 1}"),
        ],
    )
    def test_noise_origin_out_of_bounds(self, origin, message):
        data = {"origin": origin, "branches": [{"p": 1.0, "support": []}]}
        assert _error(lambda: NoiseMap.from_json(data)) == f"noise map field 'origin': {message}"

    def test_noise_support_repeating_a_vertex(self):
        # Z_3 Z_3 is the identity, not Z_3: a support lists each vertex once.
        data = {"origin": 0, "branches": [{"p": 1.0, "support": [3, 3]}]}
        assert _error(lambda: NoiseMap.from_json(data)) == "noise map field 'branches': support lists vertex 3 twice"

    def test_non_object_is_rejected(self):
        assert _error(lambda: graph_from_json([1, 2])) == "graph must be a JSON object, got list"
        assert _error(lambda: gtl_from_json([1, 2])) == "GTL state must be a JSON object, got list"

    def test_non_object_state_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text("[1, 2]")
        assert cli.main(["inspect", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: GTL state must be a JSON object, got list\n"

    def test_dead_ids_keep_their_errors(self, tmp_path, capsys):
        data = json.loads(STATE_JSON)
        assert _error(lambda: gtl_from_json(dict(data, orch=[0, 99]))) == "unknown or deleted vertex 99"
        path = tmp_path / "state.json"
        path.write_text(json.dumps(dict(data, peers=data["peers"] + [99])))
        assert cli.main(["inspect", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: unknown or deleted vertex 99\n"


def _plan(steps, isolation=None) -> ResolutionPlan:
    if isolation is None:
        return ResolutionPlan(steps=steps, stop_stage=STOP_AFTER_ROLLING)
    return ResolutionPlan(steps=steps, isolation=isolation)


NOT_ON_SIDE = (
    "support {} for step {} is not on the current bridge side; "
    "closed forms only cover canonical rolling sequences"
)
NOT_A_NEIGHBOR = "support {} is not a neighbor of {}"

# (id, plan, error of propagate and compile_plan, of closed_form_maps, of resolve)
PLAN_ERRORS = [
    # a negative, unknown or non-neighbour support
    *(
        (
            f"support-{s}",
            _plan(((0, s), (1, 6))),
            NOT_A_NEIGHBOR.format(s, 0),
            NOT_ON_SIDE.format(s, 0),
            NOT_A_NEIGHBOR.format(s, 0),
        )
        for s in (-1, 99, 6)
    ),
    # a support measured by an earlier step
    (
        "support-measured",
        _plan(((0, 2), (1, 2))),
        NOT_A_NEIGHBOR.format(2, 1),
        NOT_ON_SIDE.format(2, 1),
        NOT_A_NEIGHBOR.format(2, 1),
    ),
    # a negative, unknown or peer measured qubit
    *(
        (
            f"measured-{o}",
            _plan(((o, 2),)),
            NOT_A_NEIGHBOR.format(2, o) if o == 4 else f"unknown or deleted vertex {o}",
            "plan must roll the full chain in linear or reversed order",
            f"step measures {o}, which is not an orchestration qubit",
        )
        for o in (-1, 99, 4)
    ),
    # a negative, unknown or already measured isolation target
    *(
        (
            f"target-{t}",
            _plan(((0, 2), (1, 6)), isolation=(t,)),
            f"unknown or deleted vertex {t}",
            "closed forms cover the rolling stage only; drop the isolation stage",
            f"isolation target {t} is not live",
        )
        for t in (-1, 99, 0)
    ),
]


class TestBadIdErrorText:
    @pytest.mark.parametrize(
        "support, message",
        [
            (None, "X measurement of 0 needs a support choice among [2, 4, 5]"),
            (-1, "support -1 is not a neighbor of 0"),
            (3, "support 3 is not a neighbor of 0"),  # deleted below
            (99, "support 99 is not a neighbor of 0"),
            (6, "support 6 is not a neighbor of 0"),
        ],
    )
    def test_measure_pauli_support(self, support, message):
        g = STATE.graph.copy()
        g.delete_vertex(3)
        rng, twin = random.Random(7), random.Random(7)
        assert _error(lambda: measure_pauli(g, 0, "X", support, rng=rng)) == message
        assert rng.random() == twin.random()  # refused before an outcome is drawn
        # Stepwise noise propagation refuses through the same X update.
        assert _error(lambda: propagate_measurement(standard_noise(g, 0.9), 0, "X", support)) == message

    @pytest.mark.parametrize("target", [-1, 3, 99])
    def test_measure_pauli_target(self, target):
        g = STATE.graph.copy()
        g.delete_vertex(3)
        assert _error(lambda: measure_pauli(g, target, "Z")) == f"unknown or deleted vertex {target}"

    @pytest.mark.parametrize(
        "plan, stepwise, closed, resolved",
        [pytest.param(*case[1:], id=case[0]) for case in PLAN_ERRORS],
    )
    def test_every_path_keeps_its_text(self, plan, stepwise, closed, resolved):
        g = STATE.graph
        assert _error(lambda: propagate(standard_noise(g, 0.9), plan)) == stepwise
        assert _error(lambda: compile_plan(g, plan)) == stepwise
        assert _error(lambda: closed_form_maps(STATE, plan, 0.9)) == closed
        assert _error(lambda: resolve(STATE, plan)) == resolved
        # The crosscheck resolves the plan before it propagates any noise.
        assert _error(lambda: crosscheck(STATE, plan, 0.9)) == resolved


class TestRepeatedIsolationTarget:
    def test_plan_json_is_refused(self):
        data = {"steps": [[0, 2], [1, 6]], "isolation": [2, 5, 2]}
        assert _error(lambda: ResolutionPlan.from_json(data)) == "plan isolates qubit 2 twice"

    def test_distinct_targets_are_accepted(self):
        assert ResolutionPlan.from_json({"steps": [], "isolation": [2, 5]}).isolation == (2, 5)

    def test_cli_resolve_prints_one_error_line(self, tmp_path, capsys):
        state, plan = tmp_path / "state.json", tmp_path / "plan.json"
        state.write_text(STATE_JSON)
        plan.write_text('{"steps": [[0, 2], [1, 6]], "isolation": [2, 2]}')
        assert cli.main(["resolve", str(state), "--plan", str(plan)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: plan isolates qubit 2 twice\n"


def _edited(delete=(), cut=()) -> GtlState:
    """STATE with the ``delete`` vertices gone and every edge of the ``cut`` vertices removed."""
    g = STATE.graph.copy()
    for v in delete:
        g.delete_vertex(v)
    for v in cut:
        for w in sorted(g.neighbors(v)):
            g.remove_edge(v, w)
    return dataclasses.replace(STATE, graph=g)


# (id, call, message): refusals of public calls, each with its one-line text.
REFUSALS = [
    ("measure-basis", lambda: measure_pauli(STATE.graph, 0, "W"), "unsupported measurement basis 'W'"),
    (
        "measure-z-support",
        lambda: measure_pauli(STATE.graph, 2, "Z", support_choice=0),
        "support_choice is only meaningful for X measurements",
    ),
    (
        "propagate-basis",
        lambda: propagate_measurement(standard_noise(STATE.graph, 0.9), 0, "W"),
        "unsupported measurement basis 'W'",
    ),
    (
        "negative-branch",
        lambda: NoiseMap(0, ((-0.5, 0), (1.5, 1))),
        "negative branch probability -0.5",
    ),
    (
        "duplicate-branch",
        lambda: NoiseMap(0, ((0.5, 1), (0.5, 1))),
        "duplicate branch support; use from_weights to merge",
    ),
    # A map with no branch of nonzero weight is no channel, not the identity.
    (
        "noise-no-branches",
        lambda: NoiseMap.from_json({"origin": 0, "branches": []}),
        "noise map field 'branches': branch probabilities sum to 0.0, expected 1",
    ),
    (
        "noise-zero-branch",
        lambda: NoiseMap.from_json({"origin": 0, "branches": [{"p": 0.0, "support": []}]}),
        "noise map field 'branches': branch probabilities sum to 0.0, expected 1",
    ),
    ("noise-no-weights", lambda: NoiseMap.from_weights(0, {}), "branch probabilities sum to 0.0, expected 1"),
    ("resolve-dead", lambda: resolve(_edited(delete=(1,)), _plan(((1, 3),))), "step measures 1, which is no longer live"),
    ("plan-target", lambda: default_resolution_plan(STATE, "w"), "unknown resolution target 'w'"),
    # Both proximity calls refuse a peer pair through one rule, with one text.
    ("proximity-orch", lambda: plan_proximity_reduction(STATE, 0, 7), "0 is not a peer qubit"),
    ("peer-proximity-orch", lambda: peer_proximity(STATE, 0, 7), "0 is not a peer qubit"),
    ("proximity-same", lambda: plan_proximity_reduction(STATE, 2, 2), "peer proximity needs two distinct peers"),
    ("peer-proximity-same", lambda: peer_proximity(STATE, 2, 2), "peer proximity needs two distinct peers"),
    (
        "proximity-disconnected",
        lambda: plan_proximity_reduction(_edited(cut=(2,)), 2, 7),
        "peers 2 and 7 are disconnected",
    ),
    (
        "peer-proximity-disconnected",
        lambda: peer_proximity(_edited(cut=(2,)), 2, 7),
        "peers 2 and 7 are disconnected",
    ),
    ("dense-mode", lambda: dense_graph_state(STATE.graph, "w"), "unknown dense mode 'w'"),
    (
        "overlap-order",
        lambda: graph_state_overlap(dense_graph_state(Graph.empty(2)), Graph.empty(3)),
        "graph vertices must match the dense state's qubit order",
    ),
    (
        "density-trace",
        lambda: DenseState("density", (0,), np.diag([0.6, 0.6])).validate(),
        "density trace (1.2+0j) is not 1",
    ),
    (
        "density-hermitian",
        lambda: DenseState("density", (0,), np.array([[0.5, 0.5], [0.0, 0.5]])).validate(),
        "density matrix is not Hermitian",
    ),
    (
        "density-eigenvalue",
        lambda: DenseState("density", (0,), np.diag([1.2, -0.2])).validate(),
        "density matrix has negative eigenvalue -0.2",
    ),
]


@pytest.mark.parametrize("call, message", [pytest.param(*case[1:], id=case[0]) for case in REFUSALS])
def test_refusal_names_its_input(call, message):
    assert _error(call) == message


def _violations(edges, n, orch, peers) -> list[Violation]:
    return list(validate_gtl(Graph.from_edges(n, edges), orch, frozenset(peers)).violations)


# Two orchestration qubits 0 and 1 that share bridges 2 and 3.
SHARED_PAIR = [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestGtlViolations:
    def test_duplicate_orchestration_ids(self):
        assert _violations(SHARED_PAIR, 4, (0, 0, 1), {2, 3}) == [
            Violation("partition", "duplicate orchestration ids in (0, 0, 1)")
        ]

    def test_overlapping_partition(self):
        assert _violations(SHARED_PAIR, 4, (0, 1), {1, 2, 3}) == [
            Violation("partition", "overlapping partition: [1]")
        ]

    def test_edge_inside_the_orchestration_set(self):
        assert _violations([(0, 1), (0, 2), (1, 3)], 4, (0, 1), {2, 3}) == [
            Violation("two-colorable", "edge (0,1) inside the orchestration set")
        ]

    def test_bridge_on_a_non_consecutive_pair(self):
        edges = [(0, 3), (2, 3), (0, 4), (1, 4), (1, 5), (2, 5)]
        assert _violations(edges, 6, (0, 1, 2), {3, 4, 5}) == [
            Violation("C2", "bridge 3 is adjacent to [0, 2], not one consecutive pair")
        ]

    def test_bridge_count_reference_falls_back_to_the_largest_pair(self):
        # n_o * kappa_c - |peers| = 3 * 3 - 6 is odd, so the counting identity
        # gives no kappa_b_hat; pair (0, 1) with two bridges sets the reference.
        edges = [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (2, 8)]
        assert _violations(edges, 9, (0, 1, 2), range(3, 9)) == [
            Violation("C3", "pair (1, 2) shares 1 bridges, expected 2")
        ]

    def test_inferred_parameters_must_be_valid(self):
        assert _violations(SHARED_PAIR, 4, (0, 1), {2, 3}) == [
            Violation("parameters", "peer degree 2 must be at least twice the minimum bridge degree 2")
        ]


# (id, loader, JSON text, source, field, refused value): a bool in every real field.
NOT_A_NUMBER_CASES = [
    ("config-p_grid", ExperimentConfig.from_json, '{"kappa_b_hat": 2, "n_o": 2, "p_grid": [true]}', "config", "p_grid", True),
    (
        "config-T_grid_ms",
        ExperimentConfig.from_json,
        '{"kappa_b_hat": 2, "n_o": 2, "T_grid_ms": [5, true]}',
        "config",
        "T_grid_ms",
        True,
    ),
    (
        "config-protocol_time_ms",
        ExperimentConfig.from_json,
        '{"kappa_b_hat": 2, "n_o": 2, "protocol_time_ms": false}',
        "config",
        "protocol_time_ms",
        False,
    ),
    (
        "config-qubit_times_ms",
        ExperimentConfig.from_json,
        '{"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": {"3": true}}',
        "config",
        "qubit_times_ms",
        True,
    ),
    (
        "noise-p",
        NoiseMap.from_json,
        '{"origin": 0, "branches": [{"p": true, "support": [0]}]}',
        "noise map",
        "branches",
        True,
    ),
]


class TestRealFields:
    @pytest.mark.parametrize(
        "load, text, source, field, value",
        [pytest.param(*case[1:], id=case[0]) for case in NOT_A_NUMBER_CASES],
    )
    def test_bool_is_refused(self, load, text, source, field, value):
        data = json.loads(text)
        assert _error(lambda: load(data)) == f"{source} field {field!r}: expected a number, got {value!r}"

    def test_ints_floats_numeric_and_infinite_strings_load(self):
        config = ExperimentConfig.from_json(
            json.loads(
                '{"kappa_b_hat": 2, "n_o": 2, "p_grid": [1, 0.5, "0.25"], "T_grid_ms": [3, "inf", "Infinity", "2.5"],'
                ' "protocol_time_ms": "2", "qubit_times_ms": {"3": 1, "4": "0.5"}}'
            )
        )
        assert config.p_grid == (1.0, 0.5, 0.25)
        assert config.t_grid_ms == (3.0, math.inf, math.inf, 2.5)
        assert config.protocol_time_ms == 2.0
        assert config.qubit_times_ms == ((3, 1.0), (4, 0.5))
        noise_map = NoiseMap.from_json(
            json.loads('{"origin": 0, "branches": [{"p": "0.25", "support": [0]}, {"p": 0.75, "support": []}]}')
        )
        assert noise_map.weights() == {frozenset(): 0.75, frozenset({0}): 0.25}

    def test_sweep_config_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kappa_b_hat": 2, "n_o": 2, "p_grid": [0.9, true]}')
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: config field 'p_grid': expected a number, got True\n"

    @pytest.mark.parametrize("command", ["sweep", "threshold"])
    @pytest.mark.parametrize(
        "flag, grid, field", [("--p-grid", "0.9,abc", "p_grid"), ("--t-grid", "10,abc", "T_grid_ms")]
    )
    def test_grid_flag_error_names_its_field(self, capsys, command, flag, grid, field):
        assert cli.main([command, "--kappa-b", "2", "--n-o", "2", flag, grid]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: config field {field!r}: could not convert string to float: 'abc'\n"


# Any JSON value: scalars (with the number-like strings the loaders parse) and
# small lists and objects of them.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e400", "2", "0.5", "-1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

def _set_support(data, v):
    data.update(branches=[{"p": 1.0, "support": v}])


def _set_n(data, v):
    data.update(n=v)


# (loader, valid object, slot setters): each setter puts a value into one field
# of a copy of the valid object, at the top or one level down.
FUZZ_LOADERS = [
    (
        ExperimentConfig.from_json,
        {"kappa_b_hat": 2, "n_o": 2},
        [
            *(
                (lambda name: lambda data, v: data.update({name: v}))(name)
                for name in (
                    "kappa_b_hat", "n_o", "target", "p_grid", "T_grid_ms", "protocol_time_ms",
                    "qubit_times_ms", "plan", "seed",
                )
            ),
            lambda data, v: data.update(p_grid=[0.9, v]),
            lambda data, v: data.update(T_grid_ms=[v]),
            lambda data, v: data.update(qubit_times_ms={"3": v}),
            lambda data, v: data.update(plan={"steps": [[0, v]]}),
        ],
    ),
    (
        ResolutionPlan.from_json,
        {"steps": [[0, 2]], "isolation": [4]},
        [
            lambda data, v: data.update(steps=v),
            lambda data, v: data.update(isolation=v),
            lambda data, v: data.update(stop_stage=v),
            lambda data, v: data.update(steps=[v]),
            lambda data, v: data.update(steps=[[v, 2]]),
            lambda data, v: data.update(isolation=[v]),
        ],
    ),
    (
        NoiseMap.from_json,
        {"origin": 0, "branches": [{"p": 1.0, "support": [0]}]},
        [
            lambda data, v: data.update(origin=v),
            lambda data, v: data.update(branches=v),
            lambda data, v: data.update(branches=[v]),
            lambda data, v: data.update(branches=[{"p": v, "support": [0]}]),
            _set_support,
            lambda data, v: data.update(branches=[{"p": 1.0, "support": [v]}]),
        ],
    ),
    (
        graph_from_json,
        {"n": 2, "edges": [[0, 1]]},
        [
            _set_n,
            lambda data, v: data.update(labels=v),
            lambda data, v: data.update(edges=[[0, v]]),
        ],
    ),
]
FUZZ_CASES = [(load, valid, setter) for load, valid, setters in FUZZ_LOADERS for setter in setters]
NOISE_MAP, GRAPH = FUZZ_LOADERS[-2][:2], FUZZ_LOADERS[-1][:2]


# An id far above MAX_QUBITS, as a noise-map support or as a vertex count,
# once ran out of memory instead of raising.
@example((*NOISE_MAP, _set_support), [7790443036900.0])
@example((*GRAPH, _set_n), 7790443036900)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_CASES), JSON_VALUES)
def test_loaders_accept_or_raise_value_error(case, value):
    # Each loader only parses: a value either loads or raises ValueError,
    # never another exception.
    load, valid, setter = case
    obj = json.loads(json.dumps(valid))
    setter(obj, value)
    try:
        load(obj)
    except ValueError:
        pass


def test_noise_map_refuses_nan_probability():
    data = {"origin": 0, "branches": [{"p": "nan", "support": []}, {"p": 1.0, "support": [0]}]}
    assert _error(lambda: NoiseMap.from_json(data)) == "noise map field 'branches': branch probabilities sum to nan, expected 1"


def test_sweep_plan_leaving_a_resource_too_large_to_score(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"kappa_b_hat": 2, "n_o": 10, "plan": {"steps": []}}')
    assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a component of 32 qubits is too large to score (at most 29)\n"


class TestQubitTimes:
    @pytest.mark.parametrize(
        "times, message",
        [
            ({"1": 2.0, "01": 5.0}, "qubit_times_ms lists vertex 1 twice"),
            ({"-3": 2.0}, "config field 'qubit_times_ms': vertex id -3 is negative"),
            ({"4096": 2.0}, "config field 'qubit_times_ms': vertex id 4096 is above the largest supported id 4095"),
        ],
    )
    def test_bad_or_repeated_ids_are_refused(self, times, message):
        data = {"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": times}
        assert _error(lambda: ExperimentConfig.from_json(data)) == message

    def test_direct_construction_refuses_a_repeated_id(self):
        message = _error(lambda: ExperimentConfig(2, 2, qubit_times_ms=((1, 2.0), (1, 5.0))))
        assert message == "qubit_times_ms lists vertex 1 twice"

    def test_sweep_config_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": {"1": 2.0, "01": 5.0}}')
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: qubit_times_ms lists vertex 1 twice\n"

    # (2, 2) has the 8 qubits 0..7.
    @pytest.mark.parametrize("vertex", [-1, 8, 4000])
    def test_id_outside_the_resource_is_refused(self, vertex):
        message = _error(lambda: ExperimentConfig(2, 2, qubit_times_ms=((vertex, 5.0),)))
        assert message == f"qubit_times_ms names vertex {vertex}, which is not a live qubit of the resource"

    @pytest.mark.parametrize("vertex", [0, 7])
    def test_ids_at_the_resource_edges_are_accepted(self, vertex):
        config = ExperimentConfig.from_json({"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": {str(vertex): 5.0}})
        assert config.qubit_times_ms == ((vertex, 5.0),)

    @pytest.mark.parametrize("vertex", [8, 4000])
    def test_sweep_of_an_id_outside_the_resource_exits_1(self, tmp_path, capsys, vertex):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": {str(vertex): 5.0}}))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: qubit_times_ms names vertex {vertex}, which is not a live qubit of the resource\n"


class TestConfigChecks:
    def test_unknown_resource_target(self):
        data = {"kappa_b_hat": 2, "n_o": 2, "target": "w"}
        assert _error(lambda: ExperimentConfig.from_json(data)) == "unknown resolution target 'w'"

    def test_dephasing_time_must_be_positive(self):
        data = {"kappa_b_hat": 2, "n_o": 2, "T_grid_ms": [5, 0]}
        assert _error(lambda: ExperimentConfig.from_json(data)) == "dephasing time 0.0 must be positive"

    def test_threshold_needs_a_finite_t_grid(self):
        config = ExperimentConfig(2, 2, t_grid_ms=(1.0, math.inf))
        assert _error(lambda: find_threshold(config)) == "threshold search needs a finite T grid"

    @pytest.mark.parametrize(
        "t_grid, protocol_ms",
        # sqrt(lo * hi) of these ends overflows to inf or underflows to 0.
        [((1e200, 1e300), 1e250), ((1e-200, 1e-150), 1e-175), ((2.0**-512, 1.0), 1.0), ((1.0, 2.0**512), 1.0)],
    )
    def test_threshold_needs_t_grid_ends_within_2_to_511(self, tmp_path, capsys, t_grid, protocol_ms):
        path = tmp_path / "config.json"
        data = {"kappa_b_hat": 2, "n_o": 2, "p_grid": [0.99], "T_grid_ms": list(t_grid), "protocol_time_ms": protocol_ms}
        path.write_text(json.dumps(data))
        assert cli.main(["threshold", "--config", str(path), "--level", "0.8"]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        lo, hi = t_grid
        assert err == f"error: threshold search needs T grid ends in [2**-511, 2**511] ms, got {lo!r} and {hi!r}\n"

    def test_threshold_takes_t_grid_ends_at_2_to_511(self):
        # Every probe between these ends is a finite normal float.
        for t_grid, protocol_ms in [((2.0**-511, 2.0**511), 1.0), ((2.0**-511, 2.0**-400), 2.0**-450)]:
            config = ExperimentConfig(2, 2, p_grid=(0.99, 0.9), t_grid_ms=t_grid, protocol_time_ms=protocol_ms)
            rows, diagnostics = find_threshold(config)
            assert diagnostics == [] and all(t_grid[0] < t < t_grid[1] for _, t in rows)


class TestVerifyCounts:
    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--trials", "-3", "trials"),
            ("--trials", "0", "trials"),
            ("--max-kappa-b", "0", "max_kappa_b"),
            ("--max-n-o", "-1", "max_n_o"),
            ("--max-qubits", "0", "max_qubits"),
        ],
    )
    def test_count_below_one_is_refused(self, capsys, flag, value, name):
        assert cli.main(["verify", flag, value]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: verify {name} must be at least 1, got {value}\n"

    def test_crosscheck_detail_counts_the_crosschecks(self, capsys):
        assert cli.main(["verify", "--scope", "nsf", "--max-qubits", "7"]) == cli.EXIT_OK
        # The (2, 1) and (3, 1) resources have 5 and 7 qubits, (2, 2) has 8; two p each.
        assert "[pass] oracle crosscheck: 4 crosschecks, deltas < 1e-9\n" in capsys.readouterr().out

    @pytest.mark.parametrize("scope, value", [("nsf", "1"), ("all", "4")])
    def test_max_qubits_below_every_crosscheck_is_refused(self, capsys, scope, value):
        # A run that crosschecks nothing would pass without checking anything.
        assert cli.main(["verify", "--scope", scope, "--max-qubits", value]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: verify max_qubits must be at least 5, the smallest crosscheck resource, got {value}\n"
        )

    def test_max_qubits_unread_without_crosschecks(self, capsys):
        assert cli.main(["verify", "--scope", "structure", "--max-kappa-b", "2", "--max-n-o", "2",
                         "--max-qubits", "1"]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["verify", "--bogus"], "unrecognized arguments: --bogus", id="unknown-flag"),
        pytest.param(["sweep", "--kappa-b", "x"], "argument --kappa-b: invalid int value: 'x'", id="bad-int"),
        pytest.param(["sweep", "--kappa-b", "2", "--n-o", "2", "--target", "w"], "argument --target: invalid choice",
                     id="bad-choice"),
        pytest.param(["build", "--n-o", "2"], "the following arguments are required: --kappa-b",
                     id="missing-kappa-b"),
        pytest.param([], "the following arguments are required: command", id="no-subcommand"),
    ],
)
def test_malformed_flag_is_one_error_line(capsys, argv, text):
    # Exit 2 is a failed verification, so a typo must not share it.
    assert cli.main(argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {text}")


class TestSizeBound:
    def test_bound_admits_the_measured_rungs(self):
        # The README states the bound and its cost at (2, 1364).
        assert MAX_QUBITS == 4096
        assert GtlParams.specialized(2, 640).n_qubits == 1922
        assert GtlParams.specialized(2, 1364).n_qubits == 4094
        assert GtlParams(1, 3, 1365).n_qubits == 4096

    def test_params_above_the_bound_are_refused(self):
        assert GtlParams(1, 2, 2047).n_qubits == 4095
        message = "a resource of 4097 qubits exceeds the bound of 4096 qubits"
        assert _error(lambda: GtlParams(1, 2, 2048)) == message

    @pytest.mark.parametrize("command", ["build", "sweep", "threshold"])
    def test_command_exits_before_building(self, capsys, command):
        began = time.perf_counter()
        assert cli.main([command, "--kappa-b", "2", "--n-o", "100000"]) == cli.EXIT_CONFIG
        assert time.perf_counter() - began < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a resource of 300002 qubits exceeds the bound of {MAX_QUBITS} qubits\n"

    @pytest.mark.parametrize(
        "scope, kb, n_o, qubits",
        # rolling draws n_o from 2 to max(2, max_n_o), so all with n_o 1 is refused at n_o 2
        [("structure", "1", "5000", 20001), ("rolling", "1", "3000", 12001), ("all", "1364", "1", 4098)],
    )
    def test_verify_exits_before_building(self, capsys, scope, kb, n_o, qubits):
        began = time.perf_counter()
        args = ["verify", "--scope", scope, "--max-kappa-b", kb, "--max-n-o", n_o, "--trials", "1"]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert time.perf_counter() - began < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a resource of {qubits} qubits exceeds the bound of {MAX_QUBITS} qubits\n"

    def test_law_above_the_key_bound_exits_before_scoring(self, capsys, tmp_path):
        # An empty plan on (2, 9) leaves one 29-qubit component, within the
        # compile limit, whose pruned law would still hold 2**19 keys.
        config = tmp_path / "config.json"
        config.write_text('{"kappa_b_hat": 2, "n_o": 9, "p_grid": [0.9], "T_grid_ms": [10], "plan": {"steps": []}}')
        tracemalloc.start()
        try:
            status = cli.main(["sweep", "--config", str(config)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == cli.EXIT_CONFIG
        assert peak < 4 << 20
        out, err = capsys.readouterr()
        assert out == ""
        component = "-".join(map(str, range(29)))
        assert err == f"error: scoring component {component} takes 524,288 keys (at most 262,144)\n"


class TestPathIsADirectory:
    # Reading or writing a directory raises IsADirectoryError, an OSError.
    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect", "{dir}"],
            ["resolve", "{dir}"],
            ["resolve", "{state}", "--plan", "{dir}"],
            ["sweep", "--config", "{dir}"],
            ["threshold", "--config", "{dir}"],
            ["verify", "--state", "{dir}"],
        ],
        ids=["inspect", "resolve", "resolve-plan", "sweep-config", "threshold-config", "verify-state"],
    )
    def test_input_path(self, tmp_path, capsys, argv):
        self._assert_one_error_line(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--kappa-b", "2", "--n-o", "2", "--out", "{dir}"],
            ["inspect", "{state}", "--out", "{dir}"],
            ["resolve", "{state}", "--out", "{dir}"],
            ["sweep", "--kappa-b", "2", "--n-o", "2", "--out", "{dir}"],
            ["threshold", "--kappa-b", "2", "--n-o", "2", "--p-grid", "0.9", "--t-grid", "1,100", "--out", "{dir}"],
        ],
        ids=["build", "inspect", "resolve", "sweep", "threshold"],
    )
    def test_output_path(self, tmp_path, capsys, argv):
        self._assert_one_error_line(tmp_path, capsys, argv)

    @staticmethod
    def _assert_one_error_line(tmp_path, capsys, argv):
        state, directory = tmp_path / "state.json", tmp_path / "dir"
        state.write_text(STATE_JSON)
        directory.mkdir()
        argv = [a.format(dir=directory, state=state) for a in argv]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(directory) in err


class TestChainDisagreesWithParams:
    # STATE's params give n_o=2; an orch of another length is no chain they describe.
    @pytest.mark.parametrize("orch", [[], [0]])
    def test_cli_resolve_prints_one_error_line(self, tmp_path, capsys, orch):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**json.loads(STATE_JSON), "orch": orch}))
        assert cli.main(["resolve", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: state's orch has length {len(orch)}, but its params give n_o=2\n"

    @pytest.mark.parametrize("orch", [(), (0,), (0, 1, 2)])
    def test_closed_forms_are_refused(self, orch):
        state = dataclasses.replace(STATE, orch=orch)
        message = f"state's orch has length {len(orch)}, but its params give n_o=2"
        assert _error(lambda: closed_form_maps(state, _plan(((0, 2), (1, 6))), 0.9)) == message
        assert _error(lambda: default_resolution_plan(state)) == message


class TestPlanLeavingNoComponent:
    # Isolating every peer of (2, 2) leaves only the two unmeasured orchestration qubits, apart.
    CONFIG = {"kappa_b_hat": 2, "n_o": 2, "p_grid": [0.9], "T_grid_ms": [1, 100],
              "plan": {"steps": [], "isolation": [2, 3, 4, 5, 6, 7]}}

    def test_threshold_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        assert cli.main(["threshold", "--config", str(path)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: threshold search needs a component to score, but the plan leaves none\n"

    def test_sweep_writes_its_header(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr() == ("p,T_ms,resource_id,fidelity\n", "")


def _state_with(**fields) -> dict:
    return {**json.loads(STATE_JSON), **fields}


# (id, loader, parsed JSON, CLI command that reads it or None, error): a
# string or an object where a list belongs was once iterated, so "03" read as
# the ids 0 and 3, and a malformed qubit_times_ms once read as no waits.
NOT_A_LIST_CASES = [
    ("plan-steps-string", ResolutionPlan.from_json, {"steps": ["03"]}, "resolve",
     "plan field 'steps': expected a list, got str"),
    ("plan-steps-object", ResolutionPlan.from_json, {"steps": {"03": 1}}, "resolve",
     "plan field 'steps': expected a list, got dict"),
    ("plan-isolation", ResolutionPlan.from_json, {"steps": [], "isolation": "23"}, "resolve",
     "plan field 'isolation': expected a list, got str"),
    ("graph-edges", graph_from_json, _state_with(edges=["02", *json.loads(STATE_JSON)["edges"][1:]]), "inspect",
     "graph JSON field 'edges': expected a list, got str"),
    ("graph-labels", graph_from_json, _state_with(labels="01234567"), "inspect",
     "graph JSON field 'labels': expected a list, got str"),
    ("gtl-orch", gtl_from_json, _state_with(orch="01"), "inspect", "GTL JSON field 'orch': expected a list, got str"),
    ("gtl-peers", gtl_from_json, _state_with(peers="234567"), "inspect",
     "GTL JSON field 'peers': expected a list, got str"),
    ("noise-support", NoiseMap.from_json, {"origin": 1, "branches": [{"p": 1.0, "support": "12"}]}, None,
     "noise map field 'branches': expected a list, got str"),
    *(
        (f"qubit_times_ms-{name}", ExperimentConfig.from_json, {"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": value},
         "sweep", f"config field 'qubit_times_ms': expected an object, got {kind}")
        for name, kind, value in [
            ("empty-list", "list", []), ("zero", "int", 0), ("empty-string", "str", ""), ("false", "bool", False),
            ("pair-list", "list", [[4, 1.0]]),
        ]
    ),
]


class TestNotAList:
    @pytest.mark.parametrize(
        "load, data, message", [pytest.param(c[1], c[2], c[4], id=c[0]) for c in NOT_A_LIST_CASES]
    )
    def test_loader_names_the_field(self, load, data, message):
        assert _error(lambda: load(data)) == message

    @pytest.mark.parametrize(
        "data, command, message", [pytest.param(*c[2:], id=c[0]) for c in NOT_A_LIST_CASES if c[3]]
    )
    def test_cli_prints_one_error_line(self, tmp_path, capsys, data, command, message):
        path, state = tmp_path / "input.json", tmp_path / "state.json"
        path.write_text(json.dumps(data))
        state.write_text(STATE_JSON)
        argv = {
            "resolve": ["resolve", str(state), "--plan", str(path)],
            "inspect": ["inspect", str(path)],
            "sweep": ["sweep", "--config", str(path)],
        }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "load, data, field, pair",
        [
            (ResolutionPlan.from_json, {"steps": [[0, 3, 5]]}, "plan field 'steps'", [0, 3, 5]),
            (graph_from_json, {"n": 3, "edges": [[0, 1], [2]]}, "graph JSON field 'edges'", [2]),
        ],
        ids=["step", "edge"],
    )
    def test_step_or_edge_needs_two_ids(self, load, data, field, pair):
        assert _error(lambda: load(data)) == f"{field}: expected a pair of integers, got {pair!r}"

    def test_lists_and_absent_waits_load(self):
        plan = ResolutionPlan.from_json({"steps": [[0, 3]], "isolation": [2, 3]})
        assert (plan.steps, plan.isolation) == (((0, 3),), (2, 3))
        assert gtl_from_json(_state_with(labels=[str(v) for v in range(8)])) == STATE
        for waits in (None, {}):
            assert ExperimentConfig.from_json({"kappa_b_hat": 2, "n_o": 2, "qubit_times_ms": waits}).qubit_times_ms == ()
