import math
import random

import pytest

from entroll.graphstate import Graph, measure_pauli
from entroll.gtl import GtlParams, GtlState, build_gtl
from entroll.noise import (
    CanonicalForm,
    NoiseMap,
    NoiseState,
    ZOperator,
    closed_form_maps,
    compile_plan,
    compiled_fidelities,
    component_fidelities,
    dephasing_map,
    dephasing_probability,
    depolarizing_map,
    fidelity,
    propagate,
    propagate_measurement,
    restrict_to_targets,
    standard_noise,
)
from entroll.oracle import (
    apply_channel,
    dense_component_fidelity,
    dense_graph_state,
    measure_with_record,
    partial_trace,
)
from entroll.rolling import (
    STOP_AFTER_ROLLING,
    ResolutionPlan,
    bridge_pick_plans,
    default_resolution_plan,
    plan_proximity_reduction,
)

from conftest import random_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def single_branch(origin, support):
    return NoiseMap.from_weights(origin, {frozenset(support): 1.0})


class TestNoiseMap:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NoiseMap(origin=0, branches=((0.5, ZOperator(frozenset())),))

    def test_merging(self):
        m = NoiseMap.from_weights(0, {frozenset(): 0.25, frozenset({1}): 0.75})
        assert m.weights() == {frozenset(): 0.25, frozenset({1}): 0.75}

    def test_json_round_trip(self):
        m = NoiseMap.from_weights(3, {frozenset(): 0.9, frozenset({3, 5}): 0.1})
        import json

        assert NoiseMap.from_json(json.loads(m.dumps())) == m

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"branches": [{"p": 1.0, "support": []}]}, "origin"),
            ({"origin": 0, "branches": 5}, "branches"),
            ({"origin": 0, "branches": [{"p": 1.0}]}, "branches"),
            ({"origin": 0, "branches": [{"p": "x", "support": []}]}, "branches"),
            ({"origin": 0, "branches": [{"p": 0.5, "support": [0]}]}, "branches"),
        ],
    )
    def test_malformed_json_field_is_named(self, data, field):
        with pytest.raises(ValueError, match=f"noise map field '{field}'"):
            NoiseMap.from_json(data)

    def test_zoperator_algebra(self):
        a = ZOperator(frozenset({1, 2}))
        b = ZOperator(frozenset({2, 3}))
        assert (a * b).support == frozenset({1, 3})
        assert (a * a).is_identity


class TestDepolarizing:
    def test_noiseless_limit(self):
        g = path_graph(3)
        m = depolarizing_map(g, 1, 1.0)
        assert m.weights() == {frozenset(): 1.0}

    def test_two_neighbor_weights(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        m = depolarizing_map(g, 0, 0.8)
        w = m.weights()
        assert w[frozenset()] == pytest.approx(0.85)
        assert w[frozenset({0})] == pytest.approx(0.05)
        assert w[frozenset({1, 2})] == pytest.approx(0.05)
        assert w[frozenset({0, 1, 2})] == pytest.approx(0.05)

    def test_isolated_fully_noisy(self):
        g = Graph.empty(1)
        m = depolarizing_map(g, 0, 0.0)
        assert m.weights() == {frozenset(): pytest.approx(0.5), frozenset({0}): pytest.approx(0.5)}

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            depolarizing_map(path_graph(2), 0, 1.2)


class TestDephasing:
    def test_zero_time(self):
        m = dephasing_map(0, 0.0, 5.0)
        assert m.weights() == {frozenset(): 1.0}

    def test_one_characteristic_time(self):
        q = dephasing_probability(5.0, 5.0)
        assert q == pytest.approx(0.5 * (1 - math.exp(-1)))
        assert q == pytest.approx(0.31606, abs=1e-5)

    def test_long_time_limit(self):
        assert dephasing_probability(1e9, 1.0) == pytest.approx(0.5)

    def test_infinite_memory(self):
        assert dephasing_probability(3.0, math.inf) == 0.0

    def test_invalid_memory_time(self):
        with pytest.raises(ValueError):
            dephasing_map(0, 1.0, 0.0)


class TestTableOneRows:
    """Update rules for the elementary canonical branches."""

    def test_z_row_on_measured_qubit(self):
        g = path_graph(3)
        ns = NoiseState(graph=g, maps=(single_branch(1, {1}),))
        out = propagate_measurement(ns, 1, "Z")
        assert out.maps[0].weights() == {frozenset(): 1.0}

    def test_z_row_beta_branch_survives(self):
        g = path_graph(3)
        ns = NoiseState(graph=g, maps=(single_branch(1, {0, 2}),))
        out = propagate_measurement(ns, 1, "Z")
        assert out.maps[0].weights() == {frozenset({0, 2}): 1.0}

    def test_x_row_on_measured_qubit(self):
        g = path_graph(3)
        ns = NoiseState(graph=g, maps=(single_branch(1, {1}),))
        out = propagate_measurement(ns, 1, "X", support_choice=0)
        # support becomes b0 plus b0's pre-measurement neighborhood (minus
        # the vanishing measured vertex)
        assert out.maps[0].weights() == {frozenset({0}): 1.0}

    def test_x_row_with_wider_support_neighborhood(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        ns = NoiseState(graph=g, maps=(single_branch(1, {1}),))
        out = propagate_measurement(ns, 1, "X", support_choice=0)
        assert out.maps[0].weights() == {frozenset({0, 3}): 1.0}

    def test_identity_fixed_by_all_rows(self):
        g = path_graph(4)
        ns = NoiseState(graph=g, maps=(single_branch(0, set()),))
        for basis, a, sup in (("X", 1, 0), ("Y", 2, None), ("Z", 3, None)):
            ns = propagate_measurement(ns, a, basis, sup)
            assert ns.maps[0].weights() == {frozenset(): 1.0}

    def test_x_needs_support(self):
        g = path_graph(3)
        ns = NoiseState(graph=g, maps=())
        with pytest.raises(ValueError):
            propagate_measurement(ns, 1, "X")

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_rows_match_dense_oracle(self, basis, rng):
        # Propagate a full depolarizing load through one measurement and
        # compare per-component fidelities against the dense computation.
        for _ in range(25):
            n = rng.randint(3, 6)
            g = random_graph(n, rng, density=0.6)
            a = rng.choice(g.vertices())
            support = None
            if basis == "X":
                if not g.neighbors(a):
                    continue
                support = rng.choice(sorted(g.neighbors(a)))
            maps = tuple(depolarizing_map(g, v, rng.uniform(0.6, 1.0)) for v in g.vertices())
            ns = propagate_measurement(NoiseState(graph=g, maps=maps), a, basis, support)

            dense = dense_graph_state(g, mode="density")
            for m in maps:
                dense = apply_channel(dense, m)
            g2, rec = measure_pauli(g, a, basis, support)
            dense = measure_with_record(dense, rec)
            for comp in g2.components():
                if len(comp) < 2:
                    continue
                f_sym = fidelity(ns, comp)
                f_dense = dense_component_fidelity(dense, g2, comp)
                assert f_sym == pytest.approx(f_dense, abs=1e-11)


class TestPropagationInvariants:
    def test_probability_sums_stay_one(self, rng):
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = default_resolution_plan(state, "bell")
        ns = propagate(standard_noise(state.graph, 0.8, 1.0, 7.0), plan)
        for m in ns.maps:
            assert sum(w for w, _ in m.branches) == pytest.approx(1.0, abs=1e-12)

    def test_supports_restricted_to_live_vertices(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        ns = propagate(standard_noise(state.graph, 0.8), plan)
        live = set(ns.graph.vertices())
        for m in ns.maps:
            for _, op in m.branches:
                assert op.support <= live

    def test_same_origin_maps_commute_in_distribution(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        g = state.graph
        dep = [depolarizing_map(g, v, 0.85) for v in g.vertices()]
        deph = [dephasing_map(v, 1.0, 4.0) for v in g.vertices()]
        order_a = tuple(m for pair in zip(dep, deph) for m in pair)
        order_b = tuple(m for pair in zip(deph, dep) for m in pair)
        out_a = component_fidelities(propagate(NoiseState(graph=g.copy(), maps=order_a), plan))
        out_b = component_fidelities(propagate(NoiseState(graph=g.copy(), maps=order_b), plan))
        assert out_a.keys() == out_b.keys()
        for key in out_a:
            assert out_a[key] == pytest.approx(out_b[key], abs=1e-13)

    def _depolarizing_only(self, state):
        return NoiseState(
            graph=state.graph.copy(),
            maps=tuple(depolarizing_map(state.graph, v, 0.8) for v in state.graph.vertices()),
        )

    def test_reversed_measurement_order_changes_maps(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        forward = bridge_pick_plans(state, limit=1)[0]
        mirrored = _mirror_plan(state, forward)
        fwd = {m.origin: m.weights() for m in propagate(self._depolarizing_only(state), forward).maps}
        rev = {m.origin: m.weights() for m in propagate(self._depolarizing_only(state), mirrored).maps}
        assert any(fwd[q] != rev[q] for q in fwd)

    def test_reversed_order_recovered_by_relabeling(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        forward = bridge_pick_plans(state, limit=1)[0]
        mirrored = _mirror_plan(state, forward)
        phi = _mirror_map(state)
        fwd = {m.origin: m.weights() for m in propagate(self._depolarizing_only(state), forward).maps}
        rev = {m.origin: m.weights() for m in propagate(self._depolarizing_only(state), mirrored).maps}
        for q, w in fwd.items():
            relabeled = {frozenset(phi[v] for v in s): p for s, p in w.items()}
            assert relabeled == rev[phi[q]]


def _mirror_map(state: GtlState) -> dict[int, int]:
    """Graph automorphism reversing the orchestration order of a built GTL."""
    n_o = len(state.orch)
    phi: dict[int, int] = {}
    for i, o in enumerate(state.orch):
        phi[o] = state.orch[n_o - 1 - i]
    for i in range(n_o - 1):
        src = state.bridges[(state.orch[i], state.orch[i + 1])]
        dst = state.bridges[(state.orch[n_o - 2 - i], state.orch[n_o - 1 - i])]
        phi.update(dict(zip(src, dst)))
    for i, o in enumerate(state.orch):
        src = state.leaves[o]
        dst = state.leaves[state.orch[n_o - 1 - i]]
        phi.update(dict(zip(src, dst)))
    return phi


def _mirror_plan(state: GtlState, plan: ResolutionPlan) -> ResolutionPlan:
    phi = _mirror_map(state)
    return ResolutionPlan(
        steps=tuple((phi[o], phi[b]) for o, b in plan.steps),
        isolation=tuple(phi[v] for v in plan.isolation),
        stop_stage=plan.stop_stage,
    )


class TestClosedForms:
    def test_last_orchestrator_map(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = bridge_pick_plans(state, limit=1)[0]
        p = 0.9
        maps = {m.origin: m for m in closed_form_maps(state, plan, p)}
        last = state.orch[-1]
        b0_last = dict(plan.steps)[last]
        assert maps[last].weights() == {
            frozenset(): pytest.approx(p + (1 - p) / 2),
            frozenset({b0_last}): pytest.approx((1 - p) / 2),
        }

    def test_rolled_peer_sees_all_supports(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = bridge_pick_plans(state, limit=1)[0]
        maps = {m.origin: m for m in closed_form_maps(state, plan, 0.9)}
        supports = frozenset(b for _, b in plan.steps)
        # the finally-rolled vertices are the carried leaves of the first
        # orchestration qubit
        for c in state.leaves[state.orch[0]]:
            assert frozenset(supports) in maps[c].weights()

    def test_dropped_bridge_sees_its_support_only(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = bridge_pick_plans(state, limit=1)[0]
        p = 0.7
        maps = {m.origin: m for m in closed_form_maps(state, plan, p)}
        step0_support = plan.steps[0][1]
        dropped = set(state.bridges[(state.orch[0], state.orch[1])]) - {step0_support}
        for c in dropped:
            w = maps[c].weights()
            assert w[frozenset()] == pytest.approx(p + (1 - p) / 4)
            assert w[frozenset({c})] == pytest.approx((1 - p) / 4)
            assert w[frozenset({step0_support})] == pytest.approx((1 - p) / 4)
            assert w[frozenset({c, step0_support})] == pytest.approx((1 - p) / 4)

    @pytest.mark.parametrize("kb", [2, 3])
    @pytest.mark.parametrize("n_o", [1, 2, 3, 4])
    def test_exact_match_with_stepwise(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        plans = bridge_pick_plans(state, limit=3)
        assert len(plans) >= 3
        for plan in plans:
            for p in (0.7, 0.9, 1.0):
                closed = closed_form_maps(state, plan, p)
                start = NoiseState(
                    graph=state.graph.copy(),
                    maps=tuple(depolarizing_map(state.graph, v, p) for v in state.graph.vertices()),
                )
                stepwise = propagate(start, plan).maps
                for cf, sw in zip(closed, stepwise):
                    assert cf.origin == sw.origin
                    assert cf.weights() == sw.weights()

    def test_reversed_plan_accepted(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        forward = bridge_pick_plans(state, limit=1)[0]
        mirrored = _mirror_plan(state, forward)
        closed = closed_form_maps(state, mirrored, 0.9)
        start = NoiseState(
            graph=state.graph.copy(),
            maps=tuple(depolarizing_map(state.graph, v, 0.9) for v in state.graph.vertices()),
        )
        stepwise = propagate(start, mirrored).maps
        for cf, sw in zip(closed, stepwise):
            assert cf.weights() == sw.weights()

    def test_non_canonical_plan_rejected(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        b1 = state.bridges[(0, 1)][0]
        carried = state.leaves[0][0]
        plan = ResolutionPlan(
            steps=((0, b1), (1, carried)), stop_stage=STOP_AFTER_ROLLING
        )
        with pytest.raises(ValueError, match="bridge side"):
            closed_form_maps(state, plan, 0.9)

    def test_partial_plan_rejected(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = ResolutionPlan(steps=((0, state.bridges[(0, 1)][0]),), stop_stage=STOP_AFTER_ROLLING)
        with pytest.raises(ValueError, match="full chain"):
            closed_form_maps(state, plan, 0.9)

    def test_isolation_stage_rejected(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        with pytest.raises(ValueError, match="rolling stage only"):
            closed_form_maps(state, plan, 0.9)

    def test_regime_guard(self):
        state = build_gtl(GtlParams(1, 2, 2))
        plan = ResolutionPlan(steps=(), stop_stage=STOP_AFTER_ROLLING)
        with pytest.raises(ValueError, match="kappa_b_hat >= 2"):
            closed_form_maps(state, plan, 0.9)

    def test_canonical_form_realize(self):
        cf = CanonicalForm.depolarizing(2, 0.6)
        m = cf.realize(frozenset({4, 5}))
        w = m.weights()
        assert w[frozenset()] == pytest.approx(0.7)
        assert w[frozenset({2})] == pytest.approx(0.1)
        assert w[frozenset({4, 5})] == pytest.approx(0.1)
        assert w[frozenset({2, 4, 5})] == pytest.approx(0.1)


class TestRestriction:
    def test_two_map_convolution(self):
        g = Graph.from_edges(2, [(0, 1)])
        maps = [
            NoiseMap.from_weights(1, {frozenset(): 0.9, frozenset({1}): 0.1}),
            NoiseMap.from_weights(1, {frozenset(): 0.8, frozenset({1}): 0.2}),
        ]
        dist = restrict_to_targets(maps, frozenset({0, 1}), g)
        assert dist[frozenset()] == pytest.approx(0.74)
        assert dist[frozenset({1})] == pytest.approx(0.26)

    def test_outside_support_is_identity_marginal(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        maps = [NoiseMap.from_weights(2, {frozenset(): 0.5, frozenset({2, 3}): 0.5})]
        dist = restrict_to_targets(maps, frozenset({0, 1}), g)
        assert dist == {frozenset(): 1.0}

    def test_partial_component_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="component"):
            restrict_to_targets([], frozenset({0, 1}), g)

    def test_closed_form_restriction_matches_dense_reduction(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = bridge_pick_plans(state, limit=1)[0]
        p = 0.9
        maps = closed_form_maps(state, plan, p)

        sim = state.graph.copy()
        dense = dense_graph_state(state.graph, mode="density")
        for m in [depolarizing_map(state.graph, v, p) for v in state.graph.vertices()]:
            dense = apply_channel(dense, m)
        for o, b0 in plan.steps:
            sim, rec = measure_pauli(sim, o, "X", b0)
            dense = measure_with_record(dense, rec)

        comp = next(c for c in sim.components() if plan.steps[0][1] in c)
        dist = restrict_to_targets(maps, comp, sim)
        # spot-check the all-identity mass against the dense diagonal overlap
        reduced = partial_trace(dense, comp)
        f_dense = dense_component_fidelity(dense, sim, comp)
        assert dist[frozenset()] == pytest.approx(f_dense, abs=1e-12)
        assert reduced.data.shape[0] == 2 ** len(comp)


class TestFidelity:
    def test_all_identity_maps(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        ns = propagate(standard_noise(state.graph, 1.0, 0.0), plan)
        for comp in ns.graph.components():
            if len(comp) >= 2:
                assert fidelity(ns, comp) == pytest.approx(1.0)

    def test_monotone_in_depolarizing_parameter(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = default_resolution_plan(state, "bell")
        grid = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7]
        per_pair: dict[str, list[float]] = {}
        for p in grid:
            ns = propagate(standard_noise(state.graph, p, 0.0), plan)
            for rid, f in component_fidelities(ns).items():
                per_pair.setdefault(rid, []).append(f)
        assert len(per_pair) == 3
        for series in per_pair.values():
            assert series[0] == pytest.approx(1.0)
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_matches_oracle_at_p09(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        p = 0.9
        maps = tuple(depolarizing_map(state.graph, v, p) for v in state.graph.vertices())
        ns = propagate(NoiseState(graph=state.graph.copy(), maps=maps), plan)

        dense = dense_graph_state(state.graph, mode="density")
        for m in maps:
            dense = apply_channel(dense, m)
        sim = state.graph.copy()
        for o, b0 in plan.steps:
            sim, rec = measure_pauli(sim, o, "X", b0)
            dense = measure_with_record(dense, rec)
        for v in plan.isolation:
            sim, rec = measure_pauli(sim, v, "Z")
            dense = measure_with_record(dense, rec)
        for comp in sim.components():
            if len(comp) < 2:
                continue
            assert fidelity(ns, comp) == pytest.approx(
                dense_component_fidelity(dense, sim, comp), abs=1e-9
            )

    def test_rejects_single_vertex_target(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        ns = standard_noise(state.graph, 0.9)
        with pytest.raises(ValueError):
            fidelity(ns, frozenset({2}))


def assert_compiled_equals_stepwise(g, plan, points):
    """The compiled plan scores every (p, T, qubit times) point exactly as stepwise propagation.

    Its tables also list, per component, the stepwise maps that touch it, in
    order, each with the same branch supports in the same order.
    """
    compiled = compile_plan(g, plan)
    maps = propagate(standard_noise(g, 0.5, 1.0, 2.0), plan).maps  # no weight is zero here
    for key, terms in compiled.components:
        comp = frozenset(int(v) for v in key.split("-"))
        expected = [
            (None if i % 2 == 0 else m.origin, [sorted(op.support & comp) for _, op in m.branches])
            for i, m in enumerate(maps)
            if any(op.support & comp for _, op in m.branches)
        ]
        assert [
            (source, [sorted(v for v in comp if s >> v & 1) for s, _ in branches])
            for source, branches in terms
        ] == expected
    for p, big_t, times in points:
        stepwise = propagate(standard_noise(g, p, 1.0, big_t, qubit_times_ms=times), plan)
        assert compiled.graph == stepwise.graph
        fast = compiled_fidelities(compiled, p, 1.0, big_t, times)
        assert list(fast.items()) == list(component_fidelities(stepwise).items())


def _raised(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


class TestCompiledPlan:
    # The benchmark's rungs, plus the n_o = 1 case whose plan trims leaves only.
    @pytest.mark.parametrize(
        "kb, n_o, target",
        [(2, 10, "bell"), (3, 20, "bell"), (4, 20, "bell"), (2, 40, "bell"),
         (8, 3, "ghz"), (10, 2, "ghz"), (3, 1, "bell")],
    )
    def test_resolution_plans(self, kb, n_o, target):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        g, plan = state.graph, default_resolution_plan(state, target)
        # Every third qubit waits 0 ms: its dephasing weight q is 0 and the branch is dropped.
        staggered = {v: 0.5 * (v % 3) for v in g.vertices()}
        points = [(p, t, None) for p in (0.0, 0.86, 1.0) for t in (2.0, math.inf)]
        points += [(0.86, 2.0, staggered), (1.0, 2.0, staggered)]
        assert_compiled_equals_stepwise(g, plan, points)

    @pytest.mark.parametrize("kb, n_o", [(2, 2), (3, 2), (2, 3)])
    def test_rolling_only_plans(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        peers = sorted(state.peers)
        plans = bridge_pick_plans(state, limit=3)
        plans += [plan_proximity_reduction(state, peers[0], peers[-1])]
        plans += [plan_proximity_reduction(state, peers[-1], peers[1])]
        points = [(p, 5.0, None) for p in (0.0, 0.86, 1.0)]
        for plan in plans:
            assert_compiled_equals_stepwise(state.graph, plan, points)

    def test_maps_merging_three_branches_over_several_steps(self):
        # After rolling (2, 3), vertices 3 and 7 each lead a star whose
        # removal leaves two pairs standing.  Z-measuring such a vertex and
        # its whole neighborhood folds all four branches of some depolarizing
        # maps onto the identity over several steps, where the merged weight
        # depends on the steps at which the branches met.
        state = build_gtl(GtlParams.specialized(2, 3))
        rolling = bridge_pick_plans(state, limit=1)[0]
        rolled = propagate(standard_noise(state.graph, 0.9), rolling).graph
        points = [(p, 3.0, None) for p in (0.123456, 0.7, 0.86)]
        for v in (3, 7):
            closed = (v, *sorted(rolled.neighbors(v)))
            for isolation in (closed, closed[::-1]):
                plan = ResolutionPlan(steps=rolling.steps, isolation=isolation)
                assert_compiled_equals_stepwise(state.graph, plan, points)
                stepwise = propagate(standard_noise(state.graph, 0.7, 1.0, 3.0), plan)
                assert len(component_fidelities(stepwise)) == 2
                folded = [
                    m for m in stepwise.maps[::2]
                    if state.graph.neighbors(m.origin) and m.weights().keys() == {frozenset()}
                ]
                assert folded

    def test_error_parity_with_stepwise(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        o = state.orch[0]
        far = next(v for v in state.graph.vertices() if v != o and v not in state.graph.neighbors(o))
        isolated = Graph.from_edges(3, [(1, 2)])
        cases = [
            (state.graph, ResolutionPlan(steps=((o, far),))),
            (isolated, ResolutionPlan(steps=((0, 1),))),
            (state.graph, ResolutionPlan(steps=(), isolation=(o, o))),
        ]
        for g, plan in cases:
            message = _raised(lambda: compile_plan(g, plan))
            assert message == _raised(lambda: propagate(standard_noise(g, 0.9), plan))

    @pytest.mark.parametrize(
        "p, t_ms, big_t_ms, times",
        [(1.5, 1.0, 5.0, None), (0.9, -1.0, 5.0, None), (0.9, 1.0, 0.0, None), (0.9, 1.0, 5.0, {3: -2.0}),
         (0.9, 1.0, 5.0, {999: 1.0, 3: -2.0})],
    )
    def test_point_errors_match_standard_noise(self, p, t_ms, big_t_ms, times):
        state = build_gtl(GtlParams.specialized(2, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        message = _raised(lambda: compiled_fidelities(compiled, p, t_ms, big_t_ms, times))
        assert message == _raised(lambda: standard_noise(state.graph, p, t_ms, big_t_ms, times))

    @pytest.mark.parametrize("times", [{999: -1.0}, {3: 2.0, 999: -1.0}, {-4: -1.0, 0: 0.5}])
    def test_off_graph_waits_are_ignored(self, times):
        # standard_noise reads a wait only for a vertex of the graph, so an
        # entry for any other id, even a negative wait, changes nothing.
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        assert_compiled_equals_stepwise(state.graph, plan, [(0.9, 5.0, times), (1.0, math.inf, times)])
