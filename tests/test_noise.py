import math
import random

import numpy as np
import pytest

from entroll.graphstate import Graph, _bits, component_key, measure_pauli
from entroll.gtl import GtlParams, GtlState, build_gtl
from entroll.noise import (
    NoiseMap,
    NoiseState,
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
    score_points,
    standard_noise,
)
from entroll import noise
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
            NoiseMap(origin=0, branches=((0.5, 0),))

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
            ({"origin": 0, "branches": [{"p": 1.0, "support": [-1]}]}, "branches"),
        ],
    )
    def test_malformed_json_field_is_named(self, data, field):
        with pytest.raises(ValueError, match=f"noise map field '{field}'"):
            NoiseMap.from_json(data)

    @pytest.mark.parametrize("support", [-2, True, np.int64(3), frozenset({1})], ids=repr)
    def test_support_must_be_a_nonnegative_int(self, support):
        # A negative mask would send the bit walks of weights() and propagate into an endless loop.
        with pytest.raises(ValueError) as info:
            NoiseMap(0, ((1.0, support),))
        assert str(info.value) == f"branch support {support!r} is not a nonnegative int bitmask"


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

    @pytest.mark.parametrize("p", [0.6, 0.9])
    def test_merged_weights_sum_in_branch_order(self, p):
        # (p + w) + w and p + (w + w) differ in the last bit at these p.
        w = (1 - p) / 4
        assert depolarizing_map(Graph.empty(1), 0, p).branches == (((p + w) + w, 0), (w + w, 1))

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

    @pytest.mark.parametrize("t_ms, big_t_ms", [(math.nan, 5.0), (-1.0, 5.0), (1.0, math.nan)])
    def test_invalid_wait_or_memory_time_raises(self, t_ms, big_t_ms):
        with pytest.raises(ValueError):
            dephasing_probability(t_ms, big_t_ms)


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
            for _, s in m.branches:
                assert set(_bits(s)) <= live

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


class TestUntouchedMaps:
    """A map no measured vertex touches comes out as the rebuild leaves it:
    zero weights dropped and supports sorted; an already sorted one is kept."""

    @staticmethod
    def graph():
        # The path 0-1-2-3 is measured; the edge 4-5 is never touched.
        return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])

    @staticmethod
    def hand_built(g):
        return (
            depolarizing_map(g, 4, 0.8),
            NoiseMap(origin=5, branches=((0.25, 0b110000), (0.75, 0))),
            NoiseMap(origin=4, branches=((0.5, 0), (0.0, 1 << 5), (0.5, 1 << 4))),
            NoiseMap(origin=1, branches=((0.3, 1 << 1), (0.0, 1 << 3), (0.7, 0))),
        )

    @staticmethod
    def rebuilt(maps):
        return tuple(NoiseMap.from_weights(m.origin, m.weights()) for m in maps)

    def test_single_measurement(self):
        g = self.graph()
        maps = self.hand_built(g)
        for basis, support in (("X", 2), ("Y", None), ("Z", None)):
            out = propagate_measurement(NoiseState(graph=g.copy(), maps=maps), 1, basis, support).maps
            ref = propagate_measurement(NoiseState(graph=g.copy(), maps=self.rebuilt(maps)), 1, basis, support).maps
            assert out == ref
            assert out == self.rebuilt(out)
            assert out[0] is maps[0]
            assert out[1].branches == ((0.75, 0), (0.25, 0b110000))
            assert out[2].branches == ((0.5, 0), (0.5, 1 << 4))

    def test_plan(self):
        g = self.graph()
        maps = self.hand_built(g)
        plan = ResolutionPlan(steps=((1, 2),), isolation=(0,))
        assert plan.z_targets
        out = propagate(NoiseState(graph=g.copy(), maps=maps), plan).maps
        assert out == propagate(NoiseState(graph=g.copy(), maps=self.rebuilt(maps)), plan).maps
        assert out == self.rebuilt(out)
        assert out[0] is maps[0]
        assert out[1].branches == ((0.75, 0), (0.25, 0b110000))
        # The measured path's map: Z_1 goes to Z on {2, 3}, and Z_3 is unchanged.
        assert out[3].weights() == {frozenset(): 0.7, frozenset({2, 3}): 0.3}


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

    @pytest.mark.parametrize("p", [0.6, 0.9])
    def test_measured_qubit_sums_in_branch_order(self, p):
        # A measured qubit's image is 0, so its map merges in pairs as an isolated fresh one does.
        state = build_gtl(GtlParams.specialized(2, 3))
        plan = bridge_pick_plans(state, limit=1)[0]
        last = state.orch[-1]
        w = (1 - p) / 4
        maps = {m.origin: m for m in closed_form_maps(state, plan, p)}
        assert maps[last].branches == (((p + w) + w, 0), (w + w, 1 << dict(plan.steps)[last]))

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
        m = noise._depolarizing(2, 0.6, 1 << 2, 0b110000)
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


def assert_scorers_agree(ns):
    """``component_fidelities`` equals ``fidelity`` bit for bit on every multi-qubit component."""
    fids = component_fidelities(ns)
    comps = [c for c in ns.graph.components() if len(c) >= 2]
    assert list(fids) == [component_key(c) for c in comps]
    for comp in comps:
        assert fids[component_key(comp)] == fidelity(ns, comp)


class TestStepwiseScorersAgree:
    @pytest.mark.parametrize("kb, n_o", [(2, 3), (3, 2)])
    def test_rolling_only_plans(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        for plan in rolling_only_plans(state):
            assert_scorers_agree(propagate(standard_noise(state.graph, 0.9, 2.0, 7.0), plan))

    def test_non_canonical_maps(self):
        # components {0, 1, 2} and {3, 4}; 5 is isolated and 6 deleted
        g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4)])
        g.delete_vertex(6)
        maps = (
            # zero-weight branches and supports out of order
            NoiseMap(1, ((0.25, 0b110), (0.0, 0b1), (0.75, 0))),
            NoiseMap(2, ((0.5, 0b100), (0.0, 0), (0.5, 0b10))),
            # touches no multi-qubit component
            NoiseMap(5, ((0.875, 0), (0.125, 0b100000))),
            # touch both components; the zero-weight branch {4} lies in the second only
            NoiseMap(0, ((0.5, 0b11001), (0.5, 0b1), (0.0, 0b10000))),
            NoiseMap(4, ((0.625, 0), (0.375, 0b10100))),
        )
        ns = NoiseState(graph=g, maps=maps)
        assert_scorers_agree(ns)
        assert set(component_fidelities(ns)) == {"0-1-2", "3-4"}

    def test_random_maps(self, rng):
        for _ in range(50):
            n = rng.randint(2, 9)
            g = random_graph(n, rng, density=0.3)
            for v in rng.sample(range(n), rng.randint(0, 2)):
                g.delete_vertex(v)
            maps = []
            for v in g.vertices():
                supports = {
                    sum(1 << u for u in g.vertices() if rng.random() < 0.4) for _ in range(rng.randint(1, 4))
                }
                weights = [rng.choice([0.0, rng.random()]) for _ in supports]
                weights[0] = weights[0] or 1.0
                total = sum(weights)
                maps.append(NoiseMap(v, tuple((w / total, s) for w, s in zip(weights, supports))))
            assert_scorers_agree(NoiseState(graph=g, maps=tuple(maps)))


def compiled_terms(compiled):
    """Each component's terms as (source, law at p = 0.5, t = 1, T = 2), in order.

    A law lists (restricted support as a sorted list, probability) in the
    counting order of its basis, key j reading weight row base + j.
    Every weight at this point is nonzero, and p + w, w, (p + w) + w, w + w,
    1 - q and q are distinct.
    """
    column = noise._weights(compiled, [(0.5, 1.0, 2.0, None)])[:, 0].tolist()
    out = []
    for c, key in enumerate(compiled.components):
        comp = [int(v) for v in key.split("-")]
        terms = []
        chosen = compiled.term_component == c
        for base, bid in zip(compiled.term_row[chosen].tolist(), compiled.term_basis[chosen].tolist()):
            law = [
                ([v for i, v in enumerate(comp) if local >> i & 1], column[base + j])
                for j, local in enumerate(counting_order(compiled.bases[bid]))
            ]
            source = None if base < noise._DEPHASING else compiled.dephasing[(base - noise._DEPHASING) // 3]
            terms.append((source, law))
        out.append(terms)
    return out


def restricted_terms(maps, comp):
    """The (source, branches) maps that touch the vertex set ``comp``, each with its law there.

    A law lists (restricted support as a sorted list, probability), its
    branches merged as _xor_convolve merges them: equal supports summed in
    branch order, each in the place of its first branch.
    """
    comp, terms = sorted(comp), []
    for source, branches in maps:
        law = {}
        for support, prob in branches:
            local = tuple(v for v in comp if support >> v & 1)
            law[local] = law.get(local, 0.0) + prob
        if any(law):
            terms.append((source, [(list(local), prob) for local, prob in law.items()]))
    return terms


def assert_compiled_equals_stepwise(g, plan, points):
    """The compiled plan scores every (p, T, qubit times) point exactly as stepwise propagation.

    Each point is scored alone, and all of them in one batch, whatever
    branches their zero weights drop.  The tables also list, per component,
    the stepwise maps that touch it, in order, each with the same law there
    at p = 0.5, t = 1 and T = 2 (see :func:`compiled_terms`).
    """
    compiled = compile_plan(g, plan)
    stepwise = propagate(standard_noise(g, 0.5, 1.0, 2.0), plan).maps  # no weight is zero here
    maps = [
        (None if i % 2 == 0 else m.origin, [(s, prob) for prob, s in m.branches]) for i, m in enumerate(stepwise)
    ]
    for key, terms in zip(compiled.components, compiled_terms(compiled)):
        assert terms == restricted_terms(maps, {int(v) for v in key.split("-")})
    batch = score_points(compiled, [(p, 1.0, big_t, times) for p, big_t, times in points])
    assert batch.shape == (len(points), len(compiled.components))
    for (p, big_t, times), row in zip(points, batch.tolist()):
        stepwise = propagate(standard_noise(g, p, 1.0, big_t, qubit_times_ms=times), plan)
        assert compiled.graph == stepwise.graph
        expected = list(component_fidelities(stepwise).items())
        assert list(compiled_fidelities(compiled, p, 1.0, big_t, times).items()) == expected
        assert list(zip(compiled.components, row)) == expected


def rolling_only_plans(state):
    """Three bridge-pick plans and two proximity reductions between far peers."""
    peers = sorted(state.peers)
    return bridge_pick_plans(state, limit=3) + [
        plan_proximity_reduction(state, peers[0], peers[-1]),
        plan_proximity_reduction(state, peers[-1], peers[1]),
    ]


def forward_terms(g, plan):
    """The final graph and each final component's terms, by forward image composition.

    Every image is pushed through each X step in turn (Z_a to Z on b0 and
    the old neighborhood of b0 without a, Z_b0 to Z on the new
    neighborhood of b0), the Z stage clears its targets, and each
    standard-noise map at p = 0.5, t = 1 and T = 2 is merged on its final
    supports and restricted to each component with plain masks.  A
    component maps to its terms, in map order, as :func:`restricted_terms`
    lists them.
    """
    images = {v: 1 << v for v in g.vertices()}
    graph = g
    for a, b0 in plan.steps:
        after, _ = measure_pauli(graph, a, "X", b0)
        step = {a: (1 << b0) | (graph.neighbor_mask(b0) & ~(1 << a)), b0: after.neighbor_mask(b0)}
        for v, image in images.items():
            for w, target in step.items():
                if image >> w & 1:
                    images[v] ^= (1 << w) ^ target
        graph = after
    for v in plan.z_targets:
        graph, _ = measure_pauli(graph, v, "Z")
        images = {u: image & ~(1 << v) for u, image in images.items()}
    maps = []
    for i, m in enumerate(standard_noise(g, 0.5, 1.0, 2.0).maps):
        weights = {}
        for prob, s in m.branches:
            support = 0
            for v in _bits(s):
                support ^= images[v]
            weights[support] = weights.get(support, 0.0) + prob
        merged = NoiseMap.from_weights(m.origin, {frozenset(_bits(s)): x for s, x in weights.items()})
        maps.append((None if i % 2 == 0 else m.origin, [(s, prob) for prob, s in merged.branches]))
    terms = {
        component_key(comp): restricted_terms(maps, comp) for comp in graph.components() if len(comp) > 1
    }
    return graph, terms


class TestLargeTermTables:
    # Stepwise propagation is too slow to be the reference at these sizes, so
    # the images are composed forward, one step at a time.
    @pytest.mark.parametrize("kb, n_o", [(2, 80), (2, 160)])
    def test_bell_ladders(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        plan = default_resolution_plan(state, "bell")
        self.check(state.graph, plan)

    @pytest.mark.parametrize("kb, n_o", [(2, 3), (3, 2)])
    def test_rolling_only_plans(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        for plan in rolling_only_plans(state):
            self.check(state.graph, plan)

    def test_largest_component(self):
        # An empty plan on (2, 9) leaves one 29-qubit component, the largest
        # compile_plan takes, whose codes use 60 bits.
        state = build_gtl(GtlParams.specialized(2, 9))
        self.check(state.graph, ResolutionPlan(steps=()))

    @staticmethod
    def check(g, plan):
        compiled = compile_plan(g, plan)
        graph, expected = forward_terms(g, plan)
        assert compiled.graph == graph
        assert list(compiled.components) == list(expected)
        assert compiled_terms(compiled) == list(expected.values())


def reduce_by(key, pivots):
    """``key`` modulo the span of an echelon basis held as top bit -> vector: 0 iff it lies in that span."""
    while key and key.bit_length() in pivots:
        key ^= pivots[key.bit_length()]
    return key


def pruned_key0_mass(laws):
    """Key-0 mass of the XOR convolution of ``laws``, merged (key, probability) lists, summed as
    _xor_convolve sums it, but keeping after each law only the keys in the span of the later laws'
    keys, as only those can still reach key 0."""
    later, pivots = [], {}
    for law in reversed(laws):
        later.append(dict(pivots))
        for key, _ in law:
            if key := reduce_by(key, pivots):
                pivots[key.bit_length()] = key
    dist = {0: 1.0}
    for law, pivots in zip(laws, reversed(later)):
        nxt = {}
        for s0, p0 in dist.items():
            for s1, p1 in law:
                if not reduce_by(s0 ^ s1, pivots):
                    nxt[s0 ^ s1] = nxt.get(s0 ^ s1, 0.0) + p0 * p1
        dist = nxt
    return dist.get(0, 0.0)


def forward_laws(g, plan):
    """Each final component's laws at p = 0.5, t = 1 and T = 2, from :func:`forward_terms`, keyed by bitmask."""
    _, terms = forward_terms(g, plan)
    return {
        key: [[(sum(1 << v for v in support), prob) for support, prob in law] for _, law in component]
        for key, component in terms.items()
    }


class TestPrunedLaws:
    # Checks of the pruned scorer.  On resources they read no compiled table:
    # images are composed forward, then a dict convolution drops the keys
    # that cannot reach key 0.
    def test_pruned_convolution_equals_the_reference(self, rng):
        # The graphs and plans of test_random_graphs: random X steps, then random Z targets.
        for _ in range(400):
            n = rng.randint(2, 9)
            g = random_graph(n, rng, density=rng.choice((0.3, 0.5, 0.8)))
            if n > 2 and rng.random() < 0.3:
                g.delete_vertex(rng.randrange(n))
            walk, steps = g, []
            for _ in range(rng.randrange(n)):
                movable = [v for v in walk.vertices() if walk.neighbors(v)]
                if not movable:
                    break
                a = rng.choice(movable)
                b0 = rng.choice(sorted(walk.neighbors(a)))
                walk, _ = measure_pauli(walk, a, "X", b0)
                steps.append((a, b0))
            left = walk.vertices()
            isolation = tuple(rng.sample(left, rng.randrange(len(left) + 1)))
            plan = ResolutionPlan(steps=tuple(steps), isolation=isolation)
            for laws in forward_laws(g, plan).values():
                assert pruned_key0_mass(laws).hex() == noise._xor_convolve(laws).get(0, 0.0).hex()

    @pytest.mark.parametrize("kb", [16, 24])
    def test_scores_equal_the_pruned_convolution(self, kb):
        # Stepwise propagation would hold 2**kb keys per star.
        state = build_gtl(GtlParams.specialized(kb, 2))
        plan = default_resolution_plan(state, "ghz")
        compiled = compile_plan(state.graph, plan)
        expected = {key: pruned_key0_mass(laws) for key, laws in forward_laws(state.graph, plan).items()}
        row = score_points(compiled, [(0.5, 1.0, 2.0, None)])[0].tolist()
        assert dict(zip(compiled.components, row)) == expected
        assert len(expected) == 2

    def test_tries_whose_children_need_different_keys(self, rng):
        # Made-up term lists on 5-bit keys: each component takes a prefix of
        # an earlier one's terms and then its own, so a trie node's children
        # can need different keys of its law.  The reference convolves the
        # same marginals, read from the weight column, with zero weights dropped.
        points = [(0.86, 1.0, 2.0, {0: 0.0}), (0.7, 1.0, 5.0, None), (1.0, 1.0, 3.0, None)]
        for _ in range(150):
            bases = [tuple(rng.sample(range(1, 32), rng.choice((1, 2)))) for _ in range(6)]
            lists = []
            for _ in range(rng.randint(1, 6)):
                prefix = rng.choice(lists)[: rng.randint(0, 6)] if lists else []
                lists.append(prefix + [rng.randrange(6) for _ in range(rng.randint(0, 4))])
            one = [noise._MERGED, *(noise._DEPHASING + 3 * s for s in range(3))]  # two-slot marginals
            row_of = [rng.choice(one) if len(basis) == 1 else noise._DEPOLARIZING for basis in bases]
            compiled = noise.CompiledPlan(
                graph=Graph.empty(0), qubits=frozenset(range(3)), components=tuple(map(str, range(len(lists)))),
                dephasing=(0, 1, 2), bases=tuple(bases),
                term_component=np.array([k for k, terms in enumerate(lists) for _ in terms], dtype=np.intp),
                term_row=np.array([row_of[b] for terms in lists for b in terms], dtype=np.int64),
                term_basis=np.array([b for terms in lists for b in terms], dtype=np.intp),
            )
            for point, row in zip(points, score_points(compiled, points).tolist()):
                column = noise._weights(compiled, [point])[:, 0].tolist()
                expected = []
                for terms in lists:
                    laws = [
                        [(key, column[row_of[b] + j]) for j, key in enumerate(counting_order(bases[b]))]
                        for b in terms
                    ]
                    laws = [[(key, w) for key, w in law if w != 0.0] for law in laws]
                    expected.append(noise._xor_convolve(laws).get(0, 0.0))
                assert row == expected

    def test_program_holds_only_the_needed_keys(self):
        # Unpruned, the (16, 2) stars' laws would grow to 2**16 keys, and the
        # program's states would hold 6.55 million rows over its steps
        # (1.8 million keys, padded to the widest law).
        state = build_gtl(GtlParams.specialized(16, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "ghz"))
        score_points(compiled, [(0.9, 1.0, 5.0, None)])
        (program,) = compiled.programs.values()
        assert sum(src.shape[1] for src, *_ in program.steps) <= 1000


def _raised(fn) -> str:
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def counting_order(basis):
    """The keys a basis spans, in counting order: key x is the XOR of basis[j] over the set bits j of x."""
    keys = [0]
    for b in basis:
        keys += [k ^ b for k in keys]
    return keys


def replay_transition(keys, marginal):
    """_xor_convolve's visits over keys: each next key, in first-visit order, with its
    (parent index, marginal code) products in visiting order."""
    sums = {}
    for i, key in enumerate(keys):
        for j, m in enumerate(marginal):
            sums.setdefault(key ^ m, []).append((i, noise._CODE_SLOT + j))
    return sums


def independent_vector(rng, within, outside, bits=8):
    """A random vector in span(within) (all of GF(2)^bits if None) outside span(outside)."""
    while True:
        v = rng.randrange(1 << bits) if within is None else rng.choice(counting_order(within))
        if v not in counting_order(outside):
            return v


# Every bench instance, as workloads.py runs it.
BENCH_INSTANCES = [
    (2, 10, "bell"), (3, 20, "bell"), (4, 20, "bell"), (2, 40, "bell"), (3, 6, "bell"), (8, 3, "ghz"),
    (10, 2, "ghz"), (3, 1, "bell"), (3, 1, "ghz"), (2, 2, "bell"), (2, 2, "ghz"), (4, 1, "bell"), (4, 1, "ghz"),
]


def vertex_tuple(mask):
    """A support's sorted vertex tuple, by whose order branches are defined to sort."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class TestSupportOrder:
    def test_precedes_and_sort_follow_sorted_vertex_tuples(self, rng):
        masks = {0, 1, 2, 3, 1 << 64, (1 << 64) | 1, (1 << 70) - 1, (1 << 130) | (1 << 3)}
        for _ in range(300):
            mask = rng.getrandbits(rng.choice((4, 8, 64, 130)))
            masks |= {mask, mask & ((1 << rng.randrange(1, 131)) - 1)}  # with a prefix of it
        masks = sorted(masks, key=vertex_tuple)
        for i, x in enumerate(masks):
            assert not noise._precedes(x, x)
            for y in masks[i + 1 :]:
                assert noise._precedes(x, y) and not noise._precedes(y, x)
        # Pairs with repeated supports, as compile_plan's A, I and I ^ A
        # coincide when A is 0 or I: equal supports keep their given order.
        for _ in range(300):
            pairs = [(rng.choice(masks[:20] + masks[-20:]), j) for j in range(rng.randrange(12))]
            assert noise._by_support(pairs) == sorted(pairs, key=lambda pair: vertex_tuple(pair[0]))
            assert noise._by_support(pairs[::-1]) == sorted(pairs[::-1], key=lambda pair: vertex_tuple(pair[0]))

    def test_first_kinds_follow_the_sort(self, rng):
        # compile_plan's pattern: the kinds of A, I and I ^ A's first two in
        # _by_support order, including A or I zero and A equal to I.
        masks = [0, 1, 2, 3, 1 << 64, (1 << 64) | 1] + [rng.getrandbits(rng.choice((3, 8, 70))) for _ in range(60)]
        for _ in range(2000):
            x, y = rng.choice(masks), rng.choice(masks)
            for a, i in ((x, y), (x, x), (0, y), (x, 0), (0, 0)):
                kinds = tuple(k for _, k in noise._by_support(((a, 1), (i, 2), (i ^ a, 3))))
                assert noise._first_kinds(a, i) == kinds[:2]

    def test_maps_built_from_masks_are_marked_canonical(self):
        m = noise.NoiseMap._from_masks(3, {0b1010: 0.25, 0: 0.5, 0b1000: 0.25, 0b100: 0.0})
        assert m.__dict__["_canonical"] is True
        assert NoiseMap(3, m.branches)._canonical  # the check agrees
        assert noise._apply_images(m, {0: 0b1}) is m
        unsorted = NoiseMap(3, (m.branches[1], m.branches[0], m.branches[2]))
        assert not unsorted._canonical
        assert noise._apply_images(unsorted, {0: 0b1}) == m

    @pytest.mark.parametrize("kb, n_o, target", BENCH_INSTANCES)
    def test_bench_instances_compile_as_stepwise(self, kb, n_o, target):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        points = [(0.86, 2.0, None), (1.0, math.inf, None)]
        assert_compiled_equals_stepwise(state.graph, default_resolution_plan(state, target), points)


class TestTransition:
    def test_closed_form_replays_first_visits(self, rng):
        # Parent bases of up to 6 of 8 bits; marginals of 1 or 2 vectors, of
        # which `overlap` lie in the parent's span: none, some, or all.
        for _ in range(40):
            for s in (1, 2):
                basis = []
                for _ in range(rng.randrange(7)):
                    basis.append(independent_vector(rng, None, basis))
                for overlap in range(min(s, len(basis)) + 1):
                    inside = []
                    for _ in range(overlap):
                        inside.append(independent_vector(rng, basis, inside))
                    m = list(inside)
                    for _ in range(s - overlap):
                        m.append(independent_vector(rng, None, basis + m))
                    rng.shuffle(m)
                    # A needed subspace spanning every next key keeps them all.
                    needed = noise._span((), tuple(basis + m))
                    following, tables = noise._step(tuple(basis), tuple(m), needed)
                    src, code = noise._tables(*tables)
                    sums = replay_transition(counting_order(basis), counting_order(m))
                    assert counting_order(following) == list(sums)
                    assert len(following) == len(basis) + s - overlap
                    assert src.shape == code.shape == (1 << overlap, len(sums))
                    assert [list(zip(*pair)) for pair in zip(src.T.tolist(), code.T.tolist())] == list(sums.values())

    # A marginal's basis must be independent: no zero vector, no repeat.
    @pytest.mark.parametrize("marginal", [(0,), (1, 1), (0, 4), (4, 0), (3, 3)])
    def test_signature_outside_the_invariant_is_refused(self, marginal):
        with pytest.raises(AssertionError):
            noise._step((1, 2), marginal, noise._span((), (1, 2) + marginal))

    @pytest.mark.parametrize("kb, n_o, target", BENCH_INSTANCES)
    def test_bench_signatures_span_two_keys(self, kb, n_o, target):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        compiled = compile_plan(state.graph, default_resolution_plan(state, target))
        assert compiled.bases
        for basis in compiled.bases:
            assert len(basis) in (1, 2) and 0 not in basis and len(set(basis)) == len(basis)


class TestBellLadderFormula:
    # On the default Bell plan, with lambda = exp(-t / T), pair j along the
    # chain has F_j = (1 + p^2 lambda^2 + p^(2 kb + 1 + j) lambda^(j + 1) (1 + lambda^2)) / 4,
    # derived by hand, so this check reads none of the compiled term tables.
    @pytest.mark.parametrize("kb, n_o", [(2, 160), (3, 40), (5, 20), (2, 1)])
    def test_scores_match_the_closed_form(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        assert len(compiled.components) == n_o
        grid = [(p, t, big_t) for p in (0.0, 0.5, 0.9, 1.0) for t in (1.0, 7.0) for big_t in (0.5, 10.0, math.inf)]
        points = [(p, t, big_t, None) for p, t, big_t in grid]
        for (p, t, big_t, _), row in zip(points, score_points(compiled, points).tolist()):
            lam = math.exp(-t / big_t)
            for j, score in enumerate(row):
                expected = (1 + p**2 * lam**2 + p ** (2 * kb + 1 + j) * lam ** (j + 1) * (1 + lam**2)) / 4
                assert abs(score - expected) <= 1e-12, (compiled.components[j], p, t, big_t)


class TestCompiledPlan:
    # The benchmark's rungs, plus the n_o = 1 case whose plan trims leaves only.
    @pytest.mark.parametrize(
        "kb, n_o, target",
        [(2, 10, "bell"), (3, 20, "bell"), (4, 20, "bell"), (2, 40, "bell"),
         (8, 3, "ghz"), (10, 2, "ghz"), (12, 2, "ghz"), (3, 1, "bell")],
    )
    def test_resolution_plans(self, kb, n_o, target):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        g, plan = state.graph, default_resolution_plan(state, target)
        # Every third qubit waits 0 ms: its dephasing weight q is 0 and the branch is dropped.
        staggered = {v: 0.5 * (v % 3) for v in g.vertices()}
        # Only the last qubit waits: at p = 1 one component keeps one term and the others none.
        last = dict.fromkeys(g.vertices(), 0.0) | {max(g.vertices()): 2.0}
        # exp(-1e-20) rounds to 1.0, so at T = 1 the odd qubits' q is exactly 0.0 although they wait.
        tiny = {v: 1e-20 for v in g.vertices() if v % 2}
        # Under each drop pattern (p = 1, T = inf, both) the components keep
        # term lists of different lengths, so they end at different depths.
        points = [(p, t, None) for p in (0.0, 0.86, 1.0) for t in (2.0, math.inf)]
        points += [(0.86, 2.0, staggered), (1.0, 2.0, staggered), (1.0, 2.0, last), (0.86, 1.0, tiny)]
        assert_compiled_equals_stepwise(g, plan, points)

    def test_program_width_does_not_grow_with_the_ladder(self):
        # A step holds the trie nodes of one depth, a handful on a Bell
        # ladder, not one column per component.
        widths = []
        for n_o in (10, 160):
            state = build_gtl(GtlParams.specialized(2, n_o))
            compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
            score_points(compiled, [(0.9, 1.0, 5.0, None)])
            (program,) = compiled.programs.values()
            widths.append(max(src.shape[1] for src, *_ in program.steps))
        assert widths[0] == widths[1]

    @pytest.mark.parametrize("kb, n_o, target", [(2, 10, "bell"), (10, 2, "ghz")])
    def test_padding_reads_a_zero_row_below_every_base(self, rng, kb, n_o, target):
        # A step indexes the weight column directly, its padding reading the
        # row below a term kind's base: that row is 0.0 at any point.
        state = build_gtl(GtlParams.specialized(kb, n_o))
        compiled = compile_plan(state.graph, default_resolution_plan(state, target))
        sources = range(len(compiled.dephasing))
        bases = [noise._DEPOLARIZING, noise._MERGED, *(noise._DEPHASING + 3 * s for s in sources)]
        for _ in range(50):
            waits = {v: rng.choice((0.0, rng.uniform(0.0, 5.0))) for v in state.graph.vertices() if rng.random() < 0.5}
            p = rng.choice((0.0, 1.0, rng.random()))
            big_t = rng.choice((math.inf, rng.uniform(0.1, 10.0)))
            column = noise._weights(compiled, [(p, rng.uniform(0.0, 5.0), big_t, waits or None)])[:, 0].tolist()
            assert len(column) == bases[-1] + 2  # the last triple ends the column
            assert [column[base - 1] for base in bases] == [0.0] * len(bases)

    @pytest.mark.parametrize("kb, n_o", [(2, 2), (3, 2), (2, 3)])
    def test_rolling_only_plans(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        points = [(p, 5.0, None) for p in (0.0, 0.86, 1.0)]
        for plan in rolling_only_plans(state):
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

    def test_random_graphs(self, rng):
        # Random graphs, some with a deleted vertex, under random X steps
        # (each on a vertex with neighbors, supported by one of them) and
        # random Z targets among the vertices left.
        points = [(0.86, 2.0, None), (1.0, 5.0, None), (0.7, math.inf, None)]
        for _ in range(400):
            n = rng.randint(2, 9)
            g = random_graph(n, rng, density=rng.choice((0.3, 0.5, 0.8)))
            if n > 2 and rng.random() < 0.3:
                g.delete_vertex(rng.randrange(n))
            walk, steps = g, []
            for _ in range(rng.randrange(n)):
                movable = [v for v in walk.vertices() if walk.neighbors(v)]
                if not movable:
                    break
                a = rng.choice(movable)
                b0 = rng.choice(sorted(walk.neighbors(a)))
                walk, _ = measure_pauli(walk, a, "X", b0)
                steps.append((a, b0))
            left = walk.vertices()
            plan = ResolutionPlan(steps=tuple(steps), isolation=tuple(rng.sample(left, rng.randrange(len(left) + 1))))
            assert_compiled_equals_stepwise(g, plan, points)

    @pytest.mark.parametrize("measure_lone", [False, True], ids=["kept", "z-measured"])
    def test_isolated_start_vertex(self, measure_lone):
        # A vertex isolated in the start graph never gains an edge, so its
        # maps touch no resource, whether it stays or is Z-measured.
        state = build_gtl(GtlParams.specialized(2, 2))
        g = state.graph.copy()
        lone = g.add_vertex()
        plan = default_resolution_plan(state, "bell")
        if measure_lone:
            plan = ResolutionPlan(steps=plan.steps, isolation=(*plan.isolation, lone))
        waits = {v: 0.5 * (v % 3) for v in g.vertices()}
        points = [(p, t, times) for p in (0.86, 1.0) for t in (2.0, math.inf) for times in (None, waits)]
        assert_compiled_equals_stepwise(g, plan, points)

    def test_error_parity_with_stepwise(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        o = state.orch[0]
        far = next(v for v in state.graph.vertices() if v != o and v not in state.graph.neighbors(o))
        near = min(state.graph.neighbors(o))
        isolated = Graph.from_edges(3, [(1, 2)])
        cases = [
            (state.graph, ResolutionPlan(steps=((o, far),))),
            (isolated, ResolutionPlan(steps=((0, 1),))),
            (state.graph, ResolutionPlan(steps=((o, near),), isolation=(o,))),  # a Z target already measured
        ]
        for g, plan in cases:
            message = _raised(lambda: compile_plan(g, plan))
            assert message == _raised(lambda: propagate(standard_noise(g, 0.9), plan))

    @pytest.mark.parametrize(
        "p, t_ms, big_t_ms, times",
        [(1.5, 1.0, 5.0, None), (0.9, -1.0, 5.0, None), (0.9, 1.0, 0.0, None), (0.9, 1.0, 5.0, {3: -2.0}),
         (0.9, 1.0, 5.0, {999: 1.0, 3: -2.0}),
         # standard_noise raises for the first vertex whose wait or T is bad.
         (0.9, 1.0, 0.0, {3: -2.0}), (0.9, 1.0, 5.0, {5: -1.0, 3: -2.0}),
         (math.nan, 1.0, 5.0, None), (0.9, math.nan, 5.0, None), (0.9, 1.0, math.nan, None),
         (0.9, 1.0, 5.0, {3: math.nan})],
    )
    def test_point_errors_match_standard_noise(self, p, t_ms, big_t_ms, times):
        state = build_gtl(GtlParams.specialized(2, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        message = _raised(lambda: compiled_fidelities(compiled, p, t_ms, big_t_ms, times))
        assert message == _raised(lambda: standard_noise(state.graph, p, t_ms, big_t_ms, times))

    # A batch with two or three bad points, with and without waits, raises
    # the first one's error, as scoring its points one by one would.
    BATCH = {
        "good": (0.9, 1.0, 5.0, None),
        "good waits": (0.95, 1.0, 5.0, {3: 1.0, 6: 0.0}),
        "off-graph id": (0.9, 1.0, 5.0, {999: 1.0}),
        "bad T": (0.9, 1.0, 0.0, None),
        "bad wait": (0.9, 1.0, 5.0, {3: -2.0}),
        "bad t": (0.9, -1.0, 5.0, None),
        "bad p": (1.5, 1.0, 5.0, {3: 1.0}),
    }

    @pytest.mark.parametrize(
        "names",
        [
            ("good", "good waits", "bad T", "bad p"),
            ("good", "off-graph id", "bad T", "bad p"),
            ("good waits", "bad wait", "bad t", "good"),
            ("good waits", "good", "bad t", "bad wait"),
            ("good", "good waits", "bad p", "bad T"),
        ],
    )
    def test_batch_raises_for_its_first_bad_point(self, names):
        state = build_gtl(GtlParams.specialized(2, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        batch = [self.BATCH[name] for name in names]
        first_bad, *later = (point for name, point in zip(names, batch) if not name.startswith("good"))
        message = _raised(lambda: score_points(compiled, batch))
        assert message == _raised(lambda: standard_noise(state.graph, *first_bad))
        for point in later:
            assert message != _raised(lambda: standard_noise(state.graph, *point))

    @pytest.mark.parametrize(
        "times, bad",
        [({999: -1.0}, 999), ({3: 2.0, 999: -1.0}, 999), ({-4: -1.0, 0: 0.5}, -4), ({4000: 5.0, -3: 9.0}, 4000)],
    )
    def test_off_graph_waits_are_refused(self, times, bad):
        # An id that names no qubit is refused by every noise entry point,
        # before any wait is read.
        state = build_gtl(GtlParams.specialized(2, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        message = f"qubit_times_ms names vertex {bad}, which is not a live qubit of the resource"
        for point in [(0.9, 1.0, 5.0, times), (1.0, 1.0, math.inf, times)]:
            assert _raised(lambda: compiled_fidelities(compiled, *point)) == message
            assert _raised(lambda: score_points(compiled, [point])) == message
            assert _raised(lambda: standard_noise(state.graph, *point)) == message

    def test_wait_on_a_deleted_vertex_is_refused(self):
        # Vertex 3 lies below the id of a live qubit but is not one itself.
        g = build_gtl(GtlParams.specialized(2, 2)).graph.copy()
        g.delete_vertex(3)
        compiled = compile_plan(g, ResolutionPlan(steps=()))
        point = (0.9, 1.0, 5.0, {3: 1.0})
        message = "qubit_times_ms names vertex 3, which is not a live qubit of the resource"
        assert _raised(lambda: standard_noise(g, *point)) == message
        assert _raised(lambda: score_points(compiled, [point])) == message

    @pytest.mark.parametrize(
        "point, message",
        [
            ((1.5, -1.0, 0.0, {999: -1.0}), "depolarizing parameter 1.5 outside [0, 1]"),
            (
                (0.9, -1.0, 0.0, {3: -2.0, 999: -1.0}),
                "qubit_times_ms names vertex 999, which is not a live qubit of the resource",
            ),
            ((0.9, 1.0, 0.0, {3: 2.0}), "dephasing time must be positive, got 0.0"),
        ],
        ids=["p", "ids", "waits"],
    )
    def test_checks_run_p_then_ids_then_waits(self, point, message):
        state = build_gtl(GtlParams.specialized(2, 2))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "bell"))
        assert _raised(lambda: compiled_fidelities(compiled, *point)) == message
        assert _raised(lambda: standard_noise(state.graph, *point)) == message

    def test_uniform_wait_unread_when_every_vertex_has_its_own(self):
        # standard_noise reads t_ms only for a vertex without its own wait, so
        # an invalid uniform wait is never evaluated here.
        state = build_gtl(GtlParams.specialized(2, 2))
        g, plan = state.graph, default_resolution_plan(state, "bell")
        times = {v: 0.5 * (v % 3) for v in g.vertices()}
        compiled = compile_plan(g, plan)
        for t_ms in (-1.0, math.nan):
            expected = component_fidelities(propagate(standard_noise(g, 0.9, t_ms, 5.0, times), plan))
            assert compiled_fidelities(compiled, 0.9, t_ms, 5.0, times) == expected
        partial = {v: 1.0 for v in g.vertices()[1:]}
        message = _raised(lambda: compiled_fidelities(compiled, 0.9, -1.0, 5.0, partial))
        assert message == _raised(lambda: standard_noise(g, 0.9, -1.0, 5.0, partial))

    def test_batches_sliced_and_empty(self, monkeypatch):
        state = build_gtl(GtlParams.specialized(8, 3))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "ghz"))
        points = [(p, 1.0, t, None) for p in (0.86, 0.9, 1.0) for t in (2.0, 7.3, math.inf)]
        whole = score_points(compiled, points)
        # A pass holds one point at a time, so every batch is scored in slices.
        monkeypatch.setattr(noise, "_PASS_CELLS", 1)
        assert score_points(compiled, points).tolist() == whole.tolist()
        assert score_points(compiled, []).shape == (0, len(compiled.components))

    @pytest.mark.parametrize("n", [0, 3])
    def test_graph_without_edges(self, n):
        # No vertex has a neighbor: the tables, the weights and the scores are empty.
        assert_compiled_equals_stepwise(Graph.empty(n), ResolutionPlan(steps=()), [(0.9, 5.0, None)])

    def test_component_too_large_to_score(self):
        # An empty plan leaves the whole 32-qubit resource as one component.
        state = build_gtl(GtlParams.specialized(2, 10))
        message = _raised(lambda: compile_plan(state.graph, ResolutionPlan(steps=())))
        assert message == "a component of 32 qubits is too large to score (at most 29)"

    def test_law_above_the_key_bound(self, monkeypatch):
        # Each (8, 3) GHZ star's widest pruned law holds 2**3 keys.
        state = build_gtl(GtlParams.specialized(8, 3))
        compiled = compile_plan(state.graph, default_resolution_plan(state, "ghz"))
        points = [(0.9, 1.0, 5.0, None)]
        monkeypatch.setattr(noise, "_MAX_LAW_KEYS", 8)
        assert score_points(compiled, points).shape == (1, 3)
        compiled.programs.clear()
        monkeypatch.setattr(noise, "_MAX_LAW_KEYS", 7)
        message = _raised(lambda: score_points(compiled, points))
        assert message == f"scoring component {compiled.components[0]} takes 8 keys (at most 7)"
        # At p = 1 and T = inf every branch is dropped: nothing is left to score.
        assert score_points(compiled, [(1.0, 1.0, math.inf, None)]).tolist() == [[1.0] * 3]

    def test_plan_extracting_no_resource(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        rolling = bridge_pick_plans(state, limit=1)[0]
        rolled = propagate(standard_noise(state.graph, 0.9), rolling).graph
        plan = ResolutionPlan(steps=rolling.steps, isolation=rolled.vertices()[1:])
        compiled = compile_plan(state.graph, plan)
        assert compiled.components == ()
        assert score_points(compiled, [(0.9, 1.0, 5.0, None), (1.0, 1.0, math.inf, None)]).shape == (2, 0)
        assert_compiled_equals_stepwise(state.graph, plan, [(0.9, 5.0, None)])
