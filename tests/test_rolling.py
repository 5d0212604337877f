import hashlib
import json
import random
from collections import Counter

import pytest

from entroll.graphstate import Graph, gf2_rank
from entroll.gtl import GtlParams, GtlState, bridge_neighborhoods, build_gtl, peer_proximity
from entroll.rolling import (
    STOP_AFTER_ROLLING,
    ResolutionPlan,
    _execute,
    bridge_pick_plans,
    centralized_resolution,
    default_resolution_plan,
    isolate_ghz,
    isolate_max_bell,
    plan_proximity_reduction,
    resolve,
    rolling_step,
    schmidt_upper_bound,
)


def measurement_counts(outcome):
    return Counter(rec.basis for rec in outcome.records)


class TestRollingStep:
    def test_support_becomes_star_center(self):
        state = build_gtl(GtlParams(2, 4, 2))
        _, right = bridge_neighborhoods(state, 0)
        b0 = min(right)
        nbrs = state.graph.neighbors(0)
        out = rolling_step(state, 0, b0)
        g = out.graph
        assert g.neighbors(b0) == nbrs - {b0}
        leaves = nbrs - {b0}
        assert not any(g.has_edge(u, w) for u in leaves for w in leaves if u < w)

    def test_rolled_set_reaches_next_orchestration(self):
        state = build_gtl(GtlParams(2, 4, 2))
        _, right = bridge_neighborhoods(state, 0)
        out = rolling_step(state, 0, min(right))
        assert out.rolled_set == frozenset(state.leaves[0])
        assert all(out.graph.has_edge(v, 1) for v in out.rolled_set)

    def test_non_support_bridges_drop_to_support_only(self):
        state = build_gtl(GtlParams(2, 4, 2))
        _, right = bridge_neighborhoods(state, 0)
        b0, other = sorted(right)
        out = rolling_step(state, 0, b0)
        assert out.graph.neighbors(other) == {b0}

    def test_single_orchestrator_gives_full_star(self):
        state = build_gtl(GtlParams(3, 6, 1))
        b0 = min(state.graph.neighbors(0))
        out = rolling_step(state, 0, b0)
        assert out.stars == ((b0, tuple(sorted(state.peers - {b0}))),)

    def test_left_variant_mirrors_right(self):
        state = build_gtl(GtlParams(2, 4, 3))
        left, _ = bridge_neighborhoods(state, 2)
        b0 = min(left)
        nbrs = state.graph.neighbors(2)
        out = rolling_step(state, 2, b0)
        g = out.graph
        assert g.neighbors(b0) == nbrs - {b0}
        assert out.rolled_set == nbrs - left
        assert all(g.has_edge(v, 1) for v in out.rolled_set)
        for v in left - {b0}:
            assert g.neighbors(v) == {b0}

    def test_invalid_support_rejected(self):
        state = build_gtl(GtlParams(2, 4, 2))
        leaf_of_other = state.leaves[1][0]
        with pytest.raises(ValueError):
            rolling_step(state, 0, leaf_of_other)

    def test_step_postconditions_randomized(self):
        rng = random.Random(99)
        for _ in range(150):
            kb = rng.randint(1, 4)
            n_o = rng.randint(2, 6)
            kc = 2 * kb + rng.choice((0, 1, 2))
            state = build_gtl(GtlParams(kb, kc, n_o))
            i = rng.randrange(n_o)
            o = state.orch[i]
            left, right = bridge_neighborhoods(state, o)
            side = rng.choice([s for s in (left, right) if s])
            b0 = rng.choice(sorted(side))
            nbrs = state.graph.neighbors(o)
            g = rolling_step(state, o, b0).graph
            assert g.neighbors(b0) == nbrs - {b0}
            rest = nbrs - {b0}
            assert not any(g.has_edge(u, w) for u in rest for w in rest if u < w)
            towards = i + 1 if side == right else i - 1
            nxt = state.orch[towards]
            assert all(g.has_edge(v, nxt) for v in nbrs - side)
            for v in side - {b0}:
                assert g.neighbors(v) == {b0}


class TestProximityReduction:
    def test_same_orchestrator_single_step(self):
        state = build_gtl(GtlParams(2, 4, 2))
        c_i, c_j = state.leaves[0][0], state.leaves[0][1]
        plan = plan_proximity_reduction(state, c_i, c_j)
        assert len(plan.steps) == 1 == peer_proximity(state, c_i, c_j)
        out = resolve(state, plan)
        assert out.graph.has_edge(c_i, c_j)

    @pytest.mark.parametrize("n_o,expected_pi", [(2, 2), (3, 3)])
    def test_cross_chain(self, n_o, expected_pi):
        state = build_gtl(GtlParams(2, 4, n_o))
        c_i = state.leaves[0][0]
        c_j = state.leaves[state.orch[-1]][0]
        assert peer_proximity(state, c_i, c_j) == expected_pi
        plan = plan_proximity_reduction(state, c_i, c_j)
        assert len(plan.steps) == expected_pi
        out = resolve(state, plan)
        assert out.graph.has_edge(c_i, c_j)

    def test_proximity_drops_by_one_per_step(self):
        state = build_gtl(GtlParams(2, 4, 3))
        c_i = state.leaves[0][0]
        c_j = state.leaves[state.orch[-1]][0]
        plan = plan_proximity_reduction(state, c_i, c_j)
        pi = peer_proximity(state, c_i, c_j)
        current = state
        for step in plan.steps[:-1]:
            out = resolve(current, ResolutionPlan(steps=(step,), stop_stage=STOP_AFTER_ROLLING))
            current = type(state)(
                graph=out.graph,
                orch=state.orch,
                peers=state.peers,
                params=state.params,
            )
            pi_next = peer_proximity(current, c_i, c_j)
            assert pi_next == pi - 1
            pi = pi_next

    def test_rejects_same_vertex(self):
        state = build_gtl(GtlParams(2, 4, 2))
        with pytest.raises(ValueError):
            plan_proximity_reduction(state, state.leaves[0][0], state.leaves[0][0])

    def test_far_peer_off_the_last_step_is_refused(self):
        # On the path 0-1-2-3 with peer-peer edge 2-3 the last orchestration
        # qubit, 1, is not adjacent to the far peer 3 its step would take.
        state = GtlState(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), (1,), frozenset({0, 2, 3}))
        with pytest.raises(ValueError, match=r"^support 3 is not a neighbor of 1$"):
            plan_proximity_reduction(state, 0, 3)


class TestBellExtraction:
    def test_three_pairs_from_three_orchestrators(self):
        state = build_gtl(GtlParams(2, 4, 3))
        out = isolate_max_bell(state)
        assert len(out.pairs) == 3
        assert len(out.components) == len(out.pairs)
        counts = measurement_counts(out)
        assert counts["X"] == 3 and counts["Z"] == 2

    def test_ghz_then_bell_counts_for_kb3(self):
        state = build_gtl(GtlParams(3, 6, 2))
        stage1 = isolate_ghz(state)
        assert len(stage1.stars) == 2
        assert all(len(leaves) + 1 == 3 for _, leaves in stage1.stars)
        out = isolate_max_bell(state)
        counts = measurement_counts(out)
        assert counts["X"] == 2 and counts["Z"] == 3 + 2 * 1
        assert len(out.pairs) == 2

    def test_single_orchestrator_pair(self):
        state = build_gtl(GtlParams(2, 4, 1))
        out = isolate_max_bell(state)
        counts = measurement_counts(out)
        assert counts["X"] == 1 and counts["Z"] == 2
        assert len(out.pairs) == 1

    @pytest.mark.parametrize("kb", [2, 3, 4])
    @pytest.mark.parametrize("n_o", [1, 2, 3, 4, 5])
    def test_counts_match_formula(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        out = isolate_max_bell(state)
        counts = measurement_counts(out)
        assert len(out.pairs) == n_o
        assert counts["X"] == n_o
        assert counts["Z"] == kb + n_o * (kb - 2)
        assert all(len(c) == 2 for c in out.components)

    def test_pair_count_attains_schmidt_bound(self):
        for kb, n_o in ((2, 1), (2, 4), (3, 3), (4, 2)):
            state = build_gtl(GtlParams.specialized(kb, n_o))
            assert len(isolate_max_bell(state).pairs) == schmidt_upper_bound(state)

    def test_regime_guard(self):
        with pytest.raises(ValueError, match="specialized"):
            isolate_max_bell(build_gtl(GtlParams(2, 5, 2)))
        with pytest.raises(ValueError, match="specialized"):
            isolate_max_bell(build_gtl(GtlParams(1, 2, 3)))


class TestGhzExtraction:
    def test_four_three_qubit_stars(self):
        state = build_gtl(GtlParams(3, 6, 4))
        out = isolate_ghz(state)
        assert len(out.stars) == 4
        assert all(len(leaves) == 2 for _, leaves in out.stars)
        assert len(out.components) == 4

    def test_kb2_stars_are_pairs(self):
        state = build_gtl(GtlParams(2, 4, 3))
        out = isolate_ghz(state)
        assert len(out.pairs) == 3
        assert out.stars == ()

    def test_two_four_qubit_stars(self):
        state = build_gtl(GtlParams(4, 8, 2))
        out = isolate_ghz(state)
        assert len(out.stars) == 2
        assert all(len(leaves) + 1 == 4 for _, leaves in out.stars)

    def test_single_orchestrator_star_size(self):
        state = build_gtl(GtlParams(3, 6, 1))
        out = isolate_ghz(state)
        assert len(out.stars) == 1
        center, leaves = out.stars[0]
        assert len(leaves) + 1 == 3


class TestCentralized:
    def test_z_isolates_every_peer(self):
        state = build_gtl(GtlParams(2, 4, 2))
        out = centralized_resolution(state, "Z")
        assert all(len(c) == 1 for c in out.components)
        assert len(out.components) == len(state.peers)

    def test_y_on_chain_reports_components(self):
        state = build_gtl(GtlParams(1, 2, 3))
        out = centralized_resolution(state, "Y")
        assert sum(len(c) for c in out.components) == len(state.peers)
        assert len(out.records) == 3

    @pytest.mark.parametrize("kb,kc,n_o", [(1, 2, 3), (2, 4, 2)])
    def test_y_outcome_matches_dense_oracle(self, kb, kc, n_o):
        from entroll.oracle import dense_graph_state, measure_with_record, vectors_equal_up_to_phase

        state = build_gtl(GtlParams(kb, kc, n_o))
        out = centralized_resolution(state, "Y")
        dense = dense_graph_state(state.graph)
        for rec in out.records:
            dense = measure_with_record(dense, rec)
        target = dense_graph_state(out.graph)
        assert vectors_equal_up_to_phase(dense.data, target.data, tol=1e-10)

    def test_basis_guard(self):
        state = build_gtl(GtlParams(2, 4, 2))
        with pytest.raises(ValueError):
            centralized_resolution(state, "X")


class TestSchmidtBound:
    def test_examples(self):
        assert schmidt_upper_bound(build_gtl(GtlParams(2, 4, 3))) == 3
        single_edge = build_gtl(GtlParams(1, 2, 1))
        # kappa_c = 2 leaves on one orchestrator: a path of 3, rank 2
        assert schmidt_upper_bound(single_edge) == 1

    def test_matches_rank(self):
        for kb, n_o in ((1, 3), (2, 2), (3, 4)):
            state = build_gtl(GtlParams.specialized(kb, n_o))
            assert schmidt_upper_bound(state) == gf2_rank(state.graph) // 2


class TestOutcomeStateEquivalence:
    """Replaying the recorded measurements on the dense simulator lands on
    the graph state of the outcome graph (instances with n <= 8)."""

    @pytest.mark.parametrize("kb,n_o,target", [(2, 1, "bell"), (2, 2, "bell"), (3, 1, "ghz")])
    def test_full_resolution_records(self, kb, n_o, target):
        from entroll.oracle import dense_graph_state, measure_with_record, vectors_equal_up_to_phase

        state = build_gtl(GtlParams.specialized(kb, n_o))
        assert state.graph.n <= 8
        out = isolate_max_bell(state) if target == "bell" else isolate_ghz(state)
        dense = dense_graph_state(state.graph)
        for rec in out.records:
            dense = measure_with_record(dense, rec)
        target_state = dense_graph_state(out.graph)
        assert vectors_equal_up_to_phase(dense.data, target_state.data, tol=1e-10)

    def test_sampled_outcomes_replay(self):
        import random

        from entroll.graphstate import measure_pauli
        from entroll.oracle import dense_graph_state, measure_with_record, vectors_equal_up_to_phase

        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        rng = random.Random(13)
        g = state.graph.copy()
        dense = dense_graph_state(state.graph)
        for o, b0 in plan.steps:
            g, rec = measure_pauli(g, o, "X", b0, rng=rng)
            dense = measure_with_record(dense, rec)
        for v in plan.isolation:
            g, rec = measure_pauli(g, v, "Z", rng=rng)
            dense = measure_with_record(dense, rec)
        assert vectors_equal_up_to_phase(dense.data, dense_graph_state(g).data, tol=1e-10)


class TestPlans:
    def test_json_round_trip(self):
        state = build_gtl(GtlParams(2, 4, 2))
        plan = default_resolution_plan(state, "bell")
        back = ResolutionPlan.from_json(json.loads(plan.dumps()))
        assert back == plan

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"steps": 5}, "steps"),
            ({"steps": [[0, 1, 2]]}, "steps"),
            ({}, "steps"),
            ({"steps": [], "isolation": None}, "isolation"),
            ({"steps": [], "isolation": ["a"]}, "isolation"),
        ],
    )
    def test_malformed_json_field_is_named(self, data, field):
        with pytest.raises(ValueError, match=f"plan field '{field}'"):
            ResolutionPlan.from_json(data)

    def test_duplicate_step_rejected(self):
        with pytest.raises(ValueError):
            ResolutionPlan(steps=((0, 2), (0, 3)))

    def test_unknown_stop_stage_rejected(self):
        with pytest.raises(ValueError):
            ResolutionPlan(steps=(), stop_stage="later")

    def test_z_targets_follow_the_stop_stage(self):
        assert ResolutionPlan(steps=(), isolation=(3, 5)).z_targets == (3, 5)
        rolling_only = ResolutionPlan(steps=(), isolation=(3, 5), stop_stage=STOP_AFTER_ROLLING)
        assert rolling_only.z_targets == ()
        state = build_gtl(GtlParams(2, 4, 2))
        assert resolve(state, rolling_only).graph == state.graph

    def test_stale_support_rejected_at_execution(self):
        state = build_gtl(GtlParams(2, 4, 2))
        b1, b2 = state.bridges[(0, 1)]
        # after measuring o_0 with support b1, b2 hangs off b1 and is no
        # longer adjacent to o_1
        plan = ResolutionPlan(steps=((0, b1), (1, b2)), stop_stage=STOP_AFTER_ROLLING)
        with pytest.raises(ValueError, match="not a neighbor"):
            resolve(state, plan)

    def test_bridge_pick_plans_distinct(self):
        state = build_gtl(GtlParams.specialized(2, 3))
        plans = bridge_pick_plans(state, limit=3)
        assert len(plans) == 3
        assert len({p.steps for p in plans}) == 3

    def test_empty_side_is_refused_alike_by_both_planners(self):
        # Both bridges of pair (0, 1) cut from orchestration qubit 1: the
        # first step shares no neighbor with the next, so its side is empty.
        state = build_gtl(GtlParams.specialized(2, 2))
        g = state.graph.copy()
        for b in state.bridges[0, 1]:
            g.remove_edge(1, b)
        cut = GtlState(g, state.orch, state.peers, state.params)
        message = "no admissible support for 0; not a rollable GTL state"
        for planner in (lambda: default_resolution_plan(cut, "bell"), lambda: bridge_pick_plans(cut)):
            with pytest.raises(ValueError) as info:
                planner()
            assert str(info.value) == message

    def test_hybrid_stop_leaves_orchestrators(self):
        state = build_gtl(GtlParams(2, 4, 3))
        _, right = bridge_neighborhoods(state, 0)
        plan = ResolutionPlan(steps=((0, min(right)),), stop_stage=STOP_AFTER_ROLLING)
        out = resolve(state, plan)
        live = set(out.graph.vertices())
        assert {1, 2} <= live
        assert any(v in live for v in state.orch)

    # Plans of the chain stepper on three instances, as literal steps: the
    # default plans' steps and isolation targets, the bridge-pick plans, and
    # proximity plans between the named peers.
    @pytest.mark.parametrize(
        "kb, n_o, steps, bell_isolation, ghz_isolation, picks, proximity",
        [
            (
                2, 1, ((0, 1),), (3, 4), (3, 4),
                [((0, 1),), ((0, 2),), ((0, 3),)],
                {(1, 4): ((0, 4),), (4, 2): ((0, 2),)},
            ),
            (
                2, 3, ((0, 3), (1, 7), (2, 9)), (5, 6), (5, 6),
                [((0, 3), (1, 7), (2, 9)), ((0, 4), (1, 8), (2, 10)), ((0, 3), (1, 8), (2, 9))],
                {
                    (3, 10): ((1, 7), (2, 10)),
                    (5, 10): ((0, 3), (1, 7), (2, 10)),
                    (10, 4): ((2, 7), (1, 4)),
                },
            ),
            (
                3, 2, ((0, 2), (1, 8)), (5, 6, 7, 4, 10), (5, 6, 7),
                [((0, 2), (1, 8)), ((0, 3), (1, 9)), ((0, 4), (1, 10))],
                {(2, 10): ((1, 10),), (5, 10): ((0, 2), (1, 10)), (10, 3): ((1, 3),)},
            ),
        ],
    )
    def test_stepper_plans_are_pinned(
        self, kb, n_o, steps, bell_isolation, ghz_isolation, picks, proximity
    ):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        assert default_resolution_plan(state, "bell") == ResolutionPlan(steps, bell_isolation)
        assert default_resolution_plan(state, "ghz") == ResolutionPlan(steps, ghz_isolation)
        assert bridge_pick_plans(state, limit=3) == [
            ResolutionPlan(s, stop_stage=STOP_AFTER_ROLLING) for s in picks
        ]
        for (c_i, c_j), expected in proximity.items():
            plan = plan_proximity_reduction(state, c_i, c_j)
            assert plan == ResolutionPlan(expected, stop_stage=STOP_AFTER_ROLLING)


# sha256 (first 16 hex digits) of the bridges, leaves, pairs, stars and the
# nonsupport of every step of the default plan, pinned so that how they are
# derived cannot change their values: the bench rungs, then the widest Bell
# and GHZ rungs of the CI pins.
DERIVED_DIGESTS = {
    (2, 10, "bell"): "0e4236f8c88939d8",
    (3, 20, "bell"): "a37c0aa4f0cff633",
    (4, 20, "bell"): "327f167ef7ce842e",
    (2, 40, "bell"): "04115a344687f8bb",
    (3, 6, "bell"): "6b220d34dd2c1805",
    (8, 3, "ghz"): "e501d127bd3005a8",
    (10, 2, "ghz"): "7247d7b039edcc4e",
    (3, 1, "bell"): "05e0ef945e8c5da3",
    (3, 1, "ghz"): "37a91545267ee3dc",
    (2, 2, "bell"): "9daa1aa574ff905e",
    (2, 2, "ghz"): "9daa1aa574ff905e",
    (4, 1, "bell"): "13d7bead85742e74",
    (4, 1, "ghz"): "eb737f30fde8c41a",
    (2, 160, "bell"): "13b3cb650b279229",
    (16, 2, "ghz"): "751f6a953aff7c0c",
}


@pytest.mark.parametrize("kb, n_o, target", list(DERIVED_DIGESTS))
def test_derived_facts_keep_their_values(kb, n_o, target):
    state = build_gtl(GtlParams.specialized(kb, n_o))
    plan = default_resolution_plan(state, target)
    out = resolve(state, plan)
    facts = {
        "bridges": [[*pair, *ids] for pair, ids in state.bridges.items()],
        "leaves": [[o, *ids] for o, ids in state.leaves.items()],
        "pairs": out.pairs,
        "stars": out.stars,
        "nonsupport": [t.nonsupport for t in _execute(state, plan)[2]],
    }
    digest = hashlib.sha256(json.dumps(facts).encode()).hexdigest()[:16]
    assert digest == DERIVED_DIGESTS[kb, n_o, target]
