import dataclasses
import json

import pytest

from entroll.graphstate import gf2_rank
from entroll.gtl import (
    GtlParams,
    OrchestrationProfile,
    PeerProfile,
    bridge_neighborhoods,
    build_gtl,
    gtl_from_json,
    gtl_to_json,
    peer_proximity,
    structure_profile,
    structure_profiles,
    validate_gtl,
)


class TestParams:
    def test_counting_formula(self):
        p = GtlParams(2, 4, 2)
        assert p.kappa == 6
        assert p.n_qubits == 8

    def test_specialized_flag(self):
        assert GtlParams(2, 4, 3).is_specialized
        assert not GtlParams(2, 5, 3).is_specialized

    def test_rejects_small_peer_degree(self):
        with pytest.raises(ValueError):
            GtlParams(3, 5, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GtlParams(0, 2, 1)


class TestBuild:
    def test_chain_instance(self):
        # kappa_b=1, kappa_c=2 gives the 1D chain graph.
        state = build_gtl(GtlParams(1, 2, 3))
        g = state.graph
        assert g.n == 7
        assert len(state.peers) == 4
        degrees = sorted(g.degree(v) for v in g.vertices())
        assert degrees == [1, 1, 2, 2, 2, 2, 2]
        assert len(g.components()) == 1

    def test_two_pair_instance(self):
        state = build_gtl(GtlParams(2, 4, 2))
        assert state.graph.n == 8
        assert len(state.peers) == 6
        assert list(state.bridges) == [(0, 1)]
        assert len(state.bridges[(0, 1)]) == 2

    def test_single_star(self):
        state = build_gtl(GtlParams(3, 6, 1))
        assert state.bridges == {}
        assert state.graph.degree(state.orch[0]) == 6
        assert all(state.graph.degree(c) == 1 for c in state.peers)

    def test_layout_is_deterministic(self):
        a = build_gtl(GtlParams(2, 5, 3))
        b = build_gtl(GtlParams(2, 5, 3))
        assert a.graph == b.graph
        assert a.orch == b.orch == (0, 1, 2)
        # bridges come before leaves inside each orchestration group
        assert a.bridges[(0, 1)] == (3, 4)
        assert a.leaves[0] == (5, 6, 7)


class TestValidate:
    @pytest.mark.parametrize("kb", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_o", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_round_trip(self, kb, n_o, extra):
        params = GtlParams(kb, 2 * kb + extra, n_o)
        state = build_gtl(params)
        result = validate_gtl(state.graph, state.orch, state.peers)
        assert result.ok
        assert result.params.kappa_c == params.kappa_c
        assert result.params.n_o == params.n_o
        if n_o >= 2:
            # With a single orchestration qubit there are no bridges, so
            # kappa_b_hat is not recoverable from the graph.
            assert result.params == params

    def test_missing_bridge_edge_is_c3_violation(self):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        bridge = state.bridges[(0, 1)][0]
        g.remove_edge(1, bridge)
        result = validate_gtl(g, state.orch, state.peers)
        assert not result.ok
        constraints = {v.constraint for v in result.violations}
        assert "C3" in constraints

    def test_peer_peer_edge_is_two_color_violation(self):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        peers = sorted(state.peers)
        g.add_edge(peers[0], peers[1])
        result = validate_gtl(g, state.orch, state.peers)
        assert any(v.constraint == "two-colorable" for v in result.violations)

    def test_irregular_peer_degree_is_c1_violation(self):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        leaf = state.leaves[0][0]
        g.remove_edge(0, leaf)
        result = validate_gtl(g, state.orch, frozenset(state.peers))
        assert any(v.constraint == "C1" for v in result.violations)

    def test_reports_all_violations(self):
        state = build_gtl(GtlParams(2, 4, 3))
        g = state.graph.copy()
        peers = sorted(state.peers)
        g.add_edge(peers[0], peers[1])
        g.remove_edge(1, state.bridges[(1, 2)][0])
        result = validate_gtl(g, state.orch, state.peers)
        constraints = {v.constraint for v in result.violations}
        assert {"two-colorable", "C3"} <= constraints | {"C1"}
        assert len(result.violations) >= 2

    def test_partition_mismatch(self):
        state = build_gtl(GtlParams(2, 4, 1))
        result = validate_gtl(state.graph, state.orch, frozenset(sorted(state.peers)[:-1]))
        assert any(v.constraint == "partition" for v in result.violations)


class TestProfiles:
    def test_leaf_peer(self):
        state = build_gtl(GtlParams(2, 4, 2))
        leaf = state.leaves[0][0]
        profile = structure_profile(state, leaf)
        assert profile == PeerProfile(rank=1, is_bridge=False)

    def test_bridge_peer(self):
        state = build_gtl(GtlParams(2, 4, 2))
        bridge = state.bridges[(0, 1)][0]
        assert structure_profile(state, bridge) == PeerProfile(rank=2, is_bridge=True)

    def test_interior_orchestration(self):
        state = build_gtl(GtlParams(2, 4, 3))
        assert structure_profile(state, 1) == OrchestrationProfile(peer_degree=4, bridge_degree=4)

    def test_boundary_orchestration(self):
        state = build_gtl(GtlParams(2, 4, 3))
        assert structure_profile(state, 0) == OrchestrationProfile(peer_degree=4, bridge_degree=2)

    @pytest.mark.parametrize("kb,n_o", [(1, 2), (2, 3), (3, 4), (4, 6)])
    def test_bridge_degree_sum(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        total = sum(structure_profile(state, o).bridge_degree for o in state.orch)
        assert total == 2 * (n_o - 1) * kb

    @pytest.mark.parametrize("kb,n_o", [(1, 2), (2, 3), (3, 4), (2, 40)])
    def test_all_profiles_equal_single_profiles(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        state.graph.delete_vertex(state.orch[0])
        profiles = structure_profiles(state)
        assert tuple(profiles) == state.graph.vertices()
        assert profiles == {v: structure_profile(state, v) for v in state.graph.vertices()}

    def test_dead_peer_fails_only_orchestration_profiles(self):
        state = build_gtl(GtlParams(2, 4, 2))
        leaf = state.leaves[0][0]
        state.graph.delete_vertex(leaf)
        assert structure_profile(state, state.leaves[1][0]) == PeerProfile(rank=1, is_bridge=False)
        for call in (lambda: structure_profile(state, 0), lambda: structure_profiles(state)):
            with pytest.raises(ValueError, match=f"unknown or deleted vertex {leaf}"):
                call()


class TestBridgeNeighborhoods:
    def test_left_boundary(self):
        state = build_gtl(GtlParams(2, 4, 2))
        left, right = bridge_neighborhoods(state, 0)
        assert left == frozenset()
        assert right == frozenset(state.bridges[(0, 1)])

    def test_right_boundary(self):
        state = build_gtl(GtlParams(2, 4, 2))
        left, right = bridge_neighborhoods(state, 1)
        assert len(left) == 2
        assert right == frozenset()

    def test_interior_disjoint(self):
        state = build_gtl(GtlParams(2, 4, 3))
        left, right = bridge_neighborhoods(state, 1)
        assert len(left) == len(right) == 2
        assert not left & right

    def test_rejects_peer(self):
        state = build_gtl(GtlParams(2, 4, 2))
        with pytest.raises(ValueError):
            bridge_neighborhoods(state, sorted(state.peers)[0])


class TestPeerProximity:
    def test_same_orchestration_leaves(self):
        state = build_gtl(GtlParams(2, 4, 2))
        l1, l2 = state.leaves[0][:2]
        assert peer_proximity(state, l1, l2) == 1

    def test_adjacent_orchestration_leaves(self):
        state = build_gtl(GtlParams(2, 4, 2))
        assert peer_proximity(state, state.leaves[0][0], state.leaves[1][0]) == 2

    def test_distance_three(self):
        state = build_gtl(GtlParams(2, 4, 3))
        assert peer_proximity(state, state.leaves[0][0], state.leaves[2][0]) == 3

    def test_symmetry_and_bound(self):
        state = build_gtl(GtlParams.specialized(2, 4))
        peers = sorted(state.peers)
        for i in range(0, len(peers), 3):
            for j in range(1, len(peers), 4):
                if peers[i] == peers[j]:
                    continue
                pi = peer_proximity(state, peers[i], peers[j])
                assert pi == peer_proximity(state, peers[j], peers[i])
                assert pi <= state.params.n_o

    def test_identical_peers_rejected(self):
        state = build_gtl(GtlParams(2, 4, 2))
        leaf = state.leaves[0][0]
        with pytest.raises(ValueError):
            peer_proximity(state, leaf, leaf)

    def test_disconnected_pair_rejected(self):
        state = build_gtl(GtlParams(2, 4, 2))
        g = state.graph.copy()
        leaf = state.leaves[0][0]
        g.remove_edge(0, leaf)
        broken = type(state)(
            graph=g,
            orch=state.orch,
            peers=state.peers,
            params=state.params,
        )
        with pytest.raises(ValueError, match="disconnected"):
            peer_proximity(broken, leaf, state.leaves[1][0])


@pytest.mark.parametrize("kb,n_o", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 5)])
def test_rank_is_twice_the_orchestration_count(kb, n_o):
    state = build_gtl(GtlParams.specialized(kb, n_o))
    assert gf2_rank(state.graph) == 2 * n_o


def test_state_json_round_trip():
    state = build_gtl(GtlParams(2, 5, 3))
    data = json.loads(json.dumps(gtl_to_json(state)))
    back = gtl_from_json(data)
    assert back.graph == state.graph
    assert back.orch == state.orch
    assert back.peers == state.peers
    assert back.bridges == state.bridges
    assert back.leaves == state.leaves
    assert back.params == state.params


def test_replaced_graph_gives_its_own_bridges_and_leaves():
    # Cutting bridge 3 from orchestration qubit 1 makes it a leaf of 0.
    state = build_gtl(GtlParams.specialized(2, 3))
    assert state.bridges == {(0, 1): (3, 4), (1, 2): (7, 8)}
    g = state.graph.copy()
    g.remove_edge(1, 3)
    edited = dataclasses.replace(state, graph=g)
    assert edited.bridges == {(0, 1): (4,), (1, 2): (7, 8)}
    assert edited.leaves == {0: (3, *state.leaves[0]), 1: state.leaves[1], 2: state.leaves[2]}


@pytest.mark.parametrize(
    "params, claim",
    [
        (GtlParams(2, 4, 2), {"n_o": 5}),
        (GtlParams(2, 4, 3), {"kappa_b_hat": 1}),
        (GtlParams(2, 5, 3), {"kappa_c": 6}),
        (GtlParams(1, 2, 1), {"kappa_b_hat": 2, "kappa_c": 4}),
    ],
)
def test_contradictory_params_rejected(params, claim):
    data = json.loads(json.dumps(gtl_to_json(build_gtl(params))))
    data["params"].update(claim)
    with pytest.raises(ValueError, match="GTL JSON field 'params'"):
        gtl_from_json(data)


def test_params_checked_only_where_inferable():
    # One orchestration qubit has no bridges, so kappa_b_hat is taken on trust.
    data = json.loads(json.dumps(gtl_to_json(build_gtl(GtlParams(2, 5, 1)))))
    data["params"]["kappa_b_hat"] = 1
    assert gtl_from_json(data).params == GtlParams(1, 5, 1)
    # A graph that fails validation shows nothing to compare against.
    data = json.loads(json.dumps(gtl_to_json(build_gtl(GtlParams(2, 4, 2)))))
    data["edges"] = data["edges"][1:]
    data["params"]["n_o"] = 5
    assert gtl_from_json(data).params == GtlParams(2, 4, 5)
