import math
import random

import numpy as np
import pytest

from entroll.graphstate import Graph, measure_pauli, stabilizer_generators
from entroll.gtl import GtlParams, build_gtl
from entroll.noise import NoiseMap, depolarizing_map, dephasing_map
from entroll.oracle import (
    MAX_CROSSCHECK_QUBITS,
    DenseState,
    ZeroProbabilityError,
    apply_channel,
    crosscheck,
    dense_graph_state,
    graph_state_overlap,
    measure_dense,
    measure_with_record,
    partial_trace,
    vectors_equal_up_to_phase,
)
from entroll.rolling import default_resolution_plan

from conftest import random_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_every_correction_tag_has_a_unitary():
    from entroll.graphstate import CORRECTION_TAGS
    from entroll.oracle import CORRECTION_UNITARIES

    assert set(CORRECTION_TAGS) == set(CORRECTION_UNITARIES)
    for tag, u in CORRECTION_UNITARIES.items():
        assert np.allclose(u @ u.conj().T, np.eye(2)), tag


class TestDenseGraphState:
    def test_single_vertex_is_plus(self):
        s = dense_graph_state(Graph.empty(1))
        assert np.allclose(s.data, [1 / math.sqrt(2)] * 2)

    def test_edge_amplitudes(self):
        s = dense_graph_state(path_graph(2))
        assert np.allclose(s.data, np.array([1, 1, 1, -1]) / 2)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            dense_graph_state(Graph.empty(13))

    def test_stabilizers_have_unit_expectation(self):
        state = build_gtl(GtlParams(2, 4, 1))
        s = dense_graph_state(state.graph)
        for gen in stabilizer_generators(state.graph):
            assert s.expectation(gen) == pytest.approx(1.0, abs=1e-12)

    def test_random_graph_stabilizers(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(1, 7), rng)
            s = dense_graph_state(g)
            for gen in stabilizer_generators(g):
                assert s.expectation(gen) == pytest.approx(1.0, abs=1e-12)
            s.validate()


def kraus_sum(state, noise_map):
    """sum_b p_b Z_b rho Z_b, each Z string as its explicit +-1 diagonal."""
    idx = np.arange(2 ** state.n)
    out = np.zeros_like(state.data)
    for prob, op in noise_map.branches:
        signs = np.ones(2 ** state.n)
        for k, v in enumerate(state.qubits):
            if v in op.support:
                signs = signs * (1 - 2 * ((idx >> (state.n - 1 - k)) & 1))
        out += prob * (signs[:, None] * state.data * signs[None, :])
    return DenseState("density", state.qubits, out)


def random_maps(g, rng):
    """Depolarizing and dephasing maps on every vertex, plus one that names an absent qubit."""
    maps = []
    for v in g.vertices():
        maps.append(depolarizing_map(g, v, rng.random()))
        maps.append(dephasing_map(v, rng.random(), rng.uniform(0.5, 5.0)))
    absent = max(g.vertices()) + 3
    weights = [rng.random() for _ in range(3)]
    supports = [frozenset(), frozenset({absent}), frozenset({g.vertices()[0], absent})]
    maps.append(NoiseMap.from_weights(absent, {s: w / sum(weights) for s, w in zip(supports, weights)}))
    rng.shuffle(maps)
    return maps


class TestApplyChannel:
    def test_no_maps_keeps_data(self):
        s = dense_graph_state(path_graph(3), mode="density")
        assert np.array_equal(apply_channel(s).data, s.data)

    def test_one_call_equals_folded_single_calls(self, rng):
        for n in range(1, 10):
            g = random_graph(n, rng)
            if n in (4, 7):
                g = Graph.from_edges(n + 1, g.edges())  # vertex n is isolated
            s = dense_graph_state(g, mode="density")
            maps = random_maps(g, rng)
            folded = kraus = s
            for m in maps:
                folded = apply_channel(folded, m)
                kraus = kraus_sum(kraus, m)
            out = apply_channel(s, *maps)
            assert np.max(np.abs(out.data - folded.data)) < 1e-13
            assert np.max(np.abs(out.data - kraus.data)) < 1e-13

    def test_identity_map_keeps_state(self):
        s = dense_graph_state(path_graph(2), mode="density")
        m = NoiseMap.from_weights(0, {frozenset(): 1.0})
        assert np.allclose(apply_channel(s, m).data, s.data)

    def test_full_dephasing_kills_off_diagonals(self):
        g = Graph.empty(1)
        s = dense_graph_state(g, mode="density")
        # q = 1/2 corresponds to the infinite-time limit
        m = NoiseMap.from_weights(0, {frozenset(): 0.5, frozenset({0}): 0.5})
        out = apply_channel(s, m)
        assert out.data[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert out.data[0, 0] == pytest.approx(0.5)

    def test_depolarizing_matches_kraus_sum(self):
        g = path_graph(3)
        p = 0.73
        s = dense_graph_state(g, mode="density")
        out = apply_channel(s, depolarizing_map(g, 1, p))

        z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)

        def op(support):
            mats = [z if q in support else eye for q in (0, 1, 2)]
            full = mats[0]
            for m_ in mats[1:]:
                full = np.kron(full, m_)
            return full

        rho = s.data
        expected = p * rho
        for support in [frozenset(), frozenset({1}), frozenset({0, 2}), frozenset({0, 1, 2})]:
            u = op(support)
            expected += (1 - p) / 4 * (u @ rho @ u.conj().T)
        assert np.max(np.abs(out.data - expected)) < 1e-14

    def test_trace_preserved(self, rng):
        g = random_graph(4, rng)
        s = dense_graph_state(g, mode="density")
        for v in g.vertices():
            s = apply_channel(s, depolarizing_map(g, v, 0.8))
            s = apply_channel(s, dephasing_map(v, 1.0, 5.0))
        assert np.trace(s.data).real == pytest.approx(1.0, abs=1e-12)

    def test_vector_mode_rejected(self):
        s = dense_graph_state(path_graph(2))
        with pytest.raises(ValueError):
            apply_channel(s, NoiseMap.from_weights(0, {frozenset(): 1.0}))


class TestMeasureDense:
    def test_z_on_plus_qubit(self):
        s = dense_graph_state(Graph.empty(2))
        out = measure_dense(s, 0, "Z", outcome=1)
        assert out.qubits == (1,)
        assert np.allclose(out.data, [1 / math.sqrt(2)] * 2)

    def test_x_path_center_gives_fused_pair(self):
        g = path_graph(3)
        s = dense_graph_state(g)
        g2, rec = measure_pauli(g, 1, "X", support_choice=0)
        out = measure_with_record(s, rec)
        target = dense_graph_state(g2)
        assert vectors_equal_up_to_phase(out.data, target.data, tol=1e-10)

    def test_y_on_path_end(self):
        g = path_graph(2)
        s = dense_graph_state(g)
        g2, rec = measure_pauli(g, 1, "Y")
        out = measure_with_record(s, rec)
        assert vectors_equal_up_to_phase(out.data, dense_graph_state(g2).data, tol=1e-10)

    def test_zero_probability_branch_signaled(self):
        s = dense_graph_state(Graph.empty(1))
        with pytest.raises(ZeroProbabilityError):
            measure_dense(s, 0, "X", outcome=-1)

    def test_z_order_covariance(self, rng):
        g = random_graph(5, rng)
        s = dense_graph_state(g, mode="density")
        for v in g.vertices():
            s = apply_channel(s, depolarizing_map(g, v, 0.85))
        orders = [(0, 2), (2, 0)]
        results = []
        for order in orders:
            cur, sim = s.copy(), g.copy()
            for v in order:
                sim, rec = measure_pauli(sim, v, "Z")
                cur = measure_with_record(cur, rec)
            results.append(cur)
        assert results[0].qubits == results[1].qubits
        assert np.max(np.abs(results[0].data - results[1].data)) < 1e-12


class TestGraphRuleSoundness:
    """Graph-level measurement rules reproduce the dense state after corrections."""

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_random_single_measurements(self, basis, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            g = random_graph(n, rng)
            a = rng.choice(g.vertices())
            support = None
            if basis == "X" and g.neighbors(a):
                support = rng.choice(sorted(g.neighbors(a)))
            g2, rec = measure_pauli(g, a, basis, support, rng=rng)
            out = measure_with_record(dense_graph_state(g), rec)
            target = dense_graph_state(g2)
            assert vectors_equal_up_to_phase(out.data, target.data, tol=1e-10)

    def test_random_sequences(self, rng):
        for _ in range(40):
            n = rng.randint(3, 7)
            g = random_graph(n, rng)
            dense = dense_graph_state(g)
            for _ in range(rng.randint(1, n - 1)):
                a = rng.choice(g.vertices())
                basis = rng.choice(("X", "Y", "Z"))
                support = None
                if basis == "X" and g.neighbors(a):
                    support = rng.choice(sorted(g.neighbors(a)))
                g, rec = measure_pauli(g, a, basis, support, rng=rng)
                dense = measure_with_record(dense, rec)
            assert vectors_equal_up_to_phase(dense.data, dense_graph_state(g).data, tol=1e-10)


class TestPartialTrace:
    def test_product_state_reduction(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        s = dense_graph_state(g, mode="density")
        reduced = partial_trace(s, frozenset({0, 1}))
        target = dense_graph_state(path_graph(2), mode="density")
        assert np.max(np.abs(reduced.data - target.data)) < 1e-12

    def test_entangled_reduction_is_mixed(self):
        s = dense_graph_state(path_graph(2), mode="density")
        reduced = partial_trace(s, frozenset({0}))
        assert np.allclose(reduced.data, np.eye(2) / 2)


class TestCrosscheck:
    def test_noiseless_fidelities_are_one(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        report = crosscheck(state, plan, p=1.0, t_ms=0.0)
        assert report.ok
        for entry in report.entries:
            assert entry.fidelity_symbolic == 1.0  # identity maps stay exactly identity
            assert entry.fidelity_dense == pytest.approx(1.0, abs=1e-9)

    def test_small_instance_with_noise(self):
        state = build_gtl(GtlParams.specialized(2, 1))
        plan = default_resolution_plan(state, "bell")
        report = crosscheck(state, plan, p=0.9, t_ms=1.0, big_t_ms=10.0)
        assert report.ok

    def test_grid(self):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        for p in (0.7, 0.9, 1.0):
            for t_big in (1.0, 10.0):
                report = crosscheck(state, plan, p=p, t_ms=1.0, big_t_ms=t_big)
                assert report.ok, f"p={p} T={t_big}: {report.max_delta}"

    @pytest.mark.parametrize("kb,n_o", [(3, 1), (2, 2)])
    def test_star_resources(self, kb, n_o):
        # GHZ-stage components (stars / pairs kept whole) against the oracle.
        state = build_gtl(GtlParams.specialized(kb, n_o))
        plan = default_resolution_plan(state, "ghz")
        for p in (0.8, 0.95):
            report = crosscheck(state, plan, p=p, t_ms=1.0, big_t_ms=5.0)
            assert report.entries, "no multi-qubit components"
            assert report.ok, f"p={p}: {report.max_delta}"
            if kb == 3:
                assert any(len(e.component) == 3 for e in report.entries)

    def test_size_cap(self):
        for kb, n_o in ((3, 2), (5, 1)):  # 11 qubits each
            state = build_gtl(GtlParams.specialized(kb, n_o))
            assert state.graph.n == MAX_CROSSCHECK_QUBITS + 1
            with pytest.raises(ValueError, match=f"limited to {MAX_CROSSCHECK_QUBITS} qubits, got 11"):
                crosscheck(state, default_resolution_plan(state, "bell"))

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    def test_nine_qubit_resource(self, target):
        state = build_gtl(GtlParams.specialized(4, 1))
        plan = default_resolution_plan(state, target)
        for p in (0.86, 1.0):
            for big_t in (2.0, math.inf):
                report = crosscheck(state, plan, p=p, t_ms=1.0, big_t_ms=big_t)
                assert report.entries, "no multi-qubit components"
                assert report.ok, f"p={p} T={big_t}: {report.max_delta}"


def test_fidelity_invariant_under_corrections_on_non_targets(rng):
    # Sampled outcomes change the recorded corrections but not the extracted
    # pair fidelities.
    state = build_gtl(GtlParams.specialized(2, 1))
    plan = default_resolution_plan(state, "bell")
    g = state.graph
    base = dense_graph_state(g, mode="density")
    for v in g.vertices():
        base = apply_channel(base, depolarizing_map(g, v, 0.9))
    fidelities = []
    for attempt in range(3):
        sim = g.copy()
        dense = base.copy()
        sample = random.Random(attempt)
        for o, b0 in plan.steps:
            sim, rec = measure_pauli(sim, o, "X", b0, rng=sample)
            dense = measure_with_record(dense, rec)
        for v in plan.isolation:
            sim, rec = measure_pauli(sim, v, "Z", rng=sample)
            dense = measure_with_record(dense, rec)
        comp = next(c for c in sim.components() if len(c) == 2)
        ids = sorted(comp)
        reduced = partial_trace(dense, frozenset(comp))
        pair = Graph.empty(max(ids) + 1)
        for v in range(max(ids) + 1):
            if v not in ids:
                pair.delete_vertex(v)
        pair.add_edge(*ids)
        fidelities.append(graph_state_overlap(reduced, pair))
    assert max(fidelities) - min(fidelities) < 1e-10
