import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from entroll import oracle
from entroll.graphstate import (
    CORRECTION_TAGS,
    Graph,
    MeasurementRecord,
    PauliString,
    _bits,
    _mask,
    measure_pauli,
    stabilizer_generators,
)
from entroll.gtl import GtlParams, build_gtl
from entroll.noise import NoiseMap, depolarizing_map, dephasing_map, standard_noise
from entroll.oracle import (
    CORRECTION_UNITARIES,
    MAX_CROSSCHECK_QUBITS,
    DenseState,
    ZeroProbabilityError,
    apply_channel,
    crosscheck,
    crosscheck_points,
    dense_graph_state,
    graph_state_overlap,
    measure_dense,
    measure_with_record,
    partial_trace,
    vectors_equal_up_to_phase,
)
from entroll.rolling import (
    STOP_AFTER_ROLLING,
    ResolutionPlan,
    bridge_pick_plans,
    default_resolution_plan,
    resolve,
)

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

    def test_mode_is_read_off_the_data(self):
        ket = DenseState((0, 1), np.full(4, 0.5))
        assert ket.mode == "vector"
        assert ket.to_density().mode == "density"
        assert DenseState((0,), np.eye(2) / 2).mode == "density"
        assert dense_graph_state(path_graph(3), mode="density").mode == "density"

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
    for prob, s in noise_map.branches:
        signs = np.ones(2 ** state.n)
        for k, v in enumerate(state.qubits):
            if v in _bits(s):
                signs = signs * (1 - 2 * ((idx >> (state.n - 1 - k)) & 1))
        out += prob * (signs[:, None] * state.data * signs[None, :])
    return DenseState(state.qubits, out)


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

        rho = s.data.astype(complex)
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

    @pytest.mark.parametrize(
        "a, basis, outcome, corrections, message",
        [
            (7, "X", 1, (), "qubit 7 is not in the dense state"),
            (0, "Z", 1, ((7, "Z"),), "qubit 7 is not in the dense state"),
            (0, "Z", 1, ((1, "H"),), "unknown correction tag 'H'"),
            (0, "W", 1, (), "unsupported measurement basis 'W'"),
            (0, "X", 0, (), "measurement outcome must be +1 or -1, got 0"),
        ],
        ids=["measured-vertex", "correction-vertex", "tag", "basis", "outcome"],
    )
    def test_bad_input_is_named(self, a, basis, outcome, corrections, message):
        s = dense_graph_state(path_graph(2))
        with pytest.raises(ValueError) as info:
            measure_dense(s, a, basis, outcome, corrections)
        assert str(info.value) == message

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


_PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}
_EIGENKETS = {
    ("X", 1): np.array([1.0, 1.0]) / math.sqrt(2),
    ("X", -1): np.array([1.0, -1.0]) / math.sqrt(2),
    ("Y", 1): np.array([1.0, 1.0j]) / math.sqrt(2),
    ("Y", -1): np.array([1.0, -1.0j]) / math.sqrt(2),
    ("Z", 1): np.array([1.0, 0.0]),
    ("Z", -1): np.array([0.0, 1.0]),
}


def embed(factors):
    """Kronecker product of one 2-column factor per qubit, first qubit most significant."""
    out = np.eye(1)
    for f in factors:
        out = np.kron(out, f)
    return out


def kron_measure(state, a, basis, outcome, corrections):
    """measure_dense written with full matrices: <b|_a (x) I, renormalize, then each
    correction as the whole-register unitary I (x) U (x) I, one after another."""
    pos = state.position(a)
    bra = _EIGENKETS[(basis, outcome)].conj()[None, :]
    drop = embed([bra if i == pos else np.eye(2) for i in range(state.n)])
    qubits = tuple(v for v in state.qubits if v != a)
    if state.mode == "vector":
        data = drop @ state.data
        data = data / np.linalg.norm(data)
    else:
        data = drop @ state.data @ drop.conj().T
        data = data / np.trace(data)
    for v, tag in corrections:
        if v == a:
            continue
        u = embed([CORRECTION_UNITARIES[tag] if q == v else np.eye(2) for q in qubits])
        data = u @ data if state.mode == "vector" else u @ data @ u.conj().T
    return data


def random_dense(n, mode, rng):
    """A generic state on qubits 0..n-1: random amplitudes, or a random mixed density matrix."""
    gen = np.random.default_rng(rng.randrange(2**32))
    dim = 2**n
    if mode == "vector":
        vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        return DenseState(tuple(range(n)), vec / np.linalg.norm(vec))
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DenseState(tuple(range(n)), rho / np.trace(rho))


def assert_matches_kron(state, a, basis, outcome, corrections):
    out = measure_dense(state, a, basis, outcome, tuple(corrections))
    assert out.qubits == tuple(v for v in state.qubits if v != a)
    assert out.mode == state.mode
    assert np.max(np.abs(out.data - kron_measure(state, a, basis, outcome, corrections))) < 1e-12


# Orders that matter: two tags on one qubit that do not commute.
HAND_WRITTEN_TAG_LISTS = [
    [(1, "Z"), (1, "SQRT_Y")],
    [(1, "SQRT_Y"), (1, "Z")],
    [(2, "SQRT_Z"), (2, "SQRT_Y_DAG"), (2, "SQRT_Z_DAG")],
    [(2, "SQRT_Y_DAG"), (2, "SQRT_Z"), (0, "Z"), (2, "SQRT_Y")],
    [(v, "Z") for v in (1, 2, 3, 4)],
    [(1, "SQRT_Y_DAG")] + [(v, "Z") for v in (2, 3, 4)],
    [(0, "SQRT_Y"), (3, "SQRT_Z")],
]


class TestMeasureDenseAgainstKron:
    """measure_dense against full-matrix projectors and correction unitaries."""

    @pytest.mark.parametrize("mode", ["vector", "density"])
    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_graph_records(self, mode, basis, rng):
        for _ in range(12):
            n = rng.randint(2, 6)
            g = random_graph(n, rng)
            s = dense_graph_state(g, mode=mode)
            a = rng.choice(list(g.vertices()))
            nbrs = sorted(g.neighbors(a))
            support = rng.choice(nbrs) if basis == "X" and nbrs else None
            records = {}
            for seed in range(16):  # sampled outcomes: both signs, with their tags
                _, rec = measure_pauli(g, a, basis, support, rng=random.Random(seed))
                records[rec.outcome] = rec
            for rec in records.values():
                assert_matches_kron(s, a, basis, rec.outcome, rec.corrections)

    @pytest.mark.parametrize("mode", ["vector", "density"])
    def test_random_tag_lists(self, mode, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            s = random_dense(n, mode, rng)
            a = rng.randrange(n)
            tags = [(rng.randrange(n), rng.choice(CORRECTION_TAGS)) for _ in range(rng.randint(0, 8))]
            assert_matches_kron(s, a, rng.choice("XYZ"), rng.choice((1, -1)), tags)

    @pytest.mark.parametrize("mode", ["vector", "density"])
    @pytest.mark.parametrize("tags", HAND_WRITTEN_TAG_LISTS)
    def test_hand_written_tag_lists(self, mode, tags, rng):
        s = random_dense(5, mode, rng)
        for basis in "XYZ":
            for outcome in (1, -1):
                assert_matches_kron(s, 0, basis, outcome, tags)


class TestZSignsAndExpectation:
    def test_z_signs_per_bit(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            qubits = tuple(rng.sample(range(20), n))
            s = DenseState(qubits, np.zeros(2**n))
            support = frozenset(q for q in qubits if rng.random() < 0.5)
            idx = np.arange(2**n)
            expected = np.ones(2**n)
            for v in support:
                expected *= 1 - 2 * ((idx >> (n - 1 - qubits.index(v))) & 1)
            assert np.array_equal(s.z_signs(support), expected)

    @pytest.mark.parametrize("mode", ["vector", "density"])
    def test_expectation_against_kron(self, mode, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            s = random_dense(n, mode, rng)
            letters = [rng.choice("IXYZ") for _ in range(n)]
            phase = rng.choice((1, -1, 1j, -1j))
            pauli = PauliString(
                x_support=frozenset(v for v, c in enumerate(letters) if c in "XY"),
                z_support=frozenset(v for v, c in enumerate(letters) if c in "YZ"),
                phase=phase,
            )
            op = phase * embed([_PAULI[c] for c in letters])
            if mode == "vector":
                expected = np.vdot(s.data, op @ s.data)
            else:
                expected = np.trace(op @ s.data)
            assert abs(s.expectation(pauli) - expected) < 1e-12

    @pytest.mark.parametrize("mode", ["vector", "density"])
    def test_y_factors_on_real_graph_states(self, mode, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            s = dense_graph_state(random_graph(n, rng), mode=mode)
            assert s.data.dtype == np.float64
            letters = [rng.choice("IXYZ") for _ in range(n)]
            letters[rng.randrange(n)] = "Y"  # in both the x and the z support
            phase = rng.choice((1, -1, 1j, -1j))
            pauli = PauliString(
                x_support=frozenset(v for v, c in enumerate(letters) if c in "XY"),
                z_support=frozenset(v for v, c in enumerate(letters) if c in "YZ"),
                phase=phase,
            )
            op = phase * embed([_PAULI[c] for c in letters])
            if mode == "vector":
                expected = np.vdot(s.data, op @ s.data)
            else:
                expected = np.trace(op @ s.data)
            assert abs(s.expectation(pauli) - expected) < 1e-12

    @pytest.mark.parametrize("mode", ["vector", "density"])
    def test_vertex_outside_the_state_raises(self, mode):
        s = dense_graph_state(path_graph(3), mode=mode)
        for x, z in ((7, None), (None, 7), (7, 7), (0, 7)):
            pauli = PauliString(frozenset({x} - {None}), frozenset({z} - {None}))
            with pytest.raises(ValueError, match="qubit 7 is not in the dense state"):
                s.expectation(pauli)
        with pytest.raises(ValueError, match="qubit 7 is not in the dense state"):
            s.z_signs(frozenset({1, 7}))

    def test_repeated_vertex_is_one_bit(self):
        s = DenseState((0, 1, 2), np.zeros(8))
        assert s.local_mask([2, 2]) == s.local_mask([2]) == 0b001
        assert s.local_mask([0, 2, 0]) == s.local_mask([0, 2]) == 0b101
        assert np.array_equal(s.z_signs([2, 2]), s.z_signs([2]))


def as_complex(state):
    return DenseState(state.qubits, state.data.astype(complex))


class TestRealArithmetic:
    """Real data stays float64 until a complex operator arrives, and then agrees
    with the same replay on a complex copy."""

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    @pytest.mark.parametrize("kb,n_o", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_default_replays_stay_real(self, kb, n_o, target):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        plan = default_resolution_plan(state, target)
        g = state.graph
        dense = apply_channel(dense_graph_state(g, mode="density"), *standard_noise(g, 0.86, 1.0, 2.0).maps)
        assert dense.data.dtype == np.float64
        sim = g.copy()
        moves = [(o, "X", b0) for o, b0 in plan.steps] + [(v, "Z", None) for v in plan.z_targets]
        for v, basis, b0 in moves:
            sim, rec = measure_pauli(sim, v, basis, b0)
            dense = measure_with_record(dense, rec)
            assert dense.data.dtype == np.float64, rec
        report = crosscheck(state, plan, p=0.86, t_ms=1.0, big_t_ms=2.0)
        assert report.entries
        assert all(e.delta < 1e-9 for e in report.entries)

    @pytest.mark.parametrize("mode", ["vector", "density"])
    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("tag", [None, *CORRECTION_TAGS])
    def test_measure_dense_matches_complex_copy(self, mode, basis, tag):
        g = path_graph(4)
        s = dense_graph_state(g, mode=mode)
        if mode == "density":
            s = apply_channel(s, depolarizing_map(g, 2, 0.8), dephasing_map(0, 1.0, 3.0))
        lists = [()] if tag is None else [((2, tag),), ((0, tag), (2, "SQRT_Y_DAG"), (3, tag))]
        for corrections in lists:
            for outcome in (1, -1):
                out = measure_dense(s, 1, basis, outcome, corrections)
                cast = measure_dense(as_complex(s), 1, basis, outcome, corrections)
                assert np.max(np.abs(out.data - cast.data)) < 1e-12
                complex_op = basis == "Y" or tag in ("SQRT_Z", "SQRT_Z_DAG")
                assert out.data.dtype == (np.complex128 if complex_op else np.float64)

    def test_apply_channel_matches_complex_copy(self, rng):
        for n in range(1, 8):
            g = random_graph(n, rng)
            s = dense_graph_state(g, mode="density")
            maps = random_maps(g, rng)
            out = apply_channel(s, *maps)
            cast = apply_channel(as_complex(s), *maps)
            assert out.data.dtype == np.float64
            assert cast.data.dtype == np.complex128
            assert np.max(np.abs(out.data - cast.data)) < 1e-15


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


def forward_replay(ket, maps, records):
    dense = apply_channel(ket.to_density(), *maps)
    for rec in records:
        dense = measure_with_record(dense, rec)
    return dense


def adjoint_replay(ket, maps, records):
    factor = oracle._channel_factor(ket, tuple(maps))
    return oracle._replay_adjoint(*oracle._adjoint_amplitudes(ket, tuple(records)), factor)


def assert_adjoint_matches_forward(ket, maps, records):
    adjoint = adjoint_replay(ket, maps, records)
    forward = forward_replay(ket, maps, records)
    assert adjoint.mode == "density" and adjoint.qubits == forward.qubits
    assert adjoint.data.dtype == forward.data.dtype
    assert np.max(np.abs(adjoint.data - forward.data)) < 1e-12
    return adjoint


class TestAdjointReplay:
    """The records replayed backward from the surviving qubits give the final
    state of the forward replay, apply_channel then measure_with_record."""

    @pytest.mark.parametrize("kb,n_o", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_default_and_bridge_pick_plans(self, kb, n_o):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        g = state.graph
        plans = [default_resolution_plan(state, t) for t in ("bell", "ghz")] + bridge_pick_plans(state)
        maps = standard_noise(g, 0.86, 1.0, 2.0).maps
        for plan in plans:
            out = assert_adjoint_matches_forward(dense_graph_state(g), maps, resolve(state, plan).records)
            assert out.data.dtype == np.float64

    def test_random_measurement_sequences(self, rng):
        seen = set()
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(n, rng)
            ket, maps = dense_graph_state(g), random_maps(g, rng)
            records = []
            for _ in range(rng.randint(1, n - 1)):
                a = rng.choice(g.vertices())
                basis = rng.choice(("X", "Y", "Z"))
                support = None
                if basis == "X" and g.neighbors(a):
                    support = rng.choice(sorted(g.neighbors(a)))
                g, rec = measure_pauli(g, a, basis, support, rng=rng)
                records.append(rec)
                seen |= {rec.basis, *(tag for _, tag in rec.corrections)}
            assert_adjoint_matches_forward(ket, maps, records)
        assert seen == {"X", "Y", "Z", *CORRECTION_TAGS}

    @pytest.mark.parametrize("tags", HAND_WRITTEN_TAG_LISTS)
    def test_hand_written_tag_lists(self, tags, rng):
        # measure_pauli never puts two tags on one qubit; these lists do, so the
        # order of the adjoint corrections shows.  The second record's tag on
        # the qubit it measures is dropped, as measure_dense drops it.
        ket = random_dense(6, "vector", rng)
        maps = random_maps(random_graph(6, rng), rng)
        for basis in "XYZ":
            for outcome in (1, -1):
                records = [
                    MeasurementRecord(5, basis, None, outcome, tuple(tags)),
                    MeasurementRecord(0, "XYZ"[("XYZ".index(basis) + 1) % 3], None, -outcome, ((0, "SQRT_Y"),)),
                ]
                assert_adjoint_matches_forward(ket, maps, records)

    def test_zero_probability_record(self):
        # X on a bare |+> qubit: the "-" outcome cannot occur.
        ket = dense_graph_state(Graph.from_edges(3, [(1, 2)]))
        records = (MeasurementRecord(0, "X", None, -1, ()),)
        with pytest.raises(ZeroProbabilityError):
            forward_replay(ket, (), records)
        with pytest.raises(ZeroProbabilityError):
            adjoint_replay(ket, (), records)

    def test_floor_on_the_joint_probability(self):
        # Z outcome -1 on qubits 0 and 1 has conditional probability 1e-8 each, 1e-16
        # jointly: above measure_dense's per-record floor of 1e-14, below the
        # backward replay's floor on the joint probability.
        one = np.array([math.sqrt(1 - 1e-8), 1e-4])
        ket = DenseState((0, 1, 2), np.kron(np.kron(one, one), [math.sqrt(0.5)] * 2))
        records = tuple(MeasurementRecord(v, "Z", None, -1, ()) for v in (0, 1))
        out = forward_replay(ket, (), records)
        assert np.allclose(out.data, [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ZeroProbabilityError):
            adjoint_replay(ket, (), records)
        adjoint = adjoint_replay(ket, (), records[:1])
        assert np.max(np.abs(adjoint.data - forward_replay(ket, (), records[:1]).data)) < 1e-12


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

    @pytest.mark.parametrize("mode", ["vector", "density"])
    def test_id_outside_the_state_is_refused(self, mode):
        s = dense_graph_state(path_graph(3), mode=mode)
        with pytest.raises(ValueError) as info:
            partial_trace(s, frozenset({0, 99}))
        assert str(info.value) == "qubit 99 is not in the dense state"


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

    def test_refuses_what_resolve_refuses(self):
        # Peer 1 has neighbour 0, so stepwise propagation runs this X step;
        # resolve refuses it, and so must the crosscheck that replays it.
        state = build_gtl(GtlParams.specialized(2, 1))
        plan = ResolutionPlan(steps=((1, 0),), stop_stage=STOP_AFTER_ROLLING)
        with pytest.raises(ValueError) as info:
            crosscheck(state, plan, p=0.9)
        assert str(info.value) == "step measures 1, which is not an orchestration qubit"

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    def test_components_are_those_of_resolve(self, target):
        state = build_gtl(GtlParams.specialized(3, 1))
        plan = default_resolution_plan(state, target)
        report = crosscheck(state, plan, p=0.9, t_ms=1.0, big_t_ms=10.0)
        resolved = tuple(tuple(sorted(c)) for c in resolve(state, plan).components if len(c) > 1)
        assert resolved and tuple(e.component for e in report.entries) == resolved

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

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    @pytest.mark.parametrize("stage", ["default", "rolling-only", "empty"])
    def test_default_rolling_only_and_empty_plans(self, target, stage):
        # 2 or 4, 8 and 9 of the 9 qubits survive these plans.
        state = build_gtl(GtlParams.specialized(4, 1))
        plan = default_resolution_plan(state, target)
        plan = {
            "default": plan,
            "rolling-only": ResolutionPlan(steps=plan.steps, stop_stage=STOP_AFTER_ROLLING),
            "empty": ResolutionPlan(steps=()),
        }[stage]
        report = crosscheck(state, plan, p=0.86, t_ms=1.0, big_t_ms=2.0)
        assert report.entries and report.ok

    def test_nine_qubit_ghz_memory(self):
        # The forward replay of this plan, through 512 x 512 density matrices, peaks at 4.3 MB.
        state = build_gtl(GtlParams.specialized(4, 1))
        plan = default_resolution_plan(state, "ghz")
        crosscheck(state, plan, p=0.86, t_ms=1.0, big_t_ms=2.0)  # warm caches outside the count
        tracemalloc.start()
        try:
            report = crosscheck(state, plan, p=0.86, t_ms=1.0, big_t_ms=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 1.5e6, peak


def report_hex(report):
    return ";".join(f"{e.component}:{e.fidelity_symbolic.hex()}:{e.fidelity_dense.hex()}" for e in report.entries)


def per_branch_factor(state, maps):
    """The channel factor one branch at a time: the reference _channel_factor must equal to the last bit."""
    live = _mask(state.qubits)
    factor = np.ones(2 ** state.n)
    for m in maps:
        factor *= sum(prob * state.z_signs(_bits(s & live)) for prob, s in m.branches)
    return factor


class TestCrosscheckPoints:
    """One record replay per batch gives each point the report of its one-point call."""

    def test_criterion_5_points_equal_one_point_calls(self):
        for kb, n_o in ((2, 1), (2, 2), (3, 1)):
            state = build_gtl(GtlParams.specialized(kb, n_o))
            plan = default_resolution_plan(state, "bell")
            points = [(p, 1.0, big_t, None) for p in (0.7, 0.8, 0.9, 1.0) for big_t in (1.0, 10.0, 100.0)]
            batch = crosscheck_points(state, plan, points)
            single = [crosscheck(state, plan, p=p, t_ms=t, big_t_ms=big_t) for p, t, big_t, _ in points]
            assert [report_hex(r) for r in batch] == [report_hex(r) for r in single]
            assert all(r.entries and r.ok for r in batch)

    def test_reports_equal_the_per_point_replay(self):
        # sha256 of the reports the per-point replay gave before batching: 4 resources x
        # Bell/GHZ x default/rolling-only plans x 9 (p, T) points, fidelities in float.hex.
        lines = []
        for kb, n_o in ((2, 1), (2, 2), (3, 1), (4, 1)):
            state = build_gtl(GtlParams.specialized(kb, n_o))
            for target in ("bell", "ghz"):
                plan = default_resolution_plan(state, target)
                for plan in (plan, ResolutionPlan(steps=plan.steps, stop_stage=STOP_AFTER_ROLLING)):
                    points = [(p, 1.0, big_t, None) for p in (0.7, 0.86, 1.0) for big_t in (1.0, 10.0, math.inf)]
                    lines += [report_hex(r) for r in crosscheck_points(state, plan, points)]
        assert len(lines) == 144
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "f3eaef83e6e17e26272a04865860327713b1659acecf13d91d0bdd14106b4c30"

    @pytest.mark.parametrize("target", ["bell", "ghz"])
    def test_waits_match_the_forward_replay(self, target):
        state = build_gtl(GtlParams.specialized(2, 2))
        g = state.graph
        plan = default_resolution_plan(state, target)
        outcome = resolve(state, plan)
        points = [(0.9, 2.5, 10.0, {4: 0.0, 6: 3.5}), (1.0, 1.0, 3.0, {2: 7.0}), (0.8, 0.5, math.inf, {5: 2.0})]
        for (p, t, big_t, waits), report in zip(points, crosscheck_points(state, plan, points)):
            maps = standard_noise(g, p, t, big_t, waits).maps
            forward = forward_replay(dense_graph_state(g), maps, outcome.records)
            assert report.entries and report.ok
            for entry in report.entries:
                reference = oracle.dense_component_fidelity(forward, outcome.graph, frozenset(entry.component))
                assert abs(entry.fidelity_dense - reference) < 1e-9
                assert abs(entry.fidelity_symbolic - reference) < 1e-9
        # The waits reach the report: without them the first point reads otherwise.
        plain = crosscheck(state, plan, p=0.9, t_ms=2.5, big_t_ms=10.0)
        assert report_hex(plain) != report_hex(crosscheck_points(state, plan, points[:1])[0])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1.5, 1.0, 10.0, None), "depolarizing parameter 1.5 outside [0, 1]"),
            ((0.9, 1.0, 10.0, {99: 1.0}), "qubit_times_ms names vertex 99, which is not a live qubit of the resource"),
            ((0.9, 1.0, 10.0, {4: -1.0}), "wait time must be nonnegative, got -1.0"),
            ((0.9, 1.0, 0.0, None), "dephasing time must be positive, got 0.0"),
        ],
        ids=["p", "ids", "waits", "T"],
    )
    def test_bad_point_is_refused_before_any_dense_array(self, monkeypatch, bad, message):
        state = build_gtl(GtlParams.specialized(2, 2))
        plan = default_resolution_plan(state, "bell")
        built = []
        monkeypatch.setattr(oracle, "dense_graph_state", lambda *args: built.append(args))
        with pytest.raises(ValueError) as info:
            crosscheck_points(state, plan, [(0.9, 1.0, 10.0, None), bad, (2.0, 1.0, 10.0, {98: 1.0})])
        assert str(info.value) == message
        assert built == []

    def test_checks_run_in_order(self):
        # The size bound, then resolve's refusal, then the points.
        bad_point = [(2.0, 1.0, 10.0, None)]
        big = build_gtl(GtlParams.specialized(3, 2))
        with pytest.raises(ValueError, match=f"limited to {MAX_CROSSCHECK_QUBITS} qubits, got 11"):
            crosscheck_points(big, ResolutionPlan(steps=((5, 0),)), bad_point)
        state = build_gtl(GtlParams.specialized(2, 1))
        with pytest.raises(ValueError) as info:
            crosscheck_points(state, ResolutionPlan(steps=((1, 0),), stop_stage=STOP_AFTER_ROLLING), bad_point)
        assert str(info.value) == "step measures 1, which is not an orchestration qubit"

    def test_empty_batch(self):
        state = build_gtl(GtlParams.specialized(2, 1))
        assert crosscheck_points(state, default_resolution_plan(state, "bell"), []) == ()


class TestChannelFactor:
    """_channel_factor, one gather per branch slot, against the per-branch loop, byte for byte."""

    @pytest.mark.parametrize("kb,n_o", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_standard_noise(self, kb, n_o):
        g = build_gtl(GtlParams.specialized(kb, n_o)).graph
        ket = dense_graph_state(g)
        for p in (0.0, 0.1, 0.25, 0.86, 1.0):
            for t, big_t in ((1.0, 10.0), (0.0, 1.0), (5.0, math.inf)):
                maps = standard_noise(g, p, t, big_t, {g.vertices()[1]: 2.5}).maps
                factor = oracle._channel_factor(ket, maps)
                assert factor.tobytes() == per_branch_factor(ket, maps).tobytes()

    def test_random_maps_with_supports_off_the_state(self, rng):
        negative = 0
        for _ in range(30):
            g = random_graph(rng.randint(1, 7), rng)
            ket = dense_graph_state(g)
            maps = random_maps(g, rng)
            # A zero-weight branch, as the constructor admits it, and no maps at all.
            maps.append(NoiseMap(g.vertices()[0], ((1.0, 0), (0.0, 1 << g.vertices()[-1]))))
            for chosen in (maps, maps[: rng.randint(0, 3)]):
                factor = oracle._channel_factor(ket, tuple(chosen))
                assert factor.tobytes() == per_branch_factor(ket, chosen).tobytes()
                negative += bool((factor < 0).any())
        assert negative  # a map with more than half its weight off the identity


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
