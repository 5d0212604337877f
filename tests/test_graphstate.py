import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entroll.graphstate import (
    Graph,
    PauliString,
    component_key,
    gf2_rank,
    graph_from_json,
    graph_to_json,
    local_complement,
    measure_pauli,
    stabilizer_generators,
)
from entroll.gtl import GtlParams, build_gtl
from entroll.noise import _measure_x as noise_measure_x
from entroll.rolling import _roll

from conftest import assert_adjacency_invariants, random_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n_leaves):
    return Graph.from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


class TestGraph:
    def test_path_local_complement_makes_triangle(self):
        g = path_graph(3)
        h = local_complement(g, 1)
        assert set(h.edges()) == {(0, 1), (0, 2), (1, 2)}

    def test_local_complement_at_isolated_vertex_is_identity(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert local_complement(g, 3) == g

    def test_local_complement_is_involution(self, rng):
        for _ in range(200):
            n = rng.randint(1, 20)
            g = random_graph(n, rng)
            a = rng.randrange(n)
            assert local_complement(local_complement(g, a), a) == g

    def test_local_complement_unknown_vertex(self):
        with pytest.raises(ValueError):
            local_complement(path_graph(2), 5)

    def test_vertex_ids_stable_across_deletion(self):
        g = path_graph(4)
        g.delete_vertex(1)
        assert g.vertices() == (0, 2, 3)
        v = g.add_vertex()
        assert v == 4  # retired ids are never reused

    def test_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert g.components() == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4}))

    def test_component_key_sorts_ids_numerically(self):
        assert component_key(frozenset({10, 2, 3})) == "2-3-10"
        assert component_key([7]) == "7"

    def test_json_round_trip(self, rng):
        g = random_graph(7, rng)
        g.delete_vertex(2)
        data = json.loads(json.dumps(graph_to_json(g)))
        assert graph_from_json(data) == g

    def test_json_edges_sorted(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0)])
        assert graph_to_json(g)["edges"] == [[0, 1], [1, 2]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjacency_invariants_hold_after_random_operations(data):
    n = data.draw(st.integers(2, 9))
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = random_graph(n, rng)
    for _ in range(data.draw(st.integers(1, 6))):
        if g.n == 0:
            break
        v = rng.choice(g.vertices())
        op = rng.choice(("lc", "measure"))
        if op == "lc":
            g = local_complement(g, v)
        else:
            basis = rng.choice(("X", "Y", "Z"))
            support = None
            if basis == "X" and g.neighbors(v):
                support = rng.choice(sorted(g.neighbors(v)))
            g, _ = measure_pauli(g, v, basis, support)
        assert_adjacency_invariants(g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_x_update_is_the_local_complement_composite(data):
    # Random graph on up to 9 ids, some deleted, and a random live edge (a, b0).
    n = data.draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    for v in data.draw(st.sets(st.integers(0, n - 1), max_size=n - 2)):
        g.delete_vertex(v)
    assume(g.edges())
    a, b0 = data.draw(st.sampled_from(g.edges()))
    if data.draw(st.booleans()):
        a, b0 = b0, a
    before = (list(g._rows), g._live)
    expected = local_complement(local_complement(g, b0), a)
    expected.delete_vertex(a)
    expected = local_complement(expected, b0)

    h = g.copy()
    h._measure_x(a, b0)
    assert (h._rows, h._live) == (expected._rows, expected._live)
    assert measure_pauli(g, a, "X", b0)[0] == expected
    h = g.copy()
    images = noise_measure_x(h, a, b0)
    assert h == expected
    assert images == {a: 1 << b0 | g.neighbor_mask(b0) & ~(1 << a), b0: expected.neighbor_mask(b0)}
    # The planner's walk: read its graph once it has stepped past a.
    other = next(v for v in g.vertices() if v != a)
    walk = _roll(g, (a, other), lambda i, side: b0)
    next(walk)
    next(walk)
    assert walk.gi_frame.f_locals["graph"] == expected
    assert (g._rows, g._live) == before


class TestMeasurement:
    def test_z_on_star_center_isolates_leaves(self):
        g, rec = measure_pauli(star_graph(4), 0, "Z")
        assert g.edges() == []
        assert g.vertices() == (1, 2, 3, 4)
        assert rec.outcome == 1 and rec.corrections == ()

    def test_x_on_path_center_fuses_ends(self):
        g, rec = measure_pauli(path_graph(3), 1, "X", support_choice=0)
        assert g.edges() == [(0, 2)]
        assert rec.support_choice == 0

    def test_y_deletes_after_complement(self):
        g, _ = measure_pauli(path_graph(3), 1, "Y")
        assert g.edges() == [(0, 2)]

    def test_x_requires_support(self):
        with pytest.raises(ValueError, match="support"):
            measure_pauli(path_graph(3), 1, "X")
        with pytest.raises(ValueError, match="support"):
            measure_pauli(path_graph(3), 1, "X", support_choice=4)

    def test_x_on_isolated_vertex_deletes(self):
        g = Graph.empty(2)
        h, rec = measure_pauli(g, 0, "X")
        assert h.vertices() == (1,)
        assert rec.outcome == 1 and rec.support_choice is None

    def test_measuring_dead_vertex_fails(self):
        g, _ = measure_pauli(path_graph(3), 1, "Z")
        with pytest.raises(ValueError):
            measure_pauli(g, 1, "Z")

    def test_sampled_outcomes_cover_both_signs(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(40):
            _, rec = measure_pauli(path_graph(2), 0, "Z", rng=rng)
            outcomes.add(rec.outcome)
        assert outcomes == {1, -1}

    def test_outcome_does_not_change_graph(self):
        rng = random.Random(11)
        base = path_graph(4)
        results = set()
        for _ in range(20):
            g, _ = measure_pauli(base, 1, "X", support_choice=0, rng=rng)
            results.add(tuple(g.edges()))
        assert len(results) == 1


class TestStabilizers:
    def test_single_vertex(self):
        gens = stabilizer_generators(Graph.empty(1))
        assert gens == [PauliString(frozenset({0}), frozenset())]

    def test_edge(self):
        gens = stabilizer_generators(path_graph(2))
        assert gens == [
            PauliString(frozenset({0}), frozenset({1})),
            PauliString(frozenset({1}), frozenset({0})),
        ]

    def test_four_vertex_star(self):
        gens = stabilizer_generators(star_graph(3))
        assert gens[0] == PauliString(frozenset({0}), frozenset({1, 2, 3}))
        for k in (1, 2, 3):
            assert gens[k] == PauliString(frozenset({k}), frozenset({0}))

    def test_generators_pairwise_commute(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(1, 10), rng)
            gens = stabilizer_generators(g)
            assert all(a.commutes_with(b) for a in gens for b in gens)

    def test_anticommuting_pair_detected(self):
        x0 = PauliString(frozenset({0}), frozenset())
        z0 = PauliString(frozenset(), frozenset({0}))
        assert not x0.commutes_with(z0)


class TestGf2Rank:
    def test_empty(self):
        assert gf2_rank(Graph.empty(0)) == 0

    def test_single_edge(self):
        assert gf2_rank(path_graph(2)) == 2

    def test_rank_even_on_random_graphs(self, rng):
        for _ in range(100):
            g = random_graph(rng.randint(1, 12), rng)
            assert gf2_rank(g) % 2 == 0

    def test_matches_enumerated_row_space(self, rng):
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_graph(n, rng, density=rng.random())
            for v in rng.sample(range(n), rng.randint(0, n // 2)):
                g.delete_vertex(v)  # live ids need not be contiguous
            span = {0}
            for v in g.vertices():
                row = g.neighbor_mask(v)
                span |= {x ^ row for x in span}
            assert len(span) == 1 << gf2_rank(g)

    @pytest.mark.parametrize("n_o", [1, 2, 3, 10, 41, 122, 341, 1364])
    def test_bell_ladder_rank(self, n_o):
        assert gf2_rank(build_gtl(GtlParams.specialized(2, n_o)).graph) == 2 * n_o
