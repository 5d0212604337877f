"""Generalized tree-like (GTL) resource states.

A GTL resource is a two-colorable graph state whose vertices split into an
ordered line of orchestration qubits and a set of peer qubits.  Consecutive
orchestration qubits share a fixed number of rank-2 bridge peers; every
orchestration qubit sees the same number of peers overall.  The family is
parametrized by (kappa_b_hat, kappa_c, n_o) and in the specialized regime
kappa_c = 2 * kappa_b_hat it collapses to two parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graphstate import Graph, graph_from_json, graph_to_json, json_field

__all__ = [
    "GtlParams",
    "GtlState",
    "GtlValidation",
    "OrchestrationProfile",
    "PeerProfile",
    "Violation",
    "bridge_neighborhoods",
    "build_gtl",
    "gtl_from_json",
    "gtl_to_json",
    "peer_proximity",
    "structure_profile",
    "validate_gtl",
]


@dataclass(frozen=True)
class GtlParams:
    """Design parameters: minimum bridge degree, peer degree, chain length."""

    kappa_b_hat: int
    kappa_c: int
    n_o: int

    def __post_init__(self) -> None:
        if self.kappa_b_hat < 1 or self.kappa_c < 1 or self.n_o < 1:
            raise ValueError("GTL parameters must be positive integers")
        if self.kappa_c < 2 * self.kappa_b_hat:
            raise ValueError(
                f"peer degree {self.kappa_c} must be at least twice the "
                f"minimum bridge degree {self.kappa_b_hat}"
            )

    @classmethod
    def specialized(cls, kappa_b_hat: int, n_o: int) -> GtlParams:
        """Two-parameter regime with kappa_c = 2 * kappa_b_hat."""
        return cls(kappa_b_hat, 2 * kappa_b_hat, n_o)

    @property
    def is_specialized(self) -> bool:
        return self.kappa_c == 2 * self.kappa_b_hat

    @property
    def kappa(self) -> int:
        """Number of peer qubits."""
        return self.n_o * self.kappa_c - (self.n_o - 1) * self.kappa_b_hat

    @property
    def n_qubits(self) -> int:
        return self.n_o + self.kappa


@dataclass(frozen=True)
class GtlState:
    """A built GTL resource: graph plus the orchestration/peer bookkeeping.

    ``bridges`` maps each consecutive orchestration pair to its bridge ids;
    ``leaves`` maps each orchestration qubit to its non-bridge peer neighbors.
    Instances are treated as immutable; resolution runs work on graph copies.
    """

    graph: Graph
    orch: tuple[int, ...]
    peers: frozenset[int]
    bridges: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    leaves: dict[int, tuple[int, ...]] = field(default_factory=dict)
    params: GtlParams | None = None


def build_gtl(params: GtlParams) -> GtlState:
    """Construct the canonical GTL instance for the given parameters.

    Vertex ids are deterministic: orchestration qubits 0..n_o-1 in linear
    order, then peers grouped per orchestration qubit with bridges assigned
    before leaves.
    """
    kb, kc, n_o = params.kappa_b_hat, params.kappa_c, params.n_o
    g = Graph()
    orch = tuple(g.add_vertex() for _ in range(n_o))
    bridges: dict[tuple[int, int], tuple[int, ...]] = {}
    leaves: dict[int, tuple[int, ...]] = {}
    for i, o in enumerate(orch):
        if i + 1 < n_o:
            pair = []
            for _ in range(kb):
                b = g.add_vertex()
                g.add_edge(o, b)
                g.add_edge(orch[i + 1], b)
                pair.append(b)
            bridges[(o, orch[i + 1])] = tuple(pair)
        if n_o == 1:
            n_leaf = kc
        elif i in (0, n_o - 1):
            n_leaf = kc - kb
        else:
            n_leaf = kc - 2 * kb
        own = []
        for _ in range(n_leaf):
            leaf = g.add_vertex()
            g.add_edge(o, leaf)
            own.append(leaf)
        leaves[o] = tuple(own)
    peers = frozenset(v for v in g.vertices() if v not in set(orch))
    return GtlState(graph=g, orch=orch, peers=peers, bridges=bridges, leaves=leaves, params=params)


@dataclass(frozen=True)
class Violation:
    """A violated structural constraint together with a witness."""

    constraint: str
    message: str


@dataclass(frozen=True)
class GtlValidation:
    params: GtlParams | None
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_gtl(graph: Graph, orch: tuple[int, ...], peers: frozenset[int]) -> GtlValidation:
    """Check the GTL structural constraints and infer the parameters.

    Reports every violation, not just the first.  For a single orchestration
    qubit there are no bridges, so kappa_b_hat cannot be inferred from the
    graph; the largest admissible value kappa_c // 2 is reported.
    """
    violations: list[Violation] = []
    live = set(graph.vertices())
    orch_set = set(orch)
    peer_set = set(peers)

    if len(orch) != len(orch_set):
        violations.append(Violation("partition", f"duplicate orchestration ids in {orch}"))
    if orch_set & peer_set:
        violations.append(Violation("partition", f"overlapping partition: {sorted(orch_set & peer_set)}"))
    if orch_set | peer_set != live:
        missing = sorted(live - (orch_set | peer_set))
        extra = sorted((orch_set | peer_set) - live)
        violations.append(Violation("partition", f"partition mismatch: missing={missing} extra={extra}"))
    if violations:
        return GtlValidation(None, tuple(violations))

    for u, v in graph.edges():
        if u in orch_set and v in orch_set:
            violations.append(Violation("two-colorable", f"edge ({u},{v}) inside the orchestration set"))
        if u in peer_set and v in peer_set:
            violations.append(Violation("two-colorable", f"edge ({u},{v}) inside the peer set"))

    # C1: constant peer degree.  The reference value is the maximum observed
    # degree, so that a locally damaged instance is flagged rather than
    # silently reinterpreted.
    degrees = {o: len(graph.neighbors(o) & peer_set) for o in orch}
    kappa_c = max(degrees.values()) if degrees else 0
    for o, d in degrees.items():
        if d != kappa_c:
            violations.append(Violation("C1", f"peer degree of {o} is {d}, expected {kappa_c}"))

    # C2: every bridge is adjacent to exactly one consecutive pair.
    order = {o: i for i, o in enumerate(orch)}
    pair_counts: dict[tuple[int, int], int] = {
        (orch[i], orch[i + 1]): 0 for i in range(len(orch) - 1)
    }
    for c in sorted(peer_set):
        touching = sorted(graph.neighbors(c) & orch_set, key=order.__getitem__)
        if len(touching) <= 1:
            continue
        if len(touching) != 2 or order[touching[1]] - order[touching[0]] != 1:
            violations.append(
                Violation("C2", f"bridge {c} is adjacent to {touching}, not one consecutive pair")
            )
            continue
        pair_counts[(touching[0], touching[1])] += 1

    # C3: constant bridge count per consecutive pair.  The reference comes
    # from the counting identity kappa = n_o*kappa_c - (n_o-1)*kappa_b_hat
    # when it is integral, else from the best-populated pair.
    kappa_b_hat: int | None = None
    if pair_counts:
        n_o = len(orch)
        implied = n_o * kappa_c - len(peer_set)
        if implied % (n_o - 1) == 0 and implied // (n_o - 1) >= 1:
            kappa_b_hat = implied // (n_o - 1)
        else:
            kappa_b_hat = max(pair_counts.values())
        for pair, count in pair_counts.items():
            if count != kappa_b_hat:
                violations.append(
                    Violation("C3", f"pair {pair} shares {count} bridges, expected {kappa_b_hat}")
                )

    if violations:
        return GtlValidation(None, tuple(violations))

    if kappa_b_hat is None:
        kappa_b_hat = max(1, kappa_c // 2)
    try:
        params = GtlParams(kappa_b_hat, kappa_c, len(orch))
    except ValueError as exc:
        return GtlValidation(None, (Violation("parameters", str(exc)),))
    return GtlValidation(params, ())


@dataclass(frozen=True)
class PeerProfile:
    rank: int
    is_bridge: bool


@dataclass(frozen=True)
class OrchestrationProfile:
    peer_degree: int
    bridge_degree: int


def _bridge_set(graph: Graph, orch_set: frozenset[int], peers: frozenset[int]) -> frozenset[int]:
    return frozenset(c for c in peers if len(graph.neighbors(c) & orch_set) > 1)


def structure_profile(state: GtlState, v: int) -> PeerProfile | OrchestrationProfile:
    """Bridge rank for a peer; peer and bridge degree for an orchestration qubit."""
    state.graph._require_live(v)
    orch_set = frozenset(state.orch)
    if v in orch_set:
        nbrs = state.graph.neighbors(v)
        bridges = _bridge_set(state.graph, orch_set, state.peers)
        return OrchestrationProfile(
            peer_degree=len(nbrs & state.peers),
            bridge_degree=len(nbrs & bridges),
        )
    rank = len(state.graph.neighbors(v) & orch_set)
    return PeerProfile(rank=rank, is_bridge=rank > 1)


def bridge_neighborhoods(state: GtlState, o_i: int) -> tuple[frozenset[int], frozenset[int]]:
    """Left and right bridge neighborhoods of an orchestration qubit.

    The right set is shared with the next orchestration qubit in the linear
    order, the left set with the previous one; each is empty at the chain
    boundary.
    """
    if o_i not in state.orch:
        raise ValueError(f"{o_i} is not an orchestration qubit")
    g = state.graph
    idx = state.orch.index(o_i)
    nbrs = g.neighbors(o_i)

    def shared(j: int) -> frozenset[int]:
        if 0 <= j < len(state.orch) and g.is_live(state.orch[j]):
            return nbrs & g.neighbors(state.orch[j])
        return frozenset()

    return shared(idx - 1), shared(idx + 1)


def peer_proximity(state: GtlState, c_i: int, c_j: int) -> int:
    """One plus the number of bridges interior to a shortest peer-to-peer path.

    All shortest paths in a valid GTL carry the same interior bridge count;
    this is asserted by a min/max dynamic program over the BFS layering.
    """
    if c_i == c_j:
        raise ValueError("peer proximity needs two distinct peers")
    for c in (c_i, c_j):
        if c not in state.peers:
            raise ValueError(f"{c} is not a peer qubit")
    g = state.graph
    orch_set = frozenset(o for o in state.orch if g.is_live(o))
    bridges = _bridge_set(g, orch_set, frozenset(v for v in state.peers if g.is_live(v)))

    dist = {c_i: 0}
    layer = [c_i]
    while layer and c_j not in dist:
        nxt = []
        for u in layer:
            for w in sorted(g.neighbors(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        layer = nxt
    if c_j not in dist:
        raise ValueError(f"peers {c_i} and {c_j} are disconnected")

    lo = {c_i: 0}
    hi = {c_i: 0}
    for v in sorted(dist, key=dist.get):
        if v == c_i:
            continue
        preds = [u for u in g.neighbors(v) if dist.get(u) == dist[v] - 1]
        own = 1 if (v in bridges and v != c_j) else 0
        lo[v] = min(lo[u] for u in preds) + own
        hi[v] = max(hi[u] for u in preds) + own
    if lo[c_j] != hi[c_j]:
        raise AssertionError(
            f"shortest paths {c_i}->{c_j} disagree on bridge count ({lo[c_j]} vs {hi[c_j]})"
        )
    return 1 + lo[c_j]


# -- serialization ----------------------------------------------------------


def gtl_to_json(state: GtlState) -> dict:
    data = graph_to_json(state.graph)
    data["orch"] = list(state.orch)
    data["peers"] = sorted(state.peers)
    if state.params is not None:
        data["params"] = {
            "kappa_b_hat": state.params.kappa_b_hat,
            "kappa_c": state.params.kappa_c,
            "n_o": state.params.n_o,
        }
    return data


def _check_params(claimed: GtlParams, inferred: GtlParams | None) -> None:
    """Reject ``params`` that contradict what the graph shows.

    Nothing is inferred from a graph that fails validation, and a single
    orchestration qubit has no bridges to read kappa_b_hat from.
    """
    if inferred is None:
        return
    names = ("kappa_c", "n_o") if inferred.n_o == 1 else ("kappa_b_hat", "kappa_c", "n_o")
    wrong = [n for n in names if getattr(claimed, n) != getattr(inferred, n)]
    if wrong:
        said = ", ".join(f"{n}={getattr(claimed, n)}" for n in wrong)
        shown = ", ".join(f"{n}={getattr(inferred, n)}" for n in wrong)
        raise ValueError(f"GTL JSON field 'params': {said} contradicts the graph, which has {shown}")


def gtl_from_json(data: dict) -> GtlState:
    graph = graph_from_json(data)
    with json_field("GTL JSON", "orch"):
        orch = tuple(int(o) for o in data["orch"])
    with json_field("GTL JSON", "peers"):
        peers = frozenset(int(c) for c in data["peers"])
    params = None
    if "params" in data:
        with json_field("GTL JSON", "params"):
            p = data["params"]
            params = GtlParams(int(p["kappa_b_hat"]), int(p["kappa_c"]), int(p["n_o"]))
    if params is not None:
        _check_params(params, validate_gtl(graph, orch, peers).params)
    orch_set = set(orch)
    bridges: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(len(orch) - 1):
        shared = graph.neighbors(orch[i]) & graph.neighbors(orch[i + 1])
        bridges[(orch[i], orch[i + 1])] = tuple(sorted(shared))
    leaves = {
        o: tuple(sorted(c for c in graph.neighbors(o) if len(graph.neighbors(c) & orch_set) == 1))
        for o in orch
    }
    return GtlState(graph=graph, orch=orch, peers=peers, bridges=bridges, leaves=leaves, params=params)


def gtl_dumps(state: GtlState) -> str:
    return json.dumps(gtl_to_json(state), sort_keys=True)


def gtl_loads(text: str) -> GtlState:
    return gtl_from_json(json.loads(text))
