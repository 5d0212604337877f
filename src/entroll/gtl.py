"""Generalized tree-like (GTL) resource states.

A GTL resource is a two-colorable graph state whose vertices split into an
ordered line of orchestration qubits and a set of peer qubits.  Consecutive
orchestration qubits share a fixed number of rank-2 bridge peers; every
orchestration qubit sees the same number of peers overall.  The family is
parametrized by (kappa_b_hat, kappa_c, n_o) and in the specialized regime
kappa_c = 2 * kappa_b_hat it collapses to two parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .graphstate import (
    MAX_QUBITS, Graph, _bits, _mask, graph_from_json, graph_to_json, json_field, json_int, json_object
)

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
    "structure_profiles",
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
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"a resource of {self.n_qubits} qubits exceeds the bound of {MAX_QUBITS} qubits")

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
    for i, o in enumerate(orch):
        if i + 1 < n_o:
            for _ in range(kb):
                b = g.add_vertex()
                g.add_edge(o, b)
                g.add_edge(orch[i + 1], b)
        if n_o == 1:
            n_leaf = kc
        elif i in (0, n_o - 1):
            n_leaf = kc - kb
        else:
            n_leaf = kc - 2 * kb
        for _ in range(n_leaf):
            g.add_edge(o, g.add_vertex())
    return _gtl_state(g, orch, frozenset(g.vertices()[n_o:]), params)


def _gtl_state(graph: Graph, orch: tuple[int, ...], peers: frozenset[int], params) -> GtlState:
    """The state, with its bridges and leaves read off the graph (orchestration qubits must be live)."""
    orch_mask = graph.mask(orch)
    bridges = {
        (orch[i], orch[i + 1]): tuple(_bits(_bridge_sides(graph, orch, i)[1]))
        for i in range(len(orch) - 1)
    }
    leaves = {
        o: tuple(c for c in _bits(graph.neighbor_mask(o)) if _rank(graph, c, orch_mask) == 1)
        for o in orch
    }
    return GtlState(graph=graph, orch=orch, peers=peers, bridges=bridges, leaves=leaves, params=params)


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

    # Every id is live now, so the two sides can be masks.
    orch_mask, peer_mask = _mask(orch), _mask(peers)
    for u, v in graph.edges():
        if (orch_mask >> u) & (orch_mask >> v) & 1:
            violations.append(Violation("two-colorable", f"edge ({u},{v}) inside the orchestration set"))
        if (peer_mask >> u) & (peer_mask >> v) & 1:
            violations.append(Violation("two-colorable", f"edge ({u},{v}) inside the peer set"))

    # C1: constant peer degree.  The reference value is the maximum observed
    # degree, so that a locally damaged instance is flagged rather than
    # silently reinterpreted.
    degrees = {o: (graph.neighbor_mask(o) & peer_mask).bit_count() for o in orch}
    kappa_c = max(degrees.values()) if degrees else 0
    for o, d in degrees.items():
        if d != kappa_c:
            violations.append(Violation("C1", f"peer degree of {o} is {d}, expected {kappa_c}"))

    # C2: every bridge is adjacent to exactly one consecutive pair.
    order = {o: i for i, o in enumerate(orch)}
    pair_counts: dict[tuple[int, int], int] = {
        (orch[i], orch[i + 1]): 0 for i in range(len(orch) - 1)
    }
    for c in _bits(peer_mask):
        touching = sorted(_bits(graph.neighbor_mask(c) & orch_mask), key=order.__getitem__)
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
        implied = n_o * kappa_c - peer_mask.bit_count()
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


def _rank(graph: Graph, c: int, orch: int) -> int:
    """Number of orchestration qubits in ``orch`` adjacent to ``c``: 1 for a leaf, more for a bridge."""
    return (graph.neighbor_mask(c) & orch).bit_count()


def structure_profile(state: GtlState, v: int) -> PeerProfile | OrchestrationProfile:
    """Bridge rank for a peer; peer and bridge degree for an orchestration qubit."""
    g = state.graph
    g._require_live(v)
    peers = g.mask(state.peers) if v in state.orch else 0
    return _profile(g, v, _mask(o for o in state.orch if g.is_live(o)), peers)


def structure_profiles(state: GtlState) -> dict[int, PeerProfile | OrchestrationProfile]:
    """:func:`structure_profile` of every live vertex, with the masks built once."""
    g = state.graph
    orch = _mask(o for o in state.orch if g.is_live(o))
    peers = g.mask(state.peers) if orch else 0
    return {v: _profile(g, v, orch, peers) for v in g.vertices()}


def _profile(g: Graph, v: int, orch: int, peers: int) -> PeerProfile | OrchestrationProfile:
    """The profile of live ``v``, given the masks of the live orchestration qubits and the peers."""
    if orch >> v & 1:
        nbrs = g.neighbor_mask(v) & peers
        return OrchestrationProfile(
            peer_degree=nbrs.bit_count(),
            bridge_degree=sum(_rank(g, c, orch) > 1 for c in _bits(nbrs)),
        )
    rank = _rank(g, v, orch)
    return PeerProfile(rank=rank, is_bridge=rank > 1)


def _bridge_sides(graph: Graph, orch: tuple[int, ...], i: int) -> tuple[int, int]:
    """Current neighbors ``orch[i]`` shares with the previous and the next live orchestration qubit."""
    nbrs = graph.neighbor_mask(orch[i])

    def shared(j: int) -> int:
        if 0 <= j < len(orch) and graph.is_live(orch[j]):
            return nbrs & graph.neighbor_mask(orch[j])
        return 0

    return shared(i - 1), shared(i + 1)


def bridge_neighborhoods(state: GtlState, o_i: int) -> tuple[frozenset[int], frozenset[int]]:
    """Left and right bridge neighborhoods of an orchestration qubit.

    The right set is shared with the next orchestration qubit in the linear
    order, the left set with the previous one; each is empty at the chain
    boundary.
    """
    if o_i not in state.orch:
        raise ValueError(f"{o_i} is not an orchestration qubit")
    left, right = _bridge_sides(state.graph, state.orch, state.orch.index(o_i))
    return frozenset(_bits(left)), frozenset(_bits(right))


def _bfs_predecessors(graph: Graph, src: int, dst: int) -> dict[int, list[int]]:
    """Shortest-path predecessors from ``src`` of every vertex up to the layer
    that reaches ``dst``, in breadth-first order."""
    dist = {src: 0}
    preds: dict[int, list[int]] = {src: []}
    layer = [src]
    while layer and dst not in dist:
        nxt = []
        for u in layer:
            for w in _bits(graph.neighbor_mask(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    preds[w] = [u]
                    nxt.append(w)
                elif dist[w] == dist[u] + 1:
                    preds[w].append(u)
        layer = nxt
    return preds


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
    orch = _mask(o for o in state.orch if g.is_live(o))
    preds = _bfs_predecessors(g, c_i, c_j)
    if c_j not in preds:
        raise ValueError(f"peers {c_i} and {c_j} are disconnected")

    lo = {c_i: 0}
    hi = {c_i: 0}
    for v, before in preds.items():
        if v == c_i:
            continue
        own = 1 if (v != c_j and v in state.peers and _rank(g, v, orch) > 1) else 0
        lo[v] = min(lo[u] for u in before) + own
        hi[v] = max(hi[u] for u in before) + own
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
        data["params"] = asdict(state.params)
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
    json_object("GTL state", data)
    graph = graph_from_json(data)
    with json_field("GTL JSON", "orch"):
        orch = tuple(json_int(o) for o in data["orch"])
    with json_field("GTL JSON", "peers"):
        peers = frozenset(json_int(c) for c in data["peers"])
    params = None
    if "params" in data:
        with json_field("GTL JSON", "params"):
            p = data["params"]
            params = GtlParams(json_int(p["kappa_b_hat"]), json_int(p["kappa_c"]), json_int(p["n_o"]))
    if params is not None:
        _check_params(params, validate_gtl(graph, orch, peers).params)
    return _gtl_state(graph, orch, peers, params)

