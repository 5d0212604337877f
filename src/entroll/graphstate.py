"""Graph states as binary adjacency structures with Pauli measurement rules.

A graph state is represented purely by its graph: qubits sit at vertices and
every edge stands for one controlled-Z applied to ``|+>^n``.  Single-qubit
Pauli measurements map graph states to graph states up to local corrections,
so the whole simulator works at the level of the adjacency structure; the
corrections are recorded as data (see :class:`MeasurementRecord`) and only the
dense oracle ever turns them into matrices.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "CORRECTION_TAGS",
    "Graph",
    "MeasurementRecord",
    "PauliString",
    "component_key",
    "gf2_rank",
    "graph_from_json",
    "graph_to_json",
    "local_complement",
    "measure_pauli",
    "stabilizer_generators",
]


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected graph over small integer vertex ids, stored as bit rows.

    Vertex ids are stable: deleting a vertex masks its row and column but
    never compacts ids, so measurement plans and noise supports can keep
    referring to vertices across a whole resolution run.  Deleted ids are
    retired and never reused.
    """

    __slots__ = ("_rows", "_live")

    def __init__(self) -> None:
        self._rows: list[int] = []
        self._live: int = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, n: int = 0) -> Graph:
        """Graph with vertices 0..n-1 and no edges."""
        g = cls()
        for _ in range(n):
            g.add_vertex()
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        g = cls.empty(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> Graph:
        g = Graph()
        g._rows = list(self._rows)
        g._live = self._live
        return g

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of live vertices."""
        return bin(self._live).count("1")

    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self._live))

    def is_live(self, v: int) -> bool:
        return 0 <= v < len(self._rows) and bool(self._live >> v & 1)

    def _require_live(self, v: int) -> None:
        if not self.is_live(v):
            raise ValueError(f"unknown or deleted vertex {v}")

    def neighbor_mask(self, v: int) -> int:
        self._require_live(v)
        return self._rows[v]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.neighbor_mask(v)))

    def degree(self, v: int) -> int:
        return bin(self.neighbor_mask(v)).count("1")

    def has_edge(self, u: int, v: int) -> bool:
        self._require_live(u)
        self._require_live(v)
        return bool(self._rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, lexicographically sorted."""
        out = []
        for u in _bits(self._live):
            for v in _bits(self._rows[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the live graph, ordered by smallest member."""
        seen = 0
        out = []
        for v in _bits(self._live):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                grown = 0
                for u in _bits(frontier):
                    grown |= self._rows[u]
                frontier = grown & ~comp
                comp |= grown
            seen |= comp
            out.append(frozenset(_bits(comp)))
        return tuple(out)

    # -- mutation ----------------------------------------------------------

    def add_vertex(self) -> int:
        v = len(self._rows)
        self._rows.append(0)
        self._live |= 1 << v
        return v

    def add_edge(self, u: int, v: int) -> None:
        self._require_live(u)
        self._require_live(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self._rows[u] |= 1 << v
        self._rows[v] |= 1 << u

    def remove_edge(self, u: int, v: int) -> None:
        self._require_live(u)
        self._require_live(v)
        self._rows[u] &= ~(1 << v)
        self._rows[v] &= ~(1 << u)

    def delete_vertex(self, v: int) -> None:
        self._require_live(v)
        bit = 1 << v
        for u in _bits(self._rows[v]):
            self._rows[u] &= ~bit
        self._rows[v] = 0
        self._live &= ~bit

    def _local_complement(self, a: int) -> None:
        nb = self.neighbor_mask(a)
        for v in _bits(nb):
            self._rows[v] ^= nb & ~(1 << v)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._live != other._live:
            return False
        return all(self._rows[v] == other._rows[v] for v in _bits(self._live))

    def __hash__(self) -> int:
        return hash((self._live, tuple(self._rows[v] for v in _bits(self._live))))

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self.vertices())}, edges={self.edges()})"


def component_key(component: Iterable[int]) -> str:
    """Resource key of a component: its sorted vertex ids joined by '-'."""
    return "-".join(str(v) for v in sorted(component))


@dataclass(frozen=True)
class PauliString:
    """Phased Pauli operator given by its X and Z supports.

    A vertex in both supports carries a Y factor (up to the recorded phase).
    """

    x_support: frozenset[int]
    z_support: frozenset[int]
    phase: complex = 1 + 0j

    def commutes_with(self, other: PauliString) -> bool:
        crossings = len(self.x_support & other.z_support) + len(self.z_support & other.x_support)
        return crossings % 2 == 0


#: Correction tags carried by measurement records.  They name single-qubit
#: Cliffords; the dense oracle maps each tag to a concrete unitary.  SQRT_Z
#: is exp(+i pi/4 Z), SQRT_Y is exp(+i pi/4 Y); *_DAG are their adjoints.
CORRECTION_TAGS = ("Z", "SQRT_Z", "SQRT_Z_DAG", "SQRT_Y", "SQRT_Y_DAG")


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome and local-correction data for one Pauli measurement.

    ``corrections`` lists ``(vertex, tag)`` pairs; the named Cliffords, applied
    to the post-measurement state, bring it to the graph state of the returned
    graph.  They are never applied by the graph-level simulator itself.
    """

    measured: int
    basis: str
    support_choice: int | None
    outcome: int
    corrections: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def local_complement(g: Graph, a: int) -> Graph:
    """Complement all edges inside the neighborhood of ``a``."""
    h = g.copy()
    h._require_live(a)
    h._local_complement(a)
    return h


def measure_pauli(
    g: Graph,
    a: int,
    basis: str,
    support_choice: int | None = None,
    rng: random.Random | None = None,
) -> tuple[Graph, MeasurementRecord]:
    """Measure vertex ``a`` in a Pauli basis and return the new graph.

    The graph update is basis dependent: Z deletes the vertex, Y locally
    complements at the vertex then deletes it, X applies the composite
    local-complement at the support, at the vertex, delete, local-complement
    at the support again.  ``support_choice`` is required for X whenever the
    measured vertex has neighbors and must be one of them.

    With ``rng`` unset the "+" outcome is forced (the graph result is
    outcome independent; only the correction tags differ).  With ``rng`` set
    the sign is sampled fairly, except for the deterministic X measurement of
    an isolated vertex.
    """
    g._require_live(a)
    basis = basis.upper()
    if basis not in ("X", "Y", "Z"):
        raise ValueError(f"unsupported measurement basis {basis!r}")
    nbrs = g.neighbors(a)
    if basis == "X" and nbrs:
        if support_choice is None:
            raise ValueError(f"X measurement of {a} needs a support choice among {sorted(nbrs)}")
        if support_choice not in nbrs:
            raise ValueError(f"support {support_choice} is not a neighbor of {a}")
    if basis != "X" and support_choice is not None:
        raise ValueError("support_choice is only meaningful for X measurements")

    outcome = 1
    if rng is not None and not (basis == "X" and not nbrs):
        outcome = rng.choice((1, -1))

    h = g.copy()
    corrections: tuple[tuple[int, str], ...]
    if basis == "Z":
        h.delete_vertex(a)
        if outcome == 1:
            corrections = ()
        else:
            corrections = tuple((b, "Z") for b in sorted(nbrs))
    elif basis == "Y":
        h._local_complement(a)
        h.delete_vertex(a)
        tag = "SQRT_Z" if outcome == 1 else "SQRT_Z_DAG"
        corrections = tuple((b, tag) for b in sorted(nbrs))
    elif not nbrs:
        # X on an isolated vertex: the qubit is a bare |+>, deterministic "+".
        h.delete_vertex(a)
        corrections = ()
        support_choice = None
    else:
        b0 = support_choice
        assert b0 is not None
        nb0 = g.neighbors(b0)
        h._local_complement(b0)
        h._local_complement(a)
        h.delete_vertex(a)
        h._local_complement(b0)
        if outcome == 1:
            zs = sorted(nbrs - nb0 - {b0})
            corrections = ((b0, "SQRT_Y_DAG"), *((b, "Z") for b in zs))
        else:
            zs = sorted(nb0 - nbrs - {a, b0})
            corrections = ((b0, "SQRT_Y"), *((b, "Z") for b in zs))

    record = MeasurementRecord(
        measured=a,
        basis=basis,
        support_choice=support_choice if basis == "X" else None,
        outcome=outcome,
        corrections=corrections,
    )
    return h, record


def stabilizer_generators(g: Graph) -> list[PauliString]:
    """One generator per live vertex: X there, Z on each neighbor, phase +1."""
    return [PauliString(frozenset({a}), g.neighbors(a)) for a in g.vertices()]


def gf2_rank(g: Graph) -> int:
    """Rank of the live adjacency matrix over GF(2)."""
    rows = [g.neighbor_mask(v) for v in g.vertices()]
    rank = 0
    for col in g.vertices():
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r] >> col & 1:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r] >> col & 1:
                rows[r] ^= rows[rank]
        rank += 1
        if rank == len(rows):
            break
    return rank


# -- serialization ----------------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    """JSON-ready dict: {"n", "edges", "labels"} with deterministic ordering."""
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "labels": {str(v): str(v) for v in g.vertices()},
    }


@contextmanager
def json_field(source: str, name: str) -> Iterator[None]:
    """Re-raise a malformed value of one JSON field as a ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{source} field {name!r}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{source} field {name!r}: {exc}") from None


def graph_from_json(data: dict) -> Graph:
    with json_field("graph JSON", "n"):
        n = int(data["n"])
    with json_field("graph JSON", "labels"):
        live = sorted(int(k) for k in data.get("labels") or {}) or list(range(n))
    if len(live) != n:
        raise ValueError("graph JSON: n does not match the labeled vertex count")
    g = Graph()
    top = max(live, default=-1)
    for _ in range(top + 1):
        g.add_vertex()
    live_set = set(live)
    for v in range(top + 1):
        if v not in live_set:
            g.delete_vertex(v)
    with json_field("graph JSON", "edges"):
        for u, v in data.get("edges", []):
            g.add_edge(int(u), int(v))
    return g


def graph_dumps(g: Graph) -> str:
    return json.dumps(graph_to_json(g), sort_keys=True)


def graph_loads(text: str) -> Graph:
    return graph_from_json(json.loads(text))
