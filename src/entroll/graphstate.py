"""Graph states as binary adjacency structures with Pauli measurement rules.

A graph state is represented purely by its graph: qubits sit at vertices and
every edge stands for one controlled-Z applied to ``|+>^n``.  Single-qubit
Pauli measurements map graph states to graph states up to local corrections,
so the whole simulator works at the level of the adjacency structure; the
corrections are recorded as data (see :class:`MeasurementRecord`) and only the
dense oracle ever turns them into matrices.

Inside ``graphstate``, ``gtl``, ``rolling`` and ``noise`` a vertex set is an
int bitmask: :func:`_mask` builds one, :func:`_bits` lists it in ascending
order.  Frozensets appear only at the public names that return or accept
them: ``Graph.neighbors``/``components``, ``PauliString``,
``bridge_neighborhoods``, ``GtlState.peers``, ``RollingOutcome.rolled_set``/
``components``, ``NoiseMap.from_weights``/``weights()`` and JSON,
``restrict_to_targets``/``fidelity`` and ``CompiledPlan.qubits``.  A mask is
built from an input id only once that id is shown live, or, for a noise-map
support, below ``MAX_QUBITS``, so no bad id is ever shifted.

Liveness is checked at the public entry points and where ``rolling`` and
``noise`` take a plan step; past those checks, internal walks read and write
``Graph._rows``.  One in-place X update, ``Graph._measure_x``, serves
:func:`measure_pauli`, the rolling planner and the noise compiler.  It
refuses a support that is not a live neighbor of the measured qubit, and is
the one home of that rule.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "CORRECTION_TAGS",
    "Graph",
    "MAX_QUBITS",
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


#: Largest resource the package builds (checked by ``GtlParams``), and one past
#: the largest vertex id a loader accepts, so no id from a file is shifted into
#: a mask wider than that.
MAX_QUBITS = 4096


def check_vertex_id(v: int) -> None:
    """Refuse a loaded vertex id that is negative or at least MAX_QUBITS."""
    if v < 0:
        raise ValueError(f"vertex id {v} is negative")
    if v >= MAX_QUBITS:
        raise ValueError(f"vertex id {v} is above the largest supported id {MAX_QUBITS - 1}")


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices: Iterable[int]) -> int:
    """Bitmask of nonnegative vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


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

    def mask(self, vertices: Iterable[int]) -> int:
        """Bitmask of ``vertices``, each of which must be live."""
        out = 0
        for v in vertices:
            self._require_live(v)
            out |= 1 << v
        return out

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
        return tuple(frozenset(_bits(comp)) for comp in self.component_masks())

    def component_masks(self) -> tuple[int, ...]:
        """Connected components as bitmasks, ordered by smallest member."""
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
            out.append(comp)
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

    def _local_complement(self, a: int, cut: int = 0) -> None:
        """LC(a) on the rows; with ``cut = 1 << a`` the neighbors of ``a`` also drop ``a``."""
        rows = self._rows
        nb = rest = rows[a]
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] ^= nb ^ low ^ cut
            rest ^= low

    def _measure_x(self, a: int, b0: int | None) -> int:
        """X-measure live ``a`` with support ``b0`` in place, LC(b0), LC(a), delete ``a``, LC(b0),
        and return the neighbors ``b0`` had before.  The one home of the support rule:
        ``b0`` is a live neighbor of ``a``, or any live vertex if ``a`` is isolated."""
        rows = self._rows
        if nbrs := rows[a]:
            if b0 is None:
                raise ValueError(f"X measurement of {a} needs a support choice among {list(_bits(nbrs))}")
            if not (b0 >= 0 and nbrs >> b0 & 1):
                raise ValueError(f"support {b0} is not a neighbor of {a}")
        before = rows[b0]
        self._local_complement(b0)
        self._local_complement(a, 1 << a)
        rows[a] = 0
        self._live ^= 1 << a
        self._local_complement(b0)
        return before

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


def _pauli_basis(basis: str) -> str:
    """``basis`` in upper case; a ValueError unless it names X, Y or Z."""
    if (basis := basis.upper()) not in ("X", "Y", "Z"):
        raise ValueError(f"unsupported measurement basis {basis!r}")
    return basis


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
    basis = _pauli_basis(basis)
    if basis != "X" and support_choice is not None:
        raise ValueError("support_choice is only meaningful for X measurements")
    nbrs = g._rows[a]
    h = g.copy()
    if basis == "X" and nbrs:
        nb0 = h._measure_x(a, support_choice)
    else:
        if basis == "Y":
            h._local_complement(a)
        h.delete_vertex(a)

    # Drawn after the update, which refuses a bad support: the outcome only
    # picks the corrections, and a refused call leaves ``rng`` as it was.
    outcome = 1
    if rng is not None and (basis != "X" or nbrs):
        outcome = rng.choice((1, -1))

    corrections: tuple[tuple[int, str], ...]
    if basis == "Z":
        corrections = () if outcome == 1 else tuple((b, "Z") for b in _bits(nbrs))
    elif basis == "Y":
        tag = "SQRT_Z" if outcome == 1 else "SQRT_Z_DAG"
        corrections = tuple((b, tag) for b in _bits(nbrs))
    elif not nbrs:
        # X on an isolated vertex: the qubit is a bare |+>, deterministic "+".
        corrections = ()
        support_choice = None
    else:
        b0 = support_choice
        zs = nbrs & ~nb0 if outcome == 1 else nb0 & ~nbrs & ~(1 << a)
        tag = "SQRT_Y_DAG" if outcome == 1 else "SQRT_Y"
        corrections = ((b0, tag), *((b, "Z") for b in _bits(zs & ~(1 << b0))))
    return h, MeasurementRecord(a, basis, support_choice, outcome, corrections)


def stabilizer_generators(g: Graph) -> list[PauliString]:
    """One generator per live vertex: X there, Z on each neighbor, phase +1."""
    return [PauliString(frozenset({a}), g.neighbors(a)) for a in g.vertices()]


def gf2_rank(g: Graph) -> int:
    """Rank of the live adjacency matrix over GF(2)."""
    basis: dict[int, int] = {}  # highest set bit -> basis row
    for v in g.vertices():
        row = g.neighbor_mask(v)
        while (top := row.bit_length()) in basis:  # a zero row has top 0, never a key
            row ^= basis[top]
        if row:
            basis[top] = row
    return len(basis)


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
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{source} field {name!r}: {exc}") from None


def json_int(value: object) -> int:
    """An integer JSON value: ints, integral floats and numeric strings load; a
    bool or a float with a fractional part is refused."""
    out = int(value)  # type: ignore[call-overload]
    if isinstance(value, bool) or (isinstance(value, float) and out != value):
        raise ValueError(f"expected an integer, got {value!r}")
    return out


def json_list(value: object) -> list:
    """A JSON array; a string or an object is refused rather than iterated."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return list(value)


def json_pair(value: object) -> tuple[int, int]:
    """A JSON array of exactly two integers."""
    if len(pair := json_list(value)) != 2:
        raise ValueError(f"expected a pair of integers, got {value!r}")
    return json_int(pair[0]), json_int(pair[1])


def json_float(value: object) -> float:
    """A real JSON value: ints, floats and numeric strings load; a bool is refused."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)  # type: ignore[arg-type]


def json_object(source: str, data: object, fields: tuple[str, ...] | None = None) -> None:
    """Reject a parsed JSON value that is not an object, or, given the field
    names its loader reads, one with any other field."""
    if not isinstance(data, dict):
        raise ValueError(f"{source} must be a JSON object, got {type(data).__name__}")
    for name in data:
        if fields is not None and name not in fields:
            raise ValueError(f"{source} field {name!r} is unknown")


# The fields of a GTL state file: its graph's, then the GTL roles and parameters.
STATE_FIELDS = ("n", "edges", "labels", "orch", "peers", "params")


def graph_from_json(data: dict) -> Graph:
    """The graph of a graph or GTL state object; a field of neither is refused."""
    json_object("graph", data, STATE_FIELDS)
    with json_field("graph JSON", "n"):
        n = json_int(data["n"])
        if n > MAX_QUBITS:
            raise ValueError(f"{n} vertices exceed the bound of {MAX_QUBITS} qubits")
    with json_field("graph JSON", "labels"):
        labels = data.get("labels") or {}
        live = sorted(map(int, labels if isinstance(labels, dict) else json_list(labels))) or list(range(n))
        if live:
            check_vertex_id(live[0])
            check_vertex_id(live[-1])
    if len(live) != n:
        raise ValueError("graph JSON: n does not match the labeled vertex count")
    # Ids absent from the labels are retired, as if added and deleted.
    g = Graph()
    g._rows = [0] * (max(live, default=-1) + 1)
    g._live = _mask(live)
    with json_field("graph JSON", "edges"):
        for edge in json_list(data.get("edges", [])):
            g.add_edge(*json_pair(edge))
    return g

