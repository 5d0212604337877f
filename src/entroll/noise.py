"""Exact propagation of Z-type Pauli noise through graph-state measurements.

Every noise channel used here (depolarizing on a graph state, memory
dephasing) is a probabilistic mixture of Z-type Pauli strings.  Commuting
such a mixture through a Pauli measurement replaces each string by its image
under a support-set homomorphism, so a whole resolution run reduces to exact
bookkeeping over GF(2) supports:

* Z measurement of ``a``:  Z_a -> identity, everything else fixed.
* Y measurement of ``a``:  Z_a -> Z on the pre-measurement neighborhood.
* X measurement of ``a`` with support ``b0``:  Z_a -> Z on ``{b0}`` union the
  pre-measurement neighborhood of ``b0`` (minus the vanishing ``a``), and
  Z_b0 -> Z on the post-measurement neighborhood of ``b0``.

Images extend multiplicatively (XOR of supports) to arbitrary strings; global
signs cancel because every branch enters as a conjugation.

A support is a bitmask, as every vertex set inside the package is (see
:mod:`entroll.graphstate`), and branches sort as sorted vertex tuples do
(:func:`_by_support`).  Fresh and closed-form depolarizing maps come from
one span rule, :meth:`CanonicalForm._realize`, so both merge coinciding
branches alike.

Fidelities of the extracted resources come from an XOR convolution of the
per-map branch distributions restricted to one connected component: on a
connected graph state only the empty Z string has nonzero overlap, so the
fidelity is the probability mass of the all-zero restriction.  Only the maps
whose supports touch a component change its law, so each component is scored
over those maps alone, on bitmask supports.

:func:`propagate` followed by :func:`component_fidelities` (both on
``_xor_convolve``) is the stepwise reference.  The images do not depend on
the noise parameters, so :func:`compile_plan` works them out once per plan,
composing the step maps from the last step back, and lists in integer arrays,
for every component of the final graph, the standard-noise maps that touch it
(a vertex isolated at the start touches none).  Those term tables take a few
numpy calls over a bit matrix of the images; a term's restricted branches
follow from the order of its map's supports and two component-local keys.
:func:`score_points` scores any batch of (p, T) points from those tables;
:func:`compiled_fidelities` is its one-point call.

To score a batch, the convolutions are run once over keys instead of
probabilities and recorded as a program of numpy steps: for each key a
step inserts, the (earlier key, weight row) products it sums.
Components whose term lists begin alike share that prefix's law, so each
distinct prefix, a node of a prefix trie, is run once.  One numpy step
applies one term to every node of one trie depth at every point.

A map's supports are 0, A, I and I ^ A (0 and I if dephasing), a subspace,
and so are their restrictions.  A term's basis M is (I,) if dephasing; if
its restricted keys in branch order are 0, m, n and m ^ n, M is (m, n) when
m and n are nonzero and distinct, else the first nonzero one, the keys
coinciding in pairs.  Its marginal keys are the span of M in counting order
(key x is the XOR of the basis vectors at the set bits of x), weighing
[p + w, w, w, w], [(p + w) + w, w + w] or [1 - q, q] for w = (1 - p) / 4:
slot j reads weight row base + j.  Every law's keys are then the
span of an ordered basis in counting order too, starting from the empty
prefix's [0].  The reference visits the pairs (key, marginal key)
key-major and inserts each XOR at its first visit, so parent key i inserts
its whole coset of span(M), in M's counting order, unless an earlier parent
key lies in that coset.  The first keys of the cosets are the indices
``imin`` with no bit at a dependent position j (basis[j] in the span of M
and basis[:j]), so the next basis is M followed by the independent basis
vectors, and the rule holds again.  With s = len(M) and T the parent
indices whose keys lie in span(M), ascending, next key x sums |T| products
in visiting order: product k takes parent index ``imin[x >> s] ^ T[k]``
and marginal slot ``(x & 2**s - 1) ^ coord_M(key(T[k]))``.  No sort is
needed, and a law's size, 2**len(basis), is known before any table is
made: a law of more than ``_MAX_LAW_KEYS`` keys is refused then.  The
scores equal the reference bit for bit:

* each point's weights are computed in Python floats with the reference's
  expressions (``math.exp`` through :func:`dephasing_probability`);
* numpy only multiplies and adds, element by element, one point per column;
  no ``sum``, ``add.reduce``, ``einsum`` or ``matmul``, which may reorder a
  sum.  Nor is Python's built-in ``sum()`` used, which compensates float
  sums from Python 3.12;
* every sum runs in the reference's order: a marginal adds its branches in
  branch order, and a key adds its products in the order the reference
  visits them, which follows each source key's insertion position in the
  running law.  Padding adds an exact 0.0 (the row below a term's base),
  which changes no value here, as every value is finite and nonnegative;
* which maps a point's zero weights drop (all depolarizing maps at p = 1, a
  dephasing map at q = 0) changes the insertion order, so each such drop
  pattern gets its own program, built on first use and cached on the plan.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphstate import (
    Graph, _bits, _mask, check_vertex_id, component_key, json_field, json_float, json_int, json_object,
    measure_pauli,
)
from .gtl import GtlState
from .rolling import ResolutionPlan, _require_specialized, _roll

__all__ = [
    "CanonicalForm",
    "CompiledPlan",
    "NoiseMap",
    "NoiseState",
    "ZOperator",
    "closed_form_maps",
    "compile_plan",
    "compiled_fidelities",
    "component_fidelities",
    "dephasing_map",
    "dephasing_probability",
    "depolarizing_map",
    "fidelity",
    "propagate",
    "propagate_measurement",
    "restrict_to_targets",
    "score_points",
    "standard_noise",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class ZOperator:
    """Pauli string of Z factors only, identified by its support bitmask."""

    mask: int

    @property
    def support(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    @property
    def is_identity(self) -> bool:
        return not self.mask

    def __mul__(self, other: ZOperator) -> ZOperator:
        return ZOperator(self.mask ^ other.mask)


def _precedes(x: int, y: int) -> bool:
    """Whether support ``x`` sorts before a different ``y``, as their sorted vertex tuples do: the
    one holding the lowest vertex in just one of them goes first, unless the other stops before it."""
    low = (x ^ y) & -(x ^ y)
    return y >= low if x & low else x < low


def _by_support(pairs) -> list:
    """``(support, value)`` pairs sorted by :func:`_precedes`, equal supports in their given order."""
    return sorted(pairs, key=_SUPPORT_KEY)


_SUPPORT_KEY = functools.cmp_to_key(lambda x, y: 0 if x[0] == y[0] else -1 if _precedes(x[0], y[0]) else 1)


@dataclass(frozen=True)
class NoiseMap:
    """Probabilistic mixture of Z-type operators attached to one qubit.

    Branches are kept merged (no two share a support) and sorted, so equal
    maps compare equal structurally.  Probabilities must sum to one.
    """

    origin: int
    branches: tuple[tuple[float, ZOperator], ...]

    def __post_init__(self) -> None:
        total = 0.0
        seen = set()
        for prob, op in self.branches:
            if prob < -_PROB_TOL:
                raise ValueError(f"negative branch probability {prob}")
            if op.mask in seen:
                raise ValueError("duplicate branch support; use from_weights to merge")
            seen.add(op.mask)
            total += prob
        if not abs(total - 1.0) <= _PROB_TOL:  # also rejects nan
            raise ValueError(f"branch probabilities sum to {total}, expected 1")

    @classmethod
    def _from_masks(cls, origin: int, weights: dict[int, float]) -> NoiseMap:
        """The map of merged bitmask-keyed weights: zero weights dropped, supports sorted."""
        merged = {s: p for s, p in weights.items() if p != 0.0} or {0: 1.0}
        branches = tuple((p, ZOperator(s)) for s, p in _by_support(merged.items()))
        return cls(origin=origin, branches=branches)

    @classmethod
    def from_weights(cls, origin: int, weights: dict[frozenset[int], float]) -> NoiseMap:
        return cls._from_masks(origin, {_mask(s): p for s, p in weights.items()})

    @functools.cached_property
    def _canonical(self) -> bool:
        """Whether the branches are as ``_from_masks`` leaves them: no zero weight, supports sorted."""
        pairs = [(op.mask, prob) for prob, op in self.branches if prob != 0.0]
        return len(pairs) == len(self.branches) and pairs == _by_support(pairs)

    def weights(self) -> dict[frozenset[int], float]:
        return {op.support: prob for prob, op in self.branches}

    def to_json(self) -> dict:
        return {
            "origin": self.origin,
            "branches": [
                {"p": prob, "support": list(_bits(op.mask))} for prob, op in self.branches
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> NoiseMap:
        """Parse a map object; a malformed field raises a ValueError naming it."""
        json_object("noise map", data)
        with json_field("noise map", "origin"):
            origin = json_int(data["origin"])
            check_vertex_id(origin)
        with json_field("noise map", "branches"):
            weights: dict[frozenset[int], float] = {}
            for b in data["branches"]:
                support: set[int] = set()
                for v in [json_int(v) for v in b["support"]]:
                    check_vertex_id(v)
                    if v in support:
                        raise ValueError(f"support lists vertex {v} twice")
                    support.add(v)
                s = frozenset(support)
                weights[s] = weights.get(s, 0.0) + json_float(b["p"])
            return cls.from_weights(origin, weights)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class CanonicalForm:
    """Weights over the (alpha, beta) exponents of Z_j^alpha * Z_N^beta.

    This is the shape every fresh depolarizing map starts in; it is preserved
    by a full rolling sequence for unmeasured qubits, with only the
    neighborhood changing, which is what makes closed forms possible.
    """

    origin: int
    weights: tuple[tuple[tuple[int, int], float], ...]

    @classmethod
    def depolarizing(cls, origin: int, p: float) -> CanonicalForm:
        w = (1.0 - p) / 4.0
        return cls(
            origin=origin,
            weights=(((0, 0), p + w), ((0, 1), w), ((1, 0), w), ((1, 1), w)),
        )

    def realize(self, neighborhood: frozenset[int]) -> NoiseMap:
        return self._realize(1 << self.origin, _mask(neighborhood))

    def _realize(self, image: int, around: int) -> NoiseMap:
        """The map with Z_j sent to Z on ``image`` and Z_N to Z on ``around``;
        weights landing on one support are summed in weight order."""
        out: dict[int, float] = {}
        for (alpha, beta), weight in self.weights:
            support = (image if alpha else 0) ^ (around if beta else 0)
            out[support] = out.get(support, 0.0) + weight
        return NoiseMap._from_masks(self.origin, out)


@dataclass(frozen=True)
class NoiseState:
    """Current noiseless graph together with the attached noise maps."""

    graph: Graph
    maps: tuple[NoiseMap, ...]


def _check_depolarizing(p: float) -> None:
    """Refuse a depolarizing parameter outside [0, 1] (nan included)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")


def depolarizing_map(g: Graph, a: int, p: float) -> NoiseMap:
    """Single-qubit depolarizing channel written with Z-type operators.

    Identity keeps weight p + (1-p)/4; the strings Z_a, Z on the neighborhood
    of ``a``, and their product carry (1-p)/4 each.  Branches that coincide
    (isolated vertex) are merged.
    """
    _check_depolarizing(p)
    g._require_live(a)
    return CanonicalForm.depolarizing(a, p)._realize(1 << a, g.neighbor_mask(a))


def dephasing_probability(t_ms: float, big_t_ms: float) -> float:
    """Phase-flip probability after waiting t with memory constant T."""
    if not t_ms >= 0:  # also rejects nan
        raise ValueError(f"wait time must be nonnegative, got {t_ms}")
    if not big_t_ms > 0:
        raise ValueError(f"dephasing time must be positive, got {big_t_ms}")
    if math.isinf(big_t_ms):
        return 0.0
    return 0.5 * (1.0 - math.exp(-t_ms / big_t_ms))


def dephasing_map(a: int, t_ms: float, big_t_ms: float) -> NoiseMap:
    """Memory dephasing on one qubit: Z with probability q(t), else identity."""
    q = dephasing_probability(t_ms, big_t_ms)
    return NoiseMap._from_masks(a, {0: 1.0 - q, 1 << a: q})


def standard_noise(
    g: Graph,
    p: float,
    t_ms: float = 1.0,
    big_t_ms: float = math.inf,
    qubit_times_ms: dict[int, float] | None = None,
) -> NoiseState:
    """Depolarizing(p) followed by dephasing(t, T) on every live qubit.

    ``t_ms`` is the uniform accumulated memory time (protocol duration);
    individual qubits can be overridden through ``qubit_times_ms``.
    """
    maps: list[NoiseMap] = []
    for v in g.vertices():
        wait = qubit_times_ms.get(v, t_ms) if qubit_times_ms else t_ms
        maps.append(depolarizing_map(g, v, p))
        maps.append(dephasing_map(v, wait, big_t_ms))
    return NoiseState(graph=g.copy(), maps=tuple(maps))


def _compose(mask: int, rows: dict[int, int]) -> int:
    """XOR of ``rows[w]`` (Z_w itself when absent) over the set bits w of ``mask``.

    The one support substitution.  Stepwise propagation passes one
    measurement's images, so each measured vertex is replaced by its image
    from before that measurement; :func:`compile_plan` composes whole plans.
    """
    out = 0
    while mask:
        low = mask & -mask
        out ^= rows.get(low.bit_length() - 1, low)
        mask ^= low
    return out


def _apply_images(m: NoiseMap, images: dict[int, int]) -> NoiseMap:
    measured = _mask(images)
    if not any(op.mask & measured for _, op in m.branches) and m._canonical:
        return m  # what the rebuild below would give
    out: dict[int, float] = {}
    for prob, op in m.branches:
        key = _compose(op.mask, images) if op.mask & measured else op.mask
        out[key] = out.get(key, 0.0) + prob
    return NoiseMap._from_masks(m.origin, out)


def _measure_x(g: Graph, a: int, b0: int | None) -> dict[int, int]:
    """X-measure ``a`` with support ``b0`` on ``g`` in place, and return the images of Z_a and Z_b0.

    Z_a goes to Z on ``{b0}`` and the old neighborhood of ``b0`` without
    ``a``, and Z_b0 to Z on the new neighborhood of ``b0``.
    """
    if not (nbrs := g.neighbor_mask(a)):
        raise ValueError(f"noise propagation through X on isolated vertex {a} is undefined")
    if b0 is None or not (g.is_live(b0) and nbrs >> b0 & 1):
        raise ValueError(f"X measurement of {a} needs a support among its neighbors")
    image = 1 << b0 | g._rows[b0] & ~(1 << a)
    g._measure_x(a, b0)
    return {a: image, b0: g._rows[b0]}


def propagate_measurement(
    ns: NoiseState, a: int, basis: str, support_choice: int | None = None
) -> NoiseState:
    """Advance the graph by one Pauli measurement and update every map."""
    g = ns.graph
    basis = basis.upper()
    if basis == "X":
        images = _measure_x(g2 := g.copy(), a, support_choice)
    elif basis in ("Y", "Z"):
        g2, _ = measure_pauli(g, a, basis)
        images = {a: g.neighbor_mask(a) if basis == "Y" else 0}
    else:
        raise ValueError(f"unsupported measurement basis {basis!r}")
    maps = tuple(_apply_images(m, images) for m in ns.maps)
    return NoiseState(graph=g2, maps=maps)


def propagate(ns: NoiseState, plan: ResolutionPlan) -> NoiseState:
    """Propagate all noise maps through a resolution plan."""
    for o, b0 in plan.steps:
        ns = propagate_measurement(ns, o, "X", b0)
    for v in plan.z_targets:
        ns = propagate_measurement(ns, v, "Z")
    return ns


# Rows of a point's weight column (see _point_weights): each term kind's
# marginal from its base row on, after a 0.0 for padding.  The depolarizing
# [p + w, w, w, w], [(p + w) + w, w + w] if its branches coincide in pairs
# (summed as the reference merges them), then [1 - q, q] per dephasing source.
_DEPOLARIZING, _MERGED, _DEPHASING = 1, 6, 9

# Marginal codes in a transition template: 0 multiplies by 0.0 (padding) and
# 1 + s by slot s of the term's marginal.
_CODE_SLOT = 1

# Largest component compile_plan tables: a term's code packs its pattern
# (under 8) and two local keys into an int64.  Scoring it takes 2**29 keys.
_MAX_COMPONENT_QUBITS = 29

# Most keys a scored law may hold; the program's tables grow with it.  A
# one-point sweep of the (d, 2) GHZ star, whose law ends with 2**d keys,
# peaked at 54, 227 and 784 MB RSS for d = 14, 16 and 18 (x86-64, numpy 2.4).
_MAX_LAW_KEYS = 1 << 18

# Largest contributions x state rows x points one pass of a program holds;
# bigger batches are scored a slice of points at a time (same arithmetic).
_PASS_CELLS = 1 << 21


@dataclass(frozen=True)
class _Program:
    """The XOR convolutions of every component for one drop pattern, as numpy steps.

    Components whose kept terms begin alike share that prefix's law, bit for
    bit, so the laws computed are those of the nodes of a prefix trie.  After
    step d the state holds the laws of the depth-d nodes side by side, each
    as ``width`` rows (keys in the reference's insertion order, then padding)
    by points; before step 1 it holds the empty prefix's law, key 0 at 1.0.
    Key 0 is the first key of every law, as each term lists its identity
    branch first.  Step ``(src, code, ends, read)`` has (contributions, rows)
    tables: next state row r is ``state[src[0, r]] * weights[code[0, r]] +
    state[src[1, r]] * weights[code[1, r]] + ...``, summed left to right
    over rows of the node's parent, ``code`` indexing the weight column
    itself.  Then the components ``ends`` copy their last nodes' key-0
    rows ``read``; one with no kept terms keeps 1.0.  ``cells`` is the
    largest step's contributions x rows.
    """

    components: int
    cells: int
    steps: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    def run(self, weights: np.ndarray) -> np.ndarray:
        """Fidelities, components by points, from a weight table of rows by points."""
        width = max(1, _PASS_CELLS // max(1, self.cells))
        if weights.shape[1] > width:
            return np.concatenate(
                [self.run(weights[:, i : i + width]) for i in range(0, weights.shape[1], width)],
                axis=1,
            )
        weights = np.ascontiguousarray(weights)  # score_points passes a transpose
        out = np.ones((self.components, weights.shape[1]))
        state = np.ones((1, weights.shape[1]))
        for src, code, ends, read in self.steps:
            terms = state.take(src, axis=0)
            terms *= weights.take(code, axis=0)
            state = terms[0]
            for term in terms[1:]:
                state += term
            if len(ends):
                out[ends] = state.take(read, axis=0)
        return out


@dataclass(frozen=True)
class CompiledPlan:
    """A resolution plan reduced to the term tables that score (p, T) points.

    ``graph`` is the final graph and ``qubits`` the live vertices of the
    start graph, the qubits :func:`standard_noise` puts maps on.
    ``components`` lists the resource keys of the multi-qubit components of
    ``graph``, and ``dephasing`` the sorted origins of the dephasing maps
    that touch one.  A term is a map touching a component; the ``term_*``
    arrays list them component by component, in map order: component,
    dephasing source (index into ``dephasing``; -1 if depolarizing) and
    basis (index into ``bases``).  A basis is that of a term's marginal keys
    on component-local bits (bit j for the j-th vertex; see the module
    docstring); with the source and the basis size it gives the term's
    marginal, so no table depends on the noise parameters.  ``programs``
    caches one compiled convolution per drop pattern.
    """

    graph: Graph
    qubits: frozenset[int]
    components: tuple[str, ...]
    dephasing: tuple[int, ...]
    bases: tuple[tuple[int, ...], ...]
    term_component: np.ndarray = field(compare=False, repr=False)
    term_source: np.ndarray = field(compare=False, repr=False)
    term_basis: np.ndarray = field(compare=False, repr=False)
    programs: dict = field(default_factory=dict, compare=False, repr=False)


def compile_plan(g: Graph, plan: ResolutionPlan) -> CompiledPlan:
    """Compile a plan on graph ``g`` for :func:`compiled_fidelities` and :func:`score_points`.

    Raises the same errors as :func:`propagate` on a plan that cannot run,
    and a ValueError for a component too large to score.
    """
    start, g = g, g.copy()
    steps = [_measure_x(g, a, b0) for a, b0 in plan.steps]
    # Z measurements commute: each deletes its vertex (raising as
    # measure_pauli does for a dead one) and drops it from every image.
    for v in plan.z_targets:
        g.delete_vertex(v)
    # Composed from the last step back, rows[v] is the final image of Z_v:
    # each step rewrites the rows of its two measured vertices from the old rows.
    rows: dict[int, int] = {}
    for step in reversed(steps):
        rows.update({v: _compose(image, rows) for v, image in step.items()})
    kept = ~_mask(plan.z_targets)

    # The maps of standard_noise, in its order, on the start vertices with
    # neighbors (an isolated one never gains an edge, so its maps touch no
    # component).  A depolarizing map's final supports are 0, A, I and I ^ A
    # for I the image of Z_v and A that of its neighborhood.  Restriction to a
    # component is linear, so their keys there are distinct or coincide in
    # pairs (all four on 0 is no term): a key sums at most two weights, alike
    # in either order, so merging coinciding supports first changes no score.
    # A map's pattern is the kinds (1, 2, 3 for A, I, I ^ A) of its second and
    # third branches, 0 being first as it precedes any other support and the
    # fourth their XOR, so restricting it needs only the local keys of I and
    # A.  Pattern 0, (2, 2), is a dephasing map's: its keys are 0 and I.
    vertices, start_rows = start.vertices(), start._rows
    verts = [v for v in vertices if start_rows[v]]
    image = {v: rows.get(v, 1 << v) & kept for v in verts}
    patterns = {(2, 2): 0}
    around, pattern = [], []
    for v in verts:
        i, a = image[v], _compose(start_rows[v], image)
        kinds = tuple(k for _, k in _by_support(((a, 1), (i, 2), (i ^ a, 3))))
        pattern.append(patterns.setdefault(kinds[:2], len(patterns)))
        around.append(a)

    # Local keys (bit j for a component's j-th vertex) from a bit matrix with
    # a row per vertex id, whose row past the last vertex pads small
    # components, and a column per I_v, then per A_v.
    members = [list(_bits(c)) for c in g.component_masks() if c & (c - 1)]
    size = max(map(len, members), default=0)
    if size > _MAX_COMPONENT_QUBITS:
        limit = _MAX_COMPONENT_QUBITS
        raise ValueError(f"a component of {size} qubits is too large to score (at most {limit})")
    pad = max(vertices, default=0) + 1
    width = pad // 8 + 1
    blob = b"".join(x.to_bytes(width, "little") for x in [image[v] for v in verts] + around)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8).reshape(-1, width).T, axis=0, bitorder="little")
    columns = np.array([m + [pad] * (size - len(m)) for m in members], dtype=np.intp)
    gathered = bits[columns.reshape(len(members), size)]
    local = np.bitwise_or.reduce(np.left_shift(gathered, np.arange(size)[:, None], dtype=np.int32), axis=1)
    li, la = local[:, : len(verts)], local[:, len(verts) :]

    # A depolarizing map touches a component iff I or A does there, a
    # dephasing map iff I does; nonzero lists the terms component-major.
    comp, vertex, kind = np.nonzero(np.stack([(li | la) != 0, li != 0], axis=2))
    term_la = np.where(kind, 0, la[comp, vertex])
    term_pattern = np.where(kind, 0, np.array(pattern, dtype=np.int64)[vertex])
    term_code = (term_pattern << size | li[comp, vertex]) << size | term_la  # in int64
    codes, inverse = np.unique(term_code, return_inverse=True)
    # Each distinct code gets its basis once; equal bases share an id.
    interned: dict = {}
    ids, low, by_id = [], (1 << size) - 1, list(patterns)
    for code in codes.tolist():
        keys = (0, code & low, code >> size & low, (code ^ code >> size) & low)
        m, n = (keys[k] for k in by_id[code >> 2 * size])
        ids.append(interned.setdefault((m, n) if m and n and m != n else (m or n,), len(interned)))
    dephasing = (li != 0).any(axis=0)  # the vertices whose dephasing map is a term
    return CompiledPlan(
        graph=g,
        qubits=frozenset(vertices),
        components=tuple(component_key(m) for m in members),
        dephasing=tuple(verts[i] for i in np.flatnonzero(dephasing).tolist()),
        bases=tuple(interned),
        term_component=comp,
        term_source=np.where(kind, np.cumsum(dephasing)[vertex] - 1, -1),
        term_basis=np.array(ids, dtype=np.intp)[inverse],
    )


def _point_weights(
    compiled: CompiledPlan,
    p: float,
    t_ms: float = 1.0,
    big_t_ms: float = math.inf,
    qubit_times_ms: dict[int, float] | None = None,
) -> tuple[list[float], tuple[bool, int]]:
    """Weight column of one point, and its drop pattern.

    The weights come from the expressions :func:`standard_noise` uses, in
    Python floats.  A zero weight drops its branch (NoiseMap.from_weights),
    which leaves only a map's identity branch: the map then changes no law.
    The pattern names the maps dropped so: all depolarizing maps (w = 0),
    and the mask of dephasing sources with q = 0.
    """
    _check_depolarizing(p)
    w = (1.0 - p) / 4.0
    # standard_noise reads a wait only for a vertex of the graph, and the
    # uniform wait only for a vertex without its own.
    waits = {v: t for v, t in (qubit_times_ms or {}).items() if v in compiled.qubits}
    uniform = 0.0  # computed below only if some vertex has no wait of its own
    try:
        q = {t: dephasing_probability(t, big_t_ms) for t in waits.values()}
        if len(waits) < len(compiled.qubits):
            uniform = dephasing_probability(t_ms, big_t_ms)
    except ValueError:
        for v in sorted(compiled.qubits):  # raise for the first vertex, as standard_noise does
            dephasing_probability(waits.get(v, t_ms), big_t_ms)
        raise
    column = [0.0, p + w, w, w, w, 0.0, p + w + w, w + w]
    if waits:
        qs = [q[waits[v]] if v in waits else uniform for v in compiled.dephasing]
        zero = _mask(v for v, x in zip(compiled.dephasing, qs) if x == 0.0)
        for x in qs:
            column += (0.0, 1.0 - x, x)
    else:
        column += [0.0, 1.0 - uniform, uniform] * len(compiled.dephasing)
        zero = _mask(compiled.dephasing) if uniform == 0.0 else 0
    return column, (w == 0.0, zero)


def score_points(compiled: CompiledPlan, points) -> np.ndarray:
    """Fidelity of every extracted resource at many points, in one pass per drop pattern.

    Each point is ``(p, t_ms, big_t_ms, qubit_times_ms)``, the arguments of
    :func:`compiled_fidelities`.  Row i of the result holds point i's
    fidelities in ``compiled.components`` order, each equal, bit for bit, to
    the stepwise reference (see the module docstring).
    """
    columns: list[list[float]] = []
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, point in enumerate(points):
        column, pattern = _point_weights(compiled, *point)
        columns.append(column)
        groups.setdefault(pattern, []).append(i)
    out = np.empty((len(columns), len(compiled.components)))
    for pattern, indices in groups.items():
        program = compiled.programs.get(pattern)
        if program is None:
            program = compiled.programs[pattern] = _build_program(compiled, *pattern)
        weights = np.array([columns[i] for i in indices], dtype=np.float64).T
        out[indices] = program.run(weights).T
    return out


def compiled_fidelities(
    compiled: CompiledPlan,
    p: float,
    t_ms: float = 1.0,
    big_t_ms: float = math.inf,
    qubit_times_ms: dict[int, float] | None = None,
) -> dict[str, float]:
    """Fidelity of every extracted resource at one (p, T) point.

    Equal, bit for bit, to ``component_fidelities(propagate(standard_noise(g,
    p, t_ms, big_t_ms, qubit_times_ms), plan))`` for the graph and plan
    ``compiled`` was compiled from.  One point of :func:`score_points`.
    """
    row = score_points(compiled, [(p, t_ms, big_t_ms, qubit_times_ms)])[0]
    return dict(zip(compiled.components, row.tolist()))


def _transition(basis: tuple[int, ...], m: tuple[int, ...]):
    """One step of _xor_convolve run on keys, in closed form over bases (see the module docstring).

    ``basis`` is the law's and ``m`` the term's, which must be independent.
    Returns the next basis and a function making the (contributions, next
    keys) table pair: each product's parent index and marginal code.
    """
    s = len(m)
    # Reduce M, then the basis, by top bit; bit j of a tag names (m + basis)[j].
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (reduced key, tag)
    inside, dependent = [0], 0  # the tags of T, ascending
    for j, key in enumerate(m + basis):
        tag = 1 << j
        while key.bit_length() in pivots:
            k, t = pivots[key.bit_length()]
            key, tag = key ^ k, tag ^ t
        if key:
            pivots[key.bit_length()] = (key, tag)
        else:  # basis[j - s] is dependent: its tag's other bits lie below j and on no dependent one
            assert j >= s, f"term basis {m} is dependent"
            inside += [t ^ tag for t in inside]
            dependent |= 1 << j - s
    nxt = m + tuple(b for j, b in enumerate(basis) if not dependent >> j & 1)

    def tables() -> tuple[np.ndarray, np.ndarray]:
        i, x, t = np.arange(1 << len(basis)), np.arange(1 << len(nxt)), np.array(inside)[:, None]
        return i[i & dependent == 0][x >> s] ^ t >> s, _CODE_SLOT + ((x ^ t) & (1 << s) - 1)

    return nxt, tables


def _build_program(compiled: CompiledPlan, drop_depolarizing: bool, zero: int) -> _Program:
    """Run the convolution over keys once per trie node, and lay the nodes out depth by depth.

    A node is a distinct prefix of some component's kept terms, a term's
    kind being its (basis, first weight row) pair.  Transitions are memoized
    on bases, so the nodes of a ladder share them; a node's codes are its
    template's, moved onto its kind's weight rows.  The tables use the
    narrowest unsigned type that holds their entries: a wide star's tables
    hold as many entries as one point's convolution has products, and their
    size sets the scoring's peak memory, so a law above _MAX_LAW_KEYS keys
    raises a ValueError before any table is made.
    """
    # Source -1 (depolarizing) reads the last entry.
    dropped = np.array([zero >> v & 1 for v in compiled.dephasing] + [drop_depolarizing], dtype=bool)
    keep = ~dropped[compiled.term_source]
    source = compiled.term_source[keep]
    term_basis = compiled.term_basis[keep]
    first_row = np.array([_MERGED if len(m) == 1 else _DEPOLARIZING for m in compiled.bases], dtype=np.int64)
    n_rows = _DEPHASING - 1 + 3 * len(compiled.dephasing)
    n_kinds = len(compiled.bases) * n_rows
    kinds = term_basis * n_rows + np.where(source < 0, first_row[term_basis], _DEPHASING + 3 * source)
    counts = np.bincount(compiled.term_component[keep], minlength=len(compiled.components))
    # The trie maps node * n_kinds + kind to the child node; node 0 is the
    # empty prefix, and a node's number is its place in creation order.
    trie: dict[int, int] = {}
    ends, at, walk = [], 0, kinds.tolist()
    for count in counts.tolist():
        node = 0
        for kind in walk[at : at + count]:
            node = trie.setdefault(node * n_kinds + kind, len(trie) + 1)
        ends.append(node)
        at += count
    parent, kind = np.divmod(np.array([0, *trie], dtype=np.int64), max(n_kinds, 1))  # the root reads as 0
    bid, base = np.divmod(kind, n_rows)

    # A parent precedes its children, so one pass gives each node its basis,
    # its depth and the template that makes it.
    transitions: dict = {}  # (basis, term basis id) -> (next basis, tables, template)
    basis_of, depth, template = [()], [0], [0]
    for p, b in zip(parent[1:].tolist(), bid[1:].tolist()):
        memo = (basis_of[p], b)
        if memo not in transitions:
            transitions[memo] = (*_transition(basis_of[p], compiled.bases[b]), len(transitions))
        basis, _, t = transitions[memo]
        basis_of.append(basis)
        depth.append(depth[p] + 1)
        template.append(t)
    for name, node in zip(compiled.components, ends):  # a law never shrinks along its path
        if (keys := 1 << len(basis_of[node])) > _MAX_LAW_KEYS:
            raise ValueError(f"scoring component {name} takes {keys:,} keys (at most {_MAX_LAW_KEYS:,})")

    width = 1 << max(map(len, basis_of))
    depth, template = np.array(depth), np.array(template)
    by_depth = np.argsort(depth, kind="stable")
    level = np.searchsorted(depth[by_depth], np.arange(depth.max() + 2))  # start of each depth
    place = np.empty_like(by_depth)  # a node's place among its depth's nodes
    place[by_depth] = np.arange(len(depth)) - level[depth[by_depth]]
    index = np.min_scalar_type(max(width * int(np.diff(level).max()), n_rows))

    templates = [np.array(tables()) for _, tables, _ in transitions.values()]
    contributions = np.array([pair.shape[1] for pair in templates] or [1])[template]
    src_table, code_table = table = np.zeros((2, len(templates), int(contributions.max()), width), dtype=index)
    for t, pair in enumerate(templates):  # pads with source 0 and code 0
        table[:, t, : pair.shape[1], : pair.shape[2]] = pair

    # The steps' tables, one after another: a step's hold one row per
    # contribution and node, contribution-major, nodes in place order.
    nodes, sizes = by_depth[1:], np.diff(level)[1:]
    widest = np.maximum.reduceat(contributions[nodes], level[1:-1] - 1)  # contributions per step
    repeats = widest[depth[nodes] - 1]
    member = np.repeat(nodes, repeats)
    j = np.arange(len(member)) - np.repeat(np.cumsum(repeats) - repeats, repeats)
    order = np.lexsort((j, depth[member]))  # stable, so nodes stay in place order
    member, j = member[order], j[order]
    src = src_table[template[member], j]
    src += (place[parent[member]] * width).astype(index)[:, None]
    code = code_table[template[member], j]
    code += (base[member] - 1).astype(index)[:, None]
    # Components by the depth of their last node, with that node's key-0 row.
    ends = np.array(ends, dtype=np.intp)
    by_end = np.argsort(depth[ends], kind="stable")
    finished = np.searchsorted(depth[ends[by_end]], np.arange(len(level))).tolist()
    read = place[ends[by_end]] * width
    cuts = [0, *np.cumsum(widest * sizes).tolist()]
    tables = zip(cuts, cuts[1:], widest.tolist(), finished[1:], finished[2:])
    steps = tuple(
        (src[a:b].reshape(c, -1), code[a:b].reshape(c, -1), by_end[f:g], read[f:g]) for a, b, c, f, g in tables
    )
    return _Program(
        components=len(compiled.components),
        cells=int((widest * sizes).max(initial=0)) * width,
        steps=steps,
    )


def closed_form_maps(state: GtlState, plan: ResolutionPlan, p: float) -> list[NoiseMap]:
    """Closed-form updated depolarizing maps after a full rolling sequence.

    Valid for specialized GTL states with kappa_b_hat >= 2 and a plan that
    rolls the whole chain in linear (or exactly reversed) order with supports
    taken from the current bridge side, ending on a leaf of the final
    orchestration qubit.  Every peer then falls into one of three classes --
    support vertex, finally-rolled vertex, or dropped non-support bridge --
    and its map stays in canonical form with the neighborhood listed below.
    Orchestration maps collapse to two branches: identity and Z on the
    remaining support vertices.
    """
    _check_depolarizing(p)
    _require_specialized(state, "closed forms need the specialized regime with kappa_b_hat >= 2")
    if plan.z_targets:
        raise ValueError("closed forms cover the rolling stage only; drop the isolation stage")
    measured = [o for o, _ in plan.steps]
    if measured == list(state.orch):
        orch = state.orch
    elif measured == list(reversed(state.orch)):
        orch = tuple(reversed(state.orch))
    else:
        raise ValueError("plan must roll the full chain in linear or reversed order")

    def planned(i: int, side: int) -> int:
        b0 = plan.steps[i][1]
        if b0 < 0 or not side >> b0 & 1:
            raise ValueError(
                f"support {b0} for step {i} is not on the current bridge side; "
                "closed forms only cover canonical rolling sequences"
            )
        return b0

    trace = list(_roll(state.graph, orch, planned))
    supports = [t.support for t in trace]
    gamma_final = trace[-1].rolled
    support_index = {b0: m for m, b0 in enumerate(supports)}
    nonsupport_index = {v: m for m, t in enumerate(trace) for v in _bits(t.nonsupport)}

    maps: list[NoiseMap] = []
    for q in state.graph.vertices():
        image = 1 << q
        if q in support_index:
            tilde_n = gamma_final | trace[support_index[q]].nonsupport
        elif gamma_final >> q & 1:
            tilde_n = _mask(supports)
        elif q in nonsupport_index:
            tilde_n = 1 << supports[nonsupport_index[q]]
        elif q in state.peers:
            raise ValueError(f"peer {q} is not covered by the rolling sequence")
        else:  # measured: Z_q is gone, Z on its neighborhood went to the later supports
            image, tilde_n = 0, _mask(supports[orch.index(q) :])
        maps.append(CanonicalForm.depolarizing(q, p)._realize(image, tilde_n))
    return maps


def _xor_convolve(maps) -> dict[int, float]:
    """Law of the XOR of one independent draw per map, over bitmask supports.

    Each map comes as its (restricted support, probability) branches in
    branch order.  Equal supports are summed in that order, and a map whose
    branches all restrict to the identity is skipped.
    """
    dist: dict[int, float] = {0: 1.0}
    for branches in maps:
        marginal: dict[int, float] = {}
        for key, prob in branches:
            marginal[key] = marginal.get(key, 0.0) + prob
        if len(marginal) == 1 and 0 in marginal:
            continue
        nxt: dict[int, float] = {}
        pairs = tuple(marginal.items())  # a tuple iterates faster than a dict view
        for s0, p0 in dist.items():
            for s1, p1 in pairs:
                key = s0 ^ s1
                nxt[key] = nxt.get(key, 0.0) + p0 * p1
        dist = nxt
    return dist


def _restricted_law(maps, mask: int) -> dict[int, float]:
    """XOR law of the maps' branch supports restricted to ``mask``."""
    return _xor_convolve([(op.mask & mask, prob) for prob, op in m.branches] for m in maps)


def restrict_to_targets(
    maps: tuple[NoiseMap, ...] | list[NoiseMap],
    targets: frozenset[int],
    graph: Graph,
) -> dict[frozenset[int], float]:
    """Joint distribution of the combined Z support restricted to one component.

    The restriction is only sound when the final state factorizes over
    components, so ``targets`` must be exactly one connected component of
    ``graph``.  The joint law is the XOR convolution of the per-map restricted
    branch distributions; cost is O(total branches * 2^{|targets|}).
    """
    targets = frozenset(targets)
    if targets not in graph.components():
        raise ValueError(f"targets {sorted(targets)} are not a full connected component")
    law = _restricted_law(maps, _mask(targets))
    return {frozenset(_bits(support)): prob for support, prob in law.items()}


def fidelity(ns: NoiseState, targets: frozenset[int]) -> float:
    """Fidelity of one extracted component against its ideal graph state.

    Any nonempty Z string has zero overlap on a connected graph state (every
    stabilizer element other than identity carries X factors), so the
    fidelity is the probability of the all-identity restriction.
    """
    targets = frozenset(targets)
    if len(targets) < 2:
        raise ValueError("fidelity target must be an entangled component (two or more qubits)")
    dist = restrict_to_targets(ns.maps, targets, ns.graph)
    return dist.get(frozenset(), 0.0)


def component_fidelities(ns: NoiseState) -> dict[str, float]:
    """Fidelity of every multi-qubit component, keyed by its sorted vertex ids."""
    return {
        component_key(_bits(mask)): _restricted_law(ns.maps, mask).get(0, 0.0)
        for mask in ns.graph.component_masks()
        if mask & (mask - 1)
    }
