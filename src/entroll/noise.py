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
one span rule, :func:`_depolarizing`, so both merge coinciding branches
alike.

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
step keeps, the (earlier key, weight row) products it sums.
Components whose term lists begin alike share that prefix's law, so each
distinct prefix, a node of a prefix trie, is run once.  One numpy step
applies one term to every node of one trie depth at every point.

Only key 0 of a component's last law is read, and a key can reach it only
if it lies in the span of the marginal keys of the terms still to come.  So
each node keeps only the keys of its law in its needed subspace: over its
children c, the sum of span(M_c) and c's own needed subspace (M_c being the
basis of c's term, below); key 0 is always kept.  No kept key loses a
product: a parent of a kept key y of child c is y ^ k for k in span(M_c),
which lies in c's parent's needed subspace and is kept too.  A dropped key
feeds only dropped keys, so the kept keys of a law keep their relative
insertion order, and each kept sum its products in their order.

A map's supports are 0, A, I and I ^ A (0 and I if dephasing), a subspace,
and so are their restrictions.  A term's basis M is (I,) if dephasing; if
its restricted keys in branch order are 0, m, n and m ^ n, M is (m, n) when
m and n are nonzero and distinct, else the first nonzero one, the keys
coinciding in pairs.  Its marginal keys are the span of M in counting order
(key x is the XOR of the basis vectors at the set bits of x), weighing
[p + w, w, w, w], [(p + w) + w, w + w] or [1 - q, q] for w = (1 - p) / 4:
slot j reads weight row base + j.  Every kept law's keys are then the
span of an ordered basis in counting order too, starting from the empty
prefix's [0].  The reference visits the pairs (key, marginal key)
key-major and inserts each XOR at its first visit, so parent key i inserts
its whole coset of span(M), in M's counting order, unless an earlier parent
key lies in that coset.  The first keys of the cosets are the indices
``imin`` with no bit at a dependent position j (basis[j] in the span of M
and basis[:j]), so the next basis is M followed by the independent basis
vectors.  With s = len(M) and T the parent indices whose keys lie in
span(M), ascending, next key x sums |T| products in visiting order:
product k takes parent index ``imin[x >> s] ^ T[k]`` and marginal slot
``(x & 2**s - 1) ^ coord_M(key(T[k]))``.  The indices of the next keys in
the needed subspace form a subspace of the index space.  Ascending index
order is the counting order of its echelon basis by top bit, so the kept
keys are the span of those basis indices' keys in counting order, and the
rule holds again.  No sort is needed, and a law's size, 2**len(basis), is
known before any table is made: a law of more than ``_MAX_LAW_KEYS`` keys
is refused then.  The scores equal the reference bit for bit:

* q is computed in Python floats (``math.exp`` through dephasing_probability),
  the other weights by the reference's expressions, element by element;
* the steps only multiply and add, element by element, one point per column;
  no ``sum``, ``add.reduce``, ``einsum`` or ``matmul``, which may reorder a
  sum.  Nor is Python's built-in ``sum()`` used, which compensates float
  sums from Python 3.12;
* every sum runs in the reference's order: a marginal adds its branches in
  branch order, and a kept key adds all its products in the order the
  reference visits them, which follows each source key's insertion
  position in the running law.  Padding adds an exact 0.0 (the row below a
  term's base), which changes no value here, as every value is finite and
  nonnegative;
* a zero weight drops its branch, so a term whose non-identity weight is
  0.0 (w at p = 1, or q = 0) is left out.  That changes the insertion order,
  so each set of zeroed weight rows gets its own program, cached on the plan.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphstate import (
    Graph, _bits, _mask, _pauli_basis, check_vertex_id, component_key, json_field, json_float, json_int,
    json_list, json_object, measure_pauli,
)
from .gtl import GtlState
from .rolling import ResolutionPlan, _require_specialized, _roll

__all__ = [
    "CompiledPlan",
    "NoiseMap",
    "NoiseState",
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


def _precedes(x: int, y: int) -> bool:
    """Whether support ``x`` sorts before ``y`` (never when equal), as their sorted vertex tuples do:
    the one holding the lowest vertex in just one of them goes first, unless the other stops before it."""
    low = (x ^ y) & -(x ^ y)
    return y >= low if x & low else x < low


def _first_kinds(a: int, i: int) -> tuple[int, int]:
    """The kinds (1, 2, 3 for ``a``, ``i``, ``i ^ a``) of the first two of those supports in
    :func:`_by_support` order, equal supports in kind order."""
    b = i ^ a
    i_a, b_a, b_i = _precedes(i, a), _precedes(b, a), _precedes(b, i)
    rank = (i_a + b_a, 1 - i_a + b_i, 2 - b_a - b_i)  # how many go before a, i and b
    return rank.index(0) + 1, rank.index(1) + 1


def _by_support(pairs) -> list:
    """``(support, value)`` pairs sorted by :func:`_precedes`, equal supports in their given order."""
    return sorted(pairs, key=_SUPPORT_KEY)


_SUPPORT_KEY = functools.cmp_to_key(lambda x, y: 0 if x[0] == y[0] else -1 if _precedes(x[0], y[0]) else 1)


@dataclass(frozen=True)
class NoiseMap:
    """Probabilistic mixture of Z strings attached to one qubit.

    Each branch is a ``(probability, support)`` pair, the support a
    nonnegative int bitmask of the Z string's vertices.  Branches are kept
    merged (no two share a support) and sorted, so equal maps compare equal
    structurally.  Probabilities must sum to one.
    """

    origin: int
    branches: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        total = 0.0
        seen = set()
        for prob, s in self.branches:
            if type(s) is not int or s < 0:  # a negative mask never empties under the bit walks
                raise ValueError(f"branch support {s!r} is not a nonnegative int bitmask")
            if prob < -_PROB_TOL:
                raise ValueError(f"negative branch probability {prob}")
            if s in seen:
                raise ValueError("duplicate branch support; use from_weights to merge")
            seen.add(s)
            total += prob
        if not abs(total - 1.0) <= _PROB_TOL:  # also rejects nan
            raise ValueError(f"branch probabilities sum to {total}, expected 1")

    @classmethod
    def _from_masks(cls, origin: int, weights: dict[int, float]) -> NoiseMap:
        """The map of merged bitmask-keyed weights: zero weights dropped, supports sorted."""
        merged = {s: p for s, p in weights.items() if p != 0.0}
        m = cls(origin=origin, branches=tuple((p, s) for s, p in _by_support(merged.items())))
        m.__dict__["_canonical"] = True  # what the check below would find
        return m

    @classmethod
    def from_weights(cls, origin: int, weights: dict[frozenset[int], float]) -> NoiseMap:
        return cls._from_masks(origin, {_mask(s): p for s, p in weights.items()})

    @functools.cached_property
    def _canonical(self) -> bool:
        """Whether the branches are as ``_from_masks`` leaves them: no zero weight, supports sorted.

        ``_from_masks`` sets it; a map from the constructor is checked here.
        """
        pairs = [(s, prob) for prob, s in self.branches if prob != 0.0]
        return len(pairs) == len(self.branches) and pairs == _by_support(pairs)

    def weights(self) -> dict[frozenset[int], float]:
        return {frozenset(_bits(s)): prob for prob, s in self.branches}

    def to_json(self) -> dict:
        return {
            "origin": self.origin,
            "branches": [{"p": prob, "support": list(_bits(s))} for prob, s in self.branches],
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
            for b in json_list(data["branches"]):
                support: set[int] = set()
                for v in [json_int(v) for v in json_list(b["support"])]:
                    check_vertex_id(v)
                    if v in support:
                        raise ValueError(f"support lists vertex {v} twice")
                    support.add(v)
                s = frozenset(support)
                weights[s] = weights.get(s, 0.0) + json_float(b["p"])
            return cls.from_weights(origin, weights)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _depolarizing(origin: int, p: float, image: int, around: int) -> NoiseMap:
    """Depolarizing(p) on ``origin`` with Z_origin sent to Z on ``image`` and Z on its neighborhood
    to Z on ``around``.

    A fresh map has ``image`` the origin and ``around`` its neighborhood; a
    full rolling sequence keeps this shape for unmeasured qubits, changing
    only ``around``, which is what makes closed forms possible.  Weights
    landing on one support are summed in the order p + w, then w on
    ``around``, on ``image`` and on ``image ^ around``, for w = (1 - p) / 4.
    """
    w = (1.0 - p) / 4.0
    out = {0: p + w}
    for support in (around, image, image ^ around):
        out[support] = out.get(support, 0.0) + w
    return NoiseMap._from_masks(origin, out)


@dataclass(frozen=True)
class NoiseState:
    """Current noiseless graph together with the attached noise maps."""

    graph: Graph
    maps: tuple[NoiseMap, ...]


def _check_depolarizing(p: float) -> None:
    """Refuse a depolarizing parameter outside [0, 1] (nan included)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")


def _check_wait_ids(qubit_times_ms, qubits) -> None:
    """Refuse a ``qubit_times_ms`` id that names none of the resource's ``qubits``."""
    for v in qubit_times_ms:
        if v not in qubits:
            raise ValueError(f"qubit_times_ms names vertex {v}, which is not a live qubit of the resource")


def depolarizing_map(g: Graph, a: int, p: float) -> NoiseMap:
    """Single-qubit depolarizing channel written with Z-type operators.

    Identity keeps weight p + (1-p)/4; the strings Z_a, Z on the neighborhood
    of ``a``, and their product carry (1-p)/4 each.  Branches that coincide
    (isolated vertex) are merged.
    """
    _check_depolarizing(p)
    g._require_live(a)
    return _depolarizing(a, p, 1 << a, g.neighbor_mask(a))


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
    individual qubits can be overridden through ``qubit_times_ms``, whose
    ids must be live vertices.  Checked in order: ``p``, ids, waits.
    """
    _check_depolarizing(p)
    if qubit_times_ms:
        _check_wait_ids(qubit_times_ms, frozenset(g.vertices()))
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
    if not any(s & measured for _, s in m.branches) and m._canonical:
        return m  # what the rebuild below would give
    out: dict[int, float] = {}
    for prob, s in m.branches:
        key = _compose(s, images) if s & measured else s
        out[key] = out.get(key, 0.0) + prob
    return NoiseMap._from_masks(m.origin, out)


def _measure_x(g: Graph, a: int, b0: int | None) -> dict[int, int]:
    """X-measure ``a`` with support ``b0`` on ``g`` in place, and return the images of Z_a and Z_b0.

    Z_a goes to Z on ``{b0}`` and the old neighborhood of ``b0`` without
    ``a``, and Z_b0 to Z on the new neighborhood of ``b0``.
    """
    if not g.neighbor_mask(a):
        raise ValueError(f"noise propagation through X on isolated vertex {a} is undefined")
    before = g._measure_x(a, b0)
    return {a: 1 << b0 | before & ~(1 << a), b0: g._rows[b0]}


def propagate_measurement(
    ns: NoiseState, a: int, basis: str, support_choice: int | None = None
) -> NoiseState:
    """Advance the graph by one Pauli measurement and update every map."""
    g = ns.graph
    basis = _pauli_basis(basis)
    if basis == "X":
        images = _measure_x(g2 := g.copy(), a, support_choice)
    else:
        g2, _ = measure_pauli(g, a, basis)
        images = {a: g.neighbor_mask(a) if basis == "Y" else 0}
    maps = tuple(_apply_images(m, images) for m in ns.maps)
    return NoiseState(graph=g2, maps=maps)


def propagate(ns: NoiseState, plan: ResolutionPlan) -> NoiseState:
    """Propagate all noise maps through a resolution plan."""
    for o, b0 in plan.steps:
        ns = propagate_measurement(ns, o, "X", b0)
    for v in plan.z_targets:
        ns = propagate_measurement(ns, v, "Z")
    return ns


# Rows of the weight table (see _weights): each term kind's marginal from
# its base row on, after a 0.0 for padding.  The depolarizing [p + w, w, w, w],
# [(p + w) + w, w + w] if its branches coincide in pairs (summed as the
# reference merges them), then [1 - q, q] per dephasing source.
_DEPOLARIZING, _MERGED, _DEPHASING = 1, 6, 9

# Marginal codes in a transition template: 0 multiplies by 0.0 (padding) and
# 1 + s by slot s of the term's marginal.
_CODE_SLOT = 1

# Largest component compile_plan tables: a term's code packs its pattern
# (under 8) and two local keys into an int64.
_MAX_COMPONENT_QUBITS = 29

# Most keys a kept law may hold; the program's tables grow with it.  A
# one-point sweep of the (d, 2) GHZ star keeps at most 2**3 keys a law and
# peaked at 31 MB RSS for d = 16, 24 and 29.  An empty plan on (2, n_o)
# leaves one component whose widest kept law holds 2**15 keys at n_o = 7 and
# 2**17 at n_o = 8: one-point sweeps peaked at 74 and 382 MB (x86-64, numpy 2.4).
_MAX_LAW_KEYS = 1 << 18

# Largest contributions x state rows x points one pass of a program holds;
# bigger batches are scored a slice of points at a time (same arithmetic).
_PASS_CELLS = 1 << 21


@dataclass(frozen=True)
class _Program:
    """The XOR convolutions of every component for one set of zeroed weight rows, as numpy steps.

    Components whose kept terms begin alike share that prefix's law, bit for
    bit, so the laws computed are those of the nodes of a prefix trie.  After
    step d the state holds the laws of the depth-d nodes side by side, each
    as ``width`` rows (the keys the node keeps, in the reference's insertion
    order, then padding) by points; before step 1 it holds the empty
    prefix's law, key 0 at 1.0.  Key 0 is the first key of every law, as
    each term lists its identity branch first, and every node keeps it.
    Step ``(src, code, ends, read)`` has (contributions, rows) tables: next
    state row r is ``state[src[0, r]] * weights[code[0, r]] +
    state[src[1, r]] * weights[code[1, r]] + ...``, summed left to right
    over rows of the node's parent, ``code`` indexing the weight table's
    rows.  Then the components ``ends`` copy their last nodes' key-0
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
            slices = [self.run(weights[:, i : i + width]) for i in range(0, weights.shape[1], width)]
            return np.concatenate(slices, axis=1)
        weights = np.ascontiguousarray(weights)  # a slice of points is a strided view
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
    first weight row (its marginal's base row) and basis (index into
    ``bases``).  A basis is that of a term's marginal keys on component-local
    bits (bit j for the j-th vertex; see the module docstring); with the row
    it gives the term's marginal, so no table depends on the noise
    parameters.  ``programs`` caches one compiled convolution per set of
    zeroed weight rows, keyed by the bytes of its flags.
    """

    graph: Graph
    qubits: frozenset[int]
    components: tuple[str, ...]
    dephasing: tuple[int, ...]
    bases: tuple[tuple[int, ...], ...]
    term_component: np.ndarray = field(compare=False, repr=False)
    term_row: np.ndarray = field(compare=False, repr=False)
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
        pattern.append(patterns.setdefault(_first_kinds(a, i), len(patterns)))
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
    term_basis = np.array(ids, dtype=np.intp)[inverse]
    first_row = np.array([_MERGED if len(m) == 1 else _DEPOLARIZING for m in interned], dtype=np.int64)
    return CompiledPlan(
        graph=g,
        qubits=frozenset(vertices),
        components=tuple(component_key(m) for m in members),
        dephasing=tuple(verts[i] for i in np.flatnonzero(dephasing).tolist()),
        bases=tuple(interned),
        term_component=comp,
        term_row=np.where(kind, _DEPHASING - 3 + 3 * np.cumsum(dephasing)[vertex], first_row[term_basis]),
        term_basis=term_basis,
    )


def _weights(compiled: CompiledPlan, points) -> np.ndarray:
    """Weight table of a batch of (p, t_ms, big_t_ms, qubit_times_ms) points, a column per point.

    Each point is checked as :func:`standard_noise` checks its arguments: p,
    then ids, then the waits it reads, raising for the first vertex in order,
    and the points in batch order.  A point without ``qubit_times_ms`` reads
    one q for every qubit; these fill the q rows in one assignment, and each
    point with waits then overwrites the rows of its waiting qubits.
    """
    points = list(points)
    q_row = {v: _DEPHASING + 1 + 3 * s for s, v in enumerate(compiled.dephasing)}
    table = np.zeros((_DEPHASING - 1 + 3 * len(q_row), len(points)))
    uniform = [0.0] * len(points)  # each point's q at t_ms, if it reads one
    waited: list[tuple[int, int, float]] = []  # (row, point, q) of each waiting qubit
    for j, (p, t_ms, big_t_ms, waits) in enumerate(points):
        _check_depolarizing(p)
        if not waits:
            if compiled.qubits:  # else standard_noise never reads t_ms
                uniform[j] = dephasing_probability(t_ms, big_t_ms)
            continue
        _check_wait_ids(waits, compiled.qubits)
        try:
            q = {t: dephasing_probability(t, big_t_ms) for t in waits.values()}
            if len(waits) < len(compiled.qubits):  # else standard_noise never reads t_ms
                uniform[j] = dephasing_probability(t_ms, big_t_ms)
        except ValueError:
            for v in sorted(compiled.qubits):  # raise for the first vertex, as standard_noise does
                dephasing_probability(waits.get(v, t_ms), big_t_ms)
            raise
        waited += [(q_row[v], j, q[t]) for v, t in waits.items() if v in q_row]
    table[_DEPHASING + 1 :: 3] = uniform
    for row, j, q_v in waited:
        table[row, j] = q_v
    p = np.array([point[0] for point in points], dtype=np.float64)
    w = (1.0 - p) / 4.0
    table[_DEPOLARIZING] = p + w
    table[_DEPOLARIZING + 1 : _DEPOLARIZING + 4] = w
    table[_MERGED] = p + w + w
    table[_MERGED + 1] = w + w
    table[_DEPHASING::3] = 1.0 - table[_DEPHASING + 1 :: 3]
    return table


def score_points(compiled: CompiledPlan, points) -> np.ndarray:
    """Fidelity of every extracted resource at many points, in one pass per set of zeroed weight rows.

    Each point is ``(p, t_ms, big_t_ms, qubit_times_ms)``, the arguments of
    :func:`compiled_fidelities`.  Row i of the result holds point i's
    fidelities in ``compiled.components`` order, each equal, bit for bit, to
    the stepwise reference (see the module docstring).
    """
    table = _weights(compiled, points)
    zeros = table == 0.0
    groups: dict[bytes, list[int]] = {}
    for j, zero in enumerate(zeros.T):
        groups.setdefault(zero.tobytes(), []).append(j)
    out = np.empty((table.shape[1], len(compiled.components)))
    for key, indices in groups.items():
        program = compiled.programs.get(key)
        if program is None:
            program = compiled.programs[key] = _build_program(compiled, zeros[:, indices[0]])
        out[indices] = program.run(table[:, indices]).T
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


def _relations(vectors) -> list[int]:
    """A basis of the linear relations among ``vectors``, as tags: the vectors at a tag's set bits XOR to 0.

    The k-th tag's top bit names the k-th vector in the span of those
    before it, and its other bits name vectors in the span of none before
    them, so the tops ascend and the tags' span in counting order ascends.
    """
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (reduced vector, tag)
    out = []
    for j, key in enumerate(vectors):
        tag = 1 << j
        while key.bit_length() in pivots:
            k, t = pivots[key.bit_length()]
            key, tag = key ^ k, tag ^ t
        if key:
            pivots[key.bit_length()] = (key, tag)
        else:
            out.append(tag)
    return out


def _counting(basis) -> list[int]:
    """The span of ``basis`` in counting order: entry x is the XOR of basis[j] over the set bits j of x."""
    keys = [0]
    for b in basis:
        keys += [k ^ b for k in keys]
    return keys


@functools.lru_cache(maxsize=16)
def _tables(dim: int, s: int, dependent: int, inside: tuple[int, ...], kept: tuple[int, ...]) -> np.ndarray:
    """A transition's table pair, read-only: each product's parent index and marginal code, over the
    next indices that the tags ``kept`` span, in counting order.

    The tables depend on these arguments only, which :func:`_step` derives:
    the parent law's dimension, the term's, the parent's dependent
    positions, the tags of T, ascending, and the kept tags.  The default
    plans' programs use the same dozen or fewer, so they are cached.
    """
    i, t = np.arange(1 << dim), np.array(inside)[:, None]
    x = np.array(_counting(kept))
    pair = np.array((i[i & dependent == 0][x >> s] ^ t >> s, _CODE_SLOT + ((x ^ t) & (1 << s) - 1)))
    pair.flags.writeable = False
    return pair


@functools.lru_cache(maxsize=4096)
def _span(basis: tuple[int, ...], vectors) -> tuple[int, ...]:
    """The reduced echelon basis of span(``basis`` + ``vectors``), ascending, for ``basis`` such a basis.

    Each vector's top bit is set in no other, so a subspace has one such name.
    """
    pivots = list(basis)
    for v in vectors:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots = [min(p, p ^ v) for p in pivots] + [v]
    return tuple(sorted(pivots))


@functools.lru_cache(maxsize=4096)
def _step(basis: tuple[int, ...], m: tuple[int, ...], needed: tuple[int, ...]):
    """One step of _xor_convolve run on keys, in closed form over bases (see the module docstring).

    ``basis`` is the law's and ``m`` the term's, which must be independent.
    Returns the child's kept basis, spanning its keys in the subspace
    ``needed``, and the :func:`_tables` arguments of its tables.  The kept
    indices form a subspace of the index space: the relations of ``needed +
    nxt`` without their bits on ``needed``, whose echelon basis
    (:func:`_relations`) gives the kept basis in ascending index order.
    """
    s = len(m)
    relations = _relations(m + basis)  # bit j names (m + basis)[j]; the top bit, a dependent basis vector
    assert all(t >> s for t in relations), f"term basis {m} is dependent"
    dependent = sum(1 << t.bit_length() - 1 - s for t in relations)
    nxt = m + tuple(b for j, b in enumerate(basis) if not dependent >> j & 1)
    kept = tuple(t >> len(needed) for t in _relations(needed + nxt))
    tables = (len(basis), s, dependent, tuple(_counting(relations)), kept)
    return tuple(_compose(t, dict(enumerate(nxt))) for t in kept), tables


def _build_program(compiled: CompiledPlan, zero: np.ndarray) -> _Program:
    """Run the convolution over the needed keys once per trie node, and lay the nodes out depth by depth.

    ``zero`` flags the weight rows that are 0.0 at the points scored; a term
    is kept unless it flags the row after the term's first, its non-identity
    weight.  A node is a distinct prefix of some component's kept terms, a
    term's kind being its (basis, first weight row) pair.  A node keeps the
    keys of its law in its needed subspace, the span of the terms below it
    (see the module docstring).  Each transition comes from :func:`_step`,
    memoized on the parent's basis, the term's and the node's needed
    subspace, so the nodes of a ladder share it; a node's codes are its
    template's (:func:`_tables`), moved onto its kind's weight rows.  The tables use the narrowest unsigned type that
    holds their entries.  Their size sets the scoring's peak memory, so a
    law above _MAX_LAW_KEYS keys raises a ValueError before any table is made.
    """
    keep = ~zero[compiled.term_row + 1]
    n_rows = len(zero)
    n_kinds = len(compiled.bases) * n_rows
    kinds = compiled.term_basis[keep] * n_rows + compiled.term_row[keep]
    counts = np.bincount(compiled.term_component[keep], minlength=len(compiled.components))
    # The trie maps node * n_kinds + kind to the child node; node 0 is the
    # empty prefix, and a node's number is its place in creation order.
    trie: dict[int, int] = {}
    ends, at, walk = [], 0, kinds.tolist()
    for count in counts.tolist():
        node = 0
        for kind in walk[at : at + count]:
            key = node * n_kinds + kind
            node = trie.get(key) or trie.setdefault(key, len(trie) + 1)  # no node is 0
        ends.append(node)
        at += count
    parent, kind = np.divmod(np.array([0, *trie], dtype=np.int64), max(n_kinds, 1))  # the root reads as 0
    bid, base = np.divmod(kind, n_rows)
    parents, bids = parent.tolist(), bid.tolist()

    # A parent precedes its children: one pass back gives each node its
    # needed subspace, and one pass forward its kept basis, its depth and
    # the template that makes it.
    bases, transitions, shapes = compiled.bases, {}, {}
    needed = [()] * len(parents)
    for c, p, b in zip(range(len(parents) - 1, 0, -1), reversed(parents), reversed(bids)):
        needed[p] = _span(needed[c], bases[b] + needed[p])
    # transitions: (basis, term basis id, needed) -> (kept basis, template);
    # shapes: _tables arguments -> template.
    basis_of, depth, template = [()], [0], [0]
    for c, p, b in zip(range(1, len(parents)), parents[1:], bids[1:]):
        key = (basis_of[p], b, needed[c])
        if (hit := transitions.get(key)) is None:
            kept, shape = _step(basis_of[p], bases[b], needed[c])
            hit = transitions[key] = kept, shapes.setdefault(shape, len(shapes))
        basis_of.append(hit[0])
        depth.append(depth[p] + 1)
        template.append(hit[1])
    width = 1 << max((len(kept) for kept, _ in transitions.values()), default=0)
    if width > _MAX_LAW_KEYS:  # name the first component whose path holds a law above the bound
        for name, node in zip(compiled.components, ends):
            dim = 0
            while node:
                dim, node = max(dim, len(basis_of[node])), parents[node]
            if (keys := 1 << dim) > _MAX_LAW_KEYS:
                raise ValueError(f"scoring component {name} takes {keys:,} keys (at most {_MAX_LAW_KEYS:,})")

    depth, template = np.array(depth), np.array(template)
    by_depth = np.argsort(depth, kind="stable")
    level = np.searchsorted(depth[by_depth], np.arange(depth.max() + 2))  # start of each depth
    place = np.empty_like(by_depth)  # a node's place among its depth's nodes
    place[by_depth] = np.arange(len(depth)) - level[depth[by_depth]]
    index = np.min_scalar_type(max(width * int(np.diff(level).max()), n_rows))

    templates = [_tables(*shape) for shape in shapes]
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
        maps.append(_depolarizing(q, p, image, tilde_n))
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
    return _xor_convolve([(s & mask, prob) for prob, s in m.branches] for m in maps)


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
