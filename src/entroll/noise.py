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

Fidelities of the extracted resources come from an XOR convolution of the
per-map branch distributions restricted to one connected component: on a
connected graph state only the empty Z string has nonzero overlap, so the
fidelity is the probability mass of the all-zero restriction.  Only the maps
whose supports touch a component change its law, so each component is scored
over those maps alone, on bitmask supports.

:func:`propagate` followed by :func:`component_fidelities` is the stepwise
reference.  The images do not depend on the noise parameters, so
:func:`compile_plan` composes them once per plan and tabulates, for every
component of the final graph, the merged branches of the standard-noise maps
that touch it; :func:`compiled_fidelities` then scores a (p, T) point from
those tables with the same convolution, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .graphstate import Graph, _bits, component_key, json_field, measure_pauli
from .gtl import GtlState
from .rolling import STOP_AFTER_ISOLATION, ResolutionPlan

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
    "standard_noise",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class ZOperator:
    """Pauli string of Z factors only, identified by its support set."""

    support: frozenset[int]

    @property
    def is_identity(self) -> bool:
        return not self.support

    def __mul__(self, other: ZOperator) -> ZOperator:
        return ZOperator(self.support ^ other.support)

    def restricted(self, targets: frozenset[int]) -> ZOperator:
        return ZOperator(self.support & targets)


def _branch_key(support: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(support))


def _mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


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
            if op.support in seen:
                raise ValueError("duplicate branch support; use from_weights to merge")
            seen.add(op.support)
            total += prob
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"branch probabilities sum to {total}, expected 1")

    @classmethod
    def from_weights(cls, origin: int, weights: dict[frozenset[int], float]) -> NoiseMap:
        merged = {s: p for s, p in weights.items() if p != 0.0}
        if not merged:
            merged = {frozenset(): 1.0}
        branches = tuple(
            (merged[s], ZOperator(s)) for s in sorted(merged, key=_branch_key)
        )
        return cls(origin=origin, branches=branches)

    def weights(self) -> dict[frozenset[int], float]:
        return {op.support: prob for prob, op in self.branches}

    def to_json(self) -> dict:
        return {
            "origin": self.origin,
            "branches": [
                {"p": prob, "support": sorted(op.support)} for prob, op in self.branches
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> NoiseMap:
        """Parse a map object; a malformed field raises a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"noise map must be a JSON object, got {type(data).__name__}")
        with json_field("noise map", "origin"):
            origin = int(data["origin"])
        with json_field("noise map", "branches"):
            weights: dict[frozenset[int], float] = {}
            for b in data["branches"]:
                s = frozenset(int(v) for v in b["support"])
                weights[s] = weights.get(s, 0.0) + float(b["p"])
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
        out: dict[frozenset[int], float] = {}
        base = frozenset({self.origin})
        for (alpha, beta), weight in self.weights:
            support = frozenset()
            if alpha:
                support ^= base
            if beta:
                support ^= neighborhood
            out[support] = out.get(support, 0.0) + weight
        return NoiseMap.from_weights(self.origin, out)


@dataclass(frozen=True)
class NoiseState:
    """Current noiseless graph together with the attached noise maps."""

    graph: Graph
    maps: tuple[NoiseMap, ...]


def depolarizing_map(g: Graph, a: int, p: float) -> NoiseMap:
    """Single-qubit depolarizing channel written with Z-type operators.

    Identity keeps weight p + (1-p)/4; the strings Z_a, Z on the neighborhood
    of ``a``, and their product carry (1-p)/4 each.  Branches that coincide
    (isolated vertex) are merged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    g._require_live(a)
    return CanonicalForm.depolarizing(a, p).realize(g.neighbors(a))


def dephasing_probability(t_ms: float, big_t_ms: float) -> float:
    """Phase-flip probability after waiting t with memory constant T."""
    if t_ms < 0:
        raise ValueError(f"negative wait time {t_ms}")
    if not big_t_ms > 0:
        raise ValueError(f"dephasing time must be positive, got {big_t_ms}")
    if math.isinf(big_t_ms):
        return 0.0
    return 0.5 * (1.0 - math.exp(-t_ms / big_t_ms))


def dephasing_map(a: int, t_ms: float, big_t_ms: float) -> NoiseMap:
    """Memory dephasing on one qubit: Z with probability q(t), else identity."""
    q = dephasing_probability(t_ms, big_t_ms)
    return NoiseMap.from_weights(a, {frozenset(): 1.0 - q, frozenset({a}): q})


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


def _apply_images(m: NoiseMap, images: dict[int, frozenset[int]]) -> NoiseMap:
    out: dict[frozenset[int], float] = {}
    for prob, op in m.branches:
        support = set(op.support)
        for v in op.support:
            img = images.get(v)
            if img is not None:
                support.symmetric_difference_update({v})
                support.symmetric_difference_update(img)
        key = frozenset(support)
        out[key] = out.get(key, 0.0) + prob
    return NoiseMap.from_weights(m.origin, out)


def propagate_measurement(
    ns: NoiseState, a: int, basis: str, support_choice: int | None = None
) -> NoiseState:
    """Advance the graph by one Pauli measurement and update every map."""
    g = ns.graph
    basis = basis.upper()
    images: dict[int, frozenset[int]]
    if basis == "Z":
        images = {a: frozenset()}
        g2, _ = measure_pauli(g, a, "Z")
    elif basis == "Y":
        images = {a: g.neighbors(a)}
        g2, _ = measure_pauli(g, a, "Y")
    elif basis == "X":
        if not g.neighbors(a):
            raise ValueError(f"noise propagation through X on isolated vertex {a} is undefined")
        b0 = support_choice
        if b0 is None or b0 not in g.neighbors(a):
            raise ValueError(f"X measurement of {a} needs a support among its neighbors")
        images = {a: frozenset({b0}) | (g.neighbors(b0) - {a})}
        g2, _ = measure_pauli(g, a, "X", b0)
        images[b0] = g2.neighbors(b0)
    else:
        raise ValueError(f"unsupported measurement basis {basis!r}")
    maps = tuple(_apply_images(m, images) for m in ns.maps)
    return NoiseState(graph=g2, maps=maps)


def propagate(ns: NoiseState, plan: ResolutionPlan) -> NoiseState:
    """Propagate all noise maps through a resolution plan."""
    for o, b0 in plan.steps:
        ns = propagate_measurement(ns, o, "X", b0)
    if plan.stop_stage == STOP_AFTER_ISOLATION:
        for v in plan.isolation:
            ns = propagate_measurement(ns, v, "Z")
    return ns


# One map's branches on one component, in branch order: the map's weight
# source (None for a depolarizing map, the origin qubit for a dephasing map)
# and (support restricted to the component, weight index) per branch.
_Term = tuple[int | None, list[tuple[int, int]]]

# Weight index of two merged branches of a depolarizing map: the identity with
# another branch gives (p + w) + w, two others give w + w.  These are the
# weights an isolated vertex's map starts with (see CanonicalForm.realize).
_MERGED = {(0, 1): 2, (1, 1): 3}


@dataclass(frozen=True)
class CompiledPlan:
    """A resolution plan reduced to the branch tables that score a (p, T) point.

    ``graph`` is the final graph and ``qubits`` the live vertices of the
    start graph, the qubits :func:`standard_noise` puts maps on.
    ``components`` pairs the resource key of every multi-qubit component of
    ``graph`` with its terms: for each map of :func:`standard_noise` whose
    propagated supports touch the component, in map order, the map's merged
    branches restricted to the component.  A branch names its weight by index
    into the table :func:`compiled_fidelities` builds at each point, so the
    tables do not depend on the noise parameters.
    """

    graph: Graph
    qubits: frozenset[int]
    components: tuple[tuple[str, tuple[_Term, ...]], ...]


_SET_FIRST = str.maketrans("01", "10")


def _support_order(mask: int) -> str:
    """Sort key that orders bitmask supports as ``_branch_key`` orders vertex sets.

    The bits read lowest first, with a set bit before a clear one, so the
    first differing vertex decides and a prefix sorts first.
    """
    return bin(mask)[:1:-1].translate(_SET_FIRST) if mask else ""


def _merge(branches: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Merge branches with equal supports, sorted as NoiseMap.from_weights sorts them."""
    merged: dict[int, int] = {}
    for support, index in branches:
        merged[support] = _MERGED[merged[support], index] if support in merged else index
    return sorted(merged.items(), key=lambda branch: _support_order(branch[0]))


def compile_plan(g: Graph, plan: ResolutionPlan) -> CompiledPlan:
    """Compile a plan on graph ``g`` for :func:`compiled_fidelities`.

    Raises the same errors as :func:`propagate` on a plan that cannot run.
    """
    measurements = [(o, "X", b0) for o, b0 in plan.steps]
    if plan.stop_stage == STOP_AFTER_ISOLATION:
        measurements += [(v, "Z", None) for v in plan.isolation]
    start = g
    images = {v: 1 << v for v in g.vertices()}
    for a, basis, b0 in measurements:
        if basis == "Z":
            step = {a: 0}
            g, _ = measure_pauli(g, a, "Z")
        else:
            if not g.neighbor_mask(a):
                raise ValueError(f"noise propagation through X on isolated vertex {a} is undefined")
            if b0 not in g.neighbors(a):
                raise ValueError(f"X measurement of {a} needs a support among its neighbors")
            step = {a: (1 << b0) | (g.neighbor_mask(b0) & ~(1 << a))}
            g, _ = measure_pauli(g, a, "X", b0)
            step[b0] = g.neighbor_mask(b0)
        measured = _mask(step)
        for v, image in images.items():
            if image & measured:
                for u, u_image in step.items():
                    if image >> u & 1:
                        images[v] ^= (1 << u) ^ u_image

    # The maps of standard_noise, in its order, as merged (final support,
    # weight index) branches.  Supports map linearly, so the four branches of
    # a depolarizing map (the span of Z_v and Z on its neighborhood) merge at
    # most in pairs, unless all four land on the identity.  Such a map
    # changes no component's law and is left out; it is the only kind whose
    # merged weight depends on the steps at which its branches met.
    maps: list[tuple[int | None, list[tuple[int, int]]]] = []
    for v in start.vertices():
        image, around = images[v], 0
        for u in _bits(start.neighbor_mask(v)):
            around ^= images[u]
        if start.neighbor_mask(v):
            depolarizing = ((0, 0), (around, 1), (image, 1), (image ^ around, 1))
        else:  # realize() has already merged an isolated vertex's branches
            depolarizing = ((0, 2), (image, 3))
        if image or around:
            maps.append((None, _merge(depolarizing)))
        if image:
            maps.append((v, [(0, 0), (image, 1)]))
    return CompiledPlan(
        graph=g, qubits=frozenset(start.vertices()), components=_component_terms(g, maps)
    )


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
    ``compiled`` was compiled from: the weights come from the same
    expressions, and every sum runs in the same order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    w = (1.0 - p) / 4.0

    def dephasing(q: float) -> tuple[float, ...] | None:
        return (1.0 - q, q) if q != 0.0 else None

    # A zero weight drops its branch (NoiseMap.from_weights), which leaves
    # only the identity branch of the map: the map then changes no law.
    tables: dict[int | None, tuple[float, ...] | None] = {
        None: (p + w, w, (p + w) + w, w + w) if w != 0.0 else None
    }
    for v, wait in (qubit_times_ms or {}).items():
        if v in compiled.qubits:  # standard_noise reads no wait for a vertex off the graph
            tables[v] = dephasing(dephasing_probability(wait, big_t_ms))
    uniform = dephasing(dephasing_probability(t_ms, big_t_ms))
    out: dict[str, float] = {}
    for key, terms in compiled.components:
        law = _xor_convolve(
            [(support, table[index]) for support, index in branches]
            for source, branches in terms
            if (table := tables.get(source, uniform)) is not None
        )
        out[key] = law.get(0, 0.0)
    return out


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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    params = state.params
    if params is None or not params.is_specialized or params.kappa_b_hat < 2:
        raise ValueError("closed forms need the specialized regime with kappa_b_hat >= 2")
    if plan.stop_stage == STOP_AFTER_ISOLATION and plan.isolation:
        raise ValueError("closed forms cover the rolling stage only; drop the isolation stage")
    measured = [o for o, _ in plan.steps]
    if measured == list(state.orch):
        orch = state.orch
    elif measured == list(reversed(state.orch)):
        orch = tuple(reversed(state.orch))
    else:
        raise ValueError("plan must roll the full chain in linear or reversed order")

    # Dry-run to resolve per-step support sides against the evolving graph.
    g = state.graph.copy()
    supports: list[int] = []
    nonsupport: list[frozenset[int]] = []
    gamma_final: frozenset[int] = frozenset()
    for i, ((o, b0), expect_o) in enumerate(zip(plan.steps, orch)):
        assert o == expect_o
        nbrs = g.neighbors(o)
        if i + 1 < len(orch):
            side = nbrs & g.neighbors(orch[i + 1])
        else:
            side = frozenset(v for v in nbrs if g.neighbors(v) == {o})
        if b0 not in side:
            raise ValueError(
                f"support {b0} for step {i} is not on the current bridge side; "
                "closed forms only cover canonical rolling sequences"
            )
        supports.append(b0)
        nonsupport.append(side - {b0})
        gamma_final = nbrs - side
        g, _ = measure_pauli(g, o, "X", b0)

    support_index = {b0: m for m, b0 in enumerate(supports)}
    nonsupport_index: dict[int, int] = {}
    for m, dropped in enumerate(nonsupport):
        for v in dropped:
            nonsupport_index[v] = m

    maps: list[NoiseMap] = []
    for q in state.graph.vertices():
        if q in support_index:
            tilde_n = gamma_final | nonsupport[support_index[q]]
        elif q in gamma_final:
            tilde_n = frozenset(supports)
        elif q in nonsupport_index:
            tilde_n = frozenset({supports[nonsupport_index[q]]})
        elif q in state.peers:
            raise ValueError(f"peer {q} is not covered by the rolling sequence")
        else:
            i = orch.index(q)
            op = frozenset(supports[i:])
            # Associate the sums exactly as the stepwise merge does, so the
            # two derivations agree bit for bit.
            quarter = (1.0 - p) / 4.0
            maps.append(
                NoiseMap.from_weights(
                    q, {frozenset(): (p + quarter) + quarter, op: quarter + quarter}
                )
            )
            continue
        maps.append(CanonicalForm.depolarizing(q, p).realize(tilde_n))
    return maps


def _component_terms(graph: Graph, maps) -> tuple[tuple[str, tuple], ...]:
    """Pair every multi-qubit component of ``graph`` with the maps that touch it.

    ``maps`` yields (tag, branches) with branches as (support mask, value)
    pairs; each component gets, in map order, the tag and the branches with
    their supports restricted to it.  A map that touches no component would
    only add the identity to its law.
    """
    components = [c for c in graph.components() if len(c) >= 2]
    masks = [_mask(comp) for comp in components]
    terms: list[list] = [[] for _ in components]
    for tag, branches in maps:
        union = 0
        for support, _ in branches:
            union |= support
        for mask, component_terms in zip(masks, terms):
            if union & mask:
                component_terms.append((tag, [(s & mask, x) for s, x in branches]))
    return tuple((component_key(comp), tuple(t)) for comp, t in zip(components, terms))


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
    mask = _mask(targets)
    law = _xor_convolve(
        [(_mask(op.support) & mask, prob) for prob, op in m.branches] for m in maps
    )
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
    maps = ((None, [(_mask(op.support), prob) for prob, op in m.branches]) for m in ns.maps)
    return {
        key: _xor_convolve(branches for _, branches in terms).get(0, 0.0)
        for key, terms in _component_terms(ns.graph, maps)
    }
