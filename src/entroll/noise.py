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
signs cancel because every branch enters as a conjugation.  The images do not
depend on the noise parameters, so :func:`compile_plan` composes them once per
plan and :meth:`CompiledPlan.apply` maps every branch in one pass.

Fidelities of the extracted resources come from an XOR convolution of the
per-map branch distributions restricted to one connected component: on a
connected graph state only the empty Z string has nonzero overlap, so the
fidelity is the probability mass of the all-zero restriction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .graphstate import Graph, _bits, measure_pauli
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
        weights: dict[frozenset[int], float] = {}
        for b in data["branches"]:
            s = frozenset(int(v) for v in b["support"])
            weights[s] = weights.get(s, 0.0) + float(b["p"])
        return cls.from_weights(int(data["origin"]), weights)

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


@dataclass(frozen=True)
class CompiledPlan:
    """A resolution plan reduced to the GF(2) images of single-qubit Z operators.

    ``images[v]`` is the bitmask of the support that Z_v on ``start`` carries
    after every step of the plan, and ``graph`` is the final graph.  Neither
    depends on the noise parameters, so one compilation serves every (p, T)
    point.  ``steps`` keeps each step's images as :func:`propagate_measurement`
    builds them, for the rare map that the composite images cannot reproduce
    bit for bit (see :meth:`apply`).
    """

    start: Graph
    graph: Graph
    images: dict[int, int]
    steps: tuple[dict[int, frozenset[int]], ...]

    def apply(self, ns: NoiseState) -> NoiseState:
        """Same maps as ``propagate(ns, plan)``, bit for bit, in one pass per map."""
        if ns.graph != self.start:
            raise ValueError("noise state is not on the graph the plan was compiled for")
        return NoiseState(graph=self.graph.copy(), maps=tuple(self._apply(m) for m in ns.maps))

    def _apply(self, m: NoiseMap) -> NoiseMap:
        # Stepwise propagation adds branch weights as branches meet, step by
        # step.  Two weights sum the same in any order; when three or more
        # branches of one map meet, the grouping depends on the steps at which
        # they met, so such a map is replayed step by step instead.
        groups: dict[int, list[float]] = {}
        for prob, op in m.branches:
            key = 0
            for v in op.support:
                key ^= self.images.get(v, 1 << v)
            groups.setdefault(key, []).append(prob)
        if any(len(probs) > 2 for probs in groups.values()):
            for images in self.steps:
                m = _apply_images(m, images)
            return m
        return NoiseMap.from_weights(
            m.origin, {frozenset(_bits(key)): sum(probs) for key, probs in groups.items()}
        )


def compile_plan(g: Graph, plan: ResolutionPlan) -> CompiledPlan:
    """Compile a plan on graph ``g`` for :meth:`CompiledPlan.apply`.

    Raises the same errors as :func:`propagate` on a plan that cannot run.
    """
    measurements = [(o, "X", b0) for o, b0 in plan.steps]
    if plan.stop_stage == STOP_AFTER_ISOLATION:
        measurements += [(v, "Z", None) for v in plan.isolation]
    start = g.copy()
    images = {v: 1 << v for v in g.vertices()}
    steps: list[dict[int, frozenset[int]]] = []
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
        for v, image in images.items():
            for u, u_image in step.items():
                if image >> u & 1:
                    images[v] ^= (1 << u) ^ u_image
        steps.append({u: frozenset(_bits(u_image)) for u, u_image in step.items()})
    return CompiledPlan(start=start, graph=g, images=images, steps=tuple(steps))


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
    dist: dict[frozenset[int], float] = {frozenset(): 1.0}
    for m in maps:
        marginal: dict[frozenset[int], float] = {}
        for prob, op in m.branches:
            key = op.support & targets
            marginal[key] = marginal.get(key, 0.0) + prob
        if len(marginal) == 1 and frozenset() in marginal:
            continue
        nxt: dict[frozenset[int], float] = {}
        for s0, p0 in dist.items():
            for s1, p1 in marginal.items():
                key = s0 ^ s1
                nxt[key] = nxt.get(key, 0.0) + p0 * p1
        dist = nxt
    return dist


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
    out: dict[str, float] = {}
    for comp in ns.graph.components():
        if len(comp) < 2:
            continue
        key = "-".join(str(v) for v in sorted(comp))
        out[key] = fidelity(ns, comp)
    return out
