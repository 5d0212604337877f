"""Entanglement Rolling: X-measurement reshaping of GTL resources.

A rolling step X-measures one orchestration qubit with a chosen support
vertex.  The support becomes the center of a star over the measured vertex's
old neighborhood, the rolled set (non-support-side neighbors) moves on to the
next orchestration qubit, and the non-support bridges drop to degree one.
Iterating over the whole chain and then Z-measuring a small peer set isolates
disjoint Bell pairs or star (GHZ-class) resources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphstate import Graph, MeasurementRecord, gf2_rank, json_field, measure_pauli
from .gtl import GtlState

__all__ = [
    "STOP_AFTER_ISOLATION",
    "STOP_AFTER_ROLLING",
    "ResolutionPlan",
    "RollingOutcome",
    "StepTrace",
    "centralized_resolution",
    "default_resolution_plan",
    "isolate_ghz",
    "isolate_max_bell",
    "plan_proximity_reduction",
    "resolve",
    "rolling_step",
    "schmidt_upper_bound",
]

STOP_AFTER_ROLLING = "after_rolling"
STOP_AFTER_ISOLATION = "after_isolation"


@dataclass(frozen=True)
class ResolutionPlan:
    """Ordered X-measurement steps plus the stage-2 Z isolation targets."""

    steps: tuple[tuple[int, int], ...]
    isolation: tuple[int, ...] = ()
    stop_stage: str = STOP_AFTER_ISOLATION

    def __post_init__(self) -> None:
        if self.stop_stage not in (STOP_AFTER_ROLLING, STOP_AFTER_ISOLATION):
            raise ValueError(f"unknown stop stage {self.stop_stage!r}")
        measured = [o for o, _ in self.steps]
        if len(set(measured)) != len(measured):
            raise ValueError("plan measures an orchestration qubit twice")

    def to_json(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "isolation": list(self.isolation),
            "stop_stage": self.stop_stage,
        }

    @classmethod
    def from_json(cls, data: dict) -> ResolutionPlan:
        """Parse a plan object; a malformed field raises a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"plan must be a JSON object, got {type(data).__name__}")
        with json_field("plan", "steps"):
            steps = tuple((int(o), int(b)) for o, b in data["steps"])
        with json_field("plan", "isolation"):
            isolation = tuple(int(v) for v in data.get("isolation", []))
        return cls(
            steps=steps,
            isolation=isolation,
            stop_stage=data.get("stop_stage", STOP_AFTER_ISOLATION),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class StepTrace:
    """Execution-time bookkeeping of one rolling step.

    ``side`` is the support-side set (the current bridge set containing the
    support, or the degenerate leaf set at the chain end), ``rolled`` the
    neighbors that move on, ``nonsupport`` the side minus the support.
    """

    measured: int
    support: int
    side: frozenset[int]
    rolled: frozenset[int]
    nonsupport: frozenset[int]


@dataclass(frozen=True)
class RollingOutcome:
    graph: Graph
    records: tuple[MeasurementRecord, ...]
    rolled_set: frozenset[int]
    components: tuple[frozenset[int], ...]
    pairs: tuple[tuple[int, int], ...]
    stars: tuple[tuple[int, tuple[int, ...]], ...]


def _classify(graph: Graph) -> tuple[tuple[frozenset[int], ...], tuple, tuple]:
    components = graph.components()
    pairs = []
    stars = []
    for comp in components:
        if len(comp) == 2:
            pairs.append(tuple(sorted(comp)))
        elif len(comp) >= 3:
            centers = [v for v in comp if graph.degree(v) == len(comp) - 1]
            if len(centers) == 1 and all(
                graph.degree(v) == 1 for v in comp if v != centers[0]
            ):
                stars.append((centers[0], tuple(sorted(comp - {centers[0]}))))
    return components, tuple(pairs), tuple(stars)


def _support_side(
    graph: Graph,
    orch: tuple[int, ...],
    o_i: int,
    b0: int,
    carried: frozenset[int] = frozenset(),
) -> frozenset[int]:
    """Support-side set for a step, resolved against the evolving graph."""
    nbrs = graph.neighbors(o_i)
    idx = orch.index(o_i)

    def shared(j: int) -> frozenset[int]:
        if 0 <= j < len(orch) and graph.is_live(orch[j]):
            return nbrs & graph.neighbors(orch[j])
        return frozenset()

    right = shared(idx + 1)
    if b0 in right:
        return right
    left = shared(idx - 1)
    if b0 in left:
        return left
    if b0 in carried:
        return carried & nbrs
    leaf_side = frozenset(v for v in nbrs if graph.neighbors(v) == {o_i})
    if b0 in leaf_side:
        return leaf_side
    return frozenset({b0})


def _execute(
    state: GtlState, plan: ResolutionPlan
) -> tuple[Graph, list[MeasurementRecord], list[StepTrace]]:
    g = state.graph.copy()
    orch_set = set(state.orch)
    records: list[MeasurementRecord] = []
    trace: list[StepTrace] = []
    carried: frozenset[int] = frozenset()
    for o_i, b0 in plan.steps:
        if o_i not in orch_set:
            raise ValueError(f"step measures {o_i}, which is not an orchestration qubit")
        if not g.is_live(o_i):
            raise ValueError(f"step measures {o_i}, which is no longer live")
        if not g.is_live(b0) or b0 not in g.neighbors(o_i):
            raise ValueError(f"support {b0} is not a current neighbor of {o_i}")
        side = _support_side(g, state.orch, o_i, b0, carried)
        rolled = g.neighbors(o_i) - side
        trace.append(
            StepTrace(
                measured=o_i,
                support=b0,
                side=side,
                rolled=rolled,
                nonsupport=side - {b0},
            )
        )
        g, rec = measure_pauli(g, o_i, "X", b0)
        records.append(rec)
        carried = rolled
    if plan.stop_stage == STOP_AFTER_ISOLATION:
        for v in plan.isolation:
            if not g.is_live(v):
                raise ValueError(f"isolation target {v} is not live")
            g, rec = measure_pauli(g, v, "Z")
            records.append(rec)
    return g, records, trace


def resolve(state: GtlState, plan: ResolutionPlan) -> RollingOutcome:
    """Execute a resolution plan on a copy of the state's graph."""
    g, records, trace = _execute(state, plan)
    components, pairs, stars = _classify(g)
    rolled = trace[-1].rolled if trace else frozenset()
    return RollingOutcome(
        graph=g,
        records=tuple(records),
        rolled_set=rolled,
        components=components,
        pairs=pairs,
        stars=stars,
    )


def rolling_step(state: GtlState, o_i: int, b0: int) -> RollingOutcome:
    """Single rolling step on the given state."""
    return resolve(state, ResolutionPlan(steps=((o_i, b0),), stop_stage=STOP_AFTER_ROLLING))


def _canonical_rolling(state: GtlState) -> tuple[list[tuple[int, int]], list[StepTrace]]:
    """Dry-run the default support policy and return steps plus their traces.

    Supports are the lowest-id current right bridge per step; at the chain end
    the right set degenerates to the still-untouched leaves of the last
    orchestration qubit (their pre-measurement neighborhood is exactly that
    qubit, which is what keeps the closed-form noise maps exact).
    """
    g = state.graph.copy()
    steps: list[tuple[int, int]] = []
    trace: list[StepTrace] = []
    orch = state.orch
    for i, o in enumerate(orch):
        nbrs = g.neighbors(o)
        if i + 1 < len(orch):
            side = nbrs & g.neighbors(orch[i + 1])
        else:
            side = frozenset(v for v in nbrs if g.neighbors(v) == {o})
        if not side:
            raise ValueError(f"no admissible support for {o}; not a rollable GTL state")
        b0 = min(side)
        steps.append((o, b0))
        trace.append(
            StepTrace(
                measured=o,
                support=b0,
                side=side,
                rolled=nbrs - side,
                nonsupport=side - {b0},
            )
        )
        g, _ = measure_pauli(g, o, "X", b0)
    return steps, trace


def _require_specialized(state: GtlState) -> None:
    params = state.params
    if params is None or not params.is_specialized or params.kappa_b_hat < 2:
        raise ValueError(
            "extraction needs the specialized regime kappa_c = 2*kappa_b_hat with kappa_b_hat >= 2"
        )


def default_resolution_plan(state: GtlState, target: str = "bell") -> ResolutionPlan:
    """Canonical plan: full rolling, then Z isolation for the chosen target.

    ``target`` is "bell" (disjoint pairs) or "ghz" (disjoint stars).  Stage 2
    Z-measures the final rolled set; for Bell extraction each remaining star
    is then trimmed to its center and lowest-id leaf.
    """
    if target not in ("bell", "ghz"):
        raise ValueError(f"unknown resolution target {target!r}")
    _require_specialized(state)
    params = state.params
    assert params is not None
    steps, trace = _canonical_rolling(state)
    last = trace[-1]
    if params.n_o == 1:
        # No carried set exists; designate the highest-id leaves as the set to
        # clear so the surviving star has exactly kappa_b_hat vertices.
        others = sorted(last.side - {last.support})
        keep = params.kappa_b_hat - 1
        gamma = frozenset(others[keep:])
        star_leaves = [frozenset(others[:keep])]
    else:
        gamma = last.rolled
        star_leaves = [t.nonsupport for t in trace]
    isolation = sorted(gamma)
    if target == "bell":
        for leaves in star_leaves:
            isolation.extend(sorted(leaves)[1:])
    return ResolutionPlan(steps=tuple(steps), isolation=tuple(isolation))


def bridge_pick_plans(state: GtlState, limit: int = 3) -> list[ResolutionPlan]:
    """Distinct full rolling plans that differ in which side vertex supports each step.

    Every plan follows the canonical policy (current right bridges, then the
    final leaf side); only the pick inside each side set varies.  Up to
    ``limit`` distinct plans are returned.
    """
    _require_specialized(state)
    patterns = [lambda i, c=c: c for c in range(2 * state.params.kappa_b_hat)]
    patterns += [lambda i: i % 2, lambda i: (i + 1) % 2]
    plans: list[ResolutionPlan] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for pattern in patterns:
        g = state.graph.copy()
        steps: list[tuple[int, int]] = []
        for i, o in enumerate(state.orch):
            nbrs = g.neighbors(o)
            if i + 1 < len(state.orch):
                side = nbrs & g.neighbors(state.orch[i + 1])
            else:
                side = frozenset(v for v in nbrs if g.neighbors(v) == {o})
            b0 = sorted(side)[pattern(i) % len(side)]
            steps.append((o, b0))
            g, _ = measure_pauli(g, o, "X", b0)
        key = tuple(steps)
        if key not in seen:
            seen.add(key)
            plans.append(ResolutionPlan(steps=key, stop_stage=STOP_AFTER_ROLLING))
        if len(plans) >= limit:
            break
    return plans


def isolate_max_bell(state: GtlState) -> RollingOutcome:
    """Extract the maximum number of concurrent disjoint Bell pairs."""
    return resolve(state, default_resolution_plan(state, "bell"))


def isolate_ghz(state: GtlState) -> RollingOutcome:
    """Extract disjoint stars (GHZ-class resources), one per orchestration qubit."""
    return resolve(state, default_resolution_plan(state, "ghz"))


def centralized_resolution(state: GtlState, basis: str) -> RollingOutcome:
    """Measure every orchestration qubit in the Y or Z basis.

    Components are reported as found; no pair count is asserted.
    """
    basis = basis.upper()
    if basis not in ("Y", "Z"):
        raise ValueError("centralized resolution uses the Y or Z basis")
    g = state.graph.copy()
    records = []
    for o in state.orch:
        g, rec = measure_pauli(g, o, basis)
        records.append(rec)
    components, pairs, stars = _classify(g)
    return RollingOutcome(
        graph=g,
        records=tuple(records),
        rolled_set=frozenset(),
        components=components,
        pairs=pairs,
        stars=stars,
    )


def schmidt_upper_bound(state: GtlState) -> int:
    """Half the GF(2) adjacency rank, the cap on concurrently extractable pairs."""
    rank = gf2_rank(state.graph)
    if rank % 2:
        raise RuntimeError(f"adjacency rank {rank} is odd; symmetric zero-diagonal forms cannot be")
    return rank // 2


def _shortest_path(graph: Graph, src: int, dst: int) -> list[int]:
    """Lexicographically smallest shortest path from src to dst."""
    dist = {src: 0}
    layer = [src]
    while layer and dst not in dist:
        nxt = []
        for u in layer:
            for w in sorted(graph.neighbors(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        layer = nxt
    if dst not in dist:
        raise ValueError(f"vertices {src} and {dst} are disconnected")
    path = [dst]
    while path[-1] != src:
        v = path[-1]
        preds = [u for u in graph.neighbors(v) if dist.get(u) == dist[v] - 1]
        path.append(min(preds))
    path.reverse()
    return path


def plan_proximity_reduction(state: GtlState, c_i: int, c_j: int) -> ResolutionPlan:
    """Plan that makes two peers adjacent with one X step per proximity unit.

    Measures the orchestration qubits along a shortest path between the
    peers; intermediate supports are current bridges toward the next path
    vertex, and the final support is the far endpoint itself, so the closing
    star contains the rolled near endpoint.
    """
    if c_i == c_j:
        raise ValueError("proximity reduction needs two distinct peers")
    for c in (c_i, c_j):
        if c not in state.peers:
            raise ValueError(f"{c} is not a peer qubit")
    path = _shortest_path(state.graph, c_i, c_j)
    orch_set = set(state.orch)
    orch_path = [v for v in path if v in orch_set]
    g = state.graph.copy()
    steps: list[tuple[int, int]] = []
    for m, o in enumerate(orch_path):
        if m + 1 < len(orch_path):
            shared = g.neighbors(o) & g.neighbors(orch_path[m + 1])
            b0 = min(shared)
        else:
            b0 = c_j
        steps.append((o, b0))
        g, _ = measure_pauli(g, o, "X", b0)
    return ResolutionPlan(steps=tuple(steps), stop_stage=STOP_AFTER_ROLLING)
