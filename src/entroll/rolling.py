"""Entanglement Rolling: X-measurement reshaping of GTL resources.

A rolling step X-measures one orchestration qubit with a chosen support
vertex.  The support becomes the center of a star over the measured vertex's
old neighborhood, the rolled set (non-support-side neighbors) moves on to the
next orchestration qubit, and the non-support bridges drop to degree one.
Iterating over the whole chain and then Z-measuring a small peer set isolates
disjoint Bell pairs or star (GHZ-class) resources.

The default, bridge-pick and proximity plans and the closed-form noise maps
all walk the chain on one stepper, :func:`_roll`.  Its side rule: a step's
support side is what the measured qubit shares with the next one in the walk,
or, at the last step, its leaves (:func:`_leaf_side`).  Executing an arbitrary
plan resolves sides by the more general :func:`_support_side`; :func:`resolve`
is the one walk that turns a plan into measurement records, and the dense
oracle's crosscheck replays those records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .graphstate import (
    Graph, MeasurementRecord, _bits, _mask, gf2_rank, json_field, json_int, json_list, json_object, json_pair,
    measure_pauli,
)
from .gtl import GtlParams, GtlState, _bridge_sides, _peer_predecessors

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
        if len(set(self.isolation)) != len(self.isolation):
            twice = next(v for i, v in enumerate(self.isolation) if v in self.isolation[:i])
            raise ValueError(f"plan isolates qubit {twice} twice")

    @property
    def z_targets(self) -> tuple[int, ...]:
        """The isolation targets the plan Z-measures: none if it stops after rolling."""
        return self.isolation if self.stop_stage == STOP_AFTER_ISOLATION else ()

    def to_json(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "isolation": list(self.isolation),
            "stop_stage": self.stop_stage,
        }

    @classmethod
    def from_json(cls, data: dict) -> ResolutionPlan:
        """Parse a plan object; a malformed field raises a ValueError naming it."""
        json_object("plan", data, ("steps", "isolation", "stop_stage"))
        with json_field("plan", "steps"):
            steps = tuple(json_pair(step) for step in json_list(data["steps"]))
        with json_field("plan", "isolation"):
            isolation = tuple(json_int(v) for v in json_list(data.get("isolation", [])))
        return cls(
            steps=steps,
            isolation=isolation,
            stop_stage=data.get("stop_stage", STOP_AFTER_ISOLATION),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class StepTrace:
    """Execution-time bookkeeping of one rolling step, vertex sets as bitmasks.

    ``side`` is the support-side set (the current bridge set containing the
    support, or the degenerate leaf set at the chain end), ``rolled`` the
    neighbors that move on.
    """

    measured: int
    support: int
    side: int
    rolled: int

    @property
    def nonsupport(self) -> int:
        """The side minus the support."""
        return self.side & ~(1 << self.support)


@dataclass(frozen=True)
class RollingOutcome:
    """A run's final graph, its measurement records and its last step's rolled set.

    ``components``, ``pairs`` and ``stars`` are read off the graph.
    """

    graph: Graph
    records: tuple[MeasurementRecord, ...]
    rolled_set: frozenset[int]

    @property
    def components(self) -> tuple[frozenset[int], ...]:
        """The connected components, ordered by smallest member."""
        return self.graph.components()

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The two-vertex components, each as its sorted ids."""
        return tuple(tuple(sorted(comp)) for comp in self.components if len(comp) == 2)

    @property
    def stars(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The components of three or more vertices that are stars, as (center, sorted leaves)."""
        graph, stars = self.graph, []
        for comp in self.components:
            if len(comp) >= 3:
                centers = [v for v in comp if graph.degree(v) == len(comp) - 1]
                if len(centers) == 1 and all(graph.degree(v) == 1 for v in comp if v != centers[0]):
                    stars.append((centers[0], tuple(sorted(comp - {centers[0]}))))
        return tuple(stars)


def _leaf_side(graph: Graph, o: int) -> int:
    """The current neighbors of ``o`` whose only neighbor is ``o``."""
    bit = 1 << o
    return _mask(v for v in _bits(graph.neighbor_mask(o)) if graph.neighbor_mask(v) == bit)


def _support_side(graph: Graph, orch: tuple[int, ...], i: int, b0: int, carried: int) -> int:
    """Support-side set of a step measuring ``orch[i]`` with live neighbor ``b0``,
    resolved against the evolving graph; ``carried`` is the last step's rolled set."""
    bit = 1 << b0
    left, right = _bridge_sides(graph, orch, i)
    for side in (right, left, carried & graph.neighbor_mask(orch[i])):
        if side & bit:
            return side
    leaves = _leaf_side(graph, orch[i])
    return leaves if leaves & bit else bit


def _roll(graph: Graph, order, pick) -> Iterator[StepTrace]:
    """X-measure ``order`` in turn, leaving ``graph`` as it is, and yield each step's trace.

    A step's side is the current neighbors it shares with the next qubit in
    ``order``; at the last step, its leaves.  ``pick(i, side)`` returns step
    i's support.
    """
    graph = graph.copy()
    for i, o in enumerate(order):
        nbrs = graph.neighbor_mask(o)
        side = nbrs & graph.neighbor_mask(order[i + 1]) if i + 1 < len(order) else _leaf_side(graph, o)
        b0 = pick(i, side)
        yield StepTrace(o, b0, side, nbrs & ~side)
        graph._measure_x(o, b0)


def _execute(
    state: GtlState, plan: ResolutionPlan
) -> tuple[Graph, list[MeasurementRecord], list[StepTrace]]:
    g = state.graph.copy()
    records: list[MeasurementRecord] = []
    trace: list[StepTrace] = []
    carried = 0
    for o_i, b0 in plan.steps:
        if o_i not in state.orch:
            raise ValueError(f"step measures {o_i}, which is not an orchestration qubit")
        if not g.is_live(o_i):
            raise ValueError(f"step measures {o_i}, which is no longer live")
        if not (g.is_live(b0) and g.has_edge(o_i, b0)):
            raise ValueError(f"support {b0} is not a neighbor of {o_i}")
        side = _support_side(g, state.orch, state.orch.index(o_i), b0, carried)
        trace.append(StepTrace(o_i, b0, side, g.neighbor_mask(o_i) & ~side))
        g, rec = measure_pauli(g, o_i, "X", b0)
        records.append(rec)
        carried = trace[-1].rolled
    for v in plan.z_targets:
        if not g.is_live(v):
            raise ValueError(f"isolation target {v} is not live")
        g, rec = measure_pauli(g, v, "Z")
        records.append(rec)
    return g, records, trace


def resolve(state: GtlState, plan: ResolutionPlan) -> RollingOutcome:
    """Execute a resolution plan on a copy of the state's graph."""
    g, records, trace = _execute(state, plan)
    return RollingOutcome(g, tuple(records), frozenset(_bits(trace[-1].rolled if trace else 0)))


def rolling_step(state: GtlState, o_i: int, b0: int) -> RollingOutcome:
    """Single rolling step on the given state."""
    return resolve(state, ResolutionPlan(steps=((o_i, b0),), stop_stage=STOP_AFTER_ROLLING))


_NOT_SPECIALIZED = "extraction needs the specialized regime kappa_c = 2*kappa_b_hat with kappa_b_hat >= 2"


def _require_specialized(state: GtlState, message: str = _NOT_SPECIALIZED) -> GtlParams:
    """The state's parameters: specialized, with kappa_b_hat >= 2 and n_o its chain's length."""
    params = state.params
    if params is None or not params.is_specialized or params.kappa_b_hat < 2:
        raise ValueError(message)
    if len(state.orch) != params.n_o:
        raise ValueError(f"state's orch has length {len(state.orch)}, but its params give n_o={params.n_o}")
    return params


def _side_vertex(state: GtlState, i: int, side: int, k: int = 0) -> int:
    """Vertex k (mod its size, in id order) of step i's side on the state's chain; empty is refused."""
    if not side:
        raise ValueError(f"no admissible support for {state.orch[i]}; not a rollable GTL state")
    return [*_bits(side)][k % side.bit_count()]


_TARGETS = ("bell", "ghz")  # disjoint pairs or disjoint stars


def _check_target(target: str) -> None:
    """Refuse a resolution target not in :data:`_TARGETS`."""
    if target not in _TARGETS:
        raise ValueError(f"unknown resolution target {target!r}")


def default_resolution_plan(state: GtlState, target: str = "bell") -> ResolutionPlan:
    """Canonical plan: full rolling, then Z isolation for the chosen target.

    ``target`` is "bell" (disjoint pairs) or "ghz" (disjoint stars).  Stage 2
    Z-measures the final rolled set; for Bell extraction each remaining star
    is then trimmed to its center and lowest-id leaf.
    """
    _check_target(target)
    params = _require_specialized(state)
    trace = list(_roll(state.graph, state.orch, lambda i, side: _side_vertex(state, i, side)))
    last = trace[-1]
    if params.n_o == 1:
        # No carried set exists; designate the highest-id leaves as the set to
        # clear so the surviving star has exactly kappa_b_hat vertices.
        others = list(_bits(last.nonsupport))
        keep = params.kappa_b_hat - 1
        isolation, star_leaves = others[keep:], [others[:keep]]
    else:
        isolation = list(_bits(last.rolled))
        star_leaves = [list(_bits(t.nonsupport)) for t in trace]
    if target == "bell":
        for leaves in star_leaves:
            isolation.extend(leaves[1:])
    steps = tuple((t.measured, t.support) for t in trace)
    return ResolutionPlan(steps=steps, isolation=tuple(isolation))


def bridge_pick_plans(state: GtlState, limit: int = 3) -> list[ResolutionPlan]:
    """Distinct full rolling plans that differ in which side vertex supports each step.

    Every plan follows the canonical policy (current right bridges, then the
    final leaf side); only the pick inside each side set varies.  Up to
    ``limit`` distinct plans are returned.
    """
    patterns = [lambda i, c=c: c for c in range(2 * _require_specialized(state).kappa_b_hat)]
    patterns += [lambda i: i % 2, lambda i: (i + 1) % 2]
    plans: list[ResolutionPlan] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for pattern in patterns:
        trace = _roll(state.graph, state.orch, lambda i, side: _side_vertex(state, i, side, pattern(i)))
        key = tuple((t.measured, t.support) for t in trace)
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
    return RollingOutcome(g, tuple(records), frozenset())


def schmidt_upper_bound(state: GtlState) -> int:
    """Half the GF(2) adjacency rank, the cap on concurrently extractable pairs."""
    rank = gf2_rank(state.graph)
    if rank % 2:
        raise RuntimeError(f"adjacency rank {rank} is odd; symmetric zero-diagonal forms cannot be")
    return rank // 2


def plan_proximity_reduction(state: GtlState, c_i: int, c_j: int) -> ResolutionPlan:
    """Plan that makes two peers adjacent with one X step per proximity unit.

    Measures the orchestration qubits along a shortest path between the
    peers; intermediate supports are current bridges toward the next path
    vertex, and the final support is the far endpoint itself, so the closing
    star contains the rolled near endpoint.
    """
    preds = _peer_predecessors(state, c_i, c_j)
    # The lexicographically smallest shortest path, walked back from c_j.
    path = [c_j]
    while path[-1] != c_i:
        path.append(min(preds[path[-1]]))
    orch_set = set(state.orch)
    orch_path = [v for v in reversed(path) if v in orch_set]

    def pick(m: int, side: int) -> int:
        return min(_bits(side)) if m + 1 < len(orch_path) else c_j

    steps = tuple((t.measured, t.support) for t in _roll(state.graph, orch_path, pick))
    return ResolutionPlan(steps=steps, stop_stage=STOP_AFTER_ROLLING)
