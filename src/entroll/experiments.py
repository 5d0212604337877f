"""Experiment harness: fidelity sweeps, threshold curves, verification runs.

A sweep or threshold search builds its resource and plan once and compiles
the plan into per-component branch tables (see
:func:`entroll.noise.compile_plan`); every (p, T) point and bisection probe
then scores the components straight from those tables with
:func:`entroll.noise.compiled_fidelities`, building no noise maps.  Rows are
emitted in grid order, and output is byte-stable for a fixed configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import oracle
from .graphstate import json_field
from .gtl import GtlParams, GtlState, bridge_neighborhoods, build_gtl, validate_gtl
from .noise import (
    CompiledPlan,
    NoiseState,
    closed_form_maps,
    compile_plan,
    compiled_fidelities,
    depolarizing_map,
    propagate,
)
# Unused here, but bench/tracing.py wraps these two at this module's names.
from .noise import component_fidelities, standard_noise  # noqa: F401
from .rolling import (
    ResolutionPlan,
    bridge_pick_plans,
    default_resolution_plan,
    rolling_step,
    schmidt_upper_bound,
)

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "VerifyReport",
    "find_threshold",
    "run_sweep",
    "sweep_to_csv",
    "threshold_to_dat",
    "verify",
]

_REQUIRED = object()


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep/threshold experiment over a (p, T) grid."""

    kappa_b_hat: int
    n_o: int
    target: str = "bell"
    p_grid: tuple[float, ...] = (1.0,)
    t_grid_ms: tuple[float, ...] = (math.inf,)
    protocol_time_ms: float = 1.0
    qubit_times_ms: tuple[tuple[int, float], ...] = ()
    plan: ResolutionPlan | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target not in ("bell", "ghz"):
            raise ValueError(f"unknown resource target {self.target!r}")
        if not self.p_grid or not self.t_grid_ms:
            raise ValueError("parameter grids must be nonempty")
        for p in self.p_grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
        for t in self.t_grid_ms:
            if not t > 0:
                raise ValueError(f"dephasing time {t} must be positive")
        if self.protocol_time_ms < 0:
            raise ValueError("protocol time must be nonnegative")
        for _, t in self.qubit_times_ms:
            if t < 0:
                raise ValueError("per-qubit memory times must be nonnegative")
        GtlParams.specialized(self.kappa_b_hat, self.n_o)

    @classmethod
    def from_json(cls, data: dict) -> ExperimentConfig:
        """Parse a config object; a malformed field raises a ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")

        def _t(value: object) -> float:
            if isinstance(value, str) and value.lower() in ("inf", "infinity"):
                return math.inf
            return float(value)  # type: ignore[arg-type]

        def _list(value: object) -> list:
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"expected a list, got {type(value).__name__}")
            return list(value)

        def field(name: str, parse, default=_REQUIRED):
            if name not in data:
                if default is _REQUIRED:
                    raise ValueError(f"config field {name!r} is required")
                return default
            with json_field("config", name):
                return parse(data[name])

        return cls(
            kappa_b_hat=field("kappa_b_hat", int),
            n_o=field("n_o", int),
            target=field("target", str, "bell"),
            p_grid=field("p_grid", lambda v: tuple(float(p) for p in _list(v)), (1.0,)),
            t_grid_ms=field("T_grid_ms", lambda v: tuple(_t(t) for t in _list(v)), (math.inf,)),
            protocol_time_ms=field("protocol_time_ms", float, 1.0),
            qubit_times_ms=field(
                "qubit_times_ms",
                lambda v: tuple(sorted((int(k), float(t)) for k, t in (v or {}).items())),
                (),
            ),
            plan=field("plan", lambda v: None if v is None else ResolutionPlan.from_json(v), None),
            seed=field("seed", int, 0),
        )

    def to_json(self) -> dict:
        return {
            "kappa_b_hat": self.kappa_b_hat,
            "n_o": self.n_o,
            "target": self.target,
            "p_grid": list(self.p_grid),
            "T_grid_ms": ["inf" if math.isinf(t) else t for t in self.t_grid_ms],
            "protocol_time_ms": self.protocol_time_ms,
            "qubit_times_ms": {str(k): v for k, v in self.qubit_times_ms},
            "plan": self.plan.to_json() if self.plan else None,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SweepRow:
    p: float
    t_ms: float
    resource_id: str
    fidelity: float


def _compile(config: ExperimentConfig) -> CompiledPlan:
    state = build_gtl(GtlParams.specialized(config.kappa_b_hat, config.n_o))
    plan = config.plan or default_resolution_plan(state, config.target)
    return compile_plan(state.graph, plan)


def _grid_point(
    config: ExperimentConfig, compiled: CompiledPlan, p: float, t: float
) -> dict[str, float]:
    return compiled_fidelities(
        compiled, p, config.protocol_time_ms, t, dict(config.qubit_times_ms) or None
    )


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Fidelity of every extracted resource at every (p, T) grid point.

    The plan is compiled once; each grid point is scored from the compiled
    tables.
    """
    compiled = _compile(config)
    return [
        SweepRow(p=p, t_ms=t, resource_id=rid, fidelity=f)
        for p in config.p_grid
        for t in config.t_grid_ms
        for rid, f in sorted(_grid_point(config, compiled, p, t).items())
    ]


def _format_float(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["p,T_ms,resource_id,fidelity"]
    for row in rows:
        lines.append(
            f"{_format_float(row.p)},{_format_float(row.t_ms)},{row.resource_id},{_format_float(row.fidelity)}"
        )
    return "\n".join(lines) + "\n"


def find_threshold(
    config: ExperimentConfig, level: float = 0.5
) -> tuple[list[tuple[float, float]], list[str]]:
    """Minimal dephasing time T at which the worst resource reaches ``level``.

    For each p on the grid the crossing is bisected geometrically between the
    grid extremes until the T interval is below 1e-7 relative width and the
    fidelity sits within 1e-6 of the level.  Rows where the level is
    unreachable (or already exceeded at the smallest T, so no crossing exists
    in range) are omitted and noted in the diagnostics list.  The plan is
    compiled once and reused for every p and every probe.
    """
    t_lo, t_hi = min(config.t_grid_ms), max(config.t_grid_ms)
    if math.isinf(t_hi):
        raise ValueError("threshold search needs a finite T grid")
    compiled = _compile(config)

    def worst_fidelity(p: float, t: float) -> float:
        return min(_grid_point(config, compiled, p, t).values())

    # The grid values double as the bracket ends: sorted, they run from t_lo to t_hi.
    bracket_ends: list[tuple[float, float]] = []
    for p in config.p_grid:
        worst = [worst_fidelity(p, t) for t in sorted(config.t_grid_ms)]
        if any(b < a - 1e-12 for a, b in zip(worst, worst[1:])):
            raise ValueError(f"worst-resource fidelity is not monotone in T at p={p}")
        bracket_ends.append((worst[0], worst[-1]))
    diagnostics: list[str] = []
    rows: list[tuple[float, float]] = []
    for p, (f_lo, f_hi) in zip(config.p_grid, bracket_ends):
        if f_hi < level:
            diagnostics.append(f"p={p}: level {level} unreachable (max fidelity {f_hi:.6f})")
            continue
        if f_lo >= level:
            diagnostics.append(f"p={p}: already above level at T={t_lo} (fidelity {f_lo:.6f})")
            continue
        lo, hi = t_lo, t_hi
        f_mid = f_hi
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            f_mid = worst_fidelity(p, mid)
            if f_mid >= level:
                hi = mid
            else:
                lo = mid
            if (hi - lo) / hi < 1e-7 and abs(f_mid - level) < 1e-6:
                break
        rows.append((p, hi))
    return rows, diagnostics


def threshold_to_dat(rows: list[tuple[float, float]]) -> str:
    return "".join(f"{_format_float(p)} {_format_float(t)}\n" for p, t in rows)


# -- verification suites ------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    scope: str
    checks: tuple[tuple[str, bool, str], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, passed, detail in self.checks:
            mark = "pass" if passed else "FAIL"
            out.append(f"[{mark}] {name}: {detail}")
        return out


def _verify_structure(max_kb: int, max_no: int) -> list[tuple[str, bool, str]]:
    bad: list[str] = []
    count = 0
    for kb in range(1, max_kb + 1):
        for n_o in range(1, max_no + 1):
            for kc in (2 * kb, 2 * kb + 1, 2 * kb + 2):
                params = GtlParams(kb, kc, n_o)
                state = build_gtl(params)
                count += 1
                result = validate_gtl(state.graph, state.orch, state.peers)
                if not result.ok:
                    bad.append(f"{params}: {[v.message for v in result.violations]}")
                elif n_o >= 2 and result.params != params:
                    bad.append(f"{params}: inferred {result.params}")
                if schmidt_upper_bound(state) != n_o:
                    bad.append(f"{params}: adjacency rank != 2 n_o")
    return [
        ("structure round-trip", not bad, f"{count} instances" if not bad else "; ".join(bad[:3]))
    ]


def _verify_rolling(max_kb: int, max_no: int, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    bad: list[str] = []
    for _ in range(trials):
        kb = rng.randint(1, max_kb)
        n_o = rng.randint(2, max(2, max_no))
        kc = 2 * kb + rng.choice((0, 1, 2))
        state = build_gtl(GtlParams(kb, kc, n_o))
        i = rng.randrange(n_o)
        o = state.orch[i]
        left, right = bridge_neighborhoods(state, o)
        sides = [s for s in (left, right) if s]
        side = rng.choice(sides)
        b0 = rng.choice(sorted(side))
        nbrs = state.graph.neighbors(o)
        g = rolling_step(state, o, b0).graph
        if g.neighbors(b0) != nbrs - {b0}:
            bad.append(f"{state.params} step {o},{b0}: support star broken")
        if any(g.has_edge(u, w) for u in nbrs - {b0} for w in nbrs - {b0} if u < w):
            bad.append(f"{state.params} step {o},{b0}: edges inside the star")
        towards = i + 1 if side == right else i - 1
        if 0 <= towards < n_o:
            nxt = state.orch[towards]
            if not all(g.has_edge(v, nxt) for v in nbrs - side):
                bad.append(f"{state.params} step {o},{b0}: rolled set not adjacent to {nxt}")
        for v in side - {b0}:
            if g.neighbors(v) != {b0}:
                bad.append(f"{state.params} step {o},{b0}: non-support bridge {v} kept edges")
    return [("rolling-step postconditions", not bad, f"{trials} trials" if not bad else "; ".join(bad[:3]))]


def _verify_nsf(max_qubits: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    bad: list[str] = []
    for kb, n_o in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        for plan in bridge_pick_plans(state, limit=3):
            closed = closed_form_maps(state, plan, 0.9)
            start = NoiseState(
                graph=state.graph.copy(),
                maps=tuple(depolarizing_map(state.graph, v, 0.9) for v in state.graph.vertices()),
            )
            stepwise = propagate(start, plan).maps
            for cf, sw in zip(closed, stepwise):
                if cf.weights() != sw.weights():
                    bad.append(f"{state.params}: closed form differs on qubit {cf.origin}")
    checks.append(("closed forms vs stepwise", not bad, "exact equality" if not bad else "; ".join(bad[:3])))

    bad = []
    for kb, n_o in ((2, 1), (2, 2), (3, 1)):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        if state.graph.n > max_qubits:
            continue
        plan = default_resolution_plan(state, "bell")
        for p in (0.8, 1.0):
            report = oracle.crosscheck(state, plan, p=p, t_ms=1.0, big_t_ms=10.0)
            if not report.ok:
                bad.append(f"{state.params} p={p}: delta {report.max_delta:.2e}")
    checks.append(("oracle crosscheck", not bad, "deltas < 1e-9" if not bad else "; ".join(bad[:3])))
    return checks


def verify(
    scope: str = "all",
    max_kappa_b: int = 4,
    max_n_o: int = 6,
    max_qubits: int = oracle.MAX_CROSSCHECK_QUBITS,
    trials: int = 200,
    seed: int = 0,
    state: GtlState | None = None,
) -> VerifyReport:
    """Run the bounded property suites; failures are report entries."""
    if scope not in ("structure", "rolling", "nsf", "all"):
        raise ValueError(f"unknown verify scope {scope!r}")
    checks: list[tuple[str, bool, str]] = []
    if state is not None:
        result = validate_gtl(state.graph, state.orch, state.peers)
        detail = (
            "valid GTL"
            if result.ok
            else "; ".join(f"{v.constraint}: {v.message}" for v in result.violations)
        )
        checks.append(("input state validates", result.ok, detail))
        if not result.ok:
            return VerifyReport(scope=scope, checks=tuple(checks))
    if scope in ("structure", "all"):
        checks.extend(_verify_structure(max_kappa_b, max_n_o))
    if scope in ("rolling", "all"):
        checks.extend(_verify_rolling(max_kappa_b, max_n_o, trials, seed))
    if scope in ("nsf", "all"):
        checks.extend(_verify_nsf(max_qubits))
    return VerifyReport(scope=scope, checks=tuple(checks))
