"""Experiment harness: fidelity sweeps, threshold curves, verification runs.

A sweep or threshold search builds its resource and plan once and compiles
the plan into per-component term tables (see
:func:`entroll.noise.compile_plan`).  Points are then scored in batches with
:func:`entroll.noise.score_points`, building no noise maps: a sweep scores
its whole grid in one call, and a threshold search scores its grid values
with a first probe tree, then, each round, every bisection probe the next
few levels can reach and a chain of probes it predicts below them.  Rows
are emitted in grid order, and output is byte-stable for a fixed
configuration.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from . import oracle
from .graphstate import check_vertex_id, json_field, json_float, json_int, json_list, json_object
from .gtl import GtlParams, GtlState, bridge_neighborhoods, build_gtl, validate_gtl
from .noise import (
    CompiledPlan,
    NoiseState,
    _check_depolarizing,
    _check_wait_ids,
    closed_form_maps,
    compile_plan,
    depolarizing_map,
    propagate,
    score_points,
)
# Unused here, but bench/tracing.py wraps these two at this module's names.
from .noise import component_fidelities, standard_noise  # noqa: F401
from .rolling import (
    ResolutionPlan,
    _check_target,
    bridge_pick_plans,
    default_resolution_plan,
    resolve,
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

# Every batch of a threshold search scores, per p, the midpoints of every
# bracket its next PROBE_TREE_DEPTH bisection probes can reach
# (2**PROBE_TREE_DEPTH - 1 points), so that no round advances it fewer
# levels.  The first batch adds the grid values; each later one, the
# predicted chain below the tree (see _Bisection.probes).
PROBE_TREE_DEPTH = 3


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
        _check_target(self.target)
        if not self.p_grid or not self.t_grid_ms:
            raise ValueError("parameter grids must be nonempty")
        for p in self.p_grid:
            _check_depolarizing(p)
        for t in self.t_grid_ms:
            if not t > 0:
                raise ValueError(f"dephasing time {t} must be positive")
        if not self.protocol_time_ms >= 0:
            raise ValueError(f"protocol time must be nonnegative, got {self.protocol_time_ms}")
        seen: set[int] = set()
        for v, t in self.qubit_times_ms:
            if not t >= 0:
                raise ValueError(f"per-qubit memory times must be nonnegative, got {t}")
            if v in seen:
                raise ValueError(f"qubit_times_ms lists vertex {v} twice")
            seen.add(v)
        n_qubits = GtlParams.specialized(self.kappa_b_hat, self.n_o).n_qubits
        _check_wait_ids(dict(self.qubit_times_ms), range(n_qubits))

    @classmethod
    def from_json(cls, data: dict) -> ExperimentConfig:
        """Parse a config object; a malformed field raises a ValueError naming it."""
        json_object("config", data, (
            "kappa_b_hat", "n_o", "target", "p_grid", "T_grid_ms", "protocol_time_ms", "qubit_times_ms", "plan", "seed",
        ))

        def _t(value: object) -> float:
            if isinstance(value, str) and value.lower() in ("inf", "infinity"):
                return math.inf
            return json_float(value)

        def _vertex(value: object) -> int:
            check_vertex_id(v := json_int(value))
            return v

        def _waits(value: object) -> tuple[tuple[int, float], ...]:
            if value is not None and not isinstance(value, dict):
                raise TypeError(f"expected an object, got {type(value).__name__}")
            return tuple(sorted((_vertex(k), json_float(t)) for k, t in (value or {}).items()))

        def field(name: str, parse, default=_REQUIRED):
            if name not in data:
                if default is _REQUIRED:
                    raise ValueError(f"config field {name!r} is required")
                return default
            with json_field("config", name):
                return parse(data[name])

        return cls(
            kappa_b_hat=field("kappa_b_hat", json_int),
            n_o=field("n_o", json_int),
            target=field("target", str, "bell"),
            p_grid=field("p_grid", lambda v: tuple(json_float(p) for p in json_list(v)), (1.0,)),
            t_grid_ms=field("T_grid_ms", lambda v: tuple(_t(t) for t in json_list(v)), (math.inf,)),
            protocol_time_ms=field("protocol_time_ms", json_float, 1.0),
            qubit_times_ms=field("qubit_times_ms", _waits, ()),
            plan=field("plan", lambda v: None if v is None else ResolutionPlan.from_json(v), None),
            seed=field("seed", json_int, 0),
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
    if config.plan is None:
        plan = default_resolution_plan(state, config.target)
    else:  # reject, with the same error, a plan that `entroll resolve` rejects
        plan = config.plan
        resolve(state, plan)
    return compile_plan(state.graph, plan)


def _score(config: ExperimentConfig, compiled: CompiledPlan, points) -> list[list[float]]:
    """Fidelities at (p, T) points, one row per point, in ``compiled.components`` order."""
    times = dict(config.qubit_times_ms) or None
    return score_points(
        compiled, [(p, config.protocol_time_ms, t, times) for p, t in points]
    ).tolist()


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Fidelity of every extracted resource at every (p, T) grid point.

    The plan is compiled once, and the whole grid is scored in one batch.
    """
    compiled = _compile(config)
    points = [(p, t) for p in config.p_grid for t in config.t_grid_ms]
    return [
        SweepRow(p=p, t_ms=t, resource_id=rid, fidelity=f)
        for (p, t), row in zip(points, _score(config, compiled, points))
        for rid, f in sorted(zip(compiled.components, row))
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


def _probe_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Midpoints of every bracket the next ``depth`` probes can reach.

    Each midpoint is computed from its bracket exactly as a probe-by-probe
    bisection would.
    """
    brackets = [(lo, hi)]
    mids: list[float] = []
    for i in range(2**depth - 1):
        lo, hi = brackets[i]
        mid = math.sqrt(lo * hi)
        mids.append(mid)
        brackets += [(lo, mid), (mid, hi)]
    return mids


@dataclass
class _Bisection:
    """One p's geometric bisection: its bracket, the worst fidelity at every T it scored, its probes left."""

    p: float
    lo: float
    hi: float
    scored: dict[float, float]
    left: int = 200

    def aim(self, level: float) -> float:
        """The crossing's estimate: inverse cubic interpolation in log T, clamped to the bracket.

        The cubic gives log T as a function of fidelity through the four
        scored points nearest the bracket (in log T; of the points inside it,
        those whose fidelity lies nearest the level).  If two of them have
        equal fidelity, or the estimate is not finite, the estimate is the
        bracket's midpoint.
        """
        lo, hi, scored = self.lo, self.hi, self.scored
        ts = sorted(scored)
        window = ts[max(bisect_left(ts, lo) - 2, 0) : bisect_right(ts, hi) + 2]
        near = sorted(window, key=lambda t: (max(lo / t, t / hi, 1.0), abs(scored[t] - level)))[:4]
        log_t = 0.0
        for a in near:
            term = math.log(a)
            for b in near:
                if b != a:
                    if scored[a] == scored[b]:
                        return math.sqrt(lo * hi)
                    term *= (level - scored[b]) / (scored[a] - scored[b])
            log_t += term
        if not math.isfinite(log_t):
            return math.sqrt(lo * hi)
        return min(max(math.exp(min(log_t, math.log(hi))), lo), hi)

    def probes(self, level: float) -> list[float]:
        """The next round's probes: the probe tree, then the predicted chain below it.

        The chain goes on from the tree leaf that holds the crossing's
        estimate (see ``aim``), taking the probes a bisection would take if
        the crossing sat there, down to the 1e-7 stop width or the probe cap.
        """
        depth = min(PROBE_TREE_DEPTH, self.left)
        t_hat = self.aim(level)
        lo, hi, path = self.lo, self.hi, []
        for n in range(self.left):
            if n >= depth and (hi - lo) / hi < 1e-7:
                break
            mid = math.sqrt(lo * hi)
            path.append(mid)
            lo, hi = (lo, mid) if mid >= t_hat else (mid, hi)
        return _probe_tree(self.lo, self.hi, depth) + path[depth:]

    def walk(self, level: float) -> bool:
        """Take probes in turn while the next one was scored; True once the search stops."""
        while (mid := math.sqrt(self.lo * self.hi)) in self.scored:
            f_mid = self.scored[mid]
            self.lo, self.hi = (self.lo, mid) if f_mid >= level else (mid, self.hi)
            self.left -= 1
            converged = (self.hi - self.lo) / self.hi < 1e-7 and abs(f_mid - level) < 1e-6
            if converged or self.left == 0:
                return True
        return False


def find_threshold(
    config: ExperimentConfig, level: float = 0.5
) -> tuple[list[tuple[float, float]], list[str]]:
    """Minimal dephasing time T at which the worst resource reaches ``level``.

    For each p on the grid the crossing is bisected geometrically between the
    grid extremes until the T interval is below 1e-7 relative width and the
    fidelity sits within 1e-6 of the level, or for at most 200 probes.  Rows
    where the level is unreachable (or already exceeded at the smallest T, so
    no crossing exists in range) are omitted and noted in the diagnostics
    list.  The grid ends must lie in [2**-511, 2**511] ms.  The plan is
    compiled once.  Every batch scores, for each p still searching, a tree
    of probes PROBE_TREE_DEPTH levels deep.  The first batch adds every p's
    grid values, which the monotonicity check and the diagnostics read.
    Each later batch adds a chain below the tree towards the crossing's
    estimate from all the points that p has scored (see
    ``_Bisection.aim``), down to the stop width or the probe cap.  Each
    search then takes its next probe while that probe was scored, so the
    probes and rows are those of a plain bisection.
    """
    if math.isnan(level):
        raise ValueError("threshold level must be a number, got nan")
    t_lo, t_hi = min(config.t_grid_ms), max(config.t_grid_ms)
    if math.isinf(t_hi):
        raise ValueError("threshold search needs a finite T grid")
    # Between these ends the product of two probes is a finite normal float,
    # so math.sqrt(lo * hi) neither overflows to inf nor underflows to 0.
    if not (2.0**-511 <= t_lo and t_hi <= 2.0**511):
        raise ValueError(
            f"threshold search needs T grid ends in [2**-511, 2**511] ms, got {t_lo!r} and {t_hi!r}"
        )
    compiled = _compile(config)
    if not compiled.components:
        raise ValueError("threshold search needs a component to score, but the plan leaves none")

    def worst(points: list[tuple[float, float]]) -> list[float]:
        return [min(row) for row in _score(config, compiled, points)]

    # The grid values double as the bracket ends: sorted, they run from t_lo to t_hi.
    grid = sorted(config.t_grid_ms)
    first = grid + _probe_tree(t_lo, t_hi, PROBE_TREE_DEPTH)
    scores = worst([(p, t) for p in config.p_grid for t in first])
    diagnostics: list[str] = []
    searches: list[_Bisection] = []
    for i, p in enumerate(config.p_grid):
        row = scores[i * len(first) : (i + 1) * len(first)]
        curve = row[: len(grid)]
        if any(b < a - 1e-12 for a, b in zip(curve, curve[1:])):
            raise ValueError(f"worst-resource fidelity is not monotone in T at p={p}")
        if curve[-1] < level:
            diagnostics.append(f"p={p}: level {level} unreachable (max fidelity {curve[-1]:.6f})")
        elif curve[0] >= level:
            diagnostics.append(f"p={p}: already above level at T={t_lo} (fidelity {curve[0]:.6f})")
        else:
            searches.append(_Bisection(p, t_lo, t_hi, dict(zip(first, row))))
    active = [s for s in searches if not s.walk(level)]
    while active:
        probes = [s.probes(level) for s in active]
        scores = iter(worst([(s.p, t) for s, ts in zip(active, probes) for t in ts]))
        for search, ts in zip(active, probes):
            search.scored.update(zip(ts, scores))  # zip stops at the end of ts, taking no extra score
        active = [s for s in active if not s.walk(level)]
    return [(s.p, s.hi) for s in searches], diagnostics


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


# The resources verify's nsf scope crosschecks against the dense oracle.
_CROSSCHECKS = ((2, 1), (2, 2), (3, 1))


def _verify_nsf(max_qubits: int) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    bad: list[str] = []
    for kb, n_o in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
        state = build_gtl(GtlParams.specialized(kb, n_o))
        start = NoiseState(
            graph=state.graph.copy(),
            maps=tuple(depolarizing_map(state.graph, v, 0.9) for v in state.graph.vertices()),
        )
        for plan in bridge_pick_plans(state, limit=3):
            closed = closed_form_maps(state, plan, 0.9)
            stepwise = propagate(start, plan).maps
            for cf, sw in zip(closed, stepwise):
                if cf != sw:  # both from NoiseMap._from_masks: equal weights, equal branches
                    bad.append(f"{state.params}: closed form differs on qubit {cf.origin}")
    checks.append(("closed forms vs stepwise", not bad, "exact equality" if not bad else "; ".join(bad[:3])))

    bad = []
    ran = 0
    for kb, n_o in _CROSSCHECKS:
        state = build_gtl(GtlParams.specialized(kb, n_o))
        if state.graph.n > max_qubits:
            continue
        plan = default_resolution_plan(state, "bell")
        points = [(p, 1.0, 10.0, None) for p in (0.8, 1.0)]
        for (p, *_), report in zip(points, oracle.crosscheck_points(state, plan, points)):
            ran += 1
            if not report.ok:
                bad.append(f"{state.params} p={p}: delta {report.max_delta:.2e}")
    detail = f"{ran} crosschecks, deltas < 1e-9" if not bad else "; ".join(bad[:3])
    checks.append(("oracle crosscheck", not bad, detail))
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
    counts = {"max_kappa_b": max_kappa_b, "max_n_o": max_n_o, "max_qubits": max_qubits, "trials": trials}
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"verify {name} must be at least 1, got {count}")
    if scope != "nsf":  # the largest instance structure or rolling builds, refused before any is built
        GtlParams(max_kappa_b, 2 * max_kappa_b + 2, max_n_o if scope == "structure" else max(2, max_n_o))
    smallest = min(GtlParams.specialized(kb, n_o).n_qubits for kb, n_o in _CROSSCHECKS)
    if scope in ("nsf", "all") and max_qubits < smallest:
        raise ValueError(
            f"verify max_qubits must be at least {smallest}, the smallest crosscheck resource, got {max_qubits}"
        )
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
