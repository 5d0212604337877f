"""Per-layer spans recorded from outside the package.

The tracer replaces public functions with timing wrappers at the names the
calling module looks them up by (``experiments.propagate``,
``noise.measure_pauli`` and so on), so no file of the package changes and
nothing is recorded while the tracer is not installed.  Spans stay in memory
until the run ends.  Each span is ``(name, site, parent, op, t0, t1, attrs)``:
``name`` is ``<layer>.<function>``, ``site`` the module whose lookup was
wrapped, ``parent`` the index of the enclosing span (-1 for an op's root) and
``op`` the index of the benchmark call that caused it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "gtl", "rolling", "noise", "graphstate", "oracle")

# (module, attribute, span name).  The first four are the public calls the
# benchmark itself makes; the rest are the lookups those calls go through.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("experiments", "sweep_to_csv", "experiments.sweep_to_csv"),
    ("experiments", "verify", "experiments.verify"),
    ("cli", "find_threshold", "experiments.find_threshold"),
    ("cli", "threshold_to_dat", "experiments.threshold_to_dat"),
    ("experiments", "build_gtl", "gtl.build_gtl"),
    ("experiments", "default_resolution_plan", "rolling.default_resolution_plan"),
    ("experiments", "bridge_pick_plans", "rolling.bridge_pick_plans"),
    ("experiments", "standard_noise", "noise.standard_noise"),
    ("experiments", "depolarizing_map", "noise.depolarizing_map"),
    ("experiments", "propagate", "noise.propagate"),
    ("experiments", "closed_form_maps", "noise.closed_form_maps"),
    ("experiments", "component_fidelities", "noise.component_fidelities"),
    ("oracle", "crosscheck", "oracle.crosscheck"),
    ("oracle", "standard_noise", "noise.standard_noise"),
    ("oracle", "propagate", "noise.propagate"),
    ("oracle", "component_fidelities", "noise.component_fidelities"),
    ("oracle", "measure_pauli", "graphstate.measure_pauli"),
    ("rolling", "measure_pauli", "graphstate.measure_pauli"),
    ("noise", "measure_pauli", "graphstate.measure_pauli"),
)


def _attrs(name: str, args: tuple, result: object) -> tuple:
    """Counts taken from a call's arguments or result; () when the span has none."""
    if name == "noise.propagate":
        sizes = [len(m.branches) for m in result.maps]
        return (sum(sizes), max(sizes, default=0))
    if name == "noise.component_fidelities":
        return (max((key.count("-") + 1 for key in result), default=0),)
    if name == "graphstate.measure_pauli":
        return (str(args[2]).upper(),)
    if name == "gtl.build_gtl":
        p = args[0]
        return (p.kappa_b_hat, p.kappa_c, p.n_o)
    if name == "oracle.crosscheck":
        return (args[0].graph.n, result.max_delta)
    return ()


class Tracer:
    """Installs span-recording wrappers on a loaded package and removes them."""

    def __init__(self, pkg) -> None:
        self.pkg = pkg
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[sid] = (name, site, parent, self.op, t0, perf_counter(), ())
                raise
            t1 = perf_counter()
            stack.pop()
            spans[sid] = (name, site, parent, self.op, t0, t1, _attrs(name, args, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = getattr(self.pkg, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, module_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The package is single-threaded, so children never overlap and their union
    is the sum of their durations.
    """
    own = [t1 - t0 for _, _, _, _, t0, t1, _ in spans]
    for _, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def layer_metrics(spans: list, op_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics over the traced calls; times and counts are per call.

    ``op_walls`` are the traced calls' wall times as the benchmark measured
    them and ``untraced_walls`` the same calls run without the tracer.
    """
    n_ops = max(len(op_walls), 1)
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    root_time = 0.0
    branches_total = branches_max = comp_max = dense_bytes = 0
    max_delta = 0.0
    resolve_s = 0.0
    steps = {"X": 0, "Y": 0, "Z": 0}
    evals = 0
    builds_per_op: dict[int, list[tuple]] = defaultdict(list)
    for (name, site, parent, op, t0, t1, attrs), s in zip(spans, own):
        by_name[name] += s
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += s
        if parent < 0:
            root_time += t1 - t0
        if name == "noise.propagate":
            branches_total += attrs[0]
            branches_max = max(branches_max, attrs[1])
        elif name == "noise.component_fidelities":
            comp_max = max(comp_max, attrs[0])
            evals += site == "experiments"
        elif name == "graphstate.measure_pauli" and site == "noise":
            # Graph updates that execute plan steps while noise is propagated.
            resolve_s += s
            steps[attrs[0]] += 1
        elif name == "gtl.build_gtl":
            builds_per_op[op].append(attrs)
        elif name == "oracle.crosscheck":
            dense_bytes += 16 * 4 ** attrs[0]
            max_delta = max(max_delta, attrs[1])
    n_builds = sum(len(b) for b in builds_per_op.values())
    distinct = sum(len(set(b)) for b in builds_per_op.values())
    traced_wall = sum(op_walls)

    def per_op(x: float) -> float:
        return x / n_ops

    values = {
        "noise.propagate_s": (per_op(by_name["noise.propagate"]), "s/op"),
        "noise.propagate_calls": (per_op(calls["noise.propagate"]), "count/op"),
        "noise.branches_total": (per_op(branches_total), "count/op"),
        "noise.branches_max": (branches_max, "count"),
        "noise.score_s": (per_op(by_name["noise.component_fidelities"]), "s/op"),
        "noise.component_max_qubits": (comp_max, "qubits"),
        "noise.conv_table_max": (2**comp_max if comp_max else 0, "entries"),
        "noise.init_s": (
            per_op(by_name["noise.standard_noise"] + by_name["noise.depolarizing_map"]),
            "s/op",
        ),
        "gtl.build_s": (per_op(by_name["gtl.build_gtl"]), "s/op"),
        "gtl.build_calls": (per_op(calls["gtl.build_gtl"]), "count/op"),
        "rolling.plan_s": (
            per_op(by_name["rolling.default_resolution_plan"] + by_name["rolling.bridge_pick_plans"]),
            "s/op",
        ),
        "rolling.plan_calls": (
            per_op(calls["rolling.default_resolution_plan"] + calls["rolling.bridge_pick_plans"]),
            "count/op",
        ),
        "rolling.resolve_s": (per_op(resolve_s), "s/op"),
        "rolling.x_steps": (per_op(steps["X"]), "count/op"),
        "rolling.z_steps": (per_op(steps["Z"]), "count/op"),
        "experiments.evals": (per_op(evals), "count/op"),
        "experiments.build_reuse_ratio": (distinct / n_builds if n_builds else 1.0, "ratio"),
        "experiments.self_s": (per_op(layer_self["experiments"]), "s/op"),
        "graphstate.measure_calls": (per_op(calls["graphstate.measure_pauli"]), "count/op"),
        "graphstate.measure_s": (per_op(by_name["graphstate.measure_pauli"]), "s/op"),
        "oracle.crosscheck_s": (per_op(by_name["oracle.crosscheck"]), "s/op"),
        "oracle.crosscheck_calls": (per_op(calls["oracle.crosscheck"]), "count/op"),
        "oracle.dense_bytes_computed": (per_op(dense_bytes), "bytes/op"),
        "oracle.max_delta": (max_delta, "abs"),
        "cli.self_s": (per_op(by_name["cli.main"]), "s/op"),
        "trace.residual_s": (per_op(traced_wall - root_time), "s/op"),
        "trace.overhead_ratio": (
            sum(untraced_walls) / traced_wall if traced_wall else 1.0,
            "ratio",
        ),
    }
    layers = {layer: per_op(t) for layer, t in layer_self.items()}
    return {"values": values, "layer_self_s": layers, "op_wall_s": per_op(traced_wall)}


NOTES = {
    "noise.conv_table_max": "computed as 2^|C| for the largest scored component",
    "rolling.resolve_s": "graph updates of plan steps under noise.propagate; part of graphstate.measure_s",
    "experiments.build_reuse_ratio": "distinct instances / build_gtl calls, within each call",
    "oracle.dense_bytes_computed": "computed as 16 * 4^n per n-qubit crosscheck",
    "cli.self_s": "cli.main minus its experiments child",
    "trace.residual_s": "traced call wall time outside every span",
    "trace.overhead_ratio": "untraced / traced wall time of the same calls",
}


def report_lines(workload: str, metrics: dict) -> list[str]:
    """Readable per-layer report: self time per layer, the residual, then every metric."""
    wall = metrics["op_wall_s"]
    values = metrics["values"]
    lines = [f"trace report  workload {workload}  traced op wall {wall * 1e3:.3f} ms/op"]
    rows = sorted(metrics["layer_self_s"].items(), key=lambda kv: -kv[1])
    rows.append(("(residual)", values["trace.residual_s"][0]))
    for layer, s in rows:
        share = s / wall if wall else 0.0
        lines.append(f"  self {layer:<12} {s * 1e3:12.3f} ms/op  {share:7.1%}")
    for name, (value, unit) in values.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    return lines
