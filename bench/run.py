"""Run one workload of the entroll benchmark and print its metrics.

    python3 bench/run.py --workload sweep_bell_ladder --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this script's directory, never
from an installed copy; without it the script exits 2.  The run is a closed
loop with one client: calls go back to back in the workload's fixed cycle,
and the loop stops at the end of the first whole cycle after ``--seconds``.
Every call's output is checked: sweep CSV and threshold ``.dat`` bytes
against golden files written by the seed code, crosschecks against the dense
oracle (max delta below 1e-9).  Before the loop, and untimed, every instance
of the workload is checked for exact agreement of the closed-form noise maps
with stepwise propagation.

``--trace 0`` prints the end-to-end metrics: the gated ones BENCHMARK.json
lists, and the raw throughput, median, tail and error rate of every call.
Gated times are rescaled by reference kernels run between the calls (see
REFERENCE_S).  Set-up (import, building the calls, loading the golden
outputs, one warm-up call) is repeated SETUP_REPEATS times, spread over the
run, and its median reported.  ``--trace 1`` runs every call
twice, once plain and once with the layer tracer installed, and prints the
per-layer metrics, a per-layer report, and writes the spans to
``bench/out/trace_<workload>_seed<seed>.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record FILE`` also appends the full result, with the
environment, as one JSON line for ``compare.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# One BLAS thread: the benchmark measures the serial path, and a second BLAS
# thread made the dense oracle 2.4x slower whenever the other core was busy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy  # noqa: E402  (after the thread limits, which numpy reads on import)

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("graphstate", "gtl", "rolling", "noise", "oracle", "experiments", "cli")
WORKERS_ENV = "ENTROLL_WORKERS"
SETUP_REPEATS = 7
MAX_DELTA = 1e-9

# End-to-end metrics as BENCHMARK.json lists them, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
# The host this was tuned on (a shared 2-vCPU VM) switches between speed
# regimes that last from seconds to minutes: the same call took 0.5 s or
# 0.95 s, and the median of whole 30-s runs moved by up to 40%.  So reference
# kernels run between every two timed calls, and the gated times are rescaled
# to a host on which the kernel matching the call's kind of work takes its
# REFERENCE_S: time * REFERENCE_S / (mean of that kernel's two runs around the
# call).  A slow stretch slows call and kernel alike and cancels.  Only the
# two runs nearest the call: a median over more runs further away cancelled
# short slow bursts worse and doubled the spread of the tail.  The host's
# regimes slow pure-Python work, numpy work in L2 and numpy work in L3
# differently: rescaled by the Python kernel, dense crosschecks spread three
# times wider than raw.  So each crosscheck has a dense kernel on a density
# matrix of its own size, and every other call the Python kernel, an XOR
# convolution like the noise scoring: of four pure-Python kernels tried (dict
# churn, XOR convolution, lookups in a 200k-key dict, integer arithmetic), it
# tracked the sweep and threshold calls best over 30-s windows.  Set-up is
# rescaled by the median of 2 * SETUP_REFS Python kernel runs around it.  The
# raw times are printed and recorded beside the rescaled ones.  success_rate
# is 1 - error_rate, which is never zero.
REFERENCE_S = {"python": 0.003, "dense7": 0.0015, "dense8": 0.0025, "dense9": 0.006}
SETUP_REFS = 6
_SUBSETS = [frozenset(i for i in range(8) if m >> i & 1) for m in range(256)]
_MARGINAL = {frozenset(): 0.7, frozenset({1}): 0.1, frozenset({2, 5}): 0.1, frozenset({0, 3, 7}): 0.1}
_DENSE = {
    n: (numpy.full((2**n, 2**n), 0.3 + 0.1j), numpy.where(numpy.arange(2**n) & 5, -1.0, 1.0))
    for n in (7, 8, 9)
}


def python_reference() -> float:
    """XOR convolution of frozenset-keyed distributions, like the noise scoring; its wall time."""
    t0 = perf_counter()
    dist = dict.fromkeys(_SUBSETS, 1 / len(_SUBSETS))
    for _ in range(3):
        nxt: dict[frozenset[int], float] = {}
        for s0, p0 in dist.items():
            for s1, p1 in _MARGINAL.items():
                key = s0 ^ s1
                nxt[key] = nxt.get(key, 0.0) + p0 * p1
        dist = nxt
    return perf_counter() - t0


def dense_reference(n: int) -> float:
    """Sign-mask products on an n-qubit density matrix, like the oracle's channels.

    Every size touches 2**18 entries: a 9-qubit matrix once, smaller ones more often.
    """
    data, signs = _DENSE[n]
    t0 = perf_counter()
    out = numpy.zeros_like(data)
    for _ in range(4 ** (9 - n)):
        out += 0.125 * (numpy.outer(signs, signs) * data)
    return perf_counter() - t0


KERNELS = {"python": python_reference, **{f"dense{n}": partial(dense_reference, n) for n in _DENSE}}


def reference_kind(case: workloads.Case, pkg: SimpleNamespace) -> str:
    """The reference kernel a case's calls are rescaled by."""
    if case.kind != "crosscheck":
        return "python"
    return f"dense{pkg.gtl.GtlParams.specialized(case.kappa_b_hat, case.n_o).n_qubits}"


def rescale(walls: list[float], refs: list[dict[str, float]], kinds: list[str]) -> list[float]:
    """Call i ran between refs[i] and refs[i + 1]; rescale it by the kernel of its kind."""
    return [
        wall * 2 * REFERENCE_S[kind] / (before[kind] + after[kind])
        for wall, kind, before, after in zip(walls, kinds, refs, refs[1:])
    ]


def load_package() -> SimpleNamespace:
    """Import the package afresh, so every set-up pays its import."""
    for name in [m for m in sys.modules if m == "entroll" or m.startswith("entroll.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"entroll.{m}") for m in MODULES})


def make_call(case: workloads.Case, pkg: SimpleNamespace):
    """The zero-argument public call a case makes.

    Functions are looked up on their modules at call time, so an installed
    tracer sees the call.
    """
    ex = pkg.experiments
    if case.kind == "sweep":
        config = ex.ExperimentConfig(
            kappa_b_hat=case.kappa_b_hat,
            n_o=case.n_o,
            target=case.target,
            p_grid=case.p_grid,
            t_grid_ms=case.t_grid,
        )
        return lambda: ex.sweep_to_csv(ex.run_sweep(config))
    if case.kind == "threshold":
        path = OUT / "threshold.dat"
        argv = [
            "threshold",
            "--kappa-b", str(case.kappa_b_hat),
            "--n-o", str(case.n_o),
            "--p-grid", ",".join(repr(p) for p in case.p_grid),
            "--t-grid", ",".join(repr(t) for t in case.t_grid),
            "-o", str(path),
        ]

        def threshold():
            path.unlink(missing_ok=True)
            code = pkg.cli.main(argv)
            return code, path.read_bytes() if code == 0 else None

        return threshold
    if case.kind == "crosscheck":
        state = pkg.gtl.build_gtl(pkg.gtl.GtlParams.specialized(case.kappa_b_hat, case.n_o))
        plan = pkg.rolling.default_resolution_plan(state, case.target)
        p, big_t = case.p_grid[0], case.t_grid[0]
        return lambda: pkg.oracle.crosscheck(state, plan, p=p, t_ms=1.0, big_t_ms=big_t)
    return lambda: ex.verify(scope="nsf")


def make_check(case: workloads.Case, golden: dict):
    """Predicate on a call's output; raises KeyError when the golden entry is missing."""
    if case.kind == "sweep":
        expected = golden[case.key]
        return lambda out: out == expected
    if case.kind == "threshold":
        expected = (0, golden[case.key].encode("utf-8"))
        return lambda out: out == expected
    if case.kind == "crosscheck":
        return lambda report: bool(report.entries) and report.ok and report.max_delta < MAX_DELTA
    return lambda report: report.ok


def closed_forms_match(pkg: SimpleNamespace, case: workloads.Case) -> bool:
    """Closed-form maps equal stepwise propagation of fresh depolarizing maps, exactly."""
    noise, rolling = pkg.noise, pkg.rolling
    state = pkg.gtl.build_gtl(pkg.gtl.GtlParams.specialized(case.kappa_b_hat, case.n_o))
    steps = rolling.default_resolution_plan(state, case.target).steps
    plan = rolling.ResolutionPlan(steps=steps, stop_stage=rolling.STOP_AFTER_ROLLING)
    p = case.p_grid[0]
    closed = noise.closed_form_maps(state, plan, p)
    g = state.graph
    start = noise.NoiseState(
        graph=g.copy(), maps=tuple(noise.depolarizing_map(g, v, p) for v in g.vertices())
    )
    stepwise = noise.propagate(start, plan).maps
    return len(closed) == len(stepwise) and all(
        c.origin == s.origin and c.weights() == s.weights() for c, s in zip(closed, stepwise)
    )


def attempt(call, check) -> tuple[float, bool]:
    """Run one call; return its wall time and whether its output passed its check."""
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failing call is counted, and the loop goes on
        wall = perf_counter() - t0
        print(f"call failed: {exc!r}", file=sys.stderr)
        return wall, False
    wall = perf_counter() - t0
    return wall, check(out)


def set_up(workload: str, cases: list[workloads.Case]):
    """Import, build every call, load the golden outputs and make one warm-up call."""
    pkg = load_package()
    calls = [make_call(case, pkg) for case in cases]
    golden_path = HERE / "golden" / f"{workload}.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8")) if golden_path.exists() else {}
    checks = [make_check(case, golden) for case in cases]
    _, warm_ok = attempt(calls[0], checks[0])
    return pkg, calls, checks, warm_ok


def run_plain(calls, checks, kinds, seconds: float, set_up_again):
    """Whole cycles of calls until ``seconds`` have passed.

    Returns each call's wall time, whether it passed, and the reference
    kernel times measured before the first call and after each call.  Between
    cycles, ``set_up_again`` runs every 1/SETUP_REPEATS of the run, so the
    set-up times sample the same stretch of host load as the calls.
    """
    walls: list[float] = []
    oks: list[bool] = []
    needed = sorted(set(kinds))  # a fixed order: each kernel's time depends on what ran before it
    refs = [{kind: KERNELS[kind]() for kind in needed}]
    gap = seconds / SETUP_REPEATS
    next_setup = gap
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        for call, check in zip(calls, checks):
            wall, ok = attempt(call, check)
            refs.append({kind: KERNELS[kind]() for kind in needed})
            walls.append(wall)
            oks.append(ok)
        elapsed = perf_counter() - start
        if next_setup <= elapsed < seconds:
            set_up_again()
            next_setup += gap
    return walls, oks, refs


def run_traced(pkg, calls, checks, seconds: float):
    """Each call plain, then the same call traced; whole cycles, as in run_plain."""
    tracer = tracing.Tracer(pkg)
    plain: list[float] = []
    traced: list[float] = []
    failed = 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        for call, check in zip(calls, checks):
            wall, ok = attempt(call, check)
            plain.append(wall)
            failed += not ok
            tracer.op = len(traced)
            tracer.install()
            try:
                wall, ok = attempt(call, check)
            finally:
                tracer.uninstall()
            traced.append(wall)
            failed += not ok
    return tracer.spans, traced, plain, failed


def environment() -> dict:
    try:
        load_1m = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load_1m = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": load_1m,
        "blas_threads": int(BLAS_THREADS),
        WORKERS_ENV: "unset",
    }


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: the 11th largest.

    Returns (value, percentile, sample count); below 11 samples, the maximum.
    """
    n = len(walls)
    ordered = sorted(walls)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(setup_times, walls, oks, scaled, cases) -> tuple[dict, list[str]]:
    """Gated metrics, on rescaled times, and readable lines that add the raw figures."""
    n, k = len(walls), len(cases)
    failed = oks.count(False)
    tail_s, pct, count = tail(scaled)
    raw_tail_s, _, _ = tail(walls)
    # Each call of the cycle at its median over the run.  The cycle's calls
    # differ in cost, so the median of all calls would fall at some upper
    # quantile of one call's spread; the median of these does not.
    per_call = [statistics.median(scaled[i::k]) for i in range(k)]
    raw_per_call = [statistics.median(walls[i::k]) for i in range(k)]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": k / sum(per_call),
        "op_p50_ms": statistics.median(per_call) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "success_rate": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups spread over the run, rescaled",
        "ops_per_s": f"{k} calls / summed per-call median, rescaled",
        "op_p50_ms": f"median of the {k} per-call medians, {n} calls, rescaled",
        "op_tail_ms": f"p{pct:.1f}, 11th largest of {count} calls, rescaled"
        if count > 10
        else f"maximum of {count} calls, rescaled",
        "success_rate": f"1 - error_rate; error_rate = {failed}/{n} failed calls",
        "peak_rss_mb": "max resident set",
    }
    raw = [
        ("ops_per_s", n / sum(walls), "1/s", "calls / summed call wall time"),
        ("op_p50_ms", statistics.median(raw_per_call) * 1e3, "ms", "median of the per-call medians"),
        ("op_tail_ms", raw_tail_s * 1e3, "ms", "same rank as the rescaled tail"),
        ("error_rate", failed / n, "ratio", "failed calls / calls"),
    ]
    lines = ["  raw / rescaled median ms per call: " + ", ".join(
        f"{case.label} {r * 1e3:.1f} / {c * 1e3:.1f}"
        for case, r, c in zip(cases, raw_per_call, per_call)
    )]
    lines.append("  as measured, wall clock (printed, not gated):")
    lines += [f"    {name:<13} = {v:<12.6g} {unit}  ({note})" for name, v, unit, note in raw]
    lines.append(
        "  gated, rescaled to a host where the reference kernels take "
        + ", ".join(f"{kind} {t * 1e3:g} ms" for kind, t in REFERENCE_S.items())
        + ":"
    )
    lines += [
        f"    {name:<13} = {v:<12.6g} {E2E_UNITS[name]}  ({notes[name]})"
        for name, v in values.items()
    ]
    metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full result to this JSONL file")
    args = parser.parse_args(argv)

    if not (SRC / "entroll" / "__init__.py").is_file():
        print(f"error: no entroll package at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if os.environ.get(WORKERS_ENV) is not None:
        print(f"error: unset {WORKERS_ENV}; the benchmark measures the serial path", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    cases = workloads.cases(args.workload, args.seed)
    setup_times: list[float] = []
    setup_ok = True

    def timed_set_up():
        nonlocal setup_ok
        near = [python_reference() for _ in range(SETUP_REFS)]
        t0 = perf_counter()
        loaded = set_up(args.workload, cases)
        wall = perf_counter() - t0
        near += [python_reference() for _ in range(SETUP_REFS)]
        setup_times.append(wall * REFERENCE_S["python"] / statistics.median(near))
        setup_ok &= loaded[3]
        return loaded[:3]

    pkg, calls, checks = timed_set_up()
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: entroll was imported from {pkg.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    instances = {(c.kappa_b_hat, c.n_o): c for c in cases if c.kind != "verify"}
    for (kb, n_o), case in instances.items():
        if not closed_forms_match(pkg, case):
            print(f"check failed: closed forms differ from stepwise at ({kb}, {n_o})", file=sys.stderr)
            setup_ok = False

    env = environment()
    lines = [
        f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
        f"{len(cases)} calls per cycle  (closed-form check on {len(instances)} instances: "
        f"{'pass' if setup_ok else 'FAIL'})"
    ]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    if args.trace:
        spans, traced, plain, failed = run_traced(pkg, calls, checks, args.seconds)
        attempted = len(traced) + len(plain)
        layer = tracing.layer_metrics(spans, traced, plain)
        lines += tracing.report_lines(args.workload, layer)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer["values"].items()}
        record["layer_self_s"] = layer["layer_self_s"]
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        fields = ["name", "site", "parent", "op", "t0", "t1", "attrs"]
        trace_path.write_text(
            json.dumps({**record, "metrics": metrics, "span_fields": fields, "spans": spans}),
            encoding="utf-8",
        )
        lines.append(f"  {len(spans)} spans written to {trace_path.relative_to(HERE.parent)}")
    else:
        kinds = [reference_kind(case, pkg) for case in cases]
        walls, oks, refs = run_plain(calls, checks, kinds, args.seconds, timed_set_up)
        scaled = rescale(walls, refs, kinds * (len(walls) // len(kinds)))
        record["walls_s"] = walls
        record["refs_s"] = refs
        record["scaled_s"] = scaled
        record["setup_scaled_s"] = setup_times
        attempted, failed = len(walls), oks.count(False)
        metrics, metric_lines = end_to_end(setup_times, walls, oks, scaled, cases)
        lines += metric_lines
    result = {
        "correct": setup_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "result": result}) + "\n")
    print("\n".join(lines))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
