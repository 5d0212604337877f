"""Command-line harness: build/inspect resources, resolve, sweep, verify.

Data goes to files or stdout; diagnostics go to stderr.  Exit codes: 0 on
success, 1 on configuration errors (a malformed flag among them), 2 on
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

from .experiments import (
    ExperimentConfig,
    find_threshold,
    run_sweep,
    sweep_to_csv,
    threshold_to_dat,
    verify,
)
from .graphstate import json_object
from .noise import compile_plan, compiled_fidelities
from .gtl import (
    GtlParams,
    build_gtl,
    gtl_from_json,
    gtl_to_json,
    structure_profiles,
    validate_gtl,
)
from .oracle import MAX_CROSSCHECK_QUBITS
from .rolling import (
    ResolutionPlan,
    _TARGETS,
    default_resolution_plan,
    resolve,
    schmidt_upper_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _cmd_build(args: argparse.Namespace) -> int:
    kc = args.kappa_c if args.kappa_c is not None else 2 * args.kappa_b
    params = GtlParams(args.kappa_b, kc, args.n_o)
    state = build_gtl(params)
    _write(json.dumps(gtl_to_json(state), sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    state = gtl_from_json(_load_json(args.state))
    validation = validate_gtl(state.graph, state.orch, state.peers)
    report = {
        "n_qubits": state.graph.n,
        "orchestration": list(state.orch),
        "peers": sorted(state.peers),
        "valid": validation.ok,
        "violations": [
            {"constraint": v.constraint, "message": v.message} for v in validation.violations
        ],
        "schmidt_upper_bound": schmidt_upper_bound(state),
        "profiles": {str(v): vars(prof) for v, prof in structure_profiles(state).items()},
    }
    if validation.params is not None:
        report["params"] = asdict(validation.params)
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_resolve(args: argparse.Namespace) -> int:
    if args.p is None and (args.dephasing_time is not None or args.protocol_time is not None):
        raise ValueError("--dephasing-time and --protocol-time apply only with --p")
    if args.plan and args.target is not None:
        raise ValueError("--target applies only without --plan")
    state = gtl_from_json(_load_json(args.state))
    if args.plan:
        plan = ResolutionPlan.from_json(_load_json(args.plan))
    else:
        plan = default_resolution_plan(state, args.target or "bell")
    outcome = resolve(state, plan)
    counts: dict[str, int] = {"X": 0, "Y": 0, "Z": 0}
    for rec in outcome.records:
        counts[rec.basis] += 1
    report = {
        "plan": plan.to_json(),
        "components": [sorted(c) for c in outcome.components],
        "pairs": [list(p) for p in outcome.pairs],
        "stars": [{"center": c, "leaves": list(ls)} for c, ls in outcome.stars],
        "rolled_set": sorted(outcome.rolled_set),
        "measurement_counts": counts,
        "records": [
            {
                "measured": r.measured,
                "basis": r.basis,
                "support": r.support_choice,
                "outcome": r.outcome,
                "corrections": [list(c) for c in r.corrections],
            }
            for r in outcome.records
        ],
    }
    if args.p is not None:
        big_t = math.inf if args.dephasing_time is None else args.dephasing_time
        compiled = compile_plan(state.graph, plan)
        t_ms = 1.0 if args.protocol_time is None else args.protocol_time
        report["fidelities"] = compiled_fidelities(compiled, args.p, t_ms, big_t)
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        data = _load_json(args.config)
        json_object("config", data)
    if args.kappa_b is not None:
        data["kappa_b_hat"] = args.kappa_b
    if args.n_o is not None:
        data["n_o"] = args.n_o
    if args.target is not None:
        data["target"] = args.target
    if args.p_grid is not None:
        data["p_grid"] = args.p_grid.split(",")
    if args.t_grid is not None:
        data["T_grid_ms"] = args.t_grid.split(",")
    return ExperimentConfig.from_json(data)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = run_sweep(config)
    _write(sweep_to_csv(rows), args.out)
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows, diagnostics = find_threshold(config, level=args.level)
    for line in diagnostics:
        print(line, file=sys.stderr)
    _write(threshold_to_dat(rows), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    state = None
    if args.state:
        state = gtl_from_json(_load_json(args.state))
    report = verify(
        scope=args.scope,
        max_kappa_b=args.max_kappa_b,
        max_n_o=args.max_n_o,
        max_qubits=args.max_qubits,
        trials=args.trials,
        seed=args.seed or 0,
        state=state,
    )
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ValueError, so it exits 1 with one line."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = _Parser(
        prog="entroll",
        description="Entanglement Rolling resource simulator and noise analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a GTL resource state")
    p_build.add_argument("--kappa-b", type=int, required=True, help="minimum bridge degree")
    p_build.add_argument("--kappa-c", type=int, default=None, help="peer degree (default 2*kappa_b)")
    p_build.add_argument("--n-o", type=int, required=True, help="orchestration qubit count")
    p_build.add_argument("-o", "--out", default=None)
    p_build.set_defaults(func=_cmd_build)

    p_inspect = sub.add_parser("inspect", help="validate and profile a resource state")
    p_inspect.add_argument("state")
    p_inspect.add_argument("-o", "--out", default=None)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_resolve = sub.add_parser("resolve", help="execute a resolution plan")
    p_resolve.add_argument("state")
    p_resolve.add_argument("--plan", default=None, help="plan JSON file")
    p_resolve.add_argument("--target", default=None, choices=_TARGETS, help="bell (default) or ghz, without --plan")
    p_resolve.add_argument("--p", type=float, default=None,
                           help="also report fidelities under depolarizing(p)")
    p_resolve.add_argument("--dephasing-time", type=float, default=None,
                           help="memory time T in ms for the fidelity report")
    p_resolve.add_argument("--protocol-time", type=float, default=None,
                           help="uniform memory wait t in ms for the fidelity report (default 1)")
    p_resolve.add_argument("-o", "--out", default=None)
    p_resolve.set_defaults(func=_cmd_resolve)

    for name, fn in (("sweep", _cmd_sweep), ("threshold", _cmd_threshold)):
        p = sub.add_parser(name, help=f"run a fidelity {name}")
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--kappa-b", type=int, default=None)
        p.add_argument("--n-o", type=int, default=None)
        p.add_argument("--target", default=None, choices=_TARGETS)
        p.add_argument("--p-grid", default=None, help="comma-separated depolarizing parameters")
        p.add_argument("--t-grid", default=None, help="comma-separated dephasing times in ms (inf allowed)")
        if name == "threshold":
            p.add_argument("--level", type=float, default=0.5)
        p.add_argument("-o", "--out", default=None)
        p.set_defaults(func=fn)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--scope", default="all", choices=("structure", "rolling", "nsf", "all"))
    p_verify.add_argument("--state", default=None, help="optional GTL state JSON to validate first")
    p_verify.add_argument("--max-kappa-b", type=int, default=4)
    p_verify.add_argument("--max-n-o", type=int, default=6)
    p_verify.add_argument("--max-qubits", type=int, default=MAX_CROSSCHECK_QUBITS,
                          help="skip oracle crosschecks on larger resources")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
