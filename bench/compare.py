"""Summarise one set of benchmark runs, or compare two.

    python3 bench/compare.py RUNS.jsonl              # spread of each metric
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Inputs are files written by ``run.py --record`` (``--trace 0`` runs).  With
one file, each workload and end-to-end metric gets its median, quartiles and
spread (quartile distance over median) next to a third of its bound.  With
two, each gets one verdict row:

* improved: the change wins at least nine tenths of the runs paired by seed
  (ties count for neither), and the medians differ, in its favour, by more
  than the parent's quartile distance;
* unresolved: the parent's spread is wider than the bound, and not every run
  of the change reads better than every run of the parent;
* no worse: the change's median is not worse than the parent's by more than
  the bound in BENCHMARK.json (or every change run beats every parent run);
* worse: otherwise.  The exit code is 1 when any row reads worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from the untraced runs in a record file."""
    runs: dict[str, dict[int, dict[str, float]]] = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"]:
            continue
        values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
        runs[rec["workload"]][rec["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(x: float, y: float, direction: str) -> bool:
    return x < y if direction == "lower" else x > y


def worsening(parent: float, change: float, direction: str) -> float:
    """Share of the parent's value by which the change is worse (negative when better)."""
    delta = change - parent if direction == "lower" else parent - change
    return delta / abs(parent) if parent else (0.0 if delta <= 0 else float("inf"))


def verdict(parent: dict[int, float], change: dict[int, float], metric: dict) -> tuple[str, str]:
    direction, bound = metric["better"], metric["bound"]
    a, b = list(parent.values()), list(change.values())
    seeds = sorted(set(parent) & set(change))
    pairs = [(parent[s], change[s]) for s in seeds] or list(zip(a, b))
    wins = sum(better(y, x, direction) for x, y in pairs)
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    detail = f"wins {wins}/{len(pairs)}"
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and better(med_b, med_a, direction)
        and abs(med_b - med_a) > q3 - q1
    ):
        return "improved", detail
    all_better = all(better(y, x, direction) for x in a for y in b)
    if med_a and (q3 - q1) / abs(med_a) > bound:
        return ("no worse" if all_better else "unresolved"), detail
    if all_better or worsening(med_a, med_b, direction) <= bound:
        return "no worse", detail
    return "worse", detail


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    sets = [load(path) for path in argv]
    worse = False
    for workload in sorted(sets[0]):
        for metric in metrics:
            name = metric["name"]
            columns = []
            for runs in sets:
                values = [v[name] for v in runs.get(workload, {}).values() if name in v]
                if not values:
                    break
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                columns.append((values, med, q1, q3, spread))
            if len(columns) != len(sets):
                print(f"{workload:<18} {name:<13} missing in one set")
                continue
            cells = "  ".join(
                f"{med:11.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.2%}"
                for _, med, q1, q3, spread in columns
            )
            row = f"{workload:<18} {name:<13} {metric['unit']:<6} n={len(columns[0][0]):<3} {cells}"
            if len(sets) == 1:
                limit = metric["bound"] / 3
                steady = "ok" if columns[0][4] < limit else "TOO WIDE"
                print(f"{row}  limit {limit:.2%} {steady}")
            else:
                parent = {s: v[name] for s, v in sets[0][workload].items()}
                change = {s: v[name] for s, v in sets[1][workload].items()}
                verdict_text, detail = verdict(parent, change, metric)
                med_a, med_b = columns[0][1], columns[1][1]
                change_pct = worsening(med_a, med_b, metric["better"])
                worse |= verdict_text == "worse"
                print(f"{row}  worse by {change_pct:+.2%} (bound {metric['bound']:.0%}) {detail}: {verdict_text}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
