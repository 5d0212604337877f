"""The benchmark's workloads and the inputs each one draws from its seed.

Every workload cycles through a fixed list of slots in a fixed order.  Each
slot is one public call on one instance; the seed picks which of the slot's
``VARIANTS`` input variants (p and T values) the call gets.  Variants change
values, never sizes, so a call costs about the same whatever the seed.  No
variant uses p = 1 or T = inf: those drop noise branches and would make the
cost depend on the seed.

Golden outputs for every variant of every sweep and threshold slot live in
``golden/<workload>.json`` and were written by ``make_golden.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 8

# Variant v takes a window of consecutive entries: p values from P_POOL[v],
# T values from T_POOL[7 - v], so low p does not always meet low T.
P_POOL = (0.86, 0.88, 0.9, 0.91, 0.92, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99)
T_POOL = (2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
# Threshold brackets.  Every crossing for p in [0.9, 0.99] on the threshold
# instances lies between 4 and 21 ms, inside each bracket.
T_BRACKETS = (
    (1.0, 1000.0),
    (0.5, 200.0),
    (2.0, 500.0),
    (1.0, 100.0),
    (0.5, 1000.0),
    (2.0, 2000.0),
    (1.0, 300.0),
    (0.25, 400.0),
)


@dataclass(frozen=True)
class Case:
    """One call a workload makes: what it runs, on which instance, with which inputs."""

    kind: str  # "sweep", "threshold", "crosscheck" or "verify"
    kappa_b_hat: int = 0
    n_o: int = 0
    target: str = "bell"
    p_grid: tuple[float, ...] = ()
    t_grid: tuple[float, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "verify":
            return "verify nsf"
        return f"{self.kind} {self.target} ({self.kappa_b_hat}, {self.n_o})"

    @property
    def key(self) -> str:
        """Golden-file key; names the call and its inputs."""
        if self.kind == "verify":
            return self.label
        p = ",".join(repr(x) for x in self.p_grid)
        t = ",".join(repr(x) for x in self.t_grid)
        return f"{self.kind} {self.target} {self.kappa_b_hat},{self.n_o} p={p} T={t}"


def _sweep(kb: int, n_o: int, target: str, n_p: int, n_t: int):
    return lambda v: Case(
        "sweep", kb, n_o, target, P_POOL[v : v + n_p], T_POOL[7 - v : 7 - v + n_t]
    )


def _threshold(kb: int, n_o: int):
    return lambda v: Case("threshold", kb, n_o, "bell", P_POOL[v + 2 : v + 4], T_BRACKETS[v])


def _crosscheck(kb: int, n_o: int, target: str):
    return lambda v: Case("crosscheck", kb, n_o, target, (P_POOL[v],), (T_POOL[7 - v],))


# Slot builders per workload, in the fixed cycle order.  Each takes a variant.
# Sweep grids (n_p x n_t) are sized so that every call of a workload does
# about the same work (90-150 ms at the seed on a 2-core x86 VM): no rung
# dominates a cycle, and the printed median and tail describe one population
# rather than the edge between two rungs.
SLOTS = {
    "sweep_bell_ladder": [
        _sweep(2, 10, "bell", 4, 4),
        _sweep(3, 20, "bell", 2, 1),
        _sweep(4, 20, "bell", 1, 1),
        _sweep(2, 40, "bell", 1, 1),
    ],
    "threshold_bisect": [_threshold(2, 10), _threshold(3, 6)],
    "sweep_ghz_wide": [_sweep(8, 3, "ghz", 2, 3), _sweep(10, 2, "ghz", 2, 1)],
    "verify_oracle": [
        _crosscheck(kb, n_o, target)
        for kb, n_o in ((3, 1), (2, 2), (4, 1))
        for target in ("bell", "ghz")
    ]
    + [lambda v: Case("verify")],
}


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's cycle of calls for one seed."""
    rng = random.Random(seed)
    return [slot(rng.randrange(VARIANTS)) for slot in SLOTS[workload]]


def all_cases(workload: str) -> list[Case]:
    """Every variant of every slot; what the golden file must cover."""
    return [slot(v) for slot in SLOTS[workload] for v in range(VARIANTS)]
