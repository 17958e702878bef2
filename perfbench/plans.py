"""The benchmark's workloads: the grid of sweep calls each one draws from,
and the seeded plan of calls that one run measures.

Every operation is one ``harness.sweep`` call with a single sweep seed, the
call behind ``dramwc sweep``. The grids are finite so that the committed
reference digests cover every call any seed can choose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("latency", "bandwidth_read", "bandwidth_write", "stream")

# Live co-runs: three interferers against the latency probe, the paper's
# four-core setting. A grid entry is a (latency budget, MSHR reservation)
# pair; reservations of 3 and more change the trace. A plan takes one pair
# from each stratum. The pairs of a stratum simulate within 3.5% of the
# same cycle count and have neighbouring reservations, which set the queue
# depth and with it the host cost per cycle. So every plan does about the
# same work while the traces differ. The interferer count is held at 3
# because it moves the cost per cycle far more than that.
LIVE_INTERFERERS = 3
LIVE = {
    "live_write": ("bandwidth_write", (((10, 0), (10, 1), (10, 2)),
                                       ((10, 3), (11, 4)),
                                       ((11, 5), (11, 6)),
                                       ((12, 7), (12, 8)))),
    "live_read": ("bandwidth_read", (((20, 0), (20, 1), (20, 2)),
                                     ((20, 3), (22, 4)),
                                     ((22, 5), (22, 6)),
                                     ((24, 7), (24, 8)))),
}

# Staged worst cases: each plan replays STAGED_PER_KIND of the first
# STAGED_POOL build_adversarial seeds for every interferer kind.
STAGED_POOL = 128
STAGED_PER_KIND = 100
STAGED_INTERFERERS = 3

WORKLOADS = (*LIVE, "staged_sweep")


@dataclass(frozen=True)
class Op:
    """One ``harness.sweep`` call and the files it must write."""

    kind: str
    n_interferers: int
    seed: int
    staged: bool
    latency_budget: int = 25
    reserve: int = 0

    @property
    def key(self) -> str:
        if self.staged:
            return f"staged/{self.kind}-{self.seed}"
        return (f"{self.kind}/n{self.n_interferers}-b{self.latency_budget}"
                f"-r{self.reserve}")

    def files(self) -> list[str]:
        """Relative paths of every file the call writes, in digest order."""
        run = f"seed_{self.seed}"
        return [f"{run}/trace.csv", f"{run}/stats.txt", f"{run}/scenario.txt",
                "summary.csv"]


def _live(kind: str, budget: int, reserve: int) -> Op:
    return Op(kind, LIVE_INTERFERERS, 0, False, latency_budget=budget,
              reserve=reserve)


def grid(workload: str) -> list[Op]:
    """Every call a plan of this workload can contain."""
    if workload in LIVE:
        kind, strata = LIVE[workload]
        return [_live(kind, b, r) for stratum in strata for b, r in stratum]
    if workload == "staged_sweep":
        return [Op(kind, STAGED_INTERFERERS, s, True)
                for kind in KINDS for s in range(STAGED_POOL)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def plan(workload: str, seed: int) -> list[Op]:
    """The calls one run of ``workload`` makes; the same seed gives the same
    calls."""
    rng = random.Random(seed)
    if workload in LIVE:
        kind, strata = LIVE[workload]
        return [_live(kind, *rng.choice(stratum)) for stratum in strata]
    if workload == "staged_sweep":
        return [Op(kind, STAGED_INTERFERERS, s, True) for kind in KINDS
                for s in sorted(rng.sample(range(STAGED_POOL), STAGED_PER_KIND))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
