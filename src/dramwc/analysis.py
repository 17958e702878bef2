"""Worst-case memory interference bounds for a bank-partitioned multicore.

Two analyses are provided, each read from a ``ScenarioSpec``:

* the parallelism-aware bound, which charges the analyzed read for a full
  write-drain batch plus every prior read pipelined on the data bus, and
* the one-request-per-core baseline of Kim et al. (RTAS 2014), which charges
  each competing core one PRE, ACT and RD/WR penalty derived from the timing,
  independent of how many requests those cores actually have queued.

The bounds model the scenario's own controller: FR-FCFS with reads ahead of
writes and no bank priority, on private banks. The write term does not read
the scenario's sources: one with no generators and no staged requests still
pays a full drain batch, since its unknown interferers may all be writers.
"""

from __future__ import annotations

from .keyvalue import InputError
from .scheduler import ScheduleTrace
from .workload import ScenarioSpec


class AnalysisError(InputError):
    """A trace without the reads or completions the analysis needs."""


def read_queue_delay(spec: ScenarioSpec) -> int:
    """Delay from prior reads: each pipelined read holds the bus for a burst."""
    return spec.max_prior_reads() * spec.timing.tburst


def write_drain_delay(spec: ScenarioSpec) -> int:
    """Delay from one write-drain batch: every drained write is assumed to be
    a row miss in one bank (a full row cycle each) plus one bus turnaround."""
    return spec.scheduler.drain_batch * spec.timing.trc + spec.timing.twtr


def bounds(spec: ScenarioSpec) -> dict[str, int]:
    """Worst-case inter-bank delay in cycles of one read of the analyzed
    core under each bound, in report order.

    * ``full``: the read-queue term plus the write-drain term;
    * ``no_write_queue``: the read-queue term alone;
    * ``baseline``: the one-request-per-core bound of Kim et al. (RTAS
      2014). Each competing core contributes one PRE + ACT + RD/WR
      penalty, regardless of queued request counts. A PRE costs one
      command-bus cycle, an ACT the activate-to-activate gap tRRD, and a
      RD/WR the write-to-read turnaround WL + tBURST + tWTR.
    """
    t = spec.timing
    reads = read_queue_delay(spec)
    return {
        "full": reads + write_drain_delay(spec),
        "no_write_queue": reads,
        "baseline": (spec.num_cores - 1) * (1 + t.trrd + t.wl + t.tburst + t.twtr),
    }


def read_delays(trace: ScheduleTrace, analyzed_core: int) -> list[int]:
    """``trace.delay`` of every read of the analyzed core, in arrival order,
    a read still pending at the end of the run censored there."""
    delays = [trace.delay(req) for req in trace.requests
              if req.core == analyzed_core and not req.is_write]
    if not delays:
        raise AnalysisError(f"core {analyzed_core} has no reads in this trace")
    return delays


def bound_rows(spec: ScenarioSpec,
               trace: ScheduleTrace | None = None) -> list[tuple[str, int, float]]:
    """Rows (quantity, cycles, ns) for the bound report CSV. With ``trace``,
    the task totals follow: each bound times the analyzed core's completed
    reads, when there are any."""
    per_request = bounds(spec)
    rows = [("read_queue_delay", read_queue_delay(spec)),
            ("write_drain_delay", write_drain_delay(spec))]
    rows += [(f"per_request_{name}", cycles) for name, cycles in per_request.items()]
    misses = 0 if trace is None else sum(
        r.core == spec.analyzed_core and not r.is_write for r in trace.completions)
    if misses:
        rows += [(f"total_{name}", misses * cycles) for name, cycles in per_request.items()]
    return [(name, cycles, spec.timing.ns(cycles)) for name, cycles in rows]
