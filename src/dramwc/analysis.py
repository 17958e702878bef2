"""Worst-case memory interference bounds for a bank-partitioned multicore.

Two analyses are provided:

* the parallelism-aware bound, which charges the analyzed read for a full
  write-drain batch plus every prior read pipelined on the data bus, and
* the one-request-per-core baseline of Kim et al. (RTAS 2014), which charges
  each competing core one PRE, ACT and RD/WR penalty derived from the timing,
  independent of how many requests those cores actually have queued.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import TimingParams
from .keyvalue import InputError, check_min
from .scheduler import ScheduleTrace
from .workload import ScenarioSpec


class AnalysisError(InputError):
    """Inputs outside what the bounds model."""


@dataclass
class AnalysisInputs:
    """The inputs of the bounds. :meth:`for_scenario` is where they come
    from: a scenario's controller, MSHR file and cores, and its run."""

    timing: TimingParams
    max_prior_reads: int  # read-queue entries that can sit ahead
    drain_batch: int      # writes serviced per drain batch
    num_cores: int
    miss_count: int       # reads completed by the analyzed task

    def __post_init__(self):
        check_min(self, 0, "max_prior_reads", "drain_batch", "miss_count",
                  error=AnalysisError)
        check_min(self, 1, "num_cores", error=AnalysisError)

    @classmethod
    def for_scenario(cls, spec: ScenarioSpec,
                     trace: ScheduleTrace | None = None) -> AnalysisInputs:
        """The inputs of the bounds on ``spec``'s analyzed read, with
        ``miss_count`` the analyzed core's completed reads in ``trace``.

        The bounds model the scenario's own controller: FR-FCFS with reads
        ahead of writes and no bank priority, on private banks. The write
        term does not read the scenario's sources: one with no generators
        and no staged requests still pays a full drain batch, since its
        unknown interferers may all be writers.
        """
        miss_count = 0 if trace is None else sum(
            r.core == spec.analyzed_core and not r.is_write for r in trace.completions)
        return cls(timing=spec.timing, max_prior_reads=spec.max_prior_reads(),
                   drain_batch=spec.scheduler.drain_batch, num_cores=spec.num_cores,
                   miss_count=miss_count)


def read_queue_delay(inputs: AnalysisInputs) -> int:
    """Delay from prior reads: each pipelined read holds the bus for a burst."""
    return inputs.max_prior_reads * inputs.timing.tburst


def write_drain_delay(inputs: AnalysisInputs) -> int:
    """Delay from one write-drain batch: every drained write is assumed to be
    a row miss in one bank (a full row cycle each) plus one bus turnaround."""
    return inputs.drain_batch * inputs.timing.trc + inputs.timing.twtr


def bounds(inputs: AnalysisInputs) -> dict[str, int]:
    """Worst-case inter-bank delay in cycles of one read of the analyzed
    core under each bound, in report order. A task's total is ``miss_count``
    times the per-request value.

    * ``full``: the read-queue term plus the write-drain term;
    * ``no_write_queue``: the read-queue term alone;
    * ``baseline``: the one-request-per-core bound of Kim et al. (RTAS
      2014). Each competing core contributes one PRE + ACT + RD/WR
      penalty, regardless of queued request counts. A PRE costs one
      command-bus cycle, an ACT the activate-to-activate gap tRRD, and a
      RD/WR the write-to-read turnaround WL + tBURST + tWTR.
    """
    t = inputs.timing
    reads = read_queue_delay(inputs)
    return {
        "full": reads + write_drain_delay(inputs),
        "no_write_queue": reads,
        "baseline": (inputs.num_cores - 1) * (1 + t.trrd + t.wl + t.tburst + t.twtr),
    }


def read_delays(trace: ScheduleTrace, analyzed_core: int) -> list[int]:
    """``trace.delay`` of every read of the analyzed core, in arrival order,
    a read still pending at the end of the run censored there."""
    delays = [trace.delay(req) for req in trace.requests
              if req.core == analyzed_core and not req.is_write]
    if not delays:
        raise AnalysisError(f"core {analyzed_core} has no reads in this trace")
    return delays


def bound_rows(inputs: AnalysisInputs) -> list[tuple[str, int, float]]:
    """Rows (quantity, cycles, ns) for the bound report CSV."""
    per_request = bounds(inputs)
    rows = [("read_queue_delay", read_queue_delay(inputs)),
            ("write_drain_delay", write_drain_delay(inputs))]
    rows += [(f"per_request_{name}", cycles) for name, cycles in per_request.items()]
    if inputs.miss_count:
        rows += [(f"total_{name}", inputs.miss_count * cycles)
                 for name, cycles in per_request.items()]
    return [(name, cycles, inputs.timing.ns(cycles)) for name, cycles in rows]

