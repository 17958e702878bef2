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
    timing: TimingParams
    max_prior_reads: int = 30   # read-queue entries that can sit ahead
    drain_batch: int = 4        # writes serviced per drain batch
    num_cores: int = 4
    miss_count: int = 0         # reads issued by the analyzed task
    solo_cycles: int | None = None  # solo execution time, for response estimates

    def __post_init__(self):
        check_min(self, 0, "max_prior_reads", "drain_batch", "miss_count",
                  error=AnalysisError)
        check_min(self, 1, "num_cores", error=AnalysisError)
        if self.solo_cycles is not None:
            check_min(self, 1, "solo_cycles", error=AnalysisError)

    @classmethod
    def for_scenario(cls, spec: ScenarioSpec,
                     trace: ScheduleTrace | None = None) -> AnalysisInputs:
        """The inputs of the bounds on ``spec``'s analyzed read, with
        ``miss_count`` the analyzed core's completed reads in ``trace``.

        The bounds model the scenario's own controller: FR-FCFS with reads
        ahead of writes and no bank priority, on private banks.
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
    """Delay of every completed read of the analyzed core, in completion
    order: the contended latency minus the request's solo service time
    against the same own-bank state."""
    delays = [trace.per_request_delay(rec.request_id)
              for rec in trace.completions
              if rec.core == analyzed_core and not rec.is_write]
    if not delays:
        raise AnalysisError(f"core {analyzed_core} completed no reads in this trace")
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


def format_bound_table(inputs: AnalysisInputs) -> str:
    """Aligned text table of per-request and task-level bounds."""
    lines = [f"{'bound':<22}{'per-request':>12}{'ns':>12}{'total':>12}{'normalized':>12}"]
    for name, per_request in bounds(inputs).items():
        total = inputs.miss_count * per_request
        if inputs.solo_cycles:
            slowdown = f"{(inputs.solo_cycles + total) / inputs.solo_cycles:.2f}"
        else:
            slowdown = "-"
        label = "one_request_baseline" if name == "baseline" else name
        lines.append(
            f"{label:<22}{per_request:>12}{inputs.timing.ns(per_request):>12.2f}"
            f"{total:>12}{slowdown:>12}"
        )
    return "\n".join(lines) + "\n"
