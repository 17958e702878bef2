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

from .device import TimingParams, make_timing
from .keyvalue import check_min
from .scheduler import ScheduleTrace
from .workload import ScenarioSpec


class AnalysisError(ValueError):
    pass


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
        ``miss_count`` the analyzed core's completed reads in ``trace``."""
        miss_count = 0 if trace is None else sum(
            r.core == spec.analyzed_core and not r.is_write for r in trace.completions)
        return cls(timing=make_timing(spec.timing), max_prior_reads=spec.max_prior_reads(),
                   drain_batch=spec.scheduler.drain_batch, num_cores=spec.num_cores,
                   miss_count=miss_count)


@dataclass(frozen=True)
class Bound:
    per_request_cycles: int  # worst-case delay of one read of the analyzed core
    total_cycles: int        # miss_count reads, each paying per_request_cycles


def read_queue_delay(inputs: AnalysisInputs) -> int:
    """Delay from prior reads: each pipelined read holds the bus for a burst."""
    return inputs.max_prior_reads * inputs.timing.tburst


def write_drain_delay(inputs: AnalysisInputs) -> int:
    """Delay from one write-drain batch: every drained write is assumed to be
    a row miss in one bank (a full row cycle each) plus one bus turnaround."""
    return inputs.drain_batch * inputs.timing.trc + inputs.timing.twtr


def per_request_bound(inputs: AnalysisInputs, variant: str = "full") -> Bound:
    """Worst-case inter-bank delay for one read of the analyzed core: the
    read-queue term, plus the write-drain term for the ``full`` variant."""
    if variant not in ("full", "no_write_queue"):
        raise AnalysisError(f"unknown bound variant: {variant}")
    per_request = read_queue_delay(inputs)
    if variant == "full":
        per_request += write_drain_delay(inputs)
    return Bound(per_request, inputs.miss_count * per_request)


def kim_baseline_bound(inputs: AnalysisInputs) -> Bound:
    """One-request-per-core baseline: each competing core contributes one
    PRE + ACT + RD/WR penalty, regardless of queued request counts. A PRE
    costs one command-bus cycle, an ACT the activate-to-activate gap tRRD,
    and a RD/WR the write-to-read turnaround WL + tBURST + tWTR."""
    t = inputs.timing
    per_core = 1 + t.trrd + t.wl + t.tburst + t.twtr
    per_request = (inputs.num_cores - 1) * per_core
    return Bound(per_request, inputs.miss_count * per_request)


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


def bound_set(inputs: AnalysisInputs) -> tuple[Bound, Bound, Bound]:
    """The full, no-write-queue and one-request baseline bounds."""
    return (per_request_bound(inputs, "full"),
            per_request_bound(inputs, "no_write_queue"),
            kim_baseline_bound(inputs))


def bound_rows(inputs: AnalysisInputs) -> list[tuple[str, int, float]]:
    """Rows (quantity, cycles, ns) for the bound report CSV."""
    full, nowq, kim = bound_set(inputs)
    rows = [
        ("read_queue_delay", read_queue_delay(inputs)),
        ("write_drain_delay", write_drain_delay(inputs)),
        ("per_request_full", full.per_request_cycles),
        ("per_request_no_write_queue", nowq.per_request_cycles),
        ("per_request_baseline", kim.per_request_cycles),
    ]
    if inputs.miss_count:
        rows += [
            ("total_full", full.total_cycles),
            ("total_no_write_queue", nowq.total_cycles),
            ("total_baseline", kim.total_cycles),
        ]
    return [(name, cycles, inputs.timing.ns(cycles)) for name, cycles in rows]


def format_bound_table(inputs: AnalysisInputs) -> str:
    """Aligned text table of per-request and task-level bounds."""
    full, nowq, kim = bound_set(inputs)
    rows = [
        ("full", full.per_request_cycles, full.total_cycles),
        ("no_write_queue", nowq.per_request_cycles, nowq.total_cycles),
        ("one_request_baseline", kim.per_request_cycles, kim.total_cycles),
    ]
    lines = [f"{'bound':<22}{'per-request':>12}{'ns':>12}{'total':>12}{'normalized':>12}"]
    for name, per_request, total in rows:
        if inputs.solo_cycles:
            slowdown = f"{(inputs.solo_cycles + total) / inputs.solo_cycles:.2f}"
        else:
            slowdown = "-"
        lines.append(
            f"{name:<22}{per_request:>12}{inputs.timing.ns(per_request):>12.2f}"
            f"{total:>12}{slowdown:>12}"
        )
    return "\n".join(lines) + "\n"

