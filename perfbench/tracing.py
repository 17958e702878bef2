"""Span tracing of dramwc's layers from outside the package.

For the duration of a traced run, the public functions of each module are
replaced by wrappers that record one span per call: name, start, end and
parent span. Spans are kept in compact arrays in memory and written out
once at the end; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

CHECKS = ("check_command_bus", "check_burst_overlap", "check_burst_timing",
          "check_tfaw", "check_mode_exclusion", "check_drain_batching",
          "check_conservation")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.tallies: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, tally=None):
        """``fn`` recording a span per call. ``tally`` is an optional
        (counter, function of the result) pair; the function's value is
        added to the counter."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack, tallies, clock = self._stack, self.tallies, time.perf_counter_ns

        def span(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](result)
            return result

        return span

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        n = len(self.starts)
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.name_ids
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[ids[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child[i]
        return calls, Counter({k: v / 1e9 for k, v in self_ns.items()})

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw name-id, parent, start and end
        arrays (nanoseconds of ``time.perf_counter_ns``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": [["name_id", self.name_ids.typecode],
                             ["parent", self.parents.typecode],
                             ["start_ns", self.starts.typecode],
                             ["end_ns", self.ends.typecode]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(out)


def _span_points(m):
    """(owner, attribute, span name, tally) for every wrapped function."""
    d, s, w, c, a, h = (m.device, m.scheduler, m.workload, m.checks,
                        m.analysis, m.harness)
    refused = lambda ok: not ok
    points = [
        (d, "command_ready", "device.command_ready", ("device.command_ready.ready", bool)),
        (d, "decompose_request", "device.decompose_request", None),
        (d, "apply_command", "device.apply_command", None),
        (s.Controller, "step", "scheduler.step",
         ("scheduler.issues", lambda r: r[0] is not None)),
        (s.Controller, "select_command", "scheduler.select_command", None),
        (s.Controller, "update_mode", "scheduler.update_mode", None),
        (s.Controller, "run", "scheduler.run",
         ("scheduler.mode_switches", lambda trace: len(trace.mode_switches))),
        (s.Controller, "enqueue", "scheduler.enqueue", ("scheduler.enqueue.refused", refused)),
        (s.ScheduleTrace, "to_csv", "scheduler.to_csv", None),
        (s.ScheduleTrace, "stats_text", "scheduler.stats_text", None),
        (s, "solo_service", "scheduler.solo_service", None),
        (a, "solo_service", "scheduler.solo_service", None),
        (w.Workload, "poll", "workload.poll", None),
        (w.Workload, "notify", "workload.notify", None),
        (w.MshrFile, "acquire", "workload.mshr_acquire",
         ("workload.mshr_acquire.refused", refused)),
        (w, "build_adversarial", "workload.build_adversarial", None),
        (h, "build_adversarial", "workload.build_adversarial", None),
        (w, "scenario_to_text", "workload.scenario_to_text", None),
        (h, "scenario_to_text", "workload.scenario_to_text", None),
        (c, "verify_selection", "checks.verify_selection", None),
        (c, "validate_trace", "checks.validate_trace", None),
        (a, "bound_check", "analysis.bound_check", None),
        (h, "evaluate", "harness.evaluate", None),
        (h, "_write", "harness.write", None),
        (h, "sweep", "harness.sweep", None),
    ]
    points += [(c, name, f"checks.{name}", None) for name in CHECKS]
    points += [(cls, "emit", "workload.generator_emit", None)
               for cls in (w.LatencyGenerator, w.BandwidthReadGenerator,
                           w.BandwidthWriteGenerator, w.StreamGenerator)]
    return points


@contextlib.contextmanager
def traced(modules, tracer: Tracer):
    """Patch every span point (and the stop callables that
    ``harness._analyzed_stop`` builds) for the duration of the block."""
    h = modules.harness
    make_stop = vars(h).get("_analyzed_stop")

    def analyzed_stop(spec):
        stop = make_stop(spec)
        return None if stop is None else tracer.wrap("harness.stop", stop)

    # A point whose function a later version of dramwc has moved or renamed
    # is skipped, and its layer reads zero.
    patches = [(owner, attr, tracer.wrap(name, vars(owner)[attr], tally))
               for owner, attr, name, tally in _span_points(modules)
               if attr in vars(owner)]
    if make_stop is not None:
        patches.append((h, "_analyzed_stop", analyzed_stop))
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, speed_scale: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics by name, as declared in BENCHMARK.json. Self times
    are multiplied by ``speed_scale``, the traced pass's scaled-to-measured
    host time."""
    calls, raw_self_s = tracer.layer_totals()
    self_s = Counter({k: v * speed_scale for k, v in raw_self_s.items()})
    t = tracer.tallies

    def frac(part, whole):
        return part / whole if whole else 0.0

    out = {
        "scheduler.step.calls": calls["scheduler.step"],
        "scheduler.issue_frac": frac(t["scheduler.issues"], calls["scheduler.step"]),
        "checks.verify_selection.calls": calls["checks.verify_selection"],
        "checks.verify_selection.self_s": self_s["checks.verify_selection"],
        "device.decompose_request.calls": calls["device.decompose_request"],
        "device.decompose_request.self_s": self_s["device.decompose_request"],
        "device.command_ready.calls": calls["device.command_ready"],
        "device.command_ready.self_s": self_s["device.command_ready"],
        "device.command_ready.ready_frac": frac(t["device.command_ready.ready"],
                                                calls["device.command_ready"]),
        "device.apply_command.self_s": self_s["device.apply_command"],
        "scheduler.select_command.self_s": self_s["scheduler.select_command"],
        "scheduler.update_mode.self_s": self_s["scheduler.update_mode"],
        "scheduler.run.self_s": self_s["scheduler.run"],
        "harness.stop.calls": calls["harness.stop"],
        "harness.stop.self_s": self_s["harness.stop"],
        "workload.poll.calls": calls["workload.poll"],
        "workload.poll.self_s": self_s["workload.poll"],
        "workload.notify.self_s": self_s["workload.notify"],
        "workload.generator_emit.calls": calls["workload.generator_emit"],
        "workload.mshr_acquire.calls": calls["workload.mshr_acquire"],
        "workload.mshr_acquire.refused": t["workload.mshr_acquire.refused"],
        "scheduler.enqueue.calls": calls["scheduler.enqueue"],
        "scheduler.enqueue.refused": t["scheduler.enqueue.refused"],
        "checks.validate_trace.self_s": self_s["checks.validate_trace"],
    }
    out.update({f"checks.{name}.self_s": self_s[f"checks.{name}"] for name in CHECKS})
    out.update({
        "scheduler.mode_switches": t["scheduler.mode_switches"],
        "workload.build_adversarial.self_s": self_s["workload.build_adversarial"],
        "scheduler.solo_service.self_s": self_s["scheduler.solo_service"],
        "analysis.bound_check.calls": calls["analysis.bound_check"],
        "analysis.bound_check.self_s": self_s["analysis.bound_check"],
        "harness.evaluate.self_s": self_s["harness.evaluate"],
        "scheduler.to_csv.self_s": self_s["scheduler.to_csv"],
        "scheduler.stats_text.self_s": self_s["scheduler.stats_text"],
        "workload.scenario_to_text.self_s": self_s["workload.scenario_to_text"],
        "harness.write.self_s": self_s["harness.write"],
        "trace.overhead": overhead,
    })
    return out
