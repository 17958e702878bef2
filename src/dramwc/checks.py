"""Always-on trace validators: scheduling soundness, mode exclusion, drain
batching, data-bus exclusivity, activate-window limits, and conservation.
"""

from __future__ import annotations

from . import device
from .device import CommandKind
from .scheduler import Mode, ScheduleTrace, priority_key


class TraceInvariantError(AssertionError):
    pass


def _command(kind, req) -> str:
    return (f"{kind.value} for request {req.request_id} (core {req.core}, "
            f"bank {req.bank}, row {req.row})")


def verify_selection(controller, chosen) -> int | None:
    """Re-derive the candidate set from the open-page decomposition and check
    the controller's pick, a (kind, request) pair, against the FR-FCFS order
    (and work conservation).

    Runs on every cycle that the controller visits. Each queued request's
    head comes from decompose_request rather than the controller's fast
    path. The head and its earliest_ready cycle are derived once per
    distinct (bank, row, is_write) target and shared by the requests to it:
    both depend only on the target, the bank's open row and timing state
    and the channel, none of which changes during the call, so this is
    exact. Every request still gets its own FR-FCFS key; unlike
    select_command, the oracle does not assume that only the oldest request
    of a target can win. The queue is in arrival order, so the first ready
    candidate that is a CAS on a top-rank bank has the smallest possible key
    and ends the scan. An idle cycle that passes has scanned every candidate
    and returns its first-ready cycle: the earliest cycle at which one of
    them becomes ready while the state stands still (NEVER if none can).
    ``Controller.run`` compares each jump target with it instead of
    re-scanning the skipped span.
    """
    if len(controller.read_queue) > controller.config.read_cap:
        raise TraceInvariantError("read queue exceeds its capacity")
    if len(controller.write_queue) > controller.config.write_cap:
        raise TraceInvariantError("write queue exceeds its capacity")
    prio = controller.config.prioritized_bank
    best_key = None
    best = None
    first_ready = device.NEVER
    heads = {}
    for req in controller.candidate_queue():
        target = (req.bank, req.row, req.is_write)
        if target not in heads:
            bank = controller.banks[req.bank]
            kind = device.decompose_request(req, bank)[0]
            heads[target] = kind, device.earliest_ready(
                kind, req.row, bank, controller.chan, controller.timing)
        kind, at = heads[target]
        if at > controller.now:
            first_ready = min(first_ready, at)
            continue
        key = priority_key(kind, req.bank, req.arrival_order, prio)
        if best_key is None or key < best_key:
            best_key, best = key, (kind, req)
            if key[:2] == (0, 0):
                break  # every later candidate arrived later
    if chosen is None:
        if best is not None:
            raise TraceInvariantError(
                f"cycle {controller.now}: idle although {_command(*best)} is ready"
            )
        return first_ready
    kind, req = chosen
    if best is None:
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {_command(kind, req)} but no "
            f"candidate is ready"
        )
    if best_key < priority_key(kind, req.bank, req.arrival_order, prio):
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {_command(kind, req)} over "
            f"higher-priority {_command(*best)}"
        )


def _mode_intervals(trace: ScheduleTrace) -> list[tuple[int, Mode]]:
    """(start cycle, mode) of each interval between recorded mode switches."""
    return [(0, trace.initial_mode)] + [(s.cycle, s.mode) for s in trace.mode_switches]


def _issues_by_interval(trace: ScheduleTrace, intervals):
    """Yield (interval index, issue) in cycle order, in one walk merging the
    issues with the intervals. An issue at a switch cycle belongs to the new
    mode, since the controller switches before it selects a command."""
    i = 0
    for rec in sorted(trace.issues, key=lambda rec: rec.cycle):
        while i + 1 < len(intervals) and intervals[i + 1][0] <= rec.cycle:
            i += 1
        yield i, rec


def check_command_bus(trace: ScheduleTrace) -> None:
    cycles = [rec.cycle for rec in trace.issues]
    if len(cycles) != len(set(cycles)):
        raise TraceInvariantError("two commands issued in the same cycle")


def check_burst_overlap(trace: ScheduleTrace) -> None:
    bursts = sorted(trace.bursts, key=lambda b: b.start)
    for prev, cur in zip(bursts, bursts[1:]):
        if cur.start < prev.end:
            raise TraceInvariantError(
                f"data bursts overlap: [{prev.start},{prev.end}) and "
                f"[{cur.start},{cur.end})"
            )


def check_burst_timing(trace: ScheduleTrace) -> None:
    """Every CAS issue must have a burst at the CAS latency, and every
    completion must coincide with its burst end."""
    timing = trace.timing
    bursts = {b.request_id: b for b in trace.bursts}
    for rec in trace.issues:
        if rec.kind is CommandKind.RD:
            expected = (rec.cycle + timing.cl, rec.cycle + timing.cl + timing.tburst)
        elif rec.kind is CommandKind.WR:
            expected = (rec.cycle + timing.wl, rec.cycle + timing.wl + timing.tburst)
        else:
            continue
        burst = bursts.get(rec.request_id)
        if burst is None or (burst.start, burst.end) != expected:
            raise TraceInvariantError(
                f"request {rec.request_id}: burst does not match its CAS issue"
            )
    for rec in trace.completions:
        burst = bursts.get(rec.request_id)
        if burst is None or rec.completion_cycle != burst.end:
            raise TraceInvariantError(
                f"request {rec.request_id}: completion is not at burst end"
            )


def check_tfaw(trace: ScheduleTrace) -> None:
    acts = sorted(rec.cycle for rec in trace.issues if rec.kind is CommandKind.ACT)
    window = trace.timing.tfaw
    for i in range(4, len(acts)):
        if acts[i] - acts[i - 4] < window:
            raise TraceInvariantError(
                f"five activates within {window} cycles ending at {acts[i]}"
            )


def check_mode_exclusion(trace: ScheduleTrace) -> None:
    intervals = _mode_intervals(trace)
    for i, rec in _issues_by_interval(trace, intervals):
        mode = intervals[i][1]
        if rec.kind is CommandKind.WR and mode is not Mode.WRITE_DRAIN:
            raise TraceInvariantError(f"WR issued outside a drain at {rec.cycle}")
        if rec.kind is CommandKind.RD and mode is not Mode.READ:
            raise TraceInvariantError(f"RD issued during a drain at {rec.cycle}")


def check_drain_batching(trace: ScheduleTrace) -> None:
    """Each completed drain must service at least min(batch, queued) writes."""
    batch = trace.config.drain_batch
    intervals = _mode_intervals(trace)
    drained = [0] * len(intervals)
    for i, rec in _issues_by_interval(trace, intervals):
        if rec.kind is CommandKind.WR:
            drained[i] += 1
    # The last interval is still open at the end of the trace.
    for i, (start, mode) in enumerate(intervals[:-1]):
        if mode is not Mode.WRITE_DRAIN:
            continue
        if i > 0:
            queued = trace.mode_switches[i - 1].write_queue_len
        else:
            queued = sum(
                1 for r in trace.requests.values()
                if r.is_write and r.arrival_cycle == 0
            )
        if drained[i] < min(batch, queued):
            raise TraceInvariantError(
                f"drain starting at {start} serviced {drained[i]} writes, "
                f"expected at least {min(batch, queued)}"
            )


def check_conservation(trace: ScheduleTrace) -> None:
    completed = {rec.request_id for rec in trace.completions}
    enqueued = set(trace.requests)
    if len(completed) != len(trace.completions):
        raise TraceInvariantError("a request completed twice")
    if trace.quiescent:
        if completed != enqueued:
            raise TraceInvariantError(
                f"{len(enqueued - completed)} accepted requests never completed"
            )
    elif not completed <= enqueued:
        raise TraceInvariantError("completion for a request that never enqueued")


def validate_trace(trace: ScheduleTrace) -> None:
    """Run every offline invariant check; raises TraceInvariantError."""
    check_command_bus(trace)
    check_burst_overlap(trace)
    check_burst_timing(trace)
    check_tfaw(trace)
    check_mode_exclusion(trace)
    check_drain_batching(trace)
    check_conservation(trace)
