"""Always-on trace validators: scheduling soundness, mode exclusion, drain
batching, data-bus exclusivity, activate-window limits, and conservation.
"""

from __future__ import annotations

from . import device
from .device import ACT, RD, WR
from .scheduler import READ, WRITE_DRAIN, Mode, ScheduleTrace, priority_key


class TraceInvariantError(AssertionError):
    pass


def _command(kind, req) -> str:
    return (f"{kind.value} for request {req.request_id} (core {req.core}, "
            f"bank {req.bank}, row {req.row})")


def verify_selection(controller, chosen) -> int | None:
    """Re-derive the candidate set from the open-page decomposition and check
    the controller's pick, a (kind, request) pair, against the FR-FCFS order
    (and work conservation).

    Runs on every cycle that the controller stepped. It reads the raw
    arrival-order queue, not the controller's (bank, row) groups, and each
    queued request's head comes from decompose_request rather than the
    controller's fast path. The head and its earliest_ready cycle are
    derived once per distinct (bank, row, is_write) target, the ``target``
    that enqueue stamps on each request, and shared by the requests to it:
    both depend only on the target, the bank's open row
    and timing state and the channel, none of which changes during the call,
    so this is exact.

    An idle cycle is certified per target: if no target is ready, no
    request is, and the call returns its first-ready cycle, the earliest
    cycle at which one of them becomes ready while the state stands still
    (NEVER if none can). ``Controller.run`` leaves the cycles before it
    unstepped, as quiet cycles, until a request arrives. If some target is
    ready, the idle cycle fails, and the per-request scan below names the
    request.

    A pick, or an idle cycle with a ready target, is checked by ranking
    every ready request by its own FR-FCFS key; unlike select_command, the
    oracle does not assume that only the oldest request of a target can win.
    The queue is in arrival order, so the first ready CAS has the smallest
    possible key and ends the scan.
    """
    if len(controller.read_queue) > controller.config.read_cap:
        raise TraceInvariantError("read queue exceeds its capacity")
    if len(controller.write_queue) > controller.config.write_cap:
        raise TraceInvariantError("write queue exceeds its capacity")
    queue = controller.candidate_queue()
    now = controller.now
    heads = {}
    if chosen is None:
        first_ready = device.NEVER
        for req in queue:
            if req.target not in heads:
                heads[req.target] = head = _head(controller, req)
                if head[1] < first_ready:
                    first_ready = head[1]
        if first_ready > now:
            return first_ready
    best_key = None
    best = None
    for req in queue:
        head = heads.get(req.target)
        if head is None:
            heads[req.target] = head = _head(controller, req)
        kind, at = head
        if at > now:
            continue
        key = priority_key(kind, req.request_id)
        if best_key is None or key < best_key:
            best_key, best = key, (kind, req)
            if key[0] == 0:
                break  # a CAS, and every later candidate arrived later
    if chosen is None:
        raise TraceInvariantError(
            f"cycle {controller.now}: idle although {_command(*best)} is ready"
        )
    kind, req = chosen
    if best is None:
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {_command(kind, req)} but no "
            f"candidate is ready"
        )
    if best_key < priority_key(kind, req.request_id):
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {_command(kind, req)} over "
            f"higher-priority {_command(*best)}"
        )


def _head(controller, req) -> tuple:
    """The kind of req's next command, from the open-page decomposition, and
    the cycle at which it becomes ready."""
    bank = controller.banks[req.bank]
    kind = device.decompose_request(req, bank)[0]
    return kind, device.earliest_ready(kind, req.row, bank, controller.chan,
                                       controller.timing)


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
    completion must coincide with its burst end, found by its request."""
    timing = trace.timing
    bursts = {b.request: b for b in trace.bursts}
    for rec in trace.issues:
        if rec.kind is RD:
            expected = (rec.cycle + timing.cl, rec.cycle + timing.cl + timing.tburst)
        elif rec.kind is WR:
            expected = (rec.cycle + timing.wl, rec.cycle + timing.wl + timing.tburst)
        else:
            continue
        burst = bursts.get(rec.request)
        if burst is None or (burst.start, burst.end) != expected:
            raise TraceInvariantError(
                f"request {rec.request.request_id}: burst does not match its CAS issue"
            )
    for rec in trace.completions:
        burst = bursts.get(rec)
        if burst is None or rec.completion_cycle != burst.end:
            raise TraceInvariantError(
                f"request {rec.request_id}: completion is not at burst end"
            )


def check_tfaw(trace: ScheduleTrace) -> None:
    acts = sorted(rec.cycle for rec in trace.issues if rec.kind is ACT)
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
        if rec.kind is WR and mode is not WRITE_DRAIN:
            raise TraceInvariantError(f"WR issued outside a drain at {rec.cycle}")
        if rec.kind is RD and mode is not READ:
            raise TraceInvariantError(f"RD issued during a drain at {rec.cycle}")


def check_drain_batching(trace: ScheduleTrace) -> None:
    """Each completed drain must service at least min(batch, queued) writes."""
    batch = trace.config.drain_batch
    intervals = _mode_intervals(trace)
    drained = [0] * len(intervals)
    for i, rec in _issues_by_interval(trace, intervals):
        if rec.kind is WR:
            drained[i] += 1
    # The last interval is still open at the end of the trace.
    for i, (start, mode) in enumerate(intervals[:-1]):
        if mode is not WRITE_DRAIN:
            continue
        if i > 0:
            queued = trace.mode_switches[i - 1].write_queue_len
        else:
            queued = sum(
                1 for r in trace.requests
                if r.is_write and r.arrival_cycle == 0
            )
        if drained[i] < min(batch, queued):
            raise TraceInvariantError(
                f"drain starting at {start} serviced {drained[i]} writes, "
                f"expected at least {min(batch, queued)}"
            )


def check_conservation(trace: ScheduleTrace) -> None:
    if any(req.request_id != i for i, req in enumerate(trace.requests)):
        raise TraceInvariantError("a request's id is not its index in the trace")
    completed = set(trace.completions)
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
