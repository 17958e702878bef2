"""Always-on trace validators: scheduling soundness, mode exclusion, drain
batching, data-bus exclusivity, activate-window limits, and conservation.
"""

from __future__ import annotations

import itertools

from . import device
from .device import ACT, RD, WR
from .scheduler import READ, WRITE_DRAIN, Mode, ScheduleTrace, priority_key


class TraceInvariantError(AssertionError):
    pass


def _command(kind, req) -> str:
    return (f"{kind.value} for request {req.request_id} (core {req.core}, "
            f"bank {req.bank}, row {req.row})")


def first_ready(controller, since: int = 0) -> int:
    """The first-ready cycle of the active queue's (bank, row) groups from
    the group at index ``since`` on: the earliest cycle at which one of their
    heads becomes ready while the state stands still, NEVER if none can.

    It reads one head per group, the group's oldest request, since every
    request of a group shares its head's kind and ready cycle: each depends
    only on the request's (bank, row), its bank's open row and timing state
    and the channel. The head's kind comes from decompose_request, not the
    controller's fast path, and its ready cycle from earliest_ready.

    The active groups are derived here from ``controller.mode``, not read
    from the controller's ``active_groups``, so a stale active queue shows
    as a wrong certification. A full call, from the first group, first
    checks that the groups hold as many requests as the active queue, so a
    groups/queue desync fails at the next certification. The idle check of
    :func:`verify_selection` makes a full call, and ``Controller.run`` one
    on the visit after an issue. On a
    visit with arrivals into the span that it certified, ``run`` reads only
    the groups that they opened: no group is deleted before a CAS issue,
    which ends the span, so new groups are the tail of the dict.
    """
    reading = controller.mode is READ
    groups = controller.read_groups if reading else controller.write_groups
    if since:
        heads = itertools.islice(groups.values(), since, None)
    else:
        queued = len(controller.read_queue if reading else controller.write_queue)
        grouped = sum(map(len, groups.values()))
        if grouped != queued:
            raise TraceInvariantError(
                f"cycle {controller.now}: the (bank, row) groups hold {grouped} "
                f"requests, the active queue {queued}")
        heads = groups.values()
    # Each head's kind and ready cycle in line: run calls this after each issue.
    banks, chan, timing = controller.banks, controller.chan, controller.timing
    decompose, earliest_ready = device.decompose_request, device.earliest_ready
    first = device.NEVER
    for group in heads:
        req = group[0]
        bank = banks[req.bank]
        at = earliest_ready(decompose(req, bank)[0], req.row, bank, chan, timing)
        if at < first:
            first = at
    return first


def verify_selection(controller, chosen) -> int | None:
    """Re-derive the candidate set from the open-page decomposition and check
    the controller's pick, a (kind, request) pair, against the FR-FCFS order
    (and work conservation).

    Runs on every cycle that the controller stepped. An idle cycle is
    certified by :func:`first_ready` over the (bank, row) group heads: if no
    head is ready, no request is, and the call returns the first-ready cycle
    (NEVER if none can become ready). ``Controller.run`` leaves the cycles
    before it unstepped, as quiet cycles. If some head is ready, the idle
    cycle fails, and the per-request scan below names the request.

    A pick, or an idle cycle with a ready head, is checked by walking the
    raw arrival-order queue that ``controller.mode`` names and ranking every
    ready request by its own FR-FCFS key, from priority_key; each request's
    head comes from decompose_request, once per distinct ``target`` stamp,
    in line. Unlike
    select_command, the oracle does not assume that only the oldest request
    of a target can win. The queue is in arrival order, so the first ready
    CAS has the smallest possible key and ends the scan.
    """
    if len(controller.read_queue) > controller.config.read_cap:
        raise TraceInvariantError("read queue exceeds its capacity")
    if len(controller.write_queue) > controller.config.write_cap:
        raise TraceInvariantError("write queue exceeds its capacity")
    now = controller.now
    if chosen is None:
        first = first_ready(controller)
        if first > now:
            return first
    heads = {}  # target -> (kind of the next command, the cycle it is ready)
    best_key = None
    best = None
    queue = controller.read_queue if controller.mode is READ else controller.write_queue
    banks, chan, timing = controller.banks, controller.chan, controller.timing
    decompose, earliest_ready = device.decompose_request, device.earliest_ready
    for req in queue:
        head = heads.get(req.target)
        if head is None:
            bank = banks[req.bank]
            kind = decompose(req, bank)[0]
            heads[req.target] = head = kind, earliest_ready(kind, req.row, bank, chan, timing)
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


def _mode_intervals(trace: ScheduleTrace) -> list[tuple[int, Mode]]:
    """(start cycle, mode) of each interval between recorded mode switches."""
    return [(0, trace.initial_mode)] + [(s.cycle, s.mode) for s in trace.mode_switches]


def _issues_by_interval(trace: ScheduleTrace, intervals):
    """Yield (interval index, issue) in log order, which
    :func:`check_command_bus` requires to be cycle order, in one walk merging
    the issues with the intervals. An issue at a switch cycle belongs to the
    new mode, since the controller switches before it selects a command."""
    i = 0
    for rec in trace.issues:
        while i + 1 < len(intervals) and intervals[i + 1][0] <= rec.cycle:
            i += 1
        yield i, rec


def check_command_bus(trace: ScheduleTrace) -> None:
    """One command a cycle, logged in cycle order: ``step`` appends at most
    one issue a cycle, so the issue cycles strictly increase."""
    issues = trace.issues
    for prev, cur in zip(issues, issues[1:]):
        if cur.cycle == prev.cycle:
            raise TraceInvariantError("two commands issued in the same cycle")
        if cur.cycle < prev.cycle:
            raise TraceInvariantError(
                f"issue at cycle {cur.cycle} logged after one at {prev.cycle}")


def check_burst_overlap(trace: ScheduleTrace) -> None:
    """Bursts, in the order they were logged, each start once the one before
    has ended: every CAS waits for the data bus, so bursts start in issue
    order, and one logged out of that order overlaps its predecessor."""
    bursts = trace.bursts
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
    acts = [rec.cycle for rec in trace.issues if rec.kind is ACT]  # in cycle order, as logged
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
    """Run every offline invariant check; raises TraceInvariantError. The
    command-bus check runs first: the checks after it read the issue log in
    the cycle order that it requires."""
    check_command_bus(trace)
    check_burst_overlap(trace)
    check_burst_timing(trace)
    check_tfaw(trace)
    check_mode_exclusion(trace)
    check_drain_batching(trace)
    check_conservation(trace)
