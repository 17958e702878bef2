import bisect
import copy

import pytest

from dramwc import checks, harness
from dramwc.checks import TraceInvariantError, validate_trace
from dramwc.device import CommandKind, DataBurst
from dramwc.scheduler import IssueRecord, MemRequest, Mode
from dramwc.workload import build_adversarial, run_scenario


@pytest.fixture(scope="module")
def drain_trace():
    trace, _ = run_scenario(harness.preset("fig5"))
    return trace


@pytest.fixture(scope="module")
def adversarial_trace():
    trace, _ = run_scenario(build_adversarial(interferer_kind="stream", seed=2))
    return trace


def log_issue(trace, rec):
    """Put ``rec`` in the issue log at its cycle, after any issue already
    logged at that cycle, so the log stays in cycle order."""
    bisect.insort(trace.issues, rec, key=lambda r: r.cycle)


def test_validators_pass_on_clean_traces(drain_trace, adversarial_trace):
    validate_trace(drain_trace)
    validate_trace(adversarial_trace)


def test_duplicate_issue_cycle_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    first = trace.issues[0]
    log_issue(trace, IssueRecord(first.cycle, CommandKind.ACT,
                                 MemRequest(0, False, 5, 0)))
    with pytest.raises(TraceInvariantError, match="same cycle"):
        checks.check_command_bus(trace)


def test_out_of_order_issue_log_rejected(drain_trace):
    # step logs issues in cycle order, and the checks that follow read the
    # log in that order instead of sorting it: an issue logged after a
    # later one fails, though its cycle is free.
    trace = copy.deepcopy(drain_trace)
    cycles = {rec.cycle for rec in trace.issues}
    free = next(c for c in range(trace.issues[-1].cycle) if c not in cycles)
    trace.issues.append(IssueRecord(free, CommandKind.ACT, MemRequest(0, False, 5, 0)))
    with pytest.raises(TraceInvariantError, match=f"^issue at cycle {free} logged "
                       f"after one at {trace.issues[-2].cycle}$"):
        checks.check_command_bus(trace)
    with pytest.raises(TraceInvariantError, match="logged after"):
        validate_trace(trace)


def test_out_of_order_burst_rejected(drain_trace):
    # Two bursts that do not overlap, logged in the wrong order.
    trace = copy.deepcopy(drain_trace)
    trace.bursts[-2:] = trace.bursts[:-3:-1]
    with pytest.raises(TraceInvariantError, match="overlap"):
        checks.check_burst_overlap(trace)


def test_overlapping_bursts_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    burst = trace.bursts[0]
    trace.bursts.append(DataBurst(burst.start + 1, burst.end + 1,
                                 MemRequest(0, False, 0, 0)))
    with pytest.raises(TraceInvariantError, match="overlap"):
        checks.check_burst_overlap(trace)


def test_shifted_completion_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    trace.completions[0].completion_cycle += 1
    with pytest.raises(TraceInvariantError, match="burst end"):
        checks.check_burst_timing(trace)


def test_five_acts_in_window_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    trace.issues = [
        IssueRecord(cycle, CommandKind.ACT, MemRequest(0, False, bank, 0))
        for bank, cycle in enumerate((200, 204, 208, 212, 216))
    ]
    with pytest.raises(TraceInvariantError, match="activates"):
        checks.check_tfaw(trace)


def test_write_cas_outside_drain_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    read_mode_start = next(s.cycle for s in trace.mode_switches
                           if s.mode is Mode.READ)
    log_issue(trace, IssueRecord(read_mode_start + 1, CommandKind.WR,
                                 MemRequest(3, True, 3, 36)))
    with pytest.raises(TraceInvariantError, match="WR issued"):
        checks.check_mode_exclusion(trace)


def test_read_cas_inside_drain_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    log_issue(trace, IssueRecord(1, CommandKind.RD, MemRequest(0, False, 0, 5)))
    with pytest.raises(TraceInvariantError, match="RD issued"):
        checks.check_mode_exclusion(trace)


def test_issue_at_a_switch_cycle_belongs_to_the_new_mode(drain_trace):
    # fig5's drain ends with a switch to read mode; at that cycle a read is
    # legal, a write is not, and a write does not count toward the drain.
    switch = next(s.cycle for s in drain_trace.mode_switches
                  if s.mode is Mode.READ)
    trace = copy.deepcopy(drain_trace)
    log_issue(trace, IssueRecord(switch, CommandKind.RD, MemRequest(0, False, 0, 5)))
    checks.check_mode_exclusion(trace)
    trace = copy.deepcopy(drain_trace)
    log_issue(trace, IssueRecord(switch, CommandKind.WR, MemRequest(3, True, 3, 36)))
    with pytest.raises(TraceInvariantError,
                       match=f"WR issued outside a drain at {switch}"):
        checks.check_mode_exclusion(trace)
    last_wr = max((r for r in trace.issues
                   if r.kind is CommandKind.WR and r.cycle < switch),
                  key=lambda r: r.cycle)
    trace.issues.remove(last_wr)
    with pytest.raises(TraceInvariantError, match="serviced 1 writes"):
        checks.check_drain_batching(trace)


def test_short_drain_batch_rejected(drain_trace):
    # fig5's initial drain owes both staged writes; drop one WR issue and the
    # batching rule must fire.
    trace = copy.deepcopy(drain_trace)
    wr_issues = [r for r in trace.issues if r.kind is CommandKind.WR]
    assert len(wr_issues) == 2
    trace.issues.remove(wr_issues[-1])
    with pytest.raises(TraceInvariantError, match="drain"):
        checks.check_drain_batching(trace)


def test_lost_completion_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    assert trace.quiescent
    trace.completions = trace.completions[:-1]
    with pytest.raises(TraceInvariantError, match="never completed"):
        checks.check_conservation(trace)


def test_foreign_completion_rejected(drain_trace):
    # A completion is matched to its request by identity, so a stranger is
    # caught whether or not its id is one that the controller gave out.
    for rid in (777, 0):
        trace = copy.deepcopy(drain_trace)
        trace.quiescent = False
        trace.completions.append(MemRequest(0, False, 0, 0, request_id=rid,
                                            completion_cycle=50))
        with pytest.raises(TraceInvariantError, match="never enqueued"):
            checks.check_conservation(trace)


def test_misnumbered_request_rejected(drain_trace):
    trace = copy.deepcopy(drain_trace)
    trace.requests[1].request_id = 0
    with pytest.raises(TraceInvariantError, match="id is not its index"):
        checks.check_conservation(trace)


def test_selection_verifier_catches_priority_inversion():
    from dramwc.device import make_timing
    from dramwc.scheduler import Controller, MemRequest

    ctrl = Controller(make_timing(), open_rows={1: 1, 2: 1})
    ctrl.enqueue(MemRequest(2, False, 2, 1))
    ctrl.enqueue(MemRequest(1, False, 1, 1))
    chosen = ctrl.select_command()
    assert chosen[1].bank == 2  # the older request's command
    younger = next(req for req in ctrl.read_queue if req.bank == 1)
    with pytest.raises(TraceInvariantError,
                       match=r"issued RD for request 1 \(core 1, bank 1, row 1\) "
                             r"over higher-priority RD for request 0 "):
        checks.verify_selection(ctrl, (CommandKind.RD, younger))


def test_selection_verifier_catches_missed_work():
    from dramwc.device import make_timing
    from dramwc.scheduler import Controller, MemRequest

    ctrl = Controller(make_timing(), open_rows={0: 1})
    ctrl.enqueue(MemRequest(0, False, 0, 1))
    with pytest.raises(TraceInvariantError, match=r"cycle 0: idle although RD for "
                       r"request 0 \(core 0, bank 0, row 1\) is ready"):
        checks.verify_selection(ctrl, None)


def test_selection_verifier_catches_issue_with_nothing_ready():
    from dramwc.device import make_timing
    from dramwc.scheduler import Controller, MemRequest

    ctrl = Controller(make_timing())  # bank 0 closed: the head is an ACT
    req = MemRequest(0, False, 0, 1)
    ctrl.enqueue(req)
    ctrl.banks[0].earliest_act = 5
    assert ctrl.select_command() is None
    with pytest.raises(TraceInvariantError, match="cycle 0: issued ACT for request 0 "
                       r"\(core 0, bank 0, row 1\) but no candidate is ready"):
        checks.verify_selection(ctrl, (CommandKind.ACT, req))
