"""The selection oracle against its full-scan self, and against wrong
controllers.

``full_scan_verify_selection`` below is the oracle as it was before it
stopped at the first unbeatable candidate and before it returned its
first-ready cycle: it scans every queued request on every call. The oracle
must give the same verdict, word for word, on any controller state, its
first-ready cycle must be the first at which the full scan fails, and a
controller that breaks FR-FCFS must still be caught.
"""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from dramwc import checks, device, harness
from dramwc.checks import TraceInvariantError
from dramwc.device import NEVER, CommandKind, make_timing
from dramwc.scheduler import (
    Controller,
    MemRequest,
    Mode,
    SchedulerConfig,
    priority_key,
)
from dramwc.workload import (
    GeneratorKind,
    Workload,
    build_adversarial,
    run_scenario,
)


def full_scan_verify_selection(controller, chosen) -> None:
    """Reference oracle: every queued request, the best ready one by the
    FR-FCFS key, then the verdict on ``chosen``."""
    if len(controller.read_queue) > controller.config.read_cap:
        raise TraceInvariantError("read queue exceeds its capacity")
    if len(controller.write_queue) > controller.config.write_cap:
        raise TraceInvariantError("write queue exceeds its capacity")
    best_key = None
    best = None
    for req in controller.candidate_queue():
        bank = controller.banks[req.bank]
        kind = device.decompose_request(req, bank)[0]
        if not device.command_ready(kind, req.row, bank, controller.chan,
                                    controller.timing, controller.now):
            continue
        key = priority_key(kind, req.request_id)
        if best_key is None or key < best_key:
            best_key, best = key, (kind, req)
    if chosen is None:
        if best is not None:
            raise TraceInvariantError(
                f"cycle {controller.now}: idle although "
                f"{checks._command(*best)} is ready"
            )
        return
    kind, req = chosen
    if best is None:
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {checks._command(kind, req)} but no "
            f"candidate is ready"
        )
    if best_key < priority_key(kind, req.request_id):
        raise TraceInvariantError(
            f"cycle {controller.now}: issued {checks._command(kind, req)} over "
            f"higher-priority {checks._command(*best)}"
        )


def failure(oracle, controller, chosen):
    """The oracle's message, or None if it passes."""
    try:
        oracle(controller, chosen)
    except TraceInvariantError as exc:
        return str(exc)
    return None


@st.composite
def controller_states(draw):
    """A controller with queued requests, mostly in the active queue, and
    bank and channel constraints scattered around the clock."""
    num_banks = draw(st.integers(1, 4))
    timing = make_timing({
        "cl": draw(st.integers(1, 12)), "wl": draw(st.integers(1, 12)),
        "trrd": (trrd := draw(st.integers(1, 8))),
        "tfaw": trrd + draw(st.integers(0, 16))})
    config = SchedulerConfig(
        read_cap=draw(st.integers(1, 16)), write_cap=draw(st.integers(1, 16)),
        drain_batch=1, num_banks=num_banks)
    banks = st.integers(0, num_banks - 1)
    rows = st.sampled_from([0, 0, 0, 1])
    mode = draw(st.sampled_from(list(Mode)))
    open_rows = {bank: row for bank in range(num_banks)
                 if (row := draw(st.sampled_from([None, 0, 0, 0, 1]))) is not None}
    ctrl = Controller(timing, config, open_rows=open_rows, initial_mode=mode)
    active = st.sampled_from([True, True, True, False])
    size = draw(st.integers(0, 16))
    for i, (in_active, bank, row) in enumerate(draw(st.lists(
            st.tuples(active, banks, rows), min_size=size, max_size=size))):
        is_write = in_active == (mode is Mode.WRITE_DRAIN)
        ctrl.enqueue(MemRequest(bank % 4, is_write, bank, row))
    ctrl.now = draw(st.integers(0, 40))
    cycles = st.integers(-20, 5).map(lambda delta: max(0, ctrl.now + delta))
    for bank in ctrl.banks:
        bank.earliest_act, bank.earliest_pre, bank.earliest_rd, \
            bank.earliest_wr = (draw(cycles) for _ in range(4))
    ctrl.chan.act_history = sorted(draw(st.lists(cycles, max_size=4)))
    ctrl.chan.earliest_rd_cas = draw(cycles)
    ctrl.chan.earliest_wr_cas = draw(cycles)
    ctrl.chan.data_bus_free = draw(cycles)
    return ctrl


def head(ctrl, req):
    return device.decompose_request(req, ctrl.banks[req.bank])[0], req


@settings(max_examples=400, deadline=None)
@given(ctrl=controller_states(), data=st.data())
def test_oracle_agrees_with_the_full_scan(ctrl, data):
    # chosen: nothing, the controller's pick (the best ready command), or
    # any queued request's head, ready or not.
    picks = [None, ctrl.select_command()]
    picks += [head(ctrl, req) for req in ctrl.candidate_queue()]
    chosen = data.draw(st.sampled_from(picks))
    assert failure(checks.verify_selection, ctrl, chosen) == \
        failure(full_scan_verify_selection, ctrl, chosen)


@settings(max_examples=400, deadline=None)
@given(ctrl=controller_states())
def test_first_ready_cycle_is_where_the_full_scan_starts_to_fail(ctrl):
    if failure(full_scan_verify_selection, ctrl, None) is not None:
        return
    first_ready = checks.verify_selection(ctrl, None)
    assert first_ready > ctrl.now
    if first_ready == NEVER:
        ctrl.now += 10**6
        assert failure(full_scan_verify_selection, ctrl, None) is None
        return
    ctrl.now = first_ready - 1
    assert failure(full_scan_verify_selection, ctrl, None) is None
    ctrl.now = first_ready
    assert failure(full_scan_verify_selection, ctrl, None) is not None


def reference_selection(ctrl):
    """select_command's pick, rebuilt from the oracle's parts: the oldest
    active request of each (bank, row) is a group head, whose kind comes
    from decompose_request, whose ready cycle comes from earliest_ready, and
    whose rank comes from priority_key."""
    heads = {}
    for req in ctrl.candidate_queue():
        heads.setdefault((req.bank, req.row), req)
    best, best_key = None, None
    for req in heads.values():
        bank = ctrl.banks[req.bank]
        kind = device.decompose_request(req, bank)[0]
        if device.earliest_ready(kind, req.row, bank, ctrl.chan,
                                 ctrl.timing) > ctrl.now:
            continue
        key = priority_key(kind, req.request_id)
        if best_key is None or key < best_key:
            best, best_key = (kind, req.request_id), key
    return best


@settings(max_examples=400, deadline=None)
@given(ctrl=controller_states())
def test_selection_matches_the_reference_over_group_heads(ctrl):
    # select_command derives each head's kind and FR-FCFS key in its own
    # loop; they must agree with the decomposition and with priority_key.
    chosen = ctrl.select_command()
    picked = None if chosen is None else (chosen[0], chosen[1].request_id)
    assert picked == reference_selection(ctrl)


def test_the_scan_stops_only_at_a_cas_on_a_top_rank_bank():
    # With no bank priority every bank has the top rank. The ACT on closed
    # bank 2 comes first in the queue and is ready, but the scan passes it
    # and stops at the first ready CAS, the RD on bank 1, which outranks
    # both the older ACT and the younger RD on bank 3.
    ctrl = Controller(make_timing(), open_rows={1: 1, 3: 1})
    act, first, younger = (MemRequest(bank, False, bank, 1) for bank in (2, 1, 3))
    for req in (act, first, younger):
        ctrl.enqueue(req)
    assert ctrl.select_command() == (CommandKind.RD, first)
    checks.verify_selection(ctrl, (CommandKind.RD, first))
    for chosen in ((CommandKind.ACT, act), (CommandKind.RD, younger)):
        with pytest.raises(TraceInvariantError, match=r"over higher-priority "
                           r"RD for request 1 "):
            checks.verify_selection(ctrl, chosen)
    with pytest.raises(TraceInvariantError,
                       match="idle although RD for request 1 "):
        checks.verify_selection(ctrl, None)


@pytest.mark.parametrize("held_bank, named", [
    (None, "RD for request 1 "), (1, "RD for request 2 "), (3, "RD for request 1 ")])
def test_an_idle_cycle_with_ready_targets_names_the_best_request(held_bank, named):
    # Targets: an ACT on closed bank 3 (request 0) and row hits on banks 1
    # (requests 1 and 3) and 2 (request 2); all are ready but the held
    # bank's. The idle check fails on its per-target pass and names, as the
    # full scan does, the request the FR-FCFS order ranks first: a CAS beats
    # the older ACT, so holding bank 1 passes the win to the next CAS, and
    # holding the ACT changes nothing.
    ctrl = Controller(make_timing(), open_rows={1: 1, 2: 1})
    for i, bank in enumerate([3, 1, 2, 1]):
        assert ctrl.enqueue(MemRequest(bank, False, bank, 1))
    if held_bank is not None:
        held = ctrl.banks[held_bank]
        held.earliest_act = held.earliest_pre = held.earliest_rd = 10
    message = failure(checks.verify_selection, ctrl, None)
    assert message == failure(full_scan_verify_selection, ctrl, None)
    assert message.startswith(f"cycle 0: idle although {named}")


def full_scan_starts_to_fail_at(ctrl, cycle):
    """Whether an idle cycle passes the full scan at ``cycle - 1`` and fails
    it at ``cycle``."""
    ctrl.now = cycle - 1
    passes = failure(full_scan_verify_selection, ctrl, None) is None
    ctrl.now = cycle
    return passes and failure(full_scan_verify_selection, ctrl, None) is not None


def test_heads_are_derived_once_per_target(monkeypatch):
    # The staged worst case queues 31 reads to 4 (bank, row) targets. One
    # cycle after the first RD nothing is ready (tCCD), so the oracle scans
    # the whole queue.
    ctrl = Workload(build_adversarial(
        interferer_kind=GeneratorKind.BANDWIDTH_READ, seed=0)).controller
    ctrl.step()
    queue = ctrl.candidate_queue()
    targets = {(req.bank, req.row, req.is_write) for req in queue}
    assert (len(queue), len(targets)) == (30, 4)
    assert failure(full_scan_verify_selection, ctrl, None) is None
    calls = collections.Counter()

    def counted(name, target):
        real = getattr(device, name)

        def wrapper(*args):
            calls[name, target(*args)] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(device, "decompose_request", counted(
        "decompose_request", lambda req, bank: (req.bank, req.row, req.is_write)))
    monkeypatch.setattr(device, "earliest_ready", counted(
        "earliest_ready", lambda kind, row, bank, *_: (id(bank), row)))
    first_ready = checks.verify_selection(ctrl, None)
    assert calls == collections.Counter(
        [("decompose_request", target) for target in targets]
        + [("earliest_ready", (id(ctrl.banks[bank]), row))
           for bank, row, _ in targets])
    monkeypatch.undo()
    assert full_scan_starts_to_fail_at(ctrl, first_ready)


def _one_bank_two_rows(mode, bank1_row, order):
    """Bank 0 has row 0 open, and bank 1 has ``bank1_row`` open, or is
    closed for None. The queue holds a row hit and a row conflict on bank 0,
    a repeat of one of them, and a request to bank 1 for row 0, in the given
    order of (bank, row) targets. The order ids call bank 1's target closed,
    as it is for None."""
    open_rows = {0: 0} if bank1_row is None else {0: 0, 1: bank1_row}
    ctrl = Controller(make_timing(), open_rows=open_rows, initial_mode=mode)
    is_write = mode is Mode.WRITE_DRAIN
    for i, (bank, row) in enumerate(order):
        assert ctrl.enqueue(MemRequest(i % 4, is_write, bank, row))
    return ctrl


@pytest.mark.parametrize("order", [
    [(0, 1), (0, 0), (0, 1), (1, 0)],
    [(0, 0), (0, 1), (0, 0), (1, 0)],
    [(1, 0), (0, 0), (0, 1), (1, 0)],
    [(1, 0), (0, 1), (0, 0), (0, 1)],
], ids=["conflict-first", "hit-first", "closed-first", "closed-then-conflict"])
@pytest.mark.parametrize("bank1_row", [None, 0, 1])
@pytest.mark.parametrize("mode", list(Mode))
def test_oracle_agrees_on_one_bank_with_two_rows(mode, bank1_row, order):
    # Each (bank, row) target has its own head: a per-bank or per-row memo
    # would hand one target's head to another. Bank 1's open row makes the
    # head of its target an ACT, a CAS or a PRE. At cycle 0 the clock states
    # leave every command ready, only PREs, only ACTs, or none.
    for cas, pre, act in [(0, 0, 0), (5, 0, 5), (5, 5, 0), (30, 10, 20)]:
        ctrl = _one_bank_two_rows(mode, bank1_row, order)
        ctrl.chan.earliest_rd_cas = ctrl.chan.earliest_wr_cas = cas
        for bank in ctrl.banks:
            bank.earliest_pre, bank.earliest_act = pre, act
        picks = [None, ctrl.select_command()]
        picks += [head(ctrl, req) for req in ctrl.candidate_queue()]
        for chosen in picks:
            assert failure(checks.verify_selection, ctrl, chosen) == \
                failure(full_scan_verify_selection, ctrl, chosen)
        if failure(full_scan_verify_selection, ctrl, None) is None:
            assert full_scan_starts_to_fail_at(
                ctrl, checks.verify_selection(ctrl, None))


# -- mutant controllers: each must trip the oracle ---------------------------

def _selector(rank):
    """A select_command that picks the ready head with the smallest
    ``rank(kind, req)``."""
    def select_command(self):
        ready = []
        for req in self.candidate_queue():
            kind = device.decompose_request(req, self.banks[req.bank])[0]
            if device.command_ready(kind, req.row, self.banks[req.bank],
                                    self.chan, self.timing, self.now):
                ready.append((rank(kind, req), kind, req))
        return min(ready, key=lambda r: r[0])[1:] if ready else None
    return select_command


def _faithful(kind, req):
    return priority_key(kind, req.request_id)


def _youngest_first(kind, req):
    cas, order = _faithful(kind, req)
    return cas, -order


def _rows_over_cas(kind, req):
    cas, order = _faithful(kind, req)
    return 1 - cas, order


def _scenarios():
    return ([harness.preset(name) for name in ("fig2", "fig3", "fig4", "fig5")]
            + [build_adversarial(interferer_kind=kind, seed=seed)
               for kind in GeneratorKind for seed in (0, 1)])


def test_mutant_frame_with_the_true_order_matches_the_controller(monkeypatch):
    specs = _scenarios()
    expected = [run_scenario(spec)[0].to_csv() for spec in specs]
    monkeypatch.setattr(Controller, "select_command", _selector(_faithful))
    assert [run_scenario(spec)[0].to_csv() for spec in specs] == expected


@pytest.mark.parametrize("select_command, message", [
    (_selector(_youngest_first), "over higher-priority"),
    (_selector(_rows_over_cas), "over higher-priority"),
], ids=["youngest-first", "rows-over-cas"])
def test_mutant_controllers_are_caught(monkeypatch, select_command, message):
    specs = _scenarios()
    monkeypatch.setattr(Controller, "select_command", select_command)
    caught = []
    for spec in specs:
        try:
            run_scenario(spec)
        except TraceInvariantError as exc:
            assert message in str(exc)
            caught.append(spec.label)
    assert caught
