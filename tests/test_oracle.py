"""The selection oracle against its full-scan self, and against wrong
controllers.

``full_scan_verify_selection`` below is the oracle as it was before it
stopped at the first unbeatable candidate and before it returned its
first-ready cycle: it scans every queued request on every call. The oracle
must give the same verdict, word for word, on any controller state, and a
controller that breaks FR-FCFS or jumps too far must still be caught.
"""

import collections
from dataclasses import replace

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
    prio = controller.config.prioritized_bank
    best_key = None
    best = None
    for req in controller.candidate_queue():
        bank = controller.banks[req.bank]
        kind = device.decompose_request(req, bank)[0]
        if not device.command_ready(kind, req.row, bank, controller.chan,
                                    controller.timing, controller.now):
            continue
        key = priority_key(kind, req.bank, req.arrival_order, prio)
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
    if best_key < priority_key(kind, req.bank, req.arrival_order, prio):
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
        drain_batch=1, num_banks=num_banks,
        prioritized_bank=draw(st.none() | st.integers(0, num_banks - 1)))
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
        ctrl.enqueue(MemRequest(i, bank % 4, is_write, bank, row))
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


def test_the_scan_stops_only_at_a_cas_on_a_top_rank_bank():
    # The older RD on bank 2 comes first in the queue, but the younger RD on
    # the prioritized bank outranks it.
    ctrl = Controller(make_timing(), SchedulerConfig(prioritized_bank=1),
                      open_rows={1: 1, 2: 1})
    older = MemRequest(0, 2, False, 2, 1)
    younger = MemRequest(1, 1, False, 1, 1)
    ctrl.enqueue(older)
    ctrl.enqueue(younger)
    assert ctrl.select_command() == (CommandKind.RD, younger)
    checks.verify_selection(ctrl, (CommandKind.RD, younger))
    with pytest.raises(TraceInvariantError, match=r"issued RD for request 0 .* "
                       r"over higher-priority RD for request 1 "):
        checks.verify_selection(ctrl, (CommandKind.RD, older))
    with pytest.raises(TraceInvariantError,
                       match="idle although RD for request 1 "):
        checks.verify_selection(ctrl, None)


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


def _one_bank_two_rows(mode, prioritized_bank, order):
    """Bank 0 has row 0 open and bank 1 is closed. The queue holds a row hit
    and a row conflict on bank 0, a repeat of one of them, and a request to
    bank 1 for row 0, in the given order of (bank, row) targets."""
    ctrl = Controller(make_timing(),
                      SchedulerConfig(prioritized_bank=prioritized_bank),
                      open_rows={0: 0}, initial_mode=mode)
    is_write = mode is Mode.WRITE_DRAIN
    for i, (bank, row) in enumerate(order):
        assert ctrl.enqueue(MemRequest(i, i % 4, is_write, bank, row))
    return ctrl


@pytest.mark.parametrize("order", [
    [(0, 1), (0, 0), (0, 1), (1, 0)],
    [(0, 0), (0, 1), (0, 0), (1, 0)],
    [(1, 0), (0, 0), (0, 1), (1, 0)],
    [(1, 0), (0, 1), (0, 0), (0, 1)],
], ids=["conflict-first", "hit-first", "closed-first", "closed-then-conflict"])
@pytest.mark.parametrize("prioritized_bank", [None, 0, 1])
@pytest.mark.parametrize("mode", list(Mode))
def test_oracle_agrees_on_one_bank_with_two_rows(mode, prioritized_bank, order):
    # Each (bank, row) target has its own head: a per-bank or per-row memo
    # would hand one target's head to another. At cycle 0 the clock states
    # leave every command ready, only PREs, only ACTs, or none.
    for cas, pre, act in [(0, 0, 0), (5, 0, 5), (5, 5, 0), (30, 10, 20)]:
        ctrl = _one_bank_two_rows(mode, prioritized_bank, order)
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
    ``rank(kind, req, prioritized_bank)``, and sets next_ready as the real
    one does."""
    def select_command(self):
        ready = []
        self.next_ready = NEVER
        for req in self.candidate_queue():
            kind = self._next_kind(req)
            at = device.earliest_ready(kind, req.row, self.banks[req.bank],
                                       self.chan, self.timing)
            if at > self.now:
                self.next_ready = min(self.next_ready, at)
            else:
                ready.append((rank(kind, req, self.config.prioritized_bank),
                              kind, req))
        return min(ready, key=lambda r: r[0])[1:] if ready else None
    return select_command


def _faithful(kind, req, prio):
    return priority_key(kind, req.bank, req.arrival_order, prio)


def _youngest_first(kind, req, prio):
    cas, bank, order, index = _faithful(kind, req, prio)
    return cas, bank, -order, index


def _ignores_prioritized_bank(kind, req, prio):
    return _faithful(kind, req, None)


def _rows_over_cas(kind, req, prio):
    cas, *rest = _faithful(kind, req, prio)
    return (1 - cas, *rest)


def _one_cycle_late(select_command):
    def late(self):
        chosen = select_command(self)
        if self.next_ready != NEVER:
            self.next_ready += 1
        return chosen
    return late


def _scenarios(prioritized_bank=None):
    specs = [harness.preset(name) for name in ("fig2", "fig3", "fig4", "fig5")]
    specs += [build_adversarial(interferer_kind=kind, seed=seed)
              for kind in GeneratorKind for seed in (0, 1)]
    if prioritized_bank is not None:
        specs = [replace(spec, scheduler=replace(
            spec.scheduler, prioritized_bank=prioritized_bank)) for spec in specs]
    return specs


def test_mutant_frame_with_the_true_order_matches_the_controller(monkeypatch):
    specs = _scenarios() + _scenarios(prioritized_bank=1)
    expected = [run_scenario(spec)[0].to_csv() for spec in specs]
    monkeypatch.setattr(Controller, "select_command", _selector(_faithful))
    assert [run_scenario(spec)[0].to_csv() for spec in specs] == expected


@pytest.mark.parametrize("select_command, prioritized_bank, message", [
    (_selector(_youngest_first), None, "over higher-priority"),
    (_selector(_ignores_prioritized_bank), 1, "over higher-priority"),
    (_selector(_rows_over_cas), None, "over higher-priority"),
    (_one_cycle_late(Controller.select_command), None, "idle although"),
], ids=["youngest-first", "ignores-prioritized-bank", "rows-over-cas",
        "next-ready-one-cycle-late"])
def test_mutant_controllers_are_caught(monkeypatch, select_command,
                                       prioritized_bank, message):
    specs = _scenarios(prioritized_bank)
    monkeypatch.setattr(Controller, "select_command", select_command)
    caught = []
    for spec in specs:
        try:
            run_scenario(spec)
        except TraceInvariantError as exc:
            assert message in str(exc)
            caught.append(spec.label)
    assert caught
