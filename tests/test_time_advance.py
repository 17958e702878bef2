"""Next-event time advance: ``Controller.run`` against a per-cycle loop.

``run`` skips the cycles at which nothing can issue, complete, arrive or
switch mode. Of the cycles it visits, it steps only those at which the
selection state may have changed; a quiet cycle (no arrival since an idle,
mode-stable step, and before that step's first-ready cycle) only retires the
bursts that end on it. ``run_per_cycle`` below steps every cycle, polling,
stepping, notifying and checking for stalls and the end of the run each
time, and is kept here as the reference that every skipped span and every
quiet cycle must agree with. The oracle-coverage test checks that each cycle
the oracle does not check is certified idle by an oracle check in the same
state, even when ``select_command`` reports its next-ready cycle late.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dramwc import checks
from dramwc.device import DDR3_1066, NEVER, make_timing
from dramwc.scheduler import (
    Controller,
    Mode,
    SchedulerConfig,
    SimulationStalled,
)
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    ScenarioSpec,
    StagedRequest,
    Workload,
    build_adversarial,
    run_scenario,
)


def run_per_cycle(ctrl, workload, horizon):
    """Reference run loop: every cycle from 0 to the end of the run."""
    last_progress = 0
    while ctrl.now < horizon:
        cycle = ctrl.now
        workload.poll(cycle)
        issued, completed = ctrl.step()
        workload.notify(cycle, completed)
        if issued is not None:
            last_progress = cycle
        elif not ctrl.idle() and cycle - last_progress > ctrl.config.stall_window:
            raise SimulationStalled(
                f"no command issued since cycle {last_progress} "
                f"(reads={len(ctrl.read_queue)}, writes={len(ctrl.write_queue)}, "
                f"mode={ctrl.mode.value})"
            )
        if workload.finished():
            break
    ctrl.trace.total_cycles = ctrl.now
    ctrl.trace.quiescent = ctrl.idle() and workload.exhausted()
    return ctrl.trace


def outcome(run):
    """Everything a run emits, or the message of the stall that ended it.
    Each accepted request's arrival and completion cycles are part of it:
    between them the request holds its MSHR entry."""
    try:
        trace, _ = run()
    except SimulationStalled as exc:
        return f"stalled: {exc}"
    requests = [(r.request_id, r.core, r.is_write, r.arrival_cycle, r.completion_cycle)
                for r in trace.requests.values()]
    return (trace.to_csv(), trace.stats_text(), trace.mode_switches,
            trace.total_cycles, trace.quiescent, requests)


def reference(spec):
    workload = Workload(spec)
    return run_per_cycle(workload.controller, workload, spec.horizon), workload


@st.composite
def timings(draw):
    """Timing sets that make_timing accepts, around the DDR3-1066 values."""
    small = st.integers(1, 12)
    raw = {key: draw(small) for key in DDR3_1066 if key not in ("tck_ns", "trc", "tfaw")}
    raw["trc"] = raw["trp"] + draw(st.integers(1, 30))
    raw["tfaw"] = raw["trrd"] + draw(st.integers(0, 20))
    if draw(st.booleans()):
        raw["twr"] = draw(small)
    if draw(st.booleans()):
        raw["rd_wr_gap"] = draw(st.integers(0, 12))
    make_timing(raw)
    return raw


@st.composite
def schedulers(draw, num_banks=16):
    write_cap = draw(st.integers(1, 16))
    return SchedulerConfig(
        read_cap=draw(st.integers(1, 32)),
        write_cap=write_cap,
        drain_batch=draw(st.integers(1, write_cap)),
        prioritized_bank=draw(st.none() | st.integers(0, num_banks - 1)),
        stall_window=draw(st.sampled_from([5, 6, 8, 20, 100, 10_000])),
        num_banks=num_banks,
    )


@st.composite
def live_specs(draw):
    num_cores = draw(st.integers(1, 4))
    rows = st.integers(0, 5)
    generators = []
    for core in range(num_cores):
        if draw(st.integers(0, 4)) == 0:
            continue
        generators.append(GeneratorSpec(
            draw(st.sampled_from(list(GeneratorKind))), core, core,
            row_policy=draw(st.sampled_from(["sequential", "random"])),
            budget=draw(st.none() | st.integers(0, 30)),
            gap=draw(st.sampled_from([0, 0, 1, 3, 40])),
            start=draw(st.sampled_from([0, 0, 1, 2, 7, 60, 400])),
            stream_reads=draw(st.integers(0, 3)),
            stream_writes=draw(st.integers(1, 2)),
        ))
    reserve = draw(st.integers(0, 2))
    return ScenarioSpec(
        label="advance",
        timing=draw(st.just({}) | timings()),
        scheduler=draw(schedulers(num_banks=draw(st.integers(num_cores, 8)))),
        mshr=MshrConfig(
            global_read_cap=draw(st.integers(max(1, reserve * num_cores), 32)),
            global_write_cap=draw(st.integers(1, 16)),
            per_core_read_cap=draw(st.integers(1, 10)),
            reserve_per_core=reserve,
        ),
        open_rows=draw(st.dictionaries(st.integers(0, num_cores - 1), rows)),
        generators=generators,
        prestage=[StagedRequest(w, core, core, row) for w, core, row in draw(
            st.lists(st.tuples(st.booleans(), st.integers(0, num_cores - 1), rows),
                     max_size=4))],
        initial_mode=draw(st.sampled_from(list(Mode))),
        horizon=draw(st.integers(1, 1500)),
        analyzed_core=draw(st.none() | st.just(0)),
        num_cores=num_cores,
        num_rows=draw(st.sampled_from([2, 8, 4096])),
        seed=draw(st.integers(0, 1000)),
    )


@st.composite
def staged_specs(draw):
    spec = build_adversarial(
        interferer_kind=draw(st.sampled_from(list(GeneratorKind))),
        seed=draw(st.integers(0, 300)),
        timing=draw(st.none() | timings()),
    )
    spec.scheduler.prioritized_bank = draw(st.none() | st.integers(0, 3))
    spec.scheduler.stall_window = draw(st.sampled_from([5, 8, 30, 10_000]))
    return spec


# A drain ends after one write with the write queue refilled and no read
# ready yet (tWTR), so the controller returns to write drain on the very next
# cycle, which issues nothing: a mode flip that a jump must not pass over.
MODE_FLIP = ScenarioSpec(
    label="mode-flip", open_rows={0: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, 0, 0, budget=20)],
    scheduler=SchedulerConfig(write_cap=2, drain_batch=1), horizon=600, num_cores=1)
# A sequential generator starting on the cycle after an idle one, and a
# dependent read whose compute gap ends on the cycle after an idle one.
NEXT_CYCLE_START = ScenarioSpec(
    label="next-cycle-start", open_rows={0: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=3, start=1)],
    horizon=100, num_cores=1)
NEXT_CYCLE_READY = ScenarioSpec(
    label="next-cycle-ready", open_rows={0: 1},
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=3, gap=1)],
    horizon=100, num_cores=1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=MODE_FLIP)
@example(spec=NEXT_CYCLE_START)
@example(spec=NEXT_CYCLE_READY)
def test_run_matches_the_per_cycle_loop(spec):
    try:
        Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    assert outcome(lambda: run_scenario(spec)) == \
        outcome(lambda: reference(spec))


# A closed-bank read (ACT at 0, RD ready at tRCD = 7) whose stall guard
# brings the run to cycle 7 as well: with next_ready reported late, that
# visit must still be stepped, not retired as quiet.
STALL_AT_FIRST_READY = ScenarioSpec(
    label="stall-at-first-ready", prestage=[StagedRequest(False, 0, 0, 1)],
    scheduler=SchedulerConfig(stall_window=6), horizon=100, num_cores=1)


def late_select_command(k):
    """select_command, reporting next_ready k cycles late."""
    select_command = Controller.select_command

    def late(self):
        chosen = select_command(self)
        if self.next_ready != NEVER:
            self.next_ready += k
        return chosen
    return late


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs(), late=st.sampled_from([0, 1, 1000]))
@example(spec=MODE_FLIP, late=1)
@example(spec=NEXT_CYCLE_START, late=1)
@example(spec=NEXT_CYCLE_READY, late=1)
@example(spec=STALL_AT_FIRST_READY, late=1)
def test_every_cycle_the_oracle_skips_is_certified_idle(spec, late):
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    ctrl = workload.controller
    checked = {}  # cycle -> the oracle's result there (first-ready or None)
    arrivals = set()  # the first cycle whose selection sees each arrival
    verify, enqueue = checks.verify_selection, Controller.enqueue

    def record_check(controller, chosen):
        result = verify(controller, chosen)
        if controller is ctrl:
            checked[controller.now] = result
        return result

    def record_arrival(controller, req):
        accepted = enqueue(controller, req)
        if accepted:  # polled before this cycle's step, or notified after it
            arrivals.add(controller.now)
        return accepted

    with mock.patch.object(checks, "verify_selection", record_check), \
            mock.patch.object(Controller, "enqueue", record_arrival), \
            mock.patch.object(Controller, "select_command",
                              late_select_command(late)):
        try:
            ctrl.run(workload)
            end = ctrl.now
        except SimulationStalled:
            end = ctrl.now
        except checks.TraceInvariantError:
            # A late report made a jump pass the first-ready cycle, and the
            # oracle's check before its target caught it: the run is
            # examined up to its last passing check.
            assert late
            end = max(checked) + 1
    last = None  # the oracle's last check before the cycle
    for cycle in range(end):
        if cycle in checked:
            last = cycle
            continue
        assert last is not None and checked[last] is not None, \
            f"cycle {cycle}: unchecked, and no idle check certifies it"
        assert cycle < checked[last], \
            f"cycle {cycle}: unchecked, at or past the first-ready cycle " \
            f"{checked[last]} of the idle check at {last}"
        assert cycle not in arrivals, \
            f"cycle {cycle}: unchecked, although a request arrived"


# One read of row 1 staged on closed bank 0.
ONE_CLOSED_READ = ScenarioSpec(prestage=[StagedRequest(False, 0, 0, 1)],
                               horizon=100, num_cores=1)


def test_overshooting_jump_is_caught_by_the_oracle(monkeypatch):
    # A closed-bank read: ACT at 0, then RD ready at tRCD = 7. A jump target
    # three cycles late is checked at cycle 9, where the RD is ready.
    next_event = Controller._next_event
    monkeypatch.setattr(Controller, "_next_event",
                        lambda self, *args: next_event(self, *args) + 3)
    workload = Workload(ONE_CLOSED_READ)
    with pytest.raises(checks.TraceInvariantError,
                       match=r"cycle 9: idle although .*RD.* is ready"):
        workload.controller.run(workload)


def test_oracle_checks_only_the_visited_cycles(monkeypatch):
    seen = []
    verify = checks.verify_selection
    monkeypatch.setattr(checks, "verify_selection",
                        lambda ctrl, chosen: seen.append(ctrl.now) or verify(ctrl, chosen))
    workload = Workload(ONE_CLOSED_READ)
    trace = workload.controller.run(workload)
    # ACT at 0; cycle 1 idle, first ready 7: jump to 7; RD at 7; cycle 8
    # idle, nothing waiting: jump to the burst's end, 18, a quiet cycle (no
    # arrival since cycle 8, nothing ever ready) that only retires the read;
    # its completion ends the run. No target passes the idle cycle's
    # first-ready cycle, so no jump is re-checked.
    assert [r.cycle for r in trace.issues] == [0, 7]
    assert seen == [0, 1, 7, 8]
    assert trace.requests[0].completion_cycle == 18
