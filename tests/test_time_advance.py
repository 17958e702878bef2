"""Quiet cycles and parked generators: ``Controller.run`` against a
per-cycle loop.

``run`` visits every cycle but steps only cycle 0 and those at which a
command is ready or a mode switch is due; a quiet cycle (before the end of
a span that the oracle certified, by a step's idle check or a scan of the
active queue's (bank, row) group heads, and cut short by a scan of each
group opened since) only retires
the burst that ends on it, if one does. ``run`` polls the workload
on cycle 0 and then on the earliest wake that its last poll and the notifies
since returned, notifies it of completions only, and asks whether the run
has ended on cycle 0 and on completion cycles only. ``Workload.poll`` skips a
generator before its ``ready_at`` (a latency probe's is NEVER while its
read is in flight) and one that the MSHR file blocks (it refuses every
request that the generator's next emit would submit first). A blocked
generator is parked: only a completion wakes it, and notify's wake is the
visit after the completion only if the freed entry is still free after
the completing generator's own re-issue, or if that generator is neither
done nor blocked. One that a controller queue refused is not blocked, and
retries on the next visit. ``run_per_cycle`` below steps every cycle,
letting every started, unfinished generator emit, then stepping, notifying
and checking for stalls and the end of the run each time, and is kept here
as the reference that every quiet cycle and every skipped generator must
agree with. The oracle-coverage tests check that each cycle that is not
stepped is idle by a from-scratch scan of every queued request, with no
dedupe, and passes the full-scan reference oracle of ``test_oracle``.
"""

import contextlib
import hashlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dramwc import checks, device
from dramwc.device import CAS_KINDS, DDR3_1066, NEVER, make_timing
from dramwc.harness import live_scenario
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
    MshrFile,
    ScenarioSpec,
    StagedRequest,
    Workload,
    build_adversarial,
    run_scenario,
)
from test_oracle import full_scan_verify_selection, mode_queue


def poll_every_generator(workload, cycle):
    """Reference poll: every started, unfinished generator emits, refused
    at its last emit or not."""
    workload.now = cycle
    for gen in workload.generators:
        if cycle >= gen.spec.start and not gen.done():
            gen.emit(cycle)


def run_per_cycle(ctrl, workload, horizon):
    """Reference run loop: every cycle from 0 to the end of the run."""
    last_progress = 0
    while ctrl.now < horizon:
        cycle = ctrl.now
        poll_every_generator(workload, cycle)
        issued, completed = ctrl.step()
        if completed is not None:
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
                for r in trace.requests]
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
        stall_window=draw(st.sampled_from([5, 6, 8, 20, 100, 10_000])),
        num_banks=num_banks,
    )


@st.composite
def live_specs(draw):
    num_cores = draw(st.integers(1, 4))
    num_rows = draw(st.sampled_from([2, 8, 4096]))
    rows = st.integers(0, min(5, num_rows - 1))  # a row must be one of the scenario's
    generators = []
    for core in range(num_cores):
        if draw(st.integers(0, 4)) == 0:
            continue
        kind = draw(st.sampled_from(list(GeneratorKind)))
        # A bandwidth_write budget is spent in read/write-back pairs.
        step = 2 if kind is GeneratorKind.BANDWIDTH_WRITE else 1
        budgets = st.integers(0, 30 // step).map(lambda n: n * step)
        generators.append(GeneratorSpec(
            kind, core, core,
            row_policy=draw(st.sampled_from(["sequential", "random"])),
            budget=draw(st.none() | budgets),
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
        num_rows=num_rows,
        seed=draw(st.integers(0, 1000)),
    )


@st.composite
def staged_specs(draw):
    spec = build_adversarial(
        interferer_kind=draw(st.sampled_from(list(GeneratorKind))),
        seed=draw(st.integers(0, 300)),
        timing=draw(st.none() | timings()),
    )
    spec.scheduler.stall_window = draw(st.sampled_from([5, 8, 30, 10_000]))
    return spec


# A drain ends after one write with the write queue refilled and no read
# ready yet (tWTR), so the controller returns to write drain on the very next
# cycle, which issues nothing: a mode flip that must not be a quiet cycle.
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

# One example of each kind of refusal: the read queue fills before the
# MSHR file does; the write queue refuses the write-backs; the reservations'
# shared pool runs out before any core reaches its own cap, which parks.
READ_QUEUE_REFUSES = ScenarioSpec(
    label="read-queue-refuses", open_rows={0: 1, 1: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core, core, budget=12)
                for core in (0, 1)],
    scheduler=SchedulerConfig(read_cap=2), horizon=600, num_cores=2)
WRITE_QUEUE_REFUSES = ScenarioSpec(
    label="write-queue-refuses", open_rows={0: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, 0, 0, budget=16)],
    scheduler=SchedulerConfig(write_cap=1, drain_batch=1), horizon=600, num_cores=1)
SHARED_POOL_BINDS = ScenarioSpec(
    label="shared-pool-binds", open_rows={0: 1, 1: 1, 2: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core, core, budget=12)
                for core in range(3)],
    mshr=MshrConfig(global_read_cap=8, per_core_read_cap=5, reserve_per_core=2),
    horizon=600, num_cores=3)
# Every gate of the latency probe at once: a late start, a compute gap after
# each completion, and a two-entry read queue that a saturating reader keeps
# full, so the probe's reads are refused and retried; a stream starts late.
PROBE_GATES = ScenarioSpec(
    label="probe-gates", open_rows={0: 1, 1: 1, 2: 1},
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=20, gap=3, start=7),
                GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 1, 1),
                GeneratorSpec(GeneratorKind.STREAM, 2, 2, start=60)],
    scheduler=SchedulerConfig(read_cap=2), horizon=2000, analyzed_core=0,
    num_cores=3)
# One example for each rule of parking. A done reader's completions free
# entries of the global read cap that a parked reader on another core takes.
GLOBAL_CAP_HANDOVER = ScenarioSpec(
    label="global-cap-handover", open_rows={0: 1, 1: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=4),
                GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 1, 1, budget=12)],
    mshr=MshrConfig(global_read_cap=4, per_core_read_cap=4), horizon=600, num_cores=2)
# A read's completion re-issues the next read, which takes the freed entry
# back, and leaves the stream at a write that the MSHR file admits.
STREAM_TURNS = ScenarioSpec(
    label="stream-turns", open_rows={0: 1},
    generators=[GeneratorSpec(GeneratorKind.STREAM, 0, 0, budget=12,
                              stream_reads=1, stream_writes=1)],
    mshr=MshrConfig(per_core_read_cap=1), horizon=600, num_cores=1)
# A stream at a write while a saturating reader on another core holds the
# global read cap.
STREAM_AT_A_WRITE = ScenarioSpec(
    label="stream-at-a-write", open_rows={0: 1, 1: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=12),
                GeneratorSpec(GeneratorKind.STREAM, 1, 1, budget=12,
                              stream_reads=1, stream_writes=2)],
    mshr=MshrConfig(global_read_cap=3, per_core_read_cap=3), horizon=600, num_cores=2)
# A staged write holds the one write entry, so the write-back of the
# generator's first pair is owed; the staged write's completion frees the
# entry while the generator's read entry is still taken.
DEBT_AFTER_A_STAGED_WRITE = ScenarioSpec(
    label="debt-after-a-staged-write", open_rows={0: 1, 1: 1},
    prestage=[StagedRequest(True, 0, 0, 1)],
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, 1, 1, budget=8)],
    mshr=MshrConfig(global_write_cap=1, per_core_read_cap=1),
    scheduler=SchedulerConfig(write_cap=1, drain_batch=1), horizon=600, num_cores=2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=MODE_FLIP)
@example(spec=NEXT_CYCLE_START)
@example(spec=NEXT_CYCLE_READY)
@example(spec=READ_QUEUE_REFUSES)
@example(spec=WRITE_QUEUE_REFUSES)
@example(spec=SHARED_POOL_BINDS)
@example(spec=PROBE_GATES)
@example(spec=GLOBAL_CAP_HANDOVER)
@example(spec=STREAM_TURNS)
@example(spec=STREAM_AT_A_WRITE)
@example(spec=DEBT_AFTER_A_STAGED_WRITE)
def test_run_matches_the_per_cycle_loop(spec):
    try:
        Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    assert outcome(lambda: run_scenario(spec)) == \
        outcome(lambda: reference(spec))


# Row-hit reads at tCCD 2 < tBURST 4: each RD waits for the data bus, not
# for tCCD, so that gate alone keeps the bursts apart.
BUS_BINDS = ScenarioSpec(
    label="bus-binds", timing={"tccd": 2}, open_rows={0: 1, 1: 1},
    generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core, core, budget=8)
                for core in (0, 1)],
    horizon=400, num_cores=2)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=BUS_BINDS)
@example(spec=build_adversarial(interferer_kind=GeneratorKind.STREAM, seed=4,
                                timing={"tccd": 1, "tburst": 6}))
def test_requests_complete_in_burst_order_one_a_cycle(spec):
    # The controller keeps no record of the requests in flight beyond the
    # trace: the next to complete is the first burst not yet completed.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    ctrl = workload.controller
    try:
        ctrl.run(workload)
    except SimulationStalled:
        pass
    trace = ctrl.trace
    ends = [b.end for b in trace.bursts]
    assert ends == sorted(set(ends))  # one burst ends a cycle at most
    done = [r.completion_cycle for r in trace.completions]
    assert done == sorted(set(done))  # one request completes a cycle at most
    assert trace.completions == [b.request for b in trace.bursts[:len(done)]]
    assert done == ends[:len(done)]
    # and no burst that ended in the run is left unretired
    assert all(end >= ctrl.now for end in ends[len(done):])


# A closed-bank read (ACT at 0, RD ready at tRCD = 7) whose stall guard
# would trip at cycle 7 as well: that visit must be stepped, not retired as
# quiet, or the run stalls.
STALL_AT_FIRST_READY = ScenarioSpec(
    label="stall-at-first-ready", prestage=[StagedRequest(False, 0, 0, 1)],
    scheduler=SchedulerConfig(stall_window=6), horizon=100, num_cores=1)


@contextlib.contextmanager
def recorded_oracle(ctrl):
    """Record both oracle entry points for ``ctrl`` within the block, which
    gets the records, filled in as the run goes: the first maps each
    stepped cycle to the result of the step's check (the first-ready cycle,
    or None after an issue), the second each cycle of one of run's own
    first-ready scans to its result."""
    checks_, scans = {}, {}
    verify, first_ready = checks.verify_selection, checks.first_ready
    in_check = []

    def record_check(controller, chosen):
        in_check.append(True)
        try:
            result = verify(controller, chosen)
        finally:
            in_check.pop()
        if controller is ctrl:
            checks_[controller.now] = result
        return result

    def record_scan(controller, since=0):
        result = first_ready(controller, since)
        if controller is ctrl and not in_check:
            assert controller.now not in scans, "two scans on one visit"
            scans[controller.now] = result
        return result

    with mock.patch.object(checks, "verify_selection", record_check), \
            mock.patch.object(checks, "first_ready", record_scan):
        yield checks_, scans


def run_checking_unstepped_cycles(workload, check):
    """Run ``workload`` and call ``check(controller)`` on each cycle that run
    does not step, in the state in which a step would select (after the
    visit's poll, before its notify). run advances the clock of an
    unstepped cycle at that point, so the call sits in a setter of the
    controller's clock. Every cycle of the run must be stepped or checked."""
    ctrl = workload.controller
    step = Controller.step
    stepped, unstepped = [], []

    def recorded_step(self):
        if self is ctrl:
            stepped.append(self.now)
        return step(self)

    def get_now(self):
        return vars(self)["now"]

    def set_now(self, value):
        now = vars(self).get("now")
        if self is ctrl and (not stepped or stepped[-1] != now):
            check(self)
            unstepped.append(now)
        vars(self)["now"] = value

    with mock.patch.object(Controller, "step", recorded_step), \
            mock.patch.object(Controller, "now", property(get_now, set_now), create=True):
        try:
            ctrl.run(workload)
        except SimulationStalled:
            pass
    assert sorted(stepped + unstepped) == list(range(ctrl.now))


def nothing_queued_is_ready(ctrl):
    """From-scratch reference of an idle cycle: every request of the raw
    active queue, each with its own head from decompose_request and its own
    earliest_ready, with no dedupe, becomes ready only after the clock."""
    for req in mode_queue(ctrl):
        bank = ctrl.banks[req.bank]
        kind = device.decompose_request(req, bank)[0]
        at = device.earliest_ready(kind, req.row, bank, ctrl.chan, ctrl.timing)
        assert at > ctrl.now, \
            f"cycle {ctrl.now}: unstepped, although {checks._command(kind, req)} " \
            f"is ready at {at}"


# A read staged on closed bank 0 (ACT at 0, RD ready at tRCD = 7) and, in
# the span that the visit after the ACT certifies, a probe read that arrives
# at 3: to the open row of bank 1, which opens a new group whose RD is ready
# at once, or to bank 0's row 0, the row that a probe of a closed bank
# reads, which joins the staged read's group.
NEW_GROUP_IN_SPAN = ScenarioSpec(
    label="new-group-in-span", open_rows={1: 1}, prestage=[StagedRequest(False, 0, 0, 1)],
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 1, 1, budget=1, start=3)],
    horizon=100, num_cores=2)
JOIN_GROUP_IN_SPAN = ScenarioSpec(
    label="join-group-in-span", prestage=[StagedRequest(False, 0, 0, 0)],
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=1, start=3)],
    horizon=100, num_cores=1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=MODE_FLIP)
@example(spec=NEXT_CYCLE_START)
@example(spec=NEXT_CYCLE_READY)
@example(spec=STALL_AT_FIRST_READY)
@example(spec=NEW_GROUP_IN_SPAN)
@example(spec=JOIN_GROUP_IN_SPAN)
def test_every_cycle_the_oracle_skips_is_certified_idle(spec):
    # Every cycle that is not stepped is idle by the from-scratch reference,
    # in the state in which a step would select: the arrivals of the visit's
    # poll are queued, whether they joined a group or opened one.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    run_checking_unstepped_cycles(workload, nothing_queued_is_ready)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=MODE_FLIP)
@example(spec=NEXT_CYCLE_START)
@example(spec=NEXT_CYCLE_READY)
@example(spec=STALL_AT_FIRST_READY)
@example(spec=WRITE_QUEUE_REFUSES)
def test_every_unstepped_cycle_passes_the_full_scan(spec):
    # On each cycle that run does not step, no mode switch is due and the
    # full-scan reference oracle finds nothing ready.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return

    def full_scan(ctrl):
        assert ctrl._mode_due() is None, \
            f"cycle {ctrl.now}: unstepped although a mode switch is due"
        full_scan_verify_selection(ctrl, None)
    run_checking_unstepped_cycles(workload, full_scan)


# One read of row 1 staged on closed bank 0.
ONE_CLOSED_READ = ScenarioSpec(prestage=[StagedRequest(False, 0, 0, 1)],
                               horizon=100, num_cores=1)


def test_oracle_checks_only_the_visited_cycles():
    workload = Workload(ONE_CLOSED_READ)
    ctrl = workload.controller
    with recorded_oracle(ctrl) as (checked, scans):
        trace = ctrl.run(workload)
    # ACT at 0; the visit at 1 scans the queue, whose RD is first ready at
    # 7, so cycles 1-6 are quiet; RD at 7; the visit at 8 scans the emptied
    # queue, never ready, so cycles 8-18 are quiet, and the one at the
    # burst's end, 18, retires the read, whose completion ends the run.
    assert [r.cycle for r in trace.issues] == [0, 7]
    assert checked == {0: None, 7: None}
    assert scans == {1: 7, 8: NEVER}
    assert trace.requests[0].completion_cycle == 18


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=READ_QUEUE_REFUSES)
@example(spec=WRITE_QUEUE_REFUSES)
def test_selection_groups_match_the_queues(spec):
    # After every cycle, stepped or quiet, each queue's (bank, row) groups
    # hold exactly its requests to that target, in arrival order, and no
    # group is empty; and the active queue and groups, which select_command
    # and _dequeue read, are the ones that the controller's mode names.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    retire = Controller._retire

    def grouped(queue):
        groups = {}
        for req in queue:
            groups.setdefault((req.bank, req.row), []).append(req.request_id)
        return groups

    def checked_retire(ctrl):
        completed = retire(ctrl)
        for queue, groups in ((ctrl.read_queue, ctrl.read_groups),
                              (ctrl.write_queue, ctrl.write_groups)):
            assert {target: [req.request_id for req in group]
                    for target, group in groups.items()} == grouped(queue)
        reading = ctrl.mode is Mode.READ
        assert ctrl.active_queue is (ctrl.read_queue if reading else ctrl.write_queue)
        assert ctrl.active_groups is (ctrl.read_groups if reading else ctrl.write_groups)
        return completed

    with mock.patch.object(Controller, "_retire", checked_retire):
        try:
            workload.controller.run(workload)
        except SimulationStalled:
            pass


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
def test_every_accepted_request_carries_its_target(spec):
    # The oracle dedupes its scan on the target that enqueue stamps on each
    # request it accepts: one int per (bank, row, is_write), and a
    # different int for each.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    try:
        workload.controller.run(workload)
    except SimulationStalled:
        pass
    num_banks = spec.scheduler.num_banks
    targets = {}
    for req in workload.controller.trace.requests:
        assert type(req.target) is int
        assert req.target == (req.row * num_banks + req.bank) * 2 + req.is_write
        assert targets.setdefault(req.target, (req.bank, req.row, req.is_write)) == \
            (req.bank, req.row, req.is_write)


def emit_stamps(monkeypatch, workload):
    """The trace's (completions, bursts) counts at each emit call of the
    workload's generators, in call order, filled in as the run goes."""
    stamps = []
    trace = workload.controller.trace
    for gen in workload.generators:
        def counted(now, emit=gen.emit):
            stamps.append((len(trace.completions), len(trace.bursts)))
            emit(now)
        monkeypatch.setattr(gen, "emit", counted)
    return stamps


def refusals(monkeypatch):
    """Counts of the submits that the MSHR file and the controller queues
    refuse, filled in as the run goes."""
    refused = {"mshr": 0, "queue": 0}
    acquire, enqueue = MshrFile.acquire, Controller.enqueue

    def counted(name, fn):
        def wrapper(*args):
            accepted = fn(*args)
            refused[name] += not accepted
            return accepted
        return wrapper
    monkeypatch.setattr(MshrFile, "acquire", counted("mshr", acquire))
    monkeypatch.setattr(Controller, "enqueue", counted("queue", enqueue))
    return refused


@pytest.mark.parametrize("spec, refused_by", [
    (READ_QUEUE_REFUSES, "queue"), (WRITE_QUEUE_REFUSES, "queue"),
    (SHARED_POOL_BINDS, "mshr")], ids=["read-queue", "write-queue", "shared-pool"])
def test_the_parking_examples_are_refused_as_named(monkeypatch, spec, refused_by):
    refused = refusals(monkeypatch)
    workload = Workload(spec)
    peak = [0] * spec.num_cores
    acquire = workload.mshr.acquire

    def acquire_and_track(core, is_write):
        accepted = acquire(core, is_write)
        peak[core] = max(peak[core], workload.mshr.reads[core])
        return accepted
    workload.mshr.acquire = acquire_and_track
    workload.controller.run(workload)
    assert refused[refused_by] > 0
    if spec is READ_QUEUE_REFUSES:
        assert refused["mshr"] == 0
    if spec is SHARED_POOL_BINDS:  # no core ever reaches its own cap
        assert refused["queue"] == 0
        assert max(peak) < spec.mshr.per_core_read_cap


def test_a_generator_refused_by_its_core_cap_waits_for_a_completion(monkeypatch):
    # Two reads fill the core's cap; each completion frees one entry, which
    # the completion's own re-issue takes, so every emit is refused. No CAS
    # issue without a completion wakes the generator.
    spec = ScenarioSpec(
        label="core-cap", open_rows={0: 1},
        generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=10)],
        mshr=MshrConfig(per_core_read_cap=2), horizon=600, num_cores=1)
    refused = refusals(monkeypatch)
    workload = Workload(spec)
    stamps = emit_stamps(monkeypatch, workload)
    trace = workload.controller.run(workload)
    assert len(trace.completions) == 10 and refused == {"mshr": len(stamps), "queue": 0}
    completions = [done for done, _ in stamps]
    assert completions == sorted(set(completions))
    assert len(stamps) < trace.total_cycles // 4


def test_a_generator_refused_by_a_full_queue_retries_on_the_next_visit(monkeypatch):
    # A two-entry read queue refuses before the MSHR file does. Queue room
    # grows at a CAS issue, which the workload does not watch, so a
    # queue-refused generator emits again on the very next visit, and the
    # run still matches the loop that polls every generator every cycle.
    spec = ScenarioSpec(
        label="full-queue", open_rows={0: 1},
        generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=10)],
        scheduler=SchedulerConfig(read_cap=2), horizon=600, num_cores=1)
    assert outcome(lambda: run_scenario(spec)) == outcome(lambda: reference(spec))
    refused = refusals(monkeypatch)
    workload = Workload(spec)
    gen, emits = workload.generators[0], []

    def recorded(now, emit=gen.emit):
        before = refused["queue"]
        emit(now)
        emits.append((now, refused["queue"] > before))
    monkeypatch.setattr(gen, "emit", recorded)
    workload.controller.run(workload)
    assert refused["queue"] > 0 and refused["mshr"] == 0
    retries = [(now, later) for (now, queue_refused), (later, _) in zip(emits, emits[1:])
               if queue_refused]
    assert retries and all(later == now + 1 for now, later in retries)


def test_probe_gates_are_pinned(monkeypatch):
    # The latency probe's start, its gap after each completion and its
    # retries on a full queue, pinned by the run's files: 20 probe reads
    # among 119 completions, with 40 of the probe's submits refused.
    refused = []
    enqueue = Controller.enqueue

    def counted(ctrl, req):
        accepted = enqueue(ctrl, req)
        if not accepted:
            refused.append(req.core)
        return accepted
    monkeypatch.setattr(Controller, "enqueue", counted)
    trace, _ = run_scenario(PROBE_GATES)
    assert (trace.total_cycles, len(trace.completions)) == (484, 119)
    assert refused.count(0) == 40
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (trace.to_csv(), trace.stats_text())]
    assert digests == [
        "04c652b18e6797853b96401ba513b7107c323797bc1afecf1930914626f8621c",
        "86e0368dc0dd37c93394d8d4c72a04050f4eeab6f6f2fd4c666f8d33fb526d7b"]


@pytest.mark.parametrize("spec", [
    PROBE_GATES, live_scenario("bandwidth_write", 3, 0, latency_budget=10),
    build_adversarial(GeneratorKind.BANDWIDTH_WRITE)],
    ids=["probe-gates", "live-bandwidth_write", "staged"])
def test_each_hook_runs_only_when_its_inputs_can_have_changed(spec):
    # poll on cycle 0, on the visit after a completion that left an entry
    # of its kind free to its core or left its generator unblocked, when a
    # generator's ready_at comes, or on the visit after a poll in which a
    # controller queue refused a submit, and never for a CAS issue alone; a
    # workload with no generator only on cycle 0. notify on each completion;
    # the end check on cycle 0 and on completion cycles only.
    workload = Workload(spec)
    ctrl, trace, mshr = workload.controller, workload.controller.trace, workload.mshr
    polls, notified, asked, woken = [], [], [], set()
    poll, notify, finished = workload.poll, workload.notify, workload.finished
    enqueue = ctrl.enqueue

    def recorded_poll(now):
        ready = {gen.ready_at for gen in workload.generators}
        polls.append([now, ready, False])
        return poll(now)

    def recorded_enqueue(req):
        accepted = enqueue(req)
        if not accepted and polls and polls[-1][0] == ctrl.now:
            polls[-1][2] = True  # refused within this cycle's poll
        return accepted

    def recorded_notify(now, req):
        notified.append((now, req))
        wake = notify(now, req)
        gen = workload.gen_by_core.get(req.core)
        if mshr.admits(req.core, req.is_write) or (
                gen is not None and not gen.done() and not gen.blocked(mshr.admits)):
            woken.add(now + 1)
        return wake

    def recorded_finished():
        asked.append(ctrl.now - 1)  # the visit has advanced the clock
        return finished()

    with mock.patch.object(workload, "poll", recorded_poll), \
            mock.patch.object(workload, "notify", recorded_notify), \
            mock.patch.object(workload, "finished", recorded_finished), \
            mock.patch.object(ctrl, "enqueue", recorded_enqueue):
        ctrl.run(workload)
    assert notified == [(req.completion_cycle, req) for req in trace.completions]
    completion_cycles = {req.completion_cycle for req in trace.completions}
    assert set(asked) <= {0} | completion_cycles
    assert asked[-1] == trace.total_cycles - 1
    assert polls[0][0] == 0
    after_completion = {cycle + 1 for cycle in completion_cycles}
    retried = {cycle + 1 for cycle, _, queue_refused in polls if queue_refused}
    for cycle, ready, _ in polls[1:]:
        assert cycle in woken or cycle in ready or cycle in retried, \
            f"cycle {cycle}: polled in vain"
    # Visits after a CAS issue with no completion: none is polled for the
    # issue alone.
    cas_only = {rec.cycle + 1 for rec in trace.issues
                if rec.kind in CAS_KINDS} - after_completion - {0}
    assert cas_only
    assert all(cycle in ready or cycle in retried
               for cycle, ready, _ in polls if cycle in cas_only)
    if spec is PROBE_GATES:  # the probe's reads meet a full read queue
        assert retried
    if not spec.generators:
        assert trace.completions and [cycle for cycle, _, _ in polls] == [0]


def test_a_saturated_co_run_polls_only_to_admit_a_request():
    # Three readers sit at their MSHR cap next to the latency probe, so a
    # completion wakes the workload only when an entry stays free or the
    # probe's next read is due: every poll accepts a request.
    spec = live_scenario("bandwidth_read", 3, 0, latency_budget=20)
    workload = Workload(spec)
    ctrl, requests = workload.controller, workload.controller.trace.requests
    poll, accepted = workload.poll, []

    def counted_poll(now):
        before = len(requests)
        wake = poll(now)
        accepted.append((now, len(requests) - before))
        return wake
    with mock.patch.object(workload, "poll", counted_poll):
        ctrl.run(workload)
    assert [(now, n) for now, n in accepted[1:] if not n] == []
    assert len(accepted) == 20
