"""Quiet cycles and parked generators: ``Controller.run`` against a
per-cycle loop.

``run`` visits every cycle but steps only those at which the selection
state may have changed; a quiet cycle (no arrival since an idle, mode-stable
step, and before the first-ready cycle of that step's oracle check) only
retires the burst that ends on it, if one does. ``run`` polls the workload
on the wake that its last poll returned or after the completion or burst
count moved, notifies it of completions only, and asks whether the run has
ended on cycle 0 and on completion cycles only. ``Workload.poll`` skips a
generator before its ``ready_at`` (a latency probe's is NEVER while its
read is in flight) and one parked after a refused submit.
``run_per_cycle`` below steps every cycle, letting every started,
unfinished generator emit, then stepping, notifying and checking for
stalls and the end of the run each time, and is kept here as the
reference that every quiet cycle and every skipped generator must agree
with. The oracle-coverage test checks that
each cycle the oracle does not check is certified idle by an oracle check
in the same state.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dramwc import checks
from dramwc.device import DDR3_1066, make_timing
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


def poll_every_generator(workload, cycle):
    """Reference poll: every started, unfinished generator emits, parked or
    not."""
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

# Generators parked by each kind of refusal: the read queue fills before the
# MSHR file does; the write queue refuses the write-backs; the reservations'
# shared pool runs out before any core reaches its own cap.
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
# full, so the probe's reads are refused and parked; a stream starts late.
PROBE_GATES = ScenarioSpec(
    label="probe-gates", open_rows={0: 1, 1: 1, 2: 1},
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=20, gap=3, start=7),
                GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 1, 1),
                GeneratorSpec(GeneratorKind.STREAM, 2, 2, start=60)],
    scheduler=SchedulerConfig(read_cap=2), horizon=2000, analyzed_core=0,
    num_cores=3)


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


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=MODE_FLIP)
@example(spec=NEXT_CYCLE_START)
@example(spec=NEXT_CYCLE_READY)
@example(spec=STALL_AT_FIRST_READY)
def test_every_cycle_the_oracle_skips_is_certified_idle(spec):
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
            mock.patch.object(Controller, "enqueue", record_arrival):
        try:
            ctrl.run(workload)
        except SimulationStalled:
            pass
        end = ctrl.now
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


def test_oracle_checks_only_the_visited_cycles(monkeypatch):
    seen = []
    verify = checks.verify_selection
    monkeypatch.setattr(checks, "verify_selection",
                        lambda ctrl, chosen: seen.append(ctrl.now) or verify(ctrl, chosen))
    workload = Workload(ONE_CLOSED_READ)
    trace = workload.controller.run(workload)
    # ACT at 0; cycle 1 idle, first ready 7: cycles 2-6 are quiet; RD at 7;
    # cycle 8 idle, nothing waiting, so nothing is ever ready: cycles 9-18
    # are quiet, and the one at the burst's end, 18, retires the read,
    # whose completion ends the run.
    assert [r.cycle for r in trace.issues] == [0, 7]
    assert seen == [0, 1, 7, 8]
    assert trace.requests[0].completion_cycle == 18


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
@example(spec=READ_QUEUE_REFUSES)
@example(spec=WRITE_QUEUE_REFUSES)
def test_selection_groups_match_the_queues(spec):
    # After every cycle, stepped or quiet, each queue's (bank, row) groups
    # hold exactly its requests to that target, in arrival order, and no
    # group is empty.
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
    # The oracle dedupes its scan on the (bank, row, is_write) target that
    # enqueue stamps on each request it accepts.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    try:
        workload.controller.run(workload)
    except SimulationStalled:
        pass
    for req in workload.controller.trace.requests:
        assert req.target == (req.bank, req.row, req.is_write)


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


def test_a_generator_refused_by_a_full_queue_waits_for_a_cas_issue(monkeypatch):
    # A two-entry read queue refuses before the MSHR file does. Each CAS
    # issue frees an entry and wakes the generator, mostly before the
    # served read completes; a completion wakes it too.
    spec = ScenarioSpec(
        label="full-queue", open_rows={0: 1},
        generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 0, 0, budget=10)],
        scheduler=SchedulerConfig(read_cap=2), horizon=600, num_cores=1)
    refused = refusals(monkeypatch)
    workload = Workload(spec)
    stamps = emit_stamps(monkeypatch, workload)
    workload.controller.run(workload)
    assert refused["queue"] > 0 and refused["mshr"] == 0
    pairs = list(zip(stamps, stamps[1:]))
    assert all(sum(later) > sum(earlier) for earlier, later in pairs)
    assert any(later[0] == earlier[0] for earlier, later in pairs)


def test_probe_gates_are_pinned(monkeypatch):
    # The latency probe's start, its gap after each completion and its
    # parking on a full queue, pinned by the run's files: 20 probe reads
    # among 119 completions, with 39 of the probe's submits refused.
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
    assert refused.count(0) == 39
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (trace.to_csv(), trace.stats_text())]
    assert digests == [
        "04c652b18e6797853b96401ba513b7107c323797bc1afecf1930914626f8621c",
        "86e0368dc0dd37c93394d8d4c72a04050f4eeab6f6f2fd4c666f8d33fb526d7b"]


@pytest.mark.parametrize("spec", [
    PROBE_GATES, live_scenario("bandwidth_write", 3, 0, latency_budget=10)],
    ids=["probe-gates", "live-bandwidth_write"])
def test_each_hook_runs_only_when_its_inputs_can_have_changed(spec):
    # poll on cycle 0, on a visit after the completion or burst count moved,
    # or when a generator's ready_at comes; notify on each completion; the
    # end check on cycle 0 and on completion cycles only.
    workload = Workload(spec)
    ctrl, trace = workload.controller, workload.controller.trace
    polls, notified, asked = [], [], []
    poll, notify, finished = workload.poll, workload.notify, workload.finished

    def recorded_poll(now):
        polls.append((now, len(trace.completions) + len(trace.bursts),
                      {gen.ready_at for gen in workload.generators}))
        return poll(now)

    def recorded_notify(now, req):
        notified.append((now, req))
        notify(now, req)

    def recorded_finished():
        asked.append(ctrl.now - 1)  # the visit has advanced the clock
        return finished()

    with mock.patch.object(workload, "poll", recorded_poll), \
            mock.patch.object(workload, "notify", recorded_notify), \
            mock.patch.object(workload, "finished", recorded_finished):
        ctrl.run(workload)
    assert notified == [(req.completion_cycle, req) for req in trace.completions]
    completion_cycles = {req.completion_cycle for req in trace.completions}
    assert set(asked) <= {0} | completion_cycles
    assert asked[-1] == trace.total_cycles - 1
    assert polls[0][0] == 0
    for (_, before, _), (cycle, room, ready) in zip(polls, polls[1:]):
        assert room != before or cycle in ready, f"cycle {cycle}: polled in vain"
