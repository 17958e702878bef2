import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings

from dramwc import checks, device, harness
from dramwc.checks import TraceInvariantError
from dramwc.device import CommandKind, make_timing
from dramwc.scheduler import (
    Controller,
    IssueRecord,
    MemRequest,
    Mode,
    ScheduleTrace,
    SchedulerConfig,
    SchedulerError,
    SimulationStalled,
    solo_service,
)
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    Workload,
    build_adversarial,
    run_scenario,
)
from test_time_advance import live_specs, staged_specs


TIMING = make_timing()


def read(core=0, bank=0, row=1, arrival=0):
    return MemRequest(core, False, bank, row, arrival)


def write(core=0, bank=0, row=1, arrival=0):
    return MemRequest(core, True, bank, row, arrival)


class TestEnqueue:
    def test_read_accepted(self):
        ctrl = Controller(TIMING)
        assert ctrl.enqueue(read())
        assert len(ctrl.read_queue) == 1

    def test_write_backpressure_at_capacity(self):
        ctrl = Controller(TIMING, SchedulerConfig(write_cap=2, drain_batch=2))
        assert ctrl.enqueue(write())
        assert ctrl.enqueue(write())
        refused = write()
        assert not ctrl.enqueue(refused)
        assert len(ctrl.write_queue) == 2
        # A refused request is not numbered, so it can be offered again.
        assert refused.request_id == -1
        assert ctrl.trace.requests == ctrl.write_queue

    def test_thirty_reads_from_three_cores(self):
        ctrl = Controller(TIMING)
        for i in range(30):
            assert ctrl.enqueue(read(core=1 + i % 3, bank=1 + i % 3))
        assert len(ctrl.read_queue) == 30

    def test_arrival_order_monotone(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(write())
        ctrl.enqueue(read())
        ids = [r.request_id for r in ctrl.write_queue + ctrl.read_queue]
        assert ids == [0, 1]
        assert ctrl.trace.requests == ctrl.write_queue + ctrl.read_queue

    def test_a_request_is_accepted_once(self):
        # The controller numbers each request it accepts; the same request
        # offered again would sit in the queues and the trace twice.
        ctrl = Controller(TIMING)
        req = read()
        assert ctrl.enqueue(req)
        with pytest.raises(SchedulerError, match="request 0 is already accepted"):
            ctrl.enqueue(req)
        assert ctrl.read_queue == ctrl.trace.requests == [req]
        assert req.request_id == 0

    def test_bad_config_is_a_keyed_scenario_error(self):
        with pytest.raises(ScenarioError, match=r"read_cap \(0\)") as exc:
            SchedulerConfig(read_cap=0)
        assert exc.value.keys == ("read_cap",)

    def test_drain_batch_cannot_exceed_write_cap(self):
        with pytest.raises(ValueError, match="drain_batch"):
            SchedulerConfig(write_cap=2, drain_batch=4)


class TestUpdateMode:
    def test_reads_win_while_write_queue_not_full(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(read())
        ctrl.enqueue(write())
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ

    def test_one_write_short_of_write_cap_keeps_serving_reads(self):
        # write_cap - 1 queued writes with a read waiting: no drain yet.
        ctrl = Controller(TIMING, SchedulerConfig(write_cap=2, drain_batch=2))
        ctrl.enqueue(read())
        ctrl.enqueue(write())
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ

    def test_full_write_queue_forces_drain(self):
        ctrl = Controller(TIMING, SchedulerConfig(write_cap=2, drain_batch=2))
        ctrl.enqueue(read())
        ctrl.enqueue(write())
        ctrl.enqueue(write())
        ctrl.update_mode()
        assert ctrl.mode is Mode.WRITE_DRAIN
        assert ctrl.drained_in_batch == 0

    def test_idle_reads_lets_writes_run(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(write())
        ctrl.update_mode()
        assert ctrl.mode is Mode.WRITE_DRAIN

    def test_drain_exits_after_batch_with_read_pending(self):
        ctrl = Controller(TIMING, initial_mode=Mode.WRITE_DRAIN)
        ctrl.enqueue(read())
        ctrl.enqueue(write())
        ctrl.drained_in_batch = 4
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ

    def test_drain_continues_without_pending_read(self):
        ctrl = Controller(TIMING, initial_mode=Mode.WRITE_DRAIN)
        ctrl.enqueue(write())
        ctrl.drained_in_batch = 4
        ctrl.update_mode()
        assert ctrl.mode is Mode.WRITE_DRAIN

    def test_drain_exits_when_queue_empty(self):
        ctrl = Controller(TIMING, initial_mode=Mode.WRITE_DRAIN)
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ


class TestSelectCommand:
    def test_single_ready_command(self):
        ctrl = Controller(TIMING, open_rows={0: 1})
        ctrl.enqueue(read())
        kind, req = ctrl.select_command()
        assert kind is CommandKind.RD and req.request_id == 0

    def test_older_read_wins_among_ready_cas(self):
        ctrl = Controller(TIMING, open_rows={1: 1, 2: 1})
        ctrl.enqueue(read(bank=2))
        ctrl.enqueue(read(bank=1))
        _, req = ctrl.select_command()
        assert req.bank == 2

    def test_row_hit_cas_beats_older_ras(self):
        ctrl = Controller(TIMING, open_rows={1: 1, 2: 9})
        ctrl.enqueue(read(bank=2, row=5))  # conflict: next command is PRE
        ctrl.enqueue(read(bank=1, row=1))  # hit: ready RD
        kind, req = ctrl.select_command()
        assert kind is CommandKind.RD and req.bank == 1

    def test_nothing_ready_returns_none(self):
        ctrl = Controller(TIMING)
        assert ctrl.select_command() is None

    def test_a_target_is_served_oldest_first(self, monkeypatch):
        # Selection reads only the head of each (bank, row) group. A CAS for
        # a younger request of the group is a simulator fault, raised at the
        # issue rather than covered up by dropping the head.
        ctrl = Controller(TIMING, open_rows={0: 1})
        older, younger = read(), read()
        ctrl.enqueue(older)
        ctrl.enqueue(younger)
        assert ctrl.select_command() == (CommandKind.RD, older)
        monkeypatch.setattr(checks, "verify_selection", lambda ctrl, chosen: None)
        monkeypatch.setattr(Controller, "select_command",
                            lambda self: (CommandKind.RD, younger))
        with pytest.raises(SchedulerError,
                           match="request 1 served ahead of the older request 0"):
            ctrl.step()


class TestStepAndRun:
    def test_idle_step_advances_clock(self):
        ctrl = Controller(TIMING)
        issued, completed = ctrl.step()
        assert issued is None and completed is None and ctrl.now == 1

    def test_staged_scenario_reaches_quiescence_early(self):
        spec = ScenarioSpec(
            open_rows={0: 1},
            prestage=[StagedRequest(False, 0, 0, 1)],
            horizon=500,
            num_cores=1,
        )
        trace, _ = run_scenario(spec)
        assert trace.quiescent
        assert trace.total_cycles < 500

    def test_stall_guard_trips_on_deadlock(self):
        workload = Workload(ScenarioSpec(
            open_rows={0: 1},
            prestage=[StagedRequest(False, 0, 0, 1)],
            scheduler=SchedulerConfig(stall_window=50),
            horizon=1000,
            num_cores=1,
        ))
        ctrl = workload.controller
        ctrl.banks[0].earliest_rd = 10**9  # unsatisfiable constraint
        with pytest.raises(SimulationStalled, match=r"^no command issued since "
                           r"cycle 0 \(reads=1, writes=0, mode=read\)$"):
            ctrl.run(workload)
        # Raised at cycle 51, the first more than stall_window cycles after
        # cycle 0; the clock has already moved past it.
        assert ctrl.now == 52

    def test_idle_controller_steps_nothing_until_a_late_generator(self, monkeypatch):
        stepped = []
        step = Controller.step
        monkeypatch.setattr(Controller, "step",
                            lambda self: stepped.append(self.now) or step(self))
        spec = ScenarioSpec(
            open_rows={0: 1},
            generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=1,
                                      start=50_000)],
            scheduler=SchedulerConfig(stall_window=10),
            horizon=60_000,
            analyzed_core=0,
            num_cores=1,
        )
        trace, _ = run_scenario(spec)  # no SimulationStalled while idle
        done = 50_000 + TIMING.cl + TIMING.tburst
        assert [r.cycle for r in trace.issues] == [50_000]
        assert trace.requests[0].completion_cycle == done
        # idle at 0, the read at 50,000, idle after it; every other cycle,
        # the completion at done among them, is quiet, retired without a step
        assert stepped == [0, 50_000, 50_001]

    def test_completion_is_burst_end(self):
        ctrl = Controller(TIMING, open_rows={0: 1})
        ctrl.enqueue(read())
        while not ctrl.idle():
            ctrl.step()
        # row hit: RD at 0, data burst [cl, cl + tburst)
        assert ctrl.trace.requests[0].completion_cycle == TIMING.cl + TIMING.tburst

    def test_overlapping_bursts_fail_validation(self, monkeypatch):
        # The controller retires bursts in issue order because every CAS
        # waits for the data bus. With that gate gone from RD, fig2's reads at
        # tCCD 2 overlap on the bus, and the run fails its offline check
        # instead of returning a trace.
        ready = device.earliest_ready

        def rd_ignores_the_bus(kind, row, bank, chan, timing):
            if kind is CommandKind.RD:
                chan = dataclasses.replace(chan, data_bus_free=0)
            return ready(kind, row, bank, chan, timing)

        monkeypatch.setattr(device, "earliest_ready", rd_ignores_the_bus)
        spec = harness.preset("fig2")
        spec.timing = make_timing({"tccd": 2})
        with pytest.raises(TraceInvariantError,
                           match=r"data bursts overlap: \[7,11\) and \[9,13\)"):
            run_scenario(spec)

    def test_write_drain_services_batch_before_reads(self):
        spec = ScenarioSpec(
            open_rows={0: 1, 1: 2},
            prestage=[StagedRequest(True, 1, 1, 2)] * 3
            + [StagedRequest(False, 0, 0, 1)],
            initial_mode=Mode.WRITE_DRAIN,
            horizon=1000,
            num_cores=2,
        )
        trace, _ = run_scenario(spec)
        first_rd = min(r.cycle for r in trace.issues if r.kind is CommandKind.RD)
        last_wr = max(r.cycle for r in trace.issues if r.kind is CommandKind.WR)
        assert last_wr < first_rd


class TestDelays:
    def test_solo_row_hit_read_has_zero_delay(self):
        spec = ScenarioSpec(
            open_rows={0: 1},
            prestage=[StagedRequest(False, 0, 0, 1)],
            horizon=200,
            num_cores=1,
        )
        trace, _ = run_scenario(spec)
        assert trace.per_request_delay(0) == 0

    def test_unknown_request_raises(self):
        spec = ScenarioSpec(open_rows={0: 1},
                            prestage=[StagedRequest(False, 0, 0, 1)],
                            horizon=200, num_cores=1)
        trace, _ = run_scenario(spec)
        with pytest.raises(KeyError):
            trace.per_request_delay(99)

    def test_uncompleted_request_raises(self):
        ctrl = Controller(TIMING, open_rows={0: 1})
        ctrl.enqueue(read())
        with pytest.raises(KeyError, match="no completion"):
            ctrl.trace.per_request_delay(0)

    def test_solo_service_reference_latencies(self):
        # hit: cl + tburst; closed: + trcd; conflict: + trp + trcd
        assert solo_service(TIMING, False, "hit") == 11
        assert solo_service(TIMING, False, "closed") == 18
        assert solo_service(TIMING, False, "conflict") == 25
        assert solo_service(TIMING, True, "hit") == 10  # wl + tburst


class TestTraceOutput:
    def _trace(self):
        spec = ScenarioSpec(
            open_rows={0: 1, 1: 2},
            prestage=[StagedRequest(False, 0, 0, 1),
                      StagedRequest(True, 1, 1, 2)],
            horizon=500,
            num_cores=2,
        )
        trace, _ = run_scenario(spec)
        return trace

    def test_csv_header_and_events(self):
        lines = self._trace().to_csv().splitlines()
        assert lines[0] == "cycle,event,kind,bank,row,core,request_id"
        events = [line.split(",")[1] for line in lines[1:]]
        assert set(events) == {"issue", "complete"}
        complete = next(line for line in lines[1:] if ",complete," in line)
        # completions carry an empty kind and row
        fields = complete.split(",")
        assert fields[2] == "" and fields[4] == ""

    def test_stats_keys(self):
        stats = self._trace().stats_text()
        for key in ("total_cycles", "mode_switches", "core0_completions",
                    "core0_max_delay", "core0_mean_delay"):
            assert key in stats


def csv_reference(trace):
    """to_csv as it was written with one tuple per row and a sort, before it
    merged its two logs."""
    rows = []
    for rec in trace.issues:
        req = rec.request
        rows.append((rec.cycle, 0, req.request_id,
                     f"{rec.cycle},issue,{rec.kind.value},{req.bank},"
                     f"{req.row},{req.core},{req.request_id}"))
    for rec in trace.completions:
        rows.append((rec.completion_cycle, 1, rec.request_id,
                     f"{rec.completion_cycle},complete,,{rec.bank},,"
                     f"{rec.core},{rec.request_id}"))
    rows.sort(key=lambda r: r[:3])
    return "\n".join([trace.CSV_HEADER] + [r[3] for r in rows]) + "\n"


class TestCsvMatchesTheSortedReference:
    def test_a_cycle_with_an_issue_and_two_completions(self):
        trace = ScheduleTrace(TIMING, SchedulerConfig(), Mode.READ)
        done = [MemRequest(rid, False, rid, 1, request_id=rid) for rid in (4, 6, 2)]
        for req, cycle in zip(done, (9, 9, 12)):
            req.completion_cycle = cycle
        trace.completions = done  # in cycle order, as to_csv expects
        issued = MemRequest(3, False, 3, 1, request_id=7)
        trace.issues = [IssueRecord(cycle, CommandKind.RD, issued)
                        for cycle in (2, 9, 10, 14)]
        assert trace.to_csv() == csv_reference(trace)
        assert trace.to_csv().splitlines()[1:] == [
            "2,issue,RD,3,1,3,7",
            "9,issue,RD,3,1,3,7",
            "9,complete,,4,,4,4",
            "9,complete,,6,,6,6",
            "10,issue,RD,3,1,3,7",
            "12,complete,,2,,2,2",
            "14,issue,RD,3,1,3,7",
        ]

    def test_empty_trace(self):
        trace = ScheduleTrace(TIMING, SchedulerConfig(), Mode.READ)
        assert trace.to_csv() == csv_reference(trace) == trace.CSV_HEADER + "\n"

    @pytest.mark.parametrize("kind", list(GeneratorKind), ids=lambda k: k.value)
    def test_staged_worst_cases(self, kind):
        for seed in range(20):
            trace, _ = run_scenario(build_adversarial(interferer_kind=kind, seed=seed))
            assert trace.to_csv() == csv_reference(trace), seed


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=live_specs() | staged_specs())
def test_every_record_points_at_the_request_it_numbers(spec):
    # MemRequest is the one record of a request: enqueue numbers each by its
    # place in trace.requests, and the issue and burst records and the
    # completions point at it instead of copying its fields. to_csv, which
    # reads the fields through those pointers, matches the sorted reference.
    try:
        workload = Workload(spec)
    except ValueError:  # ScenarioError: over-full staging, for one
        return
    try:
        workload.controller.run(workload)
    except SimulationStalled:  # a short stall window; the log so far
        pass
    trace = workload.controller.trace
    requests = trace.requests
    assert [r.request_id for r in requests] == list(range(len(requests)))
    for rec in trace.issues + trace.bursts:
        assert rec.request is requests[rec.request.request_id]
    for req in trace.completions:
        assert req is requests[req.request_id]
    assert trace.to_csv() == csv_reference(trace)
