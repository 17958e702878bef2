import pytest

from dramwc.device import CommandKind, make_timing
from dramwc.scheduler import (
    Controller,
    MemRequest,
    Mode,
    SchedulerConfig,
    SimulationStalled,
    solo_service,
)
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    ScenarioSpec,
    StagedRequest,
    Workload,
    run_scenario,
)


TIMING = make_timing()


def read(rid, core=0, bank=0, row=1, arrival=0):
    return MemRequest(rid, core, False, bank, row, arrival)


def write(rid, core=0, bank=0, row=1, arrival=0):
    return MemRequest(rid, core, True, bank, row, arrival)


class TestEnqueue:
    def test_read_accepted(self):
        ctrl = Controller(TIMING)
        assert ctrl.enqueue(read(0))
        assert len(ctrl.read_queue) == 1

    def test_write_backpressure_at_capacity(self):
        ctrl = Controller(TIMING, SchedulerConfig(write_cap=2, drain_batch=2))
        assert ctrl.enqueue(write(0))
        assert ctrl.enqueue(write(1))
        assert not ctrl.enqueue(write(2))
        assert len(ctrl.write_queue) == 2

    def test_thirty_reads_from_three_cores(self):
        ctrl = Controller(TIMING)
        for i in range(30):
            assert ctrl.enqueue(read(i, core=1 + i % 3, bank=1 + i % 3))
        assert len(ctrl.read_queue) == 30

    def test_arrival_order_monotone(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(write(0))
        ctrl.enqueue(read(1))
        orders = [r.arrival_order for r in ctrl.write_queue + ctrl.read_queue]
        assert orders == [0, 1]

    def test_drain_batch_cannot_exceed_write_cap(self):
        with pytest.raises(ValueError, match="drain_batch"):
            SchedulerConfig(write_cap=2, drain_batch=4)


class TestUpdateMode:
    def test_reads_win_while_write_queue_not_full(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(read(0))
        ctrl.enqueue(write(1))
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ

    def test_full_write_queue_forces_drain(self):
        ctrl = Controller(TIMING, SchedulerConfig(write_cap=2, drain_batch=2))
        ctrl.enqueue(read(0))
        ctrl.enqueue(write(1))
        ctrl.enqueue(write(2))
        ctrl.update_mode()
        assert ctrl.mode is Mode.WRITE_DRAIN
        assert ctrl.drained_in_batch == 0

    def test_idle_reads_lets_writes_run(self):
        ctrl = Controller(TIMING)
        ctrl.enqueue(write(0))
        ctrl.update_mode()
        assert ctrl.mode is Mode.WRITE_DRAIN

    def test_drain_exits_after_batch_with_read_pending(self):
        ctrl = Controller(TIMING, initial_mode=Mode.WRITE_DRAIN)
        ctrl.enqueue(read(0))
        ctrl.enqueue(write(1))
        ctrl.drained_in_batch = 4
        ctrl.update_mode()
        assert ctrl.mode is Mode.READ

    def test_drain_continues_without_pending_read(self):
        ctrl = Controller(TIMING, initial_mode=Mode.WRITE_DRAIN)
        ctrl.enqueue(write(0))
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
        ctrl.enqueue(read(0))
        kind, req = ctrl.select_command()
        assert kind is CommandKind.RD and req.request_id == 0

    def test_older_read_wins_among_ready_cas(self):
        ctrl = Controller(TIMING, open_rows={1: 1, 2: 1})
        ctrl.enqueue(read(0, bank=2))
        ctrl.enqueue(read(1, bank=1))
        _, req = ctrl.select_command()
        assert req.bank == 2

    def test_row_hit_cas_beats_older_ras(self):
        ctrl = Controller(TIMING, open_rows={1: 1, 2: 9})
        ctrl.enqueue(read(0, bank=2, row=5))  # conflict: next command is PRE
        ctrl.enqueue(read(1, bank=1, row=1))  # hit: ready RD
        kind, req = ctrl.select_command()
        assert kind is CommandKind.RD and req.bank == 1

    def test_prioritized_bank_outranks_age(self):
        cfg = SchedulerConfig(prioritized_bank=1)
        ctrl = Controller(TIMING, cfg, open_rows={1: 1, 2: 1})
        ctrl.enqueue(read(0, bank=2))
        ctrl.enqueue(read(1, bank=1))
        _, req = ctrl.select_command()
        assert req.bank == 1

    def test_nothing_ready_returns_none(self):
        ctrl = Controller(TIMING)
        assert ctrl.select_command() is None


class TestStepAndRun:
    def test_idle_step_advances_clock(self):
        ctrl = Controller(TIMING)
        issued, completed = ctrl.step()
        assert issued is None and completed == [] and ctrl.now == 1

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

    def test_idle_controller_jumps_to_a_late_generator(self, monkeypatch):
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
        # idle at 0, the read at 50,000, idle after it; its completion at
        # done is a quiet cycle, retired without a step
        assert stepped == [0, 50_000, 50_001]

    def test_completion_is_burst_end(self):
        ctrl = Controller(TIMING, open_rows={0: 1})
        ctrl.enqueue(read(0))
        while not ctrl.idle():
            ctrl.step()
        # row hit: RD at 0, data burst [cl, cl + tburst)
        assert ctrl.trace.requests[0].completion_cycle == TIMING.cl + TIMING.tburst

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
        ctrl.enqueue(read(0))
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
