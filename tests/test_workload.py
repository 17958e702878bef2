import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from dramwc import harness, workload
from dramwc.device import TIMING_KEYS, TimingError, TimingParams, make_timing
from dramwc.keyvalue import InputError, build, codecs, read_lines
from dramwc.scheduler import Mode, SchedulerConfig, SchedulerError
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    MshrFile,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    Workload,
    build_adversarial,
    run_scenario,
    scenario_from_text,
    scenario_to_text,
)


def read_occupancy(trace, num_cores):
    """Per-core read MSHR occupancy at the end of each cycle that changes
    it, as ``(cycle, reads)`` pairs: a read holds its entry from its arrival
    cycle until its completion cycle releases it."""
    reads = [r for r in trace.requests if not r.is_write]
    steps = sorted([(r.arrival_cycle, r.core, 1) for r in reads]
                   + [(r.completion_cycle, r.core, -1) for r in reads
                      if r.completion_cycle is not None])
    held, history = [0] * num_cores, []
    for cycle, core, step in steps:
        held[core] += step
        if history and history[-1][0] == cycle:
            history.pop()
        history.append((cycle, tuple(held)))
    return history


class TestMshrFile:
    def test_acquire_from_idle(self):
        mshr = MshrFile()
        assert mshr.acquire(0, False)
        assert mshr.acquire(0, True)

    def test_per_core_read_cap(self):
        mshr = MshrFile()
        for _ in range(10):
            assert mshr.acquire(1, False)
        assert not mshr.acquire(1, False)

    def test_three_saturated_cores_leave_two_entries(self):
        mshr = MshrFile()
        for core in (1, 2, 3):
            for _ in range(10):
                assert mshr.acquire(core, False)
        assert mshr.acquire(0, False)
        assert mshr.acquire(0, False)
        assert not mshr.acquire(0, False)

    def test_reservation_guarantees_entries(self):
        mshr = MshrFile(MshrConfig(reserve_per_core=8))
        for core in (1, 2, 3):
            granted = sum(mshr.acquire(core, False) for _ in range(12))
            assert granted == 8  # no shared pool remains at 4 x 8
        granted = sum(mshr.acquire(0, False) for _ in range(12))
        assert granted == 8

    def test_reservation_cannot_exceed_global(self):
        with pytest.raises(ScenarioError, match="reservations"):
            MshrFile(MshrConfig(reserve_per_core=9))

    def test_global_write_cap(self):
        mshr = MshrFile(MshrConfig(global_write_cap=2))
        assert mshr.acquire(0, True) and mshr.acquire(1, True)
        assert not mshr.acquire(2, True)

    def test_release_without_acquire_is_fault(self):
        # A simulator bug, not bad input: it must not print as a usage error.
        mshr = MshrFile()
        for is_write in (False, True):
            with pytest.raises(SchedulerError) as exc:
                mshr.release(0, is_write)
            assert not isinstance(exc.value, InputError)

    @settings(max_examples=200, deadline=None)
    @given(num_cores=st.integers(1, 5), per_core=st.integers(1, 12),
           global_cap=st.integers(1, 40), reserve=st.integers(0, 8),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 4)), max_size=120))
    def test_running_totals_match_the_summed_reference(self, num_cores, per_core,
                                                       global_cap, reserve, ops):
        """Read admission by the running totals gives the verdict of the
        formula that sums over cores on every acquire, and ``admits`` asks
        the same question without taking the entry."""
        reserve = min(reserve, global_cap // num_cores)
        cfg = MshrConfig(global_read_cap=global_cap, per_core_read_cap=per_core,
                         reserve_per_core=reserve)
        mshr = MshrFile(cfg, num_cores=num_cores)

        def reference_admits(reads, core):
            if reads[core] >= per_core:
                return False
            if reserve:
                shared = global_cap - reserve * num_cores
                return (reads[core] < reserve
                        or sum(max(0, r - reserve) for r in reads) < shared)
            return sum(reads) < global_cap

        reads = [0] * num_cores
        for is_acquire, core in ops:
            core %= num_cores
            if is_acquire:
                expected = reference_admits(reads, core)
                assert mshr.admits(core, False) == expected
                assert mshr.acquire(core, False) == expected
                reads[core] += expected
            elif reads[core]:
                mshr.release(core, False)
                reads[core] -= 1
            assert mshr.reads == reads
            assert mshr.shared_used == sum(max(0, r - reserve) for r in reads)
            assert mshr.idle() == (not any(reads))


def live_spec(kind, budget=None, horizon=400, track_core=1, **gen_kwargs):
    return ScenarioSpec(
        label="gen-test",
        open_rows={1: 5},
        generators=[GeneratorSpec(kind, core=1, bank=1, budget=budget,
                                  **gen_kwargs)],
        horizon=horizon,
        num_cores=2,
    )


class TestGenerators:
    def test_latency_keeps_one_outstanding(self):
        spec = live_spec(GeneratorKind.LATENCY, budget=10)
        trace, _ = run_scenario(spec)
        assert all(reads[1] <= 1 for _, reads in read_occupancy(trace, 2))
        assert len(trace.completions) == 10

    def test_latency_respects_compute_gap(self):
        fast, _ = run_scenario(live_spec(GeneratorKind.LATENCY, budget=5))
        slow, _ = run_scenario(live_spec(GeneratorKind.LATENCY, budget=5, gap=20))
        last = lambda t: max(r.completion_cycle for r in t.completions)
        assert last(slow) >= last(fast) + 4 * 20

    def test_staged_completion_does_not_reach_the_generator(self):
        # The staged read completes while the generator's first read is in
        # flight; handed to the latency generator, it would let that
        # generator issue a second read before its first one returned.
        spec = ScenarioSpec(
            label="staged-and-generated",
            open_rows={0: 5},
            generators=[GeneratorSpec(GeneratorKind.LATENCY, core=0, bank=0,
                                      budget=3)],
            prestage=[StagedRequest(False, 0, 0, 5)],
            horizon=400,
            num_cores=1,
        )
        trace, _ = run_scenario(spec)
        generated = sorted((r.arrival_cycle, r.completion_cycle)
                           for r in trace.completions if r.request_id > 0)
        assert len(generated) == 3
        assert all(done < arrival for (_, done), (arrival, _)
                   in zip(generated, generated[1:]))
        assert trace.to_csv() == (
            "cycle,event,kind,bank,row,core,request_id\n"
            "0,issue,RD,0,5,0,0\n"
            "4,issue,RD,0,5,0,1\n"
            "11,complete,,0,,0,0\n"
            "15,complete,,0,,0,1\n"
            "16,issue,RD,0,5,0,2\n"
            "27,complete,,0,,0,2\n"
            "28,issue,RD,0,5,0,3\n"
            "39,complete,,0,,0,3\n"
        )

    def test_staged_completion_does_not_count_against_the_budget(self):
        # The run ends once the analyzed core's generator has had its three
        # reads served; the staged read on that core is not one of them.
        spec = ScenarioSpec(
            label="staged-and-analyzed",
            open_rows={0: 5},
            generators=[GeneratorSpec(GeneratorKind.LATENCY, core=0, bank=0,
                                      budget=3)],
            prestage=[StagedRequest(False, 0, 0, 5)],
            horizon=400,
            analyzed_core=0,
            num_cores=1,
        )
        trace, wl = run_scenario(spec)
        assert [r.request_id for r in trace.completions] == [0, 1, 2, 3]
        assert wl.analyzed_left == 0 and trace.total_cycles == 40

    def test_bandwidth_read_fills_per_core_allowance(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_READ, horizon=300)
        trace, _ = run_scenario(spec)
        assert max(reads[1] for _, reads in read_occupancy(trace, 2)) == 10

    def test_bandwidth_write_pairs_reads_and_writes(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_WRITE, budget=40, horizon=3000)
        trace, _ = run_scenario(spec)
        reads = sum(1 for r in trace.completions if not r.is_write)
        writes = sum(1 for r in trace.completions if r.is_write)
        assert reads == writes == 20

    def test_bandwidth_write_owed_write_backs_count_against_the_budget(self):
        # A one-entry write queue refuses most write-backs. Each refused one
        # is owed and already spends budget, so no further pair may start.
        spec = ScenarioSpec(
            label="write-queue-refuses",
            open_rows={0: 1},
            generators=[GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, 0, 0, budget=16)],
            scheduler=SchedulerConfig(write_cap=1, drain_batch=1),
            horizon=600,
            num_cores=1,
        )
        trace, _ = run_scenario(spec)
        writes = sum(r.is_write for r in trace.requests)
        assert (len(trace.requests), writes) == (16, 8)
        assert trace.quiescent

    @pytest.mark.parametrize("budget", [1, 15])
    def test_odd_bandwidth_write_budget_rejected(self, budget):
        # Read/write-back pairs can never spend an odd budget: such a run
        # would never finish its generator and would idle to its horizon.
        with pytest.raises(ScenarioError,
                           match=rf"bandwidth_write budget \({budget}\) must be even"):
            GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, 1, 1, budget=budget)

    def test_kind_given_by_its_value_is_converted(self):
        spec = ScenarioSpec(generators=[GeneratorSpec("stream", 0, 0, budget=3)],
                            num_cores=1)
        assert spec.generators[0].kind is GeneratorKind.STREAM
        assert "kind stream" in scenario_to_text(spec)
        trace, _ = run_scenario(spec)
        assert len(trace.completions) == 3

    def test_odd_budget_rejected_for_a_kind_given_by_its_value(self):
        with pytest.raises(ScenarioError, match="must be even"):
            GeneratorSpec("bandwidth_write", 0, 0, budget=3)

    @pytest.mark.parametrize("kind", ["pointer_chase", None, 2])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ScenarioError, match="unknown generator kind"):
            GeneratorSpec(kind, 0, 0)

    @pytest.mark.parametrize("entry", [
        lambda kind: harness.live_scenario(kind),
        lambda kind: build_adversarial(interferer_kind=kind),
        lambda kind: harness.sweep(kind, 3, [0]),
    ], ids=["live_scenario", "build_adversarial", "sweep"])
    def test_unknown_kind_names_the_choices_at_every_entry_point(self, entry):
        with pytest.raises(ScenarioError, match="unknown generator kind 'nope'; "
                           "choose from latency, bandwidth_read, bandwidth_write, stream"):
            entry("nope")

    def test_stream_ratio_two_to_one(self):
        spec = live_spec(GeneratorKind.STREAM, budget=30, horizon=3000)
        trace, _ = run_scenario(spec)
        reads = sum(1 for r in trace.completions if not r.is_write)
        writes = sum(1 for r in trace.completions if r.is_write)
        assert reads == 20 and writes == 10

    def test_sequential_policy_stays_on_open_row(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_READ, budget=12)
        trace, _ = run_scenario(spec)
        assert {info.row for info in trace.requests} == {5}

    def test_random_policy_spreads_rows(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_READ, budget=12,
                         row_policy="random", horizon=2000)
        trace, _ = run_scenario(spec)
        assert len({info.row for info in trace.requests}) > 1

    @pytest.mark.parametrize("kind,draws", [(GeneratorKind.BANDWIDTH_READ, 40),
                                            (GeneratorKind.BANDWIDTH_WRITE, 20),
                                            (GeneratorKind.STREAM, 40)])
    def test_random_row_is_drawn_once_per_accepted_request(self, kind, draws,
                                                           monkeypatch):
        # A refused submit keeps its row for the next try, so a blocked core
        # draws no extra rows; a read and its write-back share one row.
        drawn = []

        class Recording(random.Random):
            def randrange(self, *args):
                drawn.append(super().randrange(*args))
                return drawn[-1]

        monkeypatch.setattr(workload.random, "Random", Recording)
        spec = live_spec(kind, budget=40, row_policy="random", horizon=3000)
        trace, _ = run_scenario(spec)
        assert len(trace.requests) == 40
        assert len(drawn) == draws
        rows = [req.row for req in trace.requests]
        if kind is GeneratorKind.BANDWIDTH_WRITE:
            assert sorted(rows) == sorted(drawn * 2)
        else:
            assert rows == drawn

    def test_generator_off_its_private_bank_rejected(self):
        spec = ScenarioSpec(
            generators=[GeneratorSpec(GeneratorKind.LATENCY, core=1, bank=1)],
            prestage=[StagedRequest(False, 1, 2, 0)],
            num_cores=2,
        )
        with pytest.raises(ScenarioError, match="private bank"):
            Workload(spec)

    def test_two_generators_on_one_core_rejected(self):
        # Even on the core's own bank, which breaks no bank rule.
        spec = ScenarioSpec(generators=[GeneratorSpec(GeneratorKind.LATENCY, 1, 1),
                                        GeneratorSpec(GeneratorKind.STREAM, 1, 1)])
        with pytest.raises(ScenarioError, match="^core 1 has two generators$"):
            Workload(spec)

    def test_bank_shared_by_two_cores_rejected(self):
        spec = ScenarioSpec(
            prestage=[StagedRequest(False, 1, 1, 5), StagedRequest(False, 2, 1, 6),
                      StagedRequest(False, 0, 0, 3)],
            analyzed_core=0,
        )
        with pytest.raises(ScenarioError, match="cores 1 and 2 share bank 1 but "
                           "partitioning assigns one private bank per core"):
            Workload(spec)
        with pytest.raises(ScenarioError, match="cores 1 and 2 share bank 1"):
            run_scenario(scenario_from_text(scenario_to_text(spec)))

    def test_generator_and_staged_request_of_two_cores_on_one_bank_rejected(self):
        spec = ScenarioSpec(
            generators=[GeneratorSpec(GeneratorKind.LATENCY, core=2, bank=3)],
            prestage=[StagedRequest(True, 1, 3, 0)],
        )
        with pytest.raises(ScenarioError, match="cores 2 and 1 share bank 3"):
            Workload(spec)

    # Each spec is built inside pytest.raises: ScenarioSpec checks its own
    # scalars, Controller the open rows' banks, and Workload every row.
    @pytest.mark.parametrize("spec, match", [
        (partial(ScenarioSpec, generators=[GeneratorSpec(GeneratorKind.LATENCY, 4, 1)]),
         "core 4, bank 1 is outside"),
        (partial(ScenarioSpec, prestage=[StagedRequest(False, 1, 16, 0)]),
         "bank 16 is outside"),
        (partial(ScenarioSpec, open_rows={-1: 3}), "bank -1 is outside"),
        (partial(ScenarioSpec, analyzed_core=4), "core 4 is outside the scenario's 4 cores"),
        (partial(ScenarioSpec, horizon=0), "horizon"),
        (partial(ScenarioSpec, num_rows=8, open_rows={0: 99999}),
         "row 99999 is outside the scenario's 8 rows"),
        (partial(ScenarioSpec, num_rows=8, prestage=[StagedRequest(False, 0, 0, -3)]),
         "row -3 is outside the scenario's 8 rows"),
    ])
    def test_out_of_range_scenario_rejected_before_running(self, spec, match):
        with pytest.raises(ScenarioError, match=match):
            Workload(spec())

    def test_mshr_caps_hold_every_cycle(self):
        spec = ScenarioSpec(
            open_rows={0: 1, 1: 2, 2: 3, 3: 4},
            generators=[
                GeneratorSpec(GeneratorKind.BANDWIDTH_WRITE, core=0, bank=0),
                GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core=1, bank=1),
                GeneratorSpec(GeneratorKind.STREAM, core=2, bank=2),
                GeneratorSpec(GeneratorKind.LATENCY, core=3, bank=3),
            ],
            horizon=1500,
        )
        trace, _ = run_scenario(spec)
        for _, reads in read_occupancy(trace, 4):
            assert all(r <= 10 for r in reads)
            assert sum(reads) <= 32


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), mix=st.lists(st.sampled_from(list(GeneratorKind)),
                                                min_size=1, max_size=3))
def test_random_generator_mixes_keep_all_invariants(seed, mix):
    generators = [
        GeneratorSpec(kind, core=i + 1, bank=i + 1,
                      row_policy="random" if seed % 3 == 0 else "sequential")
        for i, kind in enumerate(mix)
    ]
    spec = ScenarioSpec(
        label="fuzz",
        open_rows={i: 10 + i for i in range(len(mix) + 2)},
        generators=generators,
        horizon=600,
        num_cores=len(mix) + 1,
        seed=seed,
    )
    trace, _ = run_scenario(spec)
    for _, reads in read_occupancy(trace, spec.num_cores):
        assert all(r <= 10 for r in reads) and sum(reads) <= 32


class TestBlocked:
    """A generator is blocked when the MSHR file refuses every request that
    its next emit would submit first."""

    def generator(self, kind, **gen_kwargs):
        # One read entry and one write entry for core 0; core 1 takes them.
        wl = Workload(ScenarioSpec(
            generators=[GeneratorSpec(kind, 0, 0, **gen_kwargs)], num_cores=2,
            mshr=MshrConfig(global_read_cap=2, per_core_read_cap=1, global_write_cap=1)))
        return wl.gen_by_core[0], wl.mshr

    def test_latency_probe_is_blocked_by_a_refused_read(self):
        gen, mshr = self.generator(GeneratorKind.LATENCY)
        mshr.acquire(1, True)
        assert not gen.blocked(mshr.admits)
        mshr.acquire(0, False)
        assert gen.blocked(mshr.admits)

    @pytest.mark.parametrize("debt, write_cap_full, blocked", [
        ([], False, True), ([], True, True), ([7], False, False), ([7], True, True)],
        ids=["no-debt", "no-debt-cap-full", "debt", "debt-cap-full"])
    def test_bandwidth_write_with_its_read_refused(self, debt, write_cap_full, blocked):
        gen, mshr = self.generator(GeneratorKind.BANDWIDTH_WRITE)
        gen.write_debt = debt
        mshr.acquire(0, False)
        if write_cap_full:
            mshr.acquire(1, True)
        assert gen.blocked(mshr.admits) is blocked

    def test_bandwidth_write_with_its_read_admitted_is_not_blocked(self):
        gen, mshr = self.generator(GeneratorKind.BANDWIDTH_WRITE)
        gen.write_debt = [7]
        mshr.acquire(1, True)
        assert not gen.blocked(mshr.admits)

    @pytest.mark.parametrize("pos, taken, blocked", [
        (0, [], False), (0, [(1, True)], False), (0, [(0, False)], True),
        (2, [], False), (2, [(0, False)], False), (2, [(1, True)], True)],
        ids=["read", "read-write-cap-full", "read-refused",
             "write", "write-read-cap-full", "write-refused"])
    def test_stream_is_judged_by_its_next_pattern_entry(self, pos, taken, blocked):
        gen, mshr = self.generator(GeneratorKind.STREAM)  # read, read, write
        gen.pos = pos
        for core, is_write in taken:
            mshr.acquire(core, is_write)
        assert gen.blocked(mshr.admits) is blocked


class TestEndOfRun:
    def spec(self, budget, analyzed_core=0):
        return ScenarioSpec(
            label="end-rule",
            open_rows={0: 5, 1: 6},
            generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=budget),
                        GeneratorSpec(GeneratorKind.BANDWIDTH_READ, 1, 1)],
            horizon=2000,
            analyzed_core=analyzed_core,
            num_cores=2,
        )

    def test_run_ends_when_the_analyzed_budget_is_served(self):
        trace, _ = run_scenario(self.spec(budget=4))
        done = [r for r in trace.completions if r.core == 0]
        assert len(done) == 4
        assert trace.total_cycles == done[-1].completion_cycle + 1
        assert not trace.quiescent  # the co-runner is still busy

    def test_without_an_analyzed_budget_the_run_reaches_the_horizon(self):
        for spec in (self.spec(budget=None), self.spec(budget=4, analyzed_core=None)):
            trace, _ = run_scenario(spec)
            assert trace.total_cycles == 2000

    def test_a_run_of_budgeted_sources_ends_once_they_are_served(self):
        # Without an analyzed core, it ends on the cycle of its last
        # completion: every generator is done and the controller is idle.
        spec = self.spec(budget=4, analyzed_core=None)
        spec.generators[1].budget = 6
        trace, _ = run_scenario(spec)
        assert len(trace.completions) == 10
        assert trace.total_cycles == trace.completions[-1].completion_cycle + 1 < 2000
        assert trace.quiescent

    def test_zero_budget_on_the_analyzed_core_is_rejected(self):
        # It would end the run at cycle 0, before any request is served.
        with pytest.raises(ScenarioError,
                           match="analyzed core 0 has a generator with budget 0"):
            Workload(self.spec(budget=0))
        # On a core that is not analyzed, a zero budget just idles the core.
        trace, _ = run_scenario(self.spec(budget=0, analyzed_core=None))
        assert trace.total_cycles == 2000
        assert not [r for r in trace.requests if r.core == 0]


class TestAdversarial:
    def test_canonical_stages_full_batch_and_reads(self):
        spec = build_adversarial(interferer_kind=GeneratorKind.BANDWIDTH_WRITE)
        writes = [p for p in spec.prestage if p.is_write]
        reads = [p for p in spec.prestage if not p.is_write]
        assert len(writes) == 4
        assert len(reads) == 31  # 30 prior + the analyzed read
        assert spec.prestage[-1].core == 0  # analyzed read arrives last
        assert len({w.bank for w in writes}) == 1  # one bank, full row cycles
        rows = {w.row for w in writes}
        assert len(rows) == 4 and spec.open_rows[writes[0].bank] not in rows

    def test_read_only_kinds_stage_no_writes(self):
        for kind in (GeneratorKind.BANDWIDTH_READ, GeneratorKind.LATENCY):
            spec = build_adversarial(interferer_kind=kind, seed=3)
            assert not any(p.is_write for p in spec.prestage)

    @pytest.mark.parametrize("kind", [GeneratorKind.BANDWIDTH_WRITE,
                                      GeneratorKind.STREAM])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_write_batch_the_mshr_file_cannot_hold_rejected(self, kind, seed):
        # A random seed may stage fewer writes, but the same caps are refused.
        with pytest.raises(ScenarioError, match=r"MSHR write capacity \(2\) cannot "
                           r"hold a staged write batch of up to 4 writes"):
            build_adversarial(interferer_kind=kind, seed=seed,
                              mshr=MshrConfig(global_write_cap=2))

    @pytest.mark.parametrize("kind", [GeneratorKind.BANDWIDTH_READ,
                                      GeneratorKind.LATENCY])
    def test_read_only_kinds_need_no_write_capacity(self, kind):
        run_scenario(build_adversarial(interferer_kind=kind, seed=1,
                                       mshr=MshrConfig(global_write_cap=1)))

    def test_seed_determinism(self):
        a = build_adversarial(interferer_kind="stream", seed=11)
        b = build_adversarial(interferer_kind="stream", seed=11)
        assert a == b

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_interferers": 0}, r"n_interferers \(0\) must be at least 1"),
        ({"n_interferers": -1}, r"n_interferers \(-1\) must be at least 1"),
    ])
    def test_core_outside_the_scenario_rejected(self, kwargs, match):
        # No bare IndexError for zero interferers.
        with pytest.raises(ScenarioError, match=match):
            build_adversarial(**kwargs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_randomized_variants_respect_caps(self, seed):
        spec = build_adversarial(interferer_kind=GeneratorKind.STREAM, seed=seed)
        writes = [p for p in spec.prestage if p.is_write]
        reads = [p for p in spec.prestage if not p.is_write]
        assert len(writes) <= 4
        assert len(reads) <= 31
        for core in (1, 2, 3):
            assert sum(1 for r in reads if r.core == core) <= 10
        # staging must be admissible against queue and MSHR capacities
        Workload(spec)


class TestScenarioFiles:
    def roundtrip(self, spec):
        text = scenario_to_text(spec)
        parsed = scenario_from_text(text)
        assert scenario_to_text(parsed) == text
        return parsed

    def test_prestage_roundtrip(self):
        spec = build_adversarial(interferer_kind="bandwidth_write", seed=5)
        parsed = self.roundtrip(spec)
        assert parsed.prestage == spec.prestage
        assert parsed.open_rows == spec.open_rows
        assert parsed.initial_mode == spec.initial_mode
        assert parsed.analyzed_core == spec.analyzed_core

    def test_generator_roundtrip(self):
        spec = ScenarioSpec(
            label="gens",
            generators=[
                GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=7, gap=3),
                GeneratorSpec(GeneratorKind.STREAM, 1, 1, stream_reads=3,
                              stream_writes=2, start=40),
            ],
            open_rows={0: 1, 1: 2},
        )
        parsed = self.roundtrip(spec)
        assert parsed.generators == spec.generators

    def test_parsed_scenario_runs_identically(self):
        spec = build_adversarial(interferer_kind="stream", seed=9)
        parsed = scenario_from_text(scenario_to_text(spec))
        a, _ = run_scenario(spec)
        b, _ = run_scenario(parsed)
        assert a.to_csv() == b.to_csv()


# Emitted scenarios the fault table and the fuzz test start from.
EMITTED = (
    [scenario_to_text(harness.preset(name)) for name in ("fig2", "fig3", "fig4", "fig5")]
    + [scenario_to_text(build_adversarial(interferer_kind=kind, seed=seed))
       for kind in GeneratorKind for seed in (0, 1, 7)]
    + [scenario_to_text(harness.live_scenario(kind, 2, seed=1, latency_budget=5))
       for kind in GeneratorKind]
)
LIVE = scenario_to_text(harness.live_scenario("stream", 1, latency_budget=5))
WRITER = scenario_to_text(live_spec(GeneratorKind.BANDWIDTH_WRITE, budget=16))
STAGED = scenario_to_text(harness.preset("fig5"))
# Generators on cores 0 and 1, and staged reads of core 2 and of core 1.
MIXED = scenario_to_text(ScenarioSpec(
    label="mixed",
    open_rows={0: 5, 1: 6, 2: 7},
    generators=[GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=5),
                GeneratorSpec(GeneratorKind.STREAM, 1, 1)],
    prestage=[StagedRequest(False, 2, 2, 7), StagedRequest(False, 1, 1, 6)],
    analyzed_core=0, num_cores=3))

# (base text, {line: replacement} applied to the first equal lines, and
# whether the error names that line, its section header, or the line of the
# given text)
FAULTS = {
    "misspelled key": (LIVE, {"drain_batch 4": "drain_bach 8"}, "line"),
    "negative budget": (LIVE, {"budget 5": "budget -5"}, "line"),
    "misspelled row policy": (LIVE, {"row_policy sequential": "row_policy seqential"},
                              "line"),
    "extra token": (LIVE, {"seed 0": "seed 0 extra"}, "line"),
    "unknown scalar": (LIVE, {"seed 0": "sead 3"}, "line"),
    "mshr typo": (LIVE, {"per_core_read_cap 10": "per_core_raed_cap 10"}, "line"),
    "key without value": (LIVE, {"horizon 60000": "horizon"}, "line"),
    "empty stream pattern": (LIVE, {"stream_reads 2": "stream_reads 0",
                                    "stream_writes 1": "stream_writes 0"},
                             "stream_writes 0"),
    "generator core out of range": (LIVE, {"core 1": "core 2"}, "header"),
    "bool out of range": (LIVE, {"partitioning 1": "partitioning 2"}, "line"),
    "repeated fixed line": (LIVE, {"partitioning 1": "prioritized_bank -1"}, "line"),
    "unknown timing key": (LIVE, {"trp 7": "trq 7"}, "line"),
    "inconsistent timing": (LIVE, {"trc 27": "trc 5"}, "line"),
    "infinite tck": (LIVE, {"tck_ns 1.87": "tck_ns inf"}, "line"),
    "odd bandwidth_write budget": (WRITER, {"budget 16": "budget 15"}, "line"),
    "non-numeric value": (LIVE, {"horizon 60000": "horizon x"}, "line"),
    "repeated key": (LIVE, {"num_rows 4096": "num_cores 2"}, "line"),
    "zero read cap": (LIVE, {"read_cap 32": "read_cap 0"}, "line"),
    "zero mshr cap": (LIVE, {"per_core_read_cap 10": "per_core_read_cap 0"}, "line"),
    "short prestage line": (STAGED, {"read 1 1 15": "read 1 1"}, "line"),
    "short bank line": (STAGED, {"1 15": "1"}, "line"),
    "long prestage line": (STAGED, {"read 1 1 15": "read 1 1 15 9"}, "line"),
    "long bank line": (STAGED, {"1 15": "1 15 3"}, "line"),
    "bank row not an integer": (STAGED, {"1 15": "1 x"}, "line"),
    "staged row not an integer": (STAGED, {"read 1 1 15": "read 1 1 1.5"}, "line"),
    "staged core not an integer": (STAGED, {"read 1 1 15": "read one 1 15"}, "line"),
    "open row out of range": (STAGED, {"1 15": "1 4096"}, "line"),
    "staged row out of range": (STAGED, {"read 1 1 15": "read 1 1 4096"}, "line"),
    "negative staged row": (STAGED, {"read 1 1 15": "read 1 1 -3"}, "line"),
    "unknown section": (STAGED, {"[mshr]": "[msrh]"}, "line"),
    "repeated section": (STAGED, {"[banks]": "[mshr]"}, "line"),
    "zero horizon": (STAGED, {"horizon 300": "horizon 0"}, "line"),
    "zero rows": (STAGED, {"num_rows 4096": "num_rows 0"}, "line"),
    "zero cores": (STAGED, {"num_cores 4": "num_cores 0"}, "line"),
    "analyzed core out of range": (STAGED, {"analyzed_core 0": "analyzed_core 9"}, "line"),
    "over-reserved mshr": (LIVE, {"reserve_per_core 0": "reserve_per_core 17"}, "header"),
    "bank shared by two cores": (STAGED, {"read 2 2 25": "read 2 1 25"}, "line"),
    "two generators on one core": (LIVE, {"core 1": "core 0"}, "header"),
    "zero analyzed budget": (LIVE, {"budget 5": "budget 0"}, "header"),
    "generator without kind": (LIVE, {"kind latency": ""}, "header"),
    # the second generator takes the first one's bank
    "generator on another core's generator bank": (LIVE, {"bank 1": "bank 0"}, "header"),
    "staged request on another core's generator bank": (
        MIXED, {"read 2 2 7": "read 2 1 7"}, "line"),
    "staged request moves a generator's core to a second bank": (
        MIXED, {"read 1 1 6": "read 1 3 6"}, "line"),
    # the second staged write, and the third staged read, are refused
    "staged writes over the mshr cap": (
        STAGED, {"global_write_cap 16": "global_write_cap 1"}, "write 3 3 37"),
    "staged reads over the read queue": (
        STAGED, {"read_cap 32": "read_cap 2"}, "read 0 0 5"),
}


@pytest.mark.parametrize("label", ["", "my run", " lead", "tab\there", "a#b"])
def test_label_that_cannot_be_read_back_rejected(label):
    with pytest.raises(ScenarioError, match="label"):
        ScenarioSpec(label=label)


def test_timing_overrides_are_resolved_when_the_spec_is_built():
    spec = ScenarioSpec(timing={"trc": 30})
    assert spec.timing == make_timing({"trc": 30})
    assert ScenarioSpec().timing == make_timing()
    with pytest.raises(TimingError, match="tRC"):
        ScenarioSpec(timing={"trc": 5})


@pytest.mark.parametrize("value", ["read", Mode.READ, "write_drain"])
def test_initial_mode_given_by_its_value_is_converted(value):
    # A mode given by its value runs the member's schedule: no switch is
    # logged at cycle 0, and the scenario file writes the value back.
    spec = ScenarioSpec(label="mode-value", open_rows={0: 1},
                        prestage=[StagedRequest(w, 0, 0, 1) for w in (False, True)],
                        initial_mode=value, horizon=200, num_cores=1)
    member = Mode(value)
    assert spec.initial_mode is member
    trace, _ = run_scenario(spec)
    reference, _ = run_scenario(replace(spec, initial_mode=member))
    assert trace.to_csv() == reference.to_csv()
    assert trace.mode_switches == reference.mode_switches
    assert f"\ninitial_mode {member.value}\n" in scenario_to_text(spec)


def test_unknown_initial_mode_names_the_choices():
    with pytest.raises(ScenarioError,
                       match="unknown mode 'drain'; choose from read, write_drain"):
        ScenarioSpec(initial_mode="drain")


@pytest.mark.parametrize("make, key", [
    (lambda: SchedulerConfig(read_cap="4"), "read_cap"),
    (lambda: SchedulerConfig(drain_batch=2.0), "drain_batch"),
    (lambda: MshrConfig(per_core_read_cap=True), "per_core_read_cap"),
    (lambda: ScenarioSpec(horizon=1e3), "horizon"),
    (lambda: ScenarioSpec(analyzed_core="0"), "analyzed_core"),
    (lambda: ScenarioSpec(analyzed_core=False), "analyzed_core"),
    (lambda: GeneratorSpec(GeneratorKind.STREAM, 0, 0, budget=True), "budget"),
    (lambda: GeneratorSpec(GeneratorKind.STREAM, 0, 0, budget=4.0), "budget"),
    (lambda: GeneratorSpec(GeneratorKind.STREAM, 0, 0, gap="1"), "gap"),
    (lambda: make_timing({"trp": True}), "trp"),
    (lambda: make_timing({"tck_ns": True}), "tck_ns"),
], ids=["str-cap", "float-batch", "bool-cap", "float-horizon", "str-core", "bool-core",
        "bool-budget", "float-budget", "str-gap", "bool-timing", "bool-tck"])
def test_a_count_that_is_not_an_int_is_a_keyed_input_error(make, key):
    with pytest.raises(InputError) as exc:
        make()
    assert exc.value.keys == (key,)


# Each spec is built inside pytest.raises: ScenarioSpec checks its seed, and
# Workload each placed core, bank and row.
@pytest.mark.parametrize("make, key", [
    (lambda: ScenarioSpec(generators=[GeneratorSpec("latency", "0", 0)]), "core"),
    (lambda: ScenarioSpec(generators=[GeneratorSpec("latency", 0, 0.0)]), "bank"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 0, 0, "1")]), "row"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 0, "0", 1)]), "bank"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, True, 0, 1)]), "core"),
    # The same pair as a valid staged request before it, so True == 1 == 1.0.
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 1, 1, 1),
                                    StagedRequest(False, True, 1, 1)]), "core"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 1, 1, 1),
                                    StagedRequest(False, 1, True, 1)]), "bank"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 1, 1, 1),
                                    StagedRequest(False, 1.0, 1, 1)]), "core"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(False, 1, 1, 1),
                                    StagedRequest(False, 1, 1.0, 1)]), "bank"),
    (lambda: ScenarioSpec(open_rows={"0": 1}), "bank"),
    (lambda: ScenarioSpec(open_rows={0: True}), "row"),
    (lambda: ScenarioSpec(seed=1.5, generators=[GeneratorSpec("latency", 0, 0)]), "seed"),
    (lambda: ScenarioSpec(seed=False), "seed"),
    # A staged request's kind is a bool: "yes" would run as a write and
    # "no" too, and 1 == True.
    (lambda: ScenarioSpec(prestage=[StagedRequest("yes", 0, 0, 1)]), "is_write"),
    (lambda: ScenarioSpec(prestage=[StagedRequest("no", 0, 0, 1)]), "is_write"),
    (lambda: ScenarioSpec(prestage=[StagedRequest(1, 0, 0, 1)]), "is_write"),
], ids=["str-generator-core", "float-generator-bank", "str-staged-row", "str-staged-bank",
        "bool-staged-core", "bool-core-after-its-pair", "bool-bank-after-its-pair",
        "float-core-after-its-pair", "float-bank-after-its-pair", "str-open-bank",
        "bool-open-row", "float-seed", "bool-seed", "yes-is-write", "no-is-write",
        "int-is-write"])
def test_a_placement_that_is_not_an_int_is_a_keyed_scenario_error(make, key):
    kind = "a bool" if key == "is_write" else "an integer"
    with pytest.raises(ScenarioError, match=f"{key} .* must be {kind}") as exc:
        Workload(make())
    assert exc.value.keys == (key,)


def test_a_negative_seed_is_valid():  # ``--seeds`` takes one
    workload = Workload(ScenarioSpec(seed=-1, generators=[GeneratorSpec("latency", 0, 0)]))
    assert workload.spec.seed == -1


def _apply_fault(text, edits, blame):
    lines = text.splitlines()
    first = None
    for old, new in edits.items():
        i = lines.index(old)
        lines[i] = new
        first = i if first is None else first
    if blame == "header":
        first = max(j for j in range(first) if lines[j].startswith("["))
    elif blame != "line":
        first = lines.index(blame)
    return "\n".join(lines) + "\n", first + 1


@pytest.mark.parametrize("name", [*FAULTS, "analyze config typo"])
def test_input_fault_names_its_line(name, tmp_path, capsys):
    if name == "analyze config typo":  # the scenario that analyze reads
        path = tmp_path / "s.txt"
        path.write_text(STAGED.replace("\ndrain_batch ", "\ndrain_bach "))
        with pytest.raises(SystemExit):
            harness.main(["analyze", "--scenario", str(path)])
        lineno = STAGED.splitlines().index("drain_batch 4") + 1
        assert f"line {lineno}: unknown key 'drain_bach'" in capsys.readouterr().err
        return
    text, lineno = _apply_fault(*FAULTS[name])
    with pytest.raises((ScenarioError, TimingError), match=rf"\bline {lineno}\b"):
        scenario_from_text(text)


@pytest.mark.parametrize("name, form", [
    ("short bank line", "bank row"), ("long bank line", "bank row"),
    ("short prestage line", "read|write core bank row"),
    ("long prestage line", "read|write core bank row"),
])
def test_a_line_of_the_wrong_length_names_its_form(name, form):
    text, lineno = _apply_fault(*FAULTS[name])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_text(text)
    assert str(exc.value).startswith(f"line {lineno}: expected '{form}', got ")


@pytest.mark.parametrize("name, message", [
    ("bank row not an integer", "row must be an integer in 'bank row', got 'x'"),
    ("staged row not an integer",
     "row must be an integer in 'read|write core bank row', got '1.5'"),
    ("staged core not an integer",
     "core must be an integer in 'read|write core bank row', got 'one'"),
])
def test_a_token_that_is_not_an_integer_names_its_field(name, message):
    text, lineno = _apply_fault(*FAULTS[name])
    with pytest.raises(ScenarioError) as exc:
        scenario_from_text(text)
    assert str(exc.value) == f"line {lineno}: {message}"
    assert exc.value.keys == (message.split()[0],)


@pytest.mark.parametrize("lines, message", [
    ("trc 5\n", "line 1: tRC (5) must exceed tRP (7)"),
    # trp 30 is already invalid against the default trc of 27
    ("trp 30\ntrc 27\n", "line 1: tRC (27) must exceed tRP (30)"),
    ("trrd 30\ntfaw 40\ntrc 5\n", "line 3: tRC (5) must exceed tRP (7)"),
    # line 1 alone already fails on tRC, but it is line 2 that breaks tFAW
    ("trp 30\ntrrd 30\ntrc 40\n",
     "line 2: tFAW (20) cannot be shorter than tRRD (30)"),
    ("tck_ns 1e400\n", "line 1: tCK (inf) must be positive and finite"),
    # tfaw 1 fails its own check whatever trp and trc read, so it does not
    # make trp's line the one that breaks tRC
    ("trp 7\ntfaw 1\ntrc 5\n", "line 3: tRC (5) must exceed tRP (7)"),
])
def test_build_names_the_line_from_which_the_values_stay_invalid(lines, message):
    # keyvalue.build on the timing keys: a check that reads several keys
    # names the line from which on the values read so far stay invalid.
    table = codecs(TimingParams, TIMING_KEYS)
    with pytest.raises(TimingError) as exc:
        build(list(read_lines(lines)), table, lambda **values: make_timing(values),
              ScenarioError)
    assert str(exc.value) == message


def _mutate(draw, text):
    """One single-line edit of a key, value, bank or prestage line."""
    lines = text.splitlines()
    # Section headers are left alone: dropping an empty section's header
    # leaves an equivalent file, and header faults are in FAULTS.
    editable = [i for i, line in enumerate(lines)
                if line and line[0] not in "#["]
    i = draw(st.sampled_from(editable))
    tokens = lines[i].split()
    op = draw(st.sampled_from(["drop", "add", "misspell", "0", "-5", "x"]))
    if op == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif op == "add":
        tokens.insert(draw(st.integers(0, len(tokens))), "7")
    elif op == "misspell":
        key = tokens[0]
        at = draw(st.integers(0, len(key) - 1))
        if draw(st.booleans()):
            tokens[0] = key[:at] + key[at + 1:]
        else:
            tokens[0] = key[:at] + "q" + key[at:]
    else:
        tokens[draw(st.integers(1, len(tokens) - 1))] = op
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_round_trip_or_raise(data):
    text = _mutate(data.draw, data.draw(st.sampled_from(EMITTED)))
    try:
        spec = scenario_from_text(text)
        Workload(spec)
    except (ScenarioError, TimingError):
        return
    assert scenario_to_text(spec) == text
