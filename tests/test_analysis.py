import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from dramwc import analysis, harness
from dramwc.analysis import (
    AnalysisInputs,
    kim_baseline_bound,
    per_request_bound,
    read_delays,
    read_queue_delay,
    write_drain_delay,
)
from dramwc.device import make_timing
from dramwc.scheduler import SchedulerConfig
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    MshrFile,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    build_adversarial,
    run_scenario,
)


TIMING = make_timing()


def inputs(**kwargs):
    kwargs.setdefault("timing", TIMING)
    return AnalysisInputs(**kwargs)


class TestReadQueueDelay:
    def test_platform_defaults(self):
        assert read_queue_delay(inputs()) == 30 * 4  # = 120

    def test_zero_prior_reads(self):
        assert read_queue_delay(inputs(max_prior_reads=0)) == 0

    def test_three_prior_reads_match_issue_slip(self):
        # three older pipelined reads push a fourth back by 3 bursts
        assert read_queue_delay(inputs(max_prior_reads=3)) == 12


class TestWriteDrainDelay:
    def test_platform_defaults(self):
        assert write_drain_delay(inputs()) == 4 * 27 + 4  # = 112

    def test_zero_batch_still_pays_turnaround(self):
        assert write_drain_delay(inputs(drain_batch=0)) == 4

    def test_single_write(self):
        assert write_drain_delay(inputs(drain_batch=1)) == 31


class TestPerRequestBound:
    def test_full_bound_cycles_and_ns(self):
        bound = per_request_bound(inputs())
        assert bound.per_request_cycles == 120 + 112 == 232
        assert abs(TIMING.ns(bound.per_request_cycles) - 232 * 1.87) < 1e-9
        assert abs(TIMING.ns(bound.per_request_cycles) - 433.84) <= 0.01

    def test_no_write_queue_variant(self):
        bound = per_request_bound(inputs(), "no_write_queue")
        assert bound.per_request_cycles == read_queue_delay(inputs()) == 120

    def test_zero_counts_leave_turnaround(self):
        bound = per_request_bound(inputs(max_prior_reads=0, drain_batch=0))
        assert bound.per_request_cycles == 4

    def test_unknown_variant(self):
        with pytest.raises(analysis.AnalysisError):
            per_request_bound(inputs(), "fast")

    def test_invalid_inputs(self):
        with pytest.raises(analysis.AnalysisError):
            inputs(max_prior_reads=-1)
        with pytest.raises(analysis.AnalysisError):
            inputs(num_cores=0)
        # None (written -1) means no solo time; any other value is a count
        for solo_cycles in (-5, 0):
            with pytest.raises(analysis.AnalysisError,
                               match=rf"solo_cycles \({solo_cycles}\) must be at least 1"):
                inputs(solo_cycles=solo_cycles)


class TestTotalDelay:
    def test_no_misses(self):
        assert per_request_bound(inputs()).total_cycles == 0
        assert kim_baseline_bound(inputs()).total_cycles == 0

    def test_thousand_misses(self):
        i = inputs(miss_count=1000)
        assert per_request_bound(i).total_cycles == 232_000
        assert per_request_bound(i, "no_write_queue").total_cycles == 120_000

    def test_normalized_slowdown(self):
        # every miss pays the per-request bound once: 232,000 solo cycles
        # plus 1000 x 232 cycles of delay
        i = inputs(miss_count=1000, solo_cycles=232_000)
        rows = analysis.format_bound_table(i).splitlines()
        name, per_request, ns, total, normalized = rows[1].split()
        assert (name, per_request, total) == ("full", "232", "232000")
        assert normalized == "2.00"
        assert rows[3].split()[3:] == ["57000", "1.25"]  # one_request_baseline

    def test_no_solo_time_leaves_normalized_empty(self):
        rows = analysis.format_bound_table(inputs(miss_count=10)).splitlines()
        assert [row.split()[-1] for row in rows[1:]] == ["-", "-", "-"]


class TestBaselineBound:
    def test_single_core_has_no_interference(self):
        assert kim_baseline_bound(inputs(num_cores=1)).per_request_cycles == 0

    def test_default_penalties(self):
        # PRE 1 + ACT tRRD 4 + RD/WR (WL 6 + tBURST 4 + tWTR 4) per competing core
        assert kim_baseline_bound(inputs()).per_request_cycles == 3 * 19 == 57

    def test_follows_trrd(self):
        timing = make_timing({"trrd": 6})
        assert kim_baseline_bound(inputs(timing=timing)).per_request_cycles == 63

    def test_follows_write_latency(self):
        timing = make_timing({"wl": 5})
        assert kim_baseline_bound(inputs(timing=timing)).per_request_cycles == 54

    def test_linear_in_competing_cores(self):
        four = kim_baseline_bound(inputs(num_cores=4)).per_request_cycles
        seven = kim_baseline_bound(inputs(num_cores=7)).per_request_cycles
        assert seven == 2 * four

    def test_independent_of_prior_read_count(self):
        lo = kim_baseline_bound(inputs(max_prior_reads=0))
        hi = kim_baseline_bound(inputs(max_prior_reads=30))
        assert lo == hi

    def test_total_scales_with_misses(self):
        assert kim_baseline_bound(inputs(miss_count=10)).total_cycles == 570


@st.composite
def analysis_params(draw):
    timing = make_timing({
        "tburst": draw(st.integers(1, 16)),
        "trc": draw(st.integers(10, 60)),
        "twtr": draw(st.integers(1, 12)),
        "tfaw": 64,
    })
    return inputs(
        timing=timing,
        max_prior_reads=draw(st.integers(0, 64)),
        drain_batch=draw(st.integers(0, 16)),
        miss_count=draw(st.integers(0, 1000)),
    )


@settings(max_examples=60, deadline=None)
@given(analysis_params())
def test_bound_decomposition_identity(i):
    full = per_request_bound(i, "full")
    nowq = per_request_bound(i, "no_write_queue")
    assert (full.per_request_cycles - nowq.per_request_cycles
            == i.drain_batch * i.timing.trc + i.timing.twtr)


@settings(max_examples=60, deadline=None)
@given(analysis_params(), st.integers(1, 8))
def test_bound_monotone_in_each_input(i, bump):
    base = per_request_bound(i).per_request_cycles
    grown = [
        inputs(timing=i.timing, max_prior_reads=i.max_prior_reads + bump,
               drain_batch=i.drain_batch, miss_count=i.miss_count),
        inputs(timing=i.timing, max_prior_reads=i.max_prior_reads,
               drain_batch=i.drain_batch + bump, miss_count=i.miss_count),
    ]
    for variant in grown:
        assert per_request_bound(variant).per_request_cycles >= base
    total = per_request_bound(i).total_cycles
    assert total == i.miss_count * base
    more_misses = inputs(timing=i.timing, max_prior_reads=i.max_prior_reads,
                         drain_batch=i.drain_batch,
                         miss_count=i.miss_count + bump)
    assert per_request_bound(more_misses).total_cycles >= total


@settings(max_examples=60, deadline=None)
@given(analysis_params())
def test_ns_conversion(i):
    cycles = per_request_bound(i).per_request_cycles
    assert abs(i.timing.ns(cycles) - cycles * i.timing.tck_ns) < 1e-9


class TestForScenario:
    """``AnalysisInputs.for_scenario``: every input from the scenario."""

    def test_inputs_come_from_the_scenario(self):
        spec = replace(harness.live_scenario("stream", n_interferers=2),
                       timing={"trc": 30},
                       scheduler=SchedulerConfig(read_cap=20, drain_batch=3),
                       mshr=MshrConfig(per_core_read_cap=6))
        i = AnalysisInputs.for_scenario(spec)
        assert i.timing == make_timing({"trc": 30})
        assert (i.max_prior_reads, i.drain_batch, i.num_cores) == (12, 3, 3)
        assert (i.miss_count, i.solo_cycles) == (0, None)

    def test_miss_count_is_the_analyzed_cores_completed_reads(self):
        spec = harness.live_scenario("bandwidth_write", latency_budget=7)
        trace, _ = run_scenario(spec)
        assert AnalysisInputs.for_scenario(spec, trace).miss_count == 7

    @pytest.mark.parametrize("kind, staged, own", [
        (None, 1, 0),                                 # one staged read
        (GeneratorKind.LATENCY, 0, 0),                # one dependent read
        (GeneratorKind.LATENCY, 1, 1),                # plus a staged one
        (None, 4, 3),                                 # staged reads queue
        (None, 15, 9),                                # ... up to the cap
        (GeneratorKind.BANDWIDTH_READ, 0, 9),         # a saturating reader
        (GeneratorKind.STREAM, 1, 9),
    ])
    def test_the_analyzed_cores_own_prior_reads(self, kind, staged, own):
        spec = ScenarioSpec(
            generators=[] if kind is None else [GeneratorSpec(kind, core=0, bank=0)],
            prestage=[StagedRequest(False, 0, 0, 1)] * staged
            + [StagedRequest(True, 0, 0, 1)],
            analyzed_core=0,
            num_cores=2,
        )
        assert AnalysisInputs.for_scenario(spec).max_prior_reads == 10 + own


@st.composite
def mshr_configs(draw):
    """MSHR caps, reservations included; the write cap admits a drain batch."""
    return MshrConfig(
        global_read_cap=draw(st.integers(1, 40)),
        global_write_cap=draw(st.integers(SchedulerConfig.drain_batch, 16)),
        per_core_read_cap=draw(st.integers(1, 12)),
        reserve_per_core=draw(st.sampled_from([0, 0, 0, 1, 2, 3])),
    )


def _admitted_interferer_reads(mshr, n):
    """Interferer reads that ``MshrFile.acquire`` admits, counted by
    acquiring them on a fresh MSHR file of n + 1 cores."""
    file, admitted = MshrFile(mshr, num_cores=n + 1), 0
    for core in range(1, n + 1):
        while file.acquire(core, is_write=False):
            admitted += 1
    return admitted


@settings(max_examples=40, deadline=None)
@given(mshr_configs(), st.integers(1, 7), st.sampled_from(list(GeneratorKind)),
       st.sampled_from([0, 0, 1, 2]))
@example(MshrConfig(global_read_cap=1), 3, GeneratorKind.STREAM, 1)  # no room
@example(MshrConfig(reserve_per_core=3), 3, GeneratorKind.STREAM, 0)  # 29 < 30
def test_staged_prior_reads_are_what_the_caps_admit(mshr, n, kind, seed):
    base = ScenarioSpec(mshr=mshr, analyzed_core=0, num_cores=n + 1)
    if mshr.reserve_per_core * (n + 1) > mshr.global_read_cap:
        with pytest.raises(ScenarioError, match="reservations"):
            run_scenario(build_adversarial(interferer_kind=kind, seed=seed,
                                           n_interferers=n, mshr=mshr))
        return
    if mshr.reserve_per_core and (_admitted_interferer_reads(mshr, n)
                                  < base.max_prior_reads()):
        with pytest.raises(ScenarioError, match="capacity for"):
            build_adversarial(interferer_kind=kind, seed=seed, n_interferers=n,
                              mshr=mshr)
        return
    spec = build_adversarial(interferer_kind=kind, seed=seed, n_interferers=n,
                             mshr=mshr)
    prior = AnalysisInputs.for_scenario(spec).max_prior_reads
    assert prior == base.max_prior_reads()
    assert prior <= spec.scheduler.read_cap - 1
    assert prior <= mshr.global_read_cap - 1
    assert prior <= n * mshr.per_core_read_cap
    staged_reads = [r for r in spec.prestage[:-1] if not r.is_write]
    if seed == 0 and kind is not GeneratorKind.LATENCY:
        assert len(staged_reads) == prior  # the canonical worst case
    else:
        assert len(staged_reads) <= prior
    trace, _ = run_scenario(spec)  # admits every staged read; validates the trace
    assert len(read_delays(trace, 0)) == 1
    assert harness.evaluate(trace, spec).violations_full == 0


class TestBenchmarkShape:
    """The scenarios behind the benchmark's digests keep the inputs that
    produced them, so a change that would move a digest fails here first,
    without a simulation. Reservations (0-8 in the live grid) are not
    subtracted from the prior reads."""

    EXPECTED = ((30, 4, 4), (232, 120, 57))

    @staticmethod
    def shape(spec):
        i = AnalysisInputs.for_scenario(spec)
        bounds = tuple(b.per_request_cycles for b in analysis.bound_set(i))
        return (i.max_prior_reads, i.drain_batch, i.num_cores), bounds

    @pytest.mark.parametrize("kind", ["bandwidth_write", "bandwidth_read"])
    def test_live_grid(self, kind):
        for budget in range(10, 25):
            for reserve in range(9):
                spec = harness.live_scenario(
                    kind, 3, 0, latency_budget=budget,
                    mshr=MshrConfig(reserve_per_core=reserve))
                assert self.shape(spec) == self.EXPECTED, (budget, reserve)

    @pytest.mark.parametrize("kind", list(GeneratorKind))
    def test_staged_pool(self, kind):
        for seed in range(128):
            spec = build_adversarial(interferer_kind=kind, seed=seed,
                                     n_interferers=3)
            assert self.shape(spec) == self.EXPECTED, seed


class TestBoundCheck:
    """Measured delays against bounds, through ``read_delays`` and
    ``harness.evaluate``."""

    SOLO = ScenarioSpec(
        open_rows={0: 1},
        prestage=[StagedRequest(False, 0, 0, 1)],
        horizon=200,
        analyzed_core=0,
        num_cores=1,
    )

    def test_solo_run_has_infinite_margin(self):
        trace, _ = run_scenario(self.SOLO)
        assert read_delays(trace, 0) == [0]
        report = harness.evaluate(trace, self.SOLO)
        assert report.measured_max == 0
        assert report.margin_full == report.margin_nowq == math.inf
        assert (report.violations_full == report.violations_nowq
                == report.violations_baseline == 0)

    def test_no_reads_for_core_raises(self):
        trace, _ = run_scenario(self.SOLO)
        with pytest.raises(analysis.AnalysisError, match="no reads"):
            read_delays(trace, 3)

    def test_violations_detected_against_tiny_bound(self):
        # A read queue of 4 admits the 3 prior reads, so the no-write-queue
        # bound is exactly their 12 burst cycles; the fast tRRD, WL and
        # tWTR shrink the one competing core's baseline charge to 8 cycles.
        spec = ScenarioSpec(
            timing={"trrd": 1, "wl": 1, "twtr": 1},
            scheduler=SchedulerConfig(read_cap=4),
            open_rows={0: 1, 1: 2},
            prestage=[StagedRequest(False, 1, 1, 2)] * 3
            + [StagedRequest(False, 0, 0, 1)],
            horizon=300,
            analyzed_core=0,
            num_cores=2,
        )
        trace, _ = run_scenario(spec)
        assert read_delays(trace, 0) == [12]  # three prior bursts of 4 cycles
        report = harness.evaluate(trace, spec)
        assert (report.bound_full, report.bound_nowq, report.bound_baseline) == (
            12 + 4 * 27 + 1, 12, 8)
        assert report.measured_max == 12
        assert report.violations_baseline == 1
        assert report.violations_full == 0
        assert report.violations_nowq == 0  # a delay equal to the bound is safe
        assert report.margin_full == 121 / 12
        assert report.margin_nowq == 1.0

    def test_reduced_scale_bound_covers_small_drain_replay(self):
        # two staged writes and two prior reads stay inside the bound of a
        # scenario whose caps admit exactly that scale
        spec = replace(harness.preset("fig5"),
                       scheduler=SchedulerConfig(drain_batch=2),
                       mshr=MshrConfig(global_read_cap=3))
        reduced = AnalysisInputs.for_scenario(spec)
        assert (reduced.max_prior_reads, reduced.drain_batch) == (2, 2)
        trace, _ = run_scenario(spec)
        report = harness.evaluate(trace, spec)
        assert report.bound_full == per_request_bound(reduced).per_request_cycles == 66
        assert report.violations_full == 0
        assert report.measured_max == 63


class TestReporting:
    def test_bound_rows_quantities(self):
        rows = analysis.bound_rows(inputs(miss_count=10))
        names = [name for name, _, _ in rows]
        assert "per_request_full" in names and "total_baseline" in names
        as_dict = {name: cycles for name, cycles, _ in rows}
        assert as_dict["per_request_full"] == 232
        assert as_dict["per_request_no_write_queue"] == 120
        assert as_dict["per_request_baseline"] == 57

    def test_format_table_contains_slowdown(self):
        table = analysis.format_bound_table(
            inputs(miss_count=1000, solo_cycles=232_000))
        assert "2.00" in table and "one_request_baseline" in table
