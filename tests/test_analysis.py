import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from dramwc import analysis, harness
from dramwc.analysis import (
    bounds,
    read_delays,
    read_queue_delay,
    write_drain_delay,
)
from dramwc.device import make_timing
from dramwc.scheduler import SchedulerConfig, solo_service
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
from test_scheduler import solo_delay


TIMING = make_timing()
# The default platform: an analyzed core 0 of four at the default timing,
# controller and MSHR file, with no sources. Its 30 prior reads are what the
# three other cores' MSHR caps admit.
PLATFORM = ScenarioSpec(analyzed_core=0)


def platform(read_cap=32, drain_batch=4, **fields):
    """PLATFORM with a read queue of ``read_cap``, which admits
    ``read_cap - 1`` prior reads up to the MSHR file's 30, and a drain batch
    of ``drain_batch``."""
    return ScenarioSpec(scheduler=SchedulerConfig(read_cap=read_cap, drain_batch=drain_batch),
                        analyzed_core=0, **fields)


def task_totals(spec, trace):
    return {name: cycles for name, cycles, _ in analysis.bound_rows(spec, trace)
            if name.startswith("total_")}


def probe(budget):
    """PLATFORM whose analyzed core runs a lone latency probe of ``budget``
    reads, its run's trace: the bounds stay PLATFORM's."""
    spec = replace(PLATFORM, generators=[
        GeneratorSpec(GeneratorKind.LATENCY, 0, 0, budget=budget)], horizon=100_000)
    trace, _ = run_scenario(spec)
    return spec, trace


class TestReadQueueDelay:
    def test_platform_defaults(self):
        assert read_queue_delay(PLATFORM) == 30 * 4  # = 120

    def test_zero_prior_reads(self):
        assert read_queue_delay(platform(read_cap=1)) == 0
        assert read_queue_delay(platform(num_cores=1)) == 0

    def test_three_prior_reads_match_issue_slip(self):
        # three older pipelined reads push a fourth back by 3 bursts
        assert read_queue_delay(platform(read_cap=4)) == 12


class TestWriteDrainDelay:
    def test_platform_defaults(self):
        assert write_drain_delay(PLATFORM) == 4 * 27 + 4  # = 112

    def test_single_write(self):
        assert write_drain_delay(platform(drain_batch=1)) == 31


class TestPerRequestBound:
    def test_full_bound_cycles_and_ns(self):
        full = bounds(PLATFORM)["full"]
        assert full == 120 + 112 == 232
        assert abs(TIMING.ns(full) - 232 * 1.87) < 1e-9
        assert abs(TIMING.ns(full) - 433.84) <= 0.01

    def test_no_write_queue_variant(self):
        assert bounds(PLATFORM)["no_write_queue"] == read_queue_delay(PLATFORM) == 120

    def test_no_prior_reads_leave_the_drain_term(self):
        # a lone core has no prior reads and no competing core
        assert bounds(platform(drain_batch=1, num_cores=1)) == {
            "full": 27 + 4, "no_write_queue": 0, "baseline": 0}

    def test_a_scenario_without_sources_pays_the_full_write_term(self):
        # Nothing says which cores write back, so every interferer is
        # charged as a writer: a full drain batch of row misses plus the
        # turnaround, as with write-heavy interferers.
        assert not PLATFORM.generators and not PLATFORM.prestage
        writers = harness.live_scenario("bandwidth_write")
        for spec in (PLATFORM, writers):
            per_request = bounds(spec)
            assert per_request["full"] - per_request["no_write_queue"] == 4 * 27 + 4
        assert bounds(PLATFORM)["full"] == 232


class TestTotalDelay:
    def test_no_misses(self):
        # the task totals are left out of the report rows, without a run
        # and with one whose analyzed read did not complete
        assert task_totals(PLATFORM, None) == {}
        spec = replace(TestBoundCheck.SOLO, horizon=5)
        trace, _ = run_scenario(spec)
        assert not trace.completions
        assert task_totals(spec, trace) == {}

    def test_thousand_misses(self):
        spec, trace = probe(1000)
        totals = task_totals(spec, trace)
        assert (totals["total_full"], totals["total_no_write_queue"]) == (232_000, 120_000)


class TestBaselineBound:
    def test_single_core_has_no_interference(self):
        assert bounds(platform(num_cores=1))["baseline"] == 0

    def test_default_penalties(self):
        # PRE 1 + ACT tRRD 4 + RD/WR (WL 6 + tBURST 4 + tWTR 4) per competing core
        assert bounds(PLATFORM)["baseline"] == 3 * 19 == 57

    def test_follows_trrd(self):
        assert bounds(platform(timing={"trrd": 6}))["baseline"] == 63

    def test_follows_write_latency(self):
        assert bounds(platform(timing={"wl": 5}))["baseline"] == 54

    def test_linear_in_competing_cores(self):
        four = bounds(platform(num_cores=4))["baseline"]
        seven = bounds(platform(num_cores=7))["baseline"]
        assert seven == 2 * four

    def test_independent_of_prior_read_count(self):
        lo = bounds(platform(read_cap=1))["baseline"]
        hi = bounds(platform(read_cap=31))["baseline"]
        assert lo == hi

    def test_total_scales_with_misses(self):
        spec, trace = probe(10)
        assert task_totals(spec, trace)["total_baseline"] == 570


# The scenario fields that the bounds read, each drawn from a valid range.
INPUTS = {
    "read_cap": st.integers(1, 64),
    "global_read_cap": st.integers(1, 64),
    "per_core_read_cap": st.integers(1, 16),
    "num_cores": st.integers(1, 8),
    "drain_batch": st.integers(1, 8),  # plus a bump of 8 at most fits write_cap
    "tburst": st.integers(1, 16),
    "trc": st.integers(10, 60),
    "twtr": st.integers(1, 12),
}


def scenario(read_cap, global_read_cap, per_core_read_cap, num_cores, drain_batch,
             tburst, trc, twtr):
    return ScenarioSpec(
        timing={"tburst": tburst, "trc": trc, "twtr": twtr},
        scheduler=SchedulerConfig(read_cap=read_cap, drain_batch=drain_batch),
        mshr=MshrConfig(global_read_cap=global_read_cap,
                        per_core_read_cap=per_core_read_cap),
        analyzed_core=0, num_cores=num_cores)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(INPUTS))
def test_bound_decomposition_identity(values):
    per_request = bounds(scenario(**values))
    assert (per_request["full"] - per_request["no_write_queue"]
            == values["drain_batch"] * values["trc"] + values["twtr"])


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(INPUTS), st.sampled_from(list(INPUTS)), st.integers(1, 8))
def test_bound_monotone_in_each_input(values, name, bump):
    base = bounds(scenario(**values))
    grown = bounds(scenario(**{**values, name: values[name] + bump}))
    assert grown["full"] >= base["full"]
    assert grown["baseline"] >= base["baseline"]


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(INPUTS))
def test_ns_conversion(values):
    spec = scenario(**values)
    cycles = bounds(spec)["full"]
    assert abs(spec.timing.ns(cycles) - cycles * spec.timing.tck_ns) < 1e-9


class TestForScenario:
    """The bounds for a scenario: every input read from its fields."""

    def test_inputs_come_from_the_scenario(self):
        # 12 prior reads (two interferers of 6), a burst of 4, a batch of
        # three row cycles of 30, the turnaround of 4, two competing cores
        spec = replace(harness.live_scenario("stream", n_interferers=2),
                       timing={"trc": 30},
                       scheduler=SchedulerConfig(read_cap=20, drain_batch=3),
                       mshr=MshrConfig(per_core_read_cap=6))
        assert spec.max_prior_reads() == 12
        assert (read_queue_delay(spec), write_drain_delay(spec)) == (12 * 4, 3 * 30 + 4)
        assert bounds(spec)["baseline"] == 2 * 19

    def test_miss_count_is_the_analyzed_cores_completed_reads(self, tmp_path):
        # The task totals of report.csv count the probe's 7 reads, and none
        # of the interferers'.
        report = harness.compare(harness.live_scenario("bandwidth_write", latency_budget=7),
                                 tmp_path)
        assert report.bound_full == 232
        rows = dict(line.split(",", 1)
                    for line in (tmp_path / "report.csv").read_text().splitlines())
        assert rows["total_full"] == "1624,3036.88"  # 7 * 232 cycles

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
        assert spec.max_prior_reads() == 10 + own


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
@example(MshrConfig(global_read_cap=11, global_write_cap=4, per_core_read_cap=5,
                    reserve_per_core=1), 4, GeneratorKind.BANDWIDTH_WRITE, 1)  # uneven draw
def test_staged_prior_reads_are_what_the_caps_admit(mshr, n, kind, seed):
    base = ScenarioSpec(mshr=mshr, analyzed_core=0, num_cores=n + 1)
    if mshr.reserve_per_core * (n + 1) > mshr.global_read_cap:
        with pytest.raises(ScenarioError, match="reservations"):
            run_scenario(build_adversarial(interferer_kind=kind, seed=seed,
                                           n_interferers=n, mshr=mshr))
        return
    # a latency interferer stages one read; the other kinds stage the count
    staged = base.max_prior_reads()
    if kind is GeneratorKind.LATENCY:
        staged = min(n, staged)
    if _admitted_interferer_reads(mshr, n) < staged:
        with pytest.raises(ScenarioError, match="capacity for"):
            build_adversarial(interferer_kind=kind, seed=seed, n_interferers=n,
                              mshr=mshr)
        return
    spec = build_adversarial(interferer_kind=kind, seed=seed, n_interferers=n,
                             mshr=mshr)
    prior = spec.max_prior_reads()
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


def test_every_staged_scenario_is_admitted_by_its_run():
    """A random seed may draw the interferer reads unevenly, so that more of
    them sit beyond the reservations than the shared pool holds. Over a
    slice of caps where that used to happen, every scenario built runs."""
    built = 0
    for global_cap in (10, 11, 12, 13):
        for per_core in (3, 5, 7):
            mshr = MshrConfig(global_read_cap=global_cap, per_core_read_cap=per_core,
                              reserve_per_core=1)
            for n in (4, 5, 6, 7):
                for kind in GeneratorKind:
                    for seed in range(1, 6):
                        try:
                            spec = build_adversarial(interferer_kind=kind, seed=seed,
                                                     n_interferers=n, mshr=mshr)
                        except ScenarioError as exc:
                            assert "capacity for" in str(exc)
                            continue
                        run_scenario(spec)
                        built += 1
    assert built > 800


class TestBenchmarkShape:
    """The scenarios behind the benchmark's digests keep the inputs that
    produced them, so a change that would move a digest fails here first,
    without a simulation. Reservations (0-8 in the live grid) are not
    subtracted from the prior reads."""

    EXPECTED = ((30, 4, 4), (232, 120, 57))

    @staticmethod
    def shape(spec):
        return ((spec.max_prior_reads(), spec.scheduler.drain_batch, spec.num_cores),
                tuple(bounds(spec).values()))

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

    def test_a_read_pending_at_the_end_is_a_censored_delay(self):
        # The run stops at its horizon with one of the probe's reads still
        # pending (at the default timing, its tenth, since cycle 2839): it
        # counts, after the completed ones, with the latency it had reached
        # by the end of the run.
        spec = replace(harness.live_scenario("bandwidth_write", 3, 0), horizon=3000)
        trace, _ = run_scenario(spec)
        [pending] = [req for req in trace.requests
                     if req.core == 0 and not req.is_write and req.completion_cycle is None]
        completed = [solo_delay(trace, req) for req in trace.completions
                     if req.core == 0 and not req.is_write]
        censored = (trace.total_cycles - pending.arrival_cycle
                    - solo_service(trace.timing, False, pending.hit_class))
        assert read_delays(trace, 0) == completed + [censored]

    def test_a_staged_read_cut_by_the_horizon_is_measured(self):
        # Cut before its burst ends, the lone read's delay is censored at
        # the horizon, and a core with no read at all still raises.
        spec = replace(self.SOLO, horizon=5)
        trace, _ = run_scenario(spec)
        assert not trace.completions
        assert read_delays(trace, 0) == [5 - solo_service(trace.timing, False, "hit")]
        with pytest.raises(analysis.AnalysisError, match="no reads"):
            read_delays(trace, 3)

    def test_delays_are_in_arrival_order(self):
        # The analyzed core's row-hit read, staged second, completes first:
        # FR-FCFS serves its CAS ahead of the older row-conflict read's PRE.
        spec = ScenarioSpec(open_rows={0: 1},
                            prestage=[StagedRequest(False, 0, 0, 2),
                                      StagedRequest(False, 0, 0, 1)],
                            horizon=300, analyzed_core=0, num_cores=1)
        trace, _ = run_scenario(spec)
        assert [req.request_id for req in trace.completions] == [1, 0]
        assert read_delays(trace, 0) == [solo_delay(trace, req) for req in trace.requests]

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
        assert (spec.max_prior_reads(), spec.scheduler.drain_batch) == (2, 2)
        trace, _ = run_scenario(spec)
        report = harness.evaluate(trace, spec)
        assert report.bound_full == bounds(spec)["full"] == 66
        assert report.violations_full == 0
        assert report.measured_max == 63


class TestReporting:
    def test_bound_rows_quantities(self):
        rows = analysis.bound_rows(*probe(10))
        names = [name for name, _, _ in rows]
        assert "per_request_full" in names and "total_baseline" in names
        as_dict = {name: cycles for name, cycles, _ in rows}
        assert as_dict["per_request_full"] == 232
        assert as_dict["per_request_no_write_queue"] == 120
        assert as_dict["per_request_baseline"] == 57
