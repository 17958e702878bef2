import random

import pytest
from hypothesis import given, settings, strategies as st

from dramwc import harness, workload
from dramwc.device import TimingError
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
    reads = [r for r in trace.requests.values() if not r.is_write]
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
        mshr = MshrFile()
        with pytest.raises(ScenarioError):
            mshr.release(0, False)
        with pytest.raises(ScenarioError):
            mshr.release(0, True)


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

    def test_stream_ratio_two_to_one(self):
        spec = live_spec(GeneratorKind.STREAM, budget=30, horizon=3000)
        trace, _ = run_scenario(spec)
        reads = sum(1 for r in trace.completions if not r.is_write)
        writes = sum(1 for r in trace.completions if r.is_write)
        assert reads == 20 and writes == 10

    def test_sequential_policy_stays_on_open_row(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_READ, budget=12)
        trace, _ = run_scenario(spec)
        assert {info.row for info in trace.requests.values()} == {5}

    def test_random_policy_spreads_rows(self):
        spec = live_spec(GeneratorKind.BANDWIDTH_READ, budget=12,
                         row_policy="random", horizon=2000)
        trace, _ = run_scenario(spec)
        assert len({info.row for info in trace.requests.values()}) > 1

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
        rows = [trace.requests[rid].row for rid in sorted(trace.requests)]
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

    @pytest.mark.parametrize("spec, match", [
        (ScenarioSpec(generators=[GeneratorSpec(GeneratorKind.LATENCY, 4, 1)]),
         "core 4, bank 1 is outside"),
        (ScenarioSpec(prestage=[StagedRequest(False, 1, 16, 0)]),
         "bank 16 is outside"),
        (ScenarioSpec(open_rows={-1: 3}), "bank -1 is outside"),
        (ScenarioSpec(analyzed_core=4), "core 4, bank 0 is outside"),
        (ScenarioSpec(horizon=0), "horizon"),
    ])
    def test_out_of_range_scenario_rejected_before_running(self, spec, match):
        with pytest.raises(ScenarioError, match=match):
            Workload(spec)

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

    def test_zero_budget_on_the_analyzed_core_is_rejected(self):
        # It would end the run at cycle 0, before any request is served.
        with pytest.raises(ScenarioError,
                           match="analyzed core 0 has a generator with budget 0"):
            Workload(self.spec(budget=0))
        # On a core that is not analyzed, a zero budget just idles the core.
        trace, _ = run_scenario(self.spec(budget=0, analyzed_core=None))
        assert trace.total_cycles == 2000
        assert not [r for r in trace.requests.values() if r.core == 0]


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

    def test_seed_determinism(self):
        a = build_adversarial(interferer_kind="stream", seed=11)
        b = build_adversarial(interferer_kind="stream", seed=11)
        assert a == b

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
STAGED = scenario_to_text(harness.preset("fig5"))

# (base text, {line: replacement} applied to the first equal lines, and
# whether the error names that line or its section header)
FAULTS = {
    "misspelled key": (LIVE, {"drain_batch 4": "drain_bach 8"}, "line"),
    "negative budget": (LIVE, {"budget 5": "budget -5"}, "header"),
    "misspelled row policy": (LIVE, {"row_policy sequential": "row_policy seqential"},
                              "header"),
    "extra token": (LIVE, {"seed 0": "seed 0 extra"}, "line"),
    "unknown scalar": (LIVE, {"seed 0": "sead 3"}, "line"),
    "mshr typo": (LIVE, {"per_core_read_cap 10": "per_core_raed_cap 10"}, "line"),
    "key without value": (LIVE, {"horizon 60000": "horizon"}, "line"),
    "empty stream pattern": (LIVE, {"stream_reads 2": "stream_reads 0",
                                    "stream_writes 1": "stream_writes 0"}, "header"),
    "generator core out of range": (LIVE, {"core 1": "core 2"}, "header"),
    "bool out of range": (LIVE, {"partitioning 1": "partitioning 2"}, "line"),
    "unknown timing key": (LIVE, {"trp 7": "trq 7"}, "line"),
    "inconsistent timing": (LIVE, {"trc 27": "trc 5"}, "header"),
    "non-numeric value": (LIVE, {"horizon 60000": "horizon x"}, "line"),
    "repeated key": (LIVE, {"num_rows 4096": "num_cores 2"}, "line"),
    "zero read cap": (LIVE, {"read_cap 32": "read_cap 0"}, "header"),
    "zero mshr cap": (LIVE, {"per_core_read_cap 10": "per_core_read_cap 0"}, "header"),
    "short prestage line": (STAGED, {"read 1 1 15": "read 1 1"}, "line"),
    "short bank line": (STAGED, {"1 15": "1"}, "line"),
    "unknown section": (STAGED, {"[mshr]": "[msrh]"}, "line"),
    "repeated section": (STAGED, {"[banks]": "[mshr]"}, "line"),
}


@pytest.mark.parametrize("label", ["", "my run", " lead", "tab\there", "a#b"])
def test_label_that_cannot_be_read_back_rejected(label):
    with pytest.raises(ScenarioError, match="label"):
        ScenarioSpec(label=label)


def _apply_fault(text, edits, blame):
    lines = text.splitlines()
    first = None
    for old, new in edits.items():
        i = lines.index(old)
        lines[i] = new
        first = i if first is None else first
    if blame == "header":
        first = max(j for j in range(first) if lines[j].startswith("["))
    return "\n".join(lines) + "\n", first + 1


@pytest.mark.parametrize("name", [*FAULTS, "analyze config typo"])
def test_input_fault_names_its_line(name, tmp_path):
    if name == "analyze config typo":
        config = tmp_path / "analysis.txt"
        config.write_text("max_prior_reads 30\ndrain_bach 4\n")
        with pytest.raises(ScenarioError, match=r"\bline 2\b"):
            harness.load_analysis(config)
        return
    text, lineno = _apply_fault(*FAULTS[name])
    with pytest.raises((ScenarioError, TimingError), match=rf"\bline {lineno}\b"):
        scenario_from_text(text)


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
