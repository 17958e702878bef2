import hashlib

import pytest

from dramwc import harness
from dramwc.harness import (
    ExperimentReport,
    _parse_seeds,
    compare,
    core_span,
    live_scenario,
    preset,
    simulate,
    solo_variant,
    sweep,
)
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    ScenarioError,
    ScenarioSpec,
    build_adversarial,
    run_scenario,
    scenario_from_text,
    scenario_to_text,
)


class TestPresets:
    def test_known_names(self):
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert preset(name).label == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("fig9")

    def test_fig2_initial_queues(self):
        spec = preset("fig2")
        assert [p.bank for p in spec.prestage] == [2, 2, 2, 1]
        assert all(not p.is_write for p in spec.prestage)
        assert spec.open_rows[2] == spec.prestage[0].row  # staged as row hits

    def test_fig3_one_row_miss_per_closed_bank(self):
        spec = preset("fig3")
        assert spec.open_rows == {}
        assert len(spec.prestage) == 2
        assert {p.bank for p in spec.prestage} == {1, 2}

    def test_fig5_two_writes_two_reads_then_analyzed(self):
        spec = preset("fig5")
        kinds = [p.is_write for p in spec.prestage]
        assert kinds == [True, True, False, False, False]
        assert spec.prestage[-1].core == spec.analyzed_core == 0

    def test_fig2_youngest_read_slips_by_three_bursts(self):
        trace, _ = run_scenario(preset("fig2"))
        assert trace.per_request_delay(3) == 12

    def test_fig5_analyzed_delay_decomposes(self):
        # delay = residue until reads may flow again + two prior bursts
        trace, _ = run_scenario(preset("fig5"))
        from dramwc.device import CommandKind

        first_read = min(r.cycle for r in trace.issues
                         if r.kind is CommandKind.RD)
        assert first_read == 55
        assert trace.per_request_delay(4) == first_read + 2 * 4 == 63

    def test_pure_read_staging_meets_read_queue_bound_exactly(self):
        from dramwc.analysis import AnalysisInputs, read_queue_delay
        from dramwc.device import make_timing

        spec = build_adversarial(interferer_kind="bandwidth_read", seed=0)
        trace, _ = run_scenario(spec)
        analyzed = next(info.request_id for info in trace.requests.values()
                        if info.core == spec.analyzed_core)
        bound = read_queue_delay(AnalysisInputs(timing=make_timing()))
        assert trace.per_request_delay(analyzed) == bound == 120


class TestSimulateFiles:
    def test_outputs_written(self, tmp_path):
        trace, _ = simulate(preset("fig2"), tmp_path)
        for name in ("trace.csv", "stats.txt", "scenario.txt"):
            assert (tmp_path / name).exists()
        csv = (tmp_path / "trace.csv").read_text()
        assert csv.startswith("cycle,event,kind,bank,row,core,request_id")

    def test_reruns_are_byte_identical(self, tmp_path):
        simulate(preset("fig5"), tmp_path / "a")
        simulate(preset("fig5"), tmp_path / "b")
        for name in ("trace.csv", "stats.txt", "scenario.txt"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_emitted_scenario_reruns_identically(self, tmp_path):
        spec = build_adversarial(interferer_kind="bandwidth_write", seed=3)
        trace, _ = simulate(spec, tmp_path)
        parsed = scenario_from_text((tmp_path / "scenario.txt").read_text())
        replay, _ = run_scenario(parsed)
        assert replay.to_csv() == trace.to_csv()


class TestCompare:
    def test_staged_adversarial_report(self, tmp_path):
        spec = build_adversarial(interferer_kind="bandwidth_write", seed=0)
        report = compare(spec, tmp_path)
        assert report.measured_max <= report.bound_full
        assert report.violations_full == 0
        assert report.violations_nowq >= 1
        assert report.measured_max > report.bound_baseline
        content = (tmp_path / "report.csv").read_text()
        assert content.startswith("quantity,cycles,ns")
        assert "per_request_full,232,433.84" in content
        assert "measured_max_delay," in content

    def test_empty_interference_has_no_violations(self):
        spec = build_adversarial(interferer_kind="latency", seed=0)
        report = compare(spec)
        assert report.violations_full == 0
        assert report.measured_max <= report.bound_nowq

    def test_no_interferers_measures_zero(self):
        import math

        from dramwc.workload import ScenarioSpec, StagedRequest

        spec = ScenarioSpec(
            label="alone",
            open_rows={0: 1},
            prestage=[StagedRequest(False, 0, 0, 1)],
            horizon=200,
            analyzed_core=0,
            num_cores=1,
        )
        report = compare(spec)
        assert report.measured_max == 0
        assert report.margin_full == math.inf
        assert (report.violations_full == report.violations_nowq
                == report.violations_baseline == 0)


class TestSweep:
    def test_staged_sweep_reports(self, tmp_path):
        reports = sweep("stream", 3, [0, 1, 2], out_dir=tmp_path, staged=True)
        assert len(reports) == 3
        assert all(r.violations_full == 0 for r in reports)
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == ExperimentReport.CSV_HEADER
        assert len(summary) == 4
        assert (tmp_path / "seed_1" / "trace.csv").exists()

    def test_live_sweep_measures_slowdown(self):
        reports = sweep("bandwidth_read", 3, [0], latency_budget=10)
        assert reports[0].slowdown is not None
        assert reports[0].slowdown > 1.0

    def test_summary_recomputable_from_emitted_scenario(self, tmp_path):
        from dataclasses import replace

        from dramwc.harness import evaluate

        for staged in (True, False):
            out = tmp_path / ("staged" if staged else "live")
            reports = sweep("bandwidth_write", 3, [7], out_dir=out,
                            latency_budget=5, staged=staged)
            emitted = (out / "seed_7" / "scenario.txt").read_text()
            spec = scenario_from_text(emitted)
            trace, _ = run_scenario(spec)
            again = evaluate(trace, spec)
            # slowdown needs the solo run, which the scenario does not hold
            assert again.csv_row() == replace(reports[0], slowdown=None).csv_row()

    def test_bounds_follow_the_interferer_count(self, tmp_path):
        # One interferer of 10 MSHR reads: 10 x 4 + 112 cycles, and one
        # competing core's baseline charge of 19.
        assert harness.main(["sweep", "--kind", "bandwidth_read", "--n", "1",
                             "--seeds", "0", "--out", str(tmp_path)]) == 0
        header, row = (tmp_path / "summary.csv").read_text().splitlines()
        summary = dict(zip(header.split(","), row.split(",")))
        assert (summary["bound_full"], summary["bound_baseline"]) == ("152", "19")
        seven = sweep("bandwidth_read", 7, [0])[0]
        assert seven.bound_baseline == 7 * 19 == 133
        assert seven.bound_full == 31 * 4 + 112  # the global MSHR cap binds

    def test_staged_sweep_stages_and_bounds_under_its_mshr(self):
        report, = sweep("stream", 3, [0], staged=True,
                        mshr=MshrConfig(per_core_read_cap=4))
        assert report.bound_nowq == 3 * 4 * 4
        assert report.violations_full == 0


def _emitted_runs(tmp_path):
    """(name, directory) of emitted runs: every preset, one staged sweep seed
    and one live sweep per interferer kind (small budget, 1-2 interferers)."""
    runs = []
    for name in ("fig2", "fig3", "fig4", "fig5"):
        harness.main(["preset", name, "--out", str(tmp_path / name)])
        runs.append((name, tmp_path / name))
    harness.main(["sweep", "--kind", "stream", "--seeds", "3", "--staged",
                  "--out", str(tmp_path / "staged")])
    runs.append(("staged", tmp_path / "staged" / "seed_3"))
    for n, kind in enumerate(GeneratorKind):
        out = tmp_path / f"live-{kind.value}"
        sweep(kind, 1 + n % 2, [1], out_dir=out, latency_budget=5)
        runs.append((kind.value, out / "seed_1"))
    return runs


def test_emitted_scenarios_replay_their_runs(tmp_path, capsys):
    for name, run in _emitted_runs(tmp_path):
        again = tmp_path / "replay" / name
        assert harness.main(["simulate", "--scenario", str(run / "scenario.txt"),
                             "--out", str(again)]) == 0
        for file in ("trace.csv", "stats.txt", "scenario.txt"):
            assert (again / file).read_bytes() == (run / file).read_bytes(), \
                (name, file)


class TestLiveScenario:
    def test_solo_variant_keeps_only_analyzed_core(self):
        spec = live_scenario(GeneratorKind.STREAM)
        solo = solo_variant(spec)
        assert [g.core for g in solo.generators] == [0]
        assert solo.prestage == []

    def test_core_span_requires_completions(self):
        spec = live_scenario(GeneratorKind.BANDWIDTH_READ, latency_budget=5)
        trace, _ = run_scenario(spec)
        assert core_span(trace, 0) > 0
        with pytest.raises(ValueError):
            core_span(trace, 9)


class TestCli:
    def test_parse_seeds(self):
        assert _parse_seeds("3") == [3]
        assert _parse_seeds("0..4") == [0, 1, 2, 3, 4]
        assert _parse_seeds("2..2") == [2]

    @pytest.mark.parametrize("seeds, message", [
        ("5..2", "empty range"),
        ("x", "expected N or LO..HI"),
        ("0..1..2", "expected N or LO..HI"),
        ("..3", "expected N or LO..HI"),
        ("", "expected N or LO..HI"),
    ])
    def test_bad_seeds_are_a_usage_error(self, tmp_path, capsys, seeds, message):
        with pytest.raises(SystemExit) as exc:
            harness.main(["sweep", "--kind", "stream", "--seeds", seeds,
                          "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--seeds {seeds!r}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "summary.csv").exists()

    def test_preset_command(self, tmp_path, capsys):
        assert harness.main(["preset", "fig3", "--out", str(tmp_path)]) == 0
        assert "fig3" in capsys.readouterr().out
        assert (tmp_path / "trace.csv").exists()

    def test_simulate_command_roundtrip(self, tmp_path, capsys):
        harness.main(["preset", "fig4", "--out", str(tmp_path / "a")])
        code = harness.main([
            "simulate",
            "--scenario", str(tmp_path / "a" / "scenario.txt"),
            "--out", str(tmp_path / "b"),
        ])
        assert code == 0
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())

    def test_analyze_command(self, tmp_path, capsys):
        config = tmp_path / "analysis.txt"
        config.write_text(
            "max_prior_reads 30\ndrain_batch 4\nnum_cores 4\n"
            "miss_count 1000\nsolo_cycles 232000\n"
        )
        code = harness.main(["analyze", "--config", str(config),
                             "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "one_request_baseline" in out
        report = (tmp_path / "report.csv").read_text()
        assert "per_request_full,232,433.84" in report

    @pytest.mark.parametrize("solo_cycles", ["-5", "0"])
    def test_analyze_rejects_solo_cycles_below_one(self, tmp_path, capsys,
                                                   solo_cycles):
        config = tmp_path / "analysis.txt"
        config.write_text(f"miss_count 1000\nsolo_cycles {solo_cycles}\n")
        with pytest.raises(SystemExit) as exc:
            harness.main(["analyze", "--config", str(config),
                          "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"solo_cycles ({solo_cycles}) must be at least 1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, message", [
        ("miss_count 1\ndrain_batch -2\n",
         "line 2: drain_batch (-2) must be at least 0"),
        ("trc 5\n", "line 1: tRC (5) must exceed tRP (7)"),
        # trp 30 is already invalid against the default trc of 27
        ("trp 30\ntrc 27\n", "line 1: tRC (27) must exceed tRP (30)"),
        ("trrd 30\ntfaw 40\ntrc 5\n", "line 3: tRC (5) must exceed tRP (7)"),
        # line 1 alone already fails on tRC, but it is line 2 that breaks tFAW
        ("trp 30\ntrrd 30\ntrc 40\n",
         "line 2: tFAW (20) cannot be shorter than tRRD (30)"),
    ])
    def test_analyze_range_error_names_its_line(self, tmp_path, capsys, lines,
                                                message):
        config = tmp_path / "analysis.txt"
        config.write_text(lines)
        with pytest.raises(SystemExit) as exc:
            harness.main(["analyze", "--config", str(config)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"dramwc: error: {message}"

    def test_analyze_accepts_keys_valid_only_together(self, tmp_path):
        config = tmp_path / "analysis.txt"
        config.write_text("trp 30\ntrc 40\n")
        timing = harness.load_analysis(config).timing
        assert (timing.trp, timing.trc) == (30, 40)

    @pytest.mark.parametrize("args", [
        ["simulate", "--scenario"],
        ["compare", "--scenario"],
        ["analyze", "--config"],
    ])
    def test_missing_input_file_is_a_usage_error(self, tmp_path, capsys, args):
        missing = str(tmp_path / "nope.txt")
        with pytest.raises(SystemExit) as exc:
            harness.main(args + [missing, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("dramwc: error: ")
        assert missing in err.splitlines()[-1]
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_compare_without_analyzed_core_is_a_usage_error(self, tmp_path,
                                                            capsys, monkeypatch):
        harness.main(["preset", "fig2", "--out", str(tmp_path / "a")])
        path = tmp_path / "a" / "scenario.txt"
        path.write_text(path.read_text().replace("analyzed_core 1",
                                                 "analyzed_core -1"))
        ran = []
        monkeypatch.setattr(harness, "run_scenario",
                            lambda spec: ran.append(spec))
        with pytest.raises(SystemExit) as exc:
            harness.main(["compare", "--scenario", str(path),
                          "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1] == (
            "dramwc: error: scenario fig2 has no analyzed core")
        assert "Traceback" not in err
        assert ran == []  # rejected before simulating
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_zero_analyzed_budget_is_a_usage_error(self, tmp_path, capsys,
                                                   command):
        text = scenario_to_text(live_scenario("bandwidth_write", 1))
        assert "\nbudget 25\n" in text  # the analyzed core's latency probe
        path = tmp_path / "scenario.txt"
        path.write_text(text.replace("\nbudget 25\n", "\nbudget 0\n"))
        with pytest.raises(SystemExit) as exc:
            harness.main([command, "--scenario", str(path),
                          "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "dramwc: error: analyzed core 0 has a generator with budget 0, "
            "so the run would end before any request is served")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_compare_command_default_adversarial(self, tmp_path, capsys):
        code = harness.main(["compare", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound(full) 232" in out

    def test_mshr_reserve_flag_recorded(self, tmp_path):
        harness.main(["compare", "--kind", "latency", "--out", str(tmp_path),
                      "--mshr-reserve", "8"])
        scenario = (tmp_path / "scenario.txt").read_text()
        assert "reserve_per_core 8" in scenario

    def test_staged_sweep_records_mshr_reserve(self, tmp_path):
        # two entries per core leave a shared pool of 24, which the canonical
        # staging (8 shared reads on each of three interferers) just fits
        harness.main(["sweep", "--kind", "stream", "--seeds", "0", "--staged",
                      "--out", str(tmp_path), "--mshr-reserve", "2"])
        scenario = (tmp_path / "seed_0" / "scenario.txt").read_text()
        assert "reserve_per_core 2" in scenario

    def test_staged_sweep_rejects_overcommitted_reserve(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["sweep", "--kind", "stream", "--seeds", "0", "--staged",
                          "--out", str(tmp_path), "--mshr-reserve", "8"])
        assert exc.value.code == 2
        assert "capacity" in capsys.readouterr().err

    def test_staged_sweep_names_the_reads_a_reservation_cannot_admit(
            self, tmp_path, capsys):
        # three entries per core leave a shared pool of 20: the interferers
        # hold 3 x 3 + 20 = 29 reads, one short of the 30 the bound charges
        with pytest.raises(ScenarioError, match="capacity for 29 interferer "
                           "reads, fewer than the 30 prior reads"):
            build_adversarial(interferer_kind="stream",
                              mshr=MshrConfig(reserve_per_core=3))
        with pytest.raises(SystemExit) as exc:
            harness.main(["sweep", "--kind", "stream", "--seeds", "0", "--staged",
                          "--out", str(tmp_path), "--mshr-reserve", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "reservations of 3 per core leave capacity for 29" in err
        assert "Traceback" not in err
        assert not (tmp_path / "summary.csv").exists()

    def test_mshr_reserve_rejects_overcommitted_staging(self, tmp_path, capsys):
        # reserving 8 entries per core caps each core at 8, so the canonical
        # staged scenario with 10 reads per interferer cannot be admitted
        with pytest.raises(SystemExit) as exc:
            harness.main(["compare", "--out", str(tmp_path),
                          "--mshr-reserve", "8"])
        assert exc.value.code == 2
        assert "capacity" in capsys.readouterr().err

    def test_bad_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        harness.main(["preset", "fig4", "--out", str(tmp_path / "a")])
        path = tmp_path / "a" / "scenario.txt"
        path.write_text(path.read_text().replace("drain_batch 4", "drain_bach 4"))
        with pytest.raises(SystemExit) as exc:
            harness.main(["simulate", "--scenario", str(path),
                          "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "line 29: unknown key 'drain_bach'" in err
        assert "Traceback" not in err

    def test_partitioning_off_is_a_usage_error(self, tmp_path, capsys):
        # Every core has one private bank; a file that turns partitioning off
        # is rejected rather than run partitioned anyway.
        harness.main(["preset", "fig4", "--out", str(tmp_path / "a")])
        path = tmp_path / "a" / "scenario.txt"
        text = path.read_text()
        assert "partitioning 1\n" in text
        path.write_text(text.replace("partitioning 1", "partitioning 0"))
        with pytest.raises(SystemExit) as exc:
            harness.main(["simulate", "--scenario", str(path),
                          "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "line 26: partitioning must be on" in err  # [scheduler]
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_bad_override_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["compare", "--preset", "fig2", "--out", str(tmp_path),
                          "--prioritized-bank", "16"])
        assert exc.value.code == 2
        assert "prioritized_bank (16)" in capsys.readouterr().err

    def test_simulator_faults_propagate(self, tmp_path, monkeypatch):
        from dramwc import checks
        from dramwc.checks import TraceInvariantError

        def broken(trace):
            raise TraceInvariantError("injected")

        monkeypatch.setattr(checks, "validate_trace", broken)
        with pytest.raises(TraceInvariantError, match="injected"):
            harness.main(["preset", "fig2", "--out", str(tmp_path)])

    def test_prioritized_bank_flag_recorded(self, tmp_path):
        harness.main(["preset", "fig2", "--out", str(tmp_path / "a")])
        harness.main([
            "simulate",
            "--scenario", str(tmp_path / "a" / "scenario.txt"),
            "--out", str(tmp_path / "b"),
            "--prioritized-bank", "1",
        ])
        scenario = (tmp_path / "b" / "scenario.txt").read_text()
        assert "prioritized_bank 1" in scenario

    def test_sweep_command(self, tmp_path, capsys):
        code = harness.main([
            "sweep", "--kind", "stream", "--n", "3", "--seeds", "0..1",
            "--out", str(tmp_path), "--staged",
        ])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()


BOUND_ROWS = """quantity,cycles,ns
read_queue_delay,120,224.40
write_drain_delay,112,209.44
per_request_full,232,433.84
per_request_no_write_queue,120,224.40
per_request_baseline,57,106.59
"""

# A compare run's analyzed core completes one read: its task totals.
ONE_MISS_TOTALS = """\
total_full,232,433.84
total_no_write_queue,120,224.40
total_baseline,57,106.59
"""


class TestPinnedOutput:
    """report.csv and the analyze table, byte for byte."""

    def test_compare_default_report(self, tmp_path, capsys):
        assert harness.main(["compare", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "adversarial-bandwidth_write-0: measured max 229, bound(full) 232, "
            "bound(nowq) 120, baseline 57\n")
        assert (tmp_path / "report.csv").read_text() == BOUND_ROWS + ONE_MISS_TOTALS + """\
measured_max_delay,229,428.23
measured_mean_delay,229.000,428.23
margin_full_ratio,1.0131,
margin_nowq_ratio,0.5240,
violations_full,0,
violations_nowq,1,
violations_baseline,1,
"""

    def test_compare_fig5_report(self, tmp_path, capsys):
        assert harness.main(["compare", "--preset", "fig5",
                             "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "fig5: measured max 63, bound(full) 232, bound(nowq) 120, "
            "baseline 57\n")
        assert (tmp_path / "report.csv").read_text() == BOUND_ROWS + ONE_MISS_TOTALS + """\
measured_max_delay,63,117.81
measured_mean_delay,63.000,117.81
margin_full_ratio,3.6825,
margin_nowq_ratio,1.9048,
violations_full,0,
violations_nowq,0,
violations_baseline,1,
"""

    @pytest.mark.parametrize("name, measured", [("fig2", 12), ("fig3", 4),
                                                ("fig4", 4)])
    def test_compare_three_core_presets(self, tmp_path, capsys, name, measured):
        # Two competing cores: 20 MSHR reads ahead and a baseline of 2 x 19.
        assert harness.main(["compare", "--preset", name,
                             "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"{name}: measured max {measured}, bound(full) 192, bound(nowq) 80, "
            "baseline 38\n")

    def test_analyze_table_and_report(self, tmp_path, capsys):
        config = tmp_path / "analysis.txt"
        config.write_text("miss_count 1000\nsolo_cycles 232000\n")
        assert harness.main(["analyze", "--config", str(config),
                             "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "bound                  per-request          ns       total  normalized\n"
            "full                           232      433.84      232000        2.00\n"
            "no_write_queue                 120      224.40      120000        1.52\n"
            "one_request_baseline            57      106.59       57000        1.25\n")
        assert (tmp_path / "report.csv").read_text() == BOUND_ROWS + """\
total_full,232000,433840.00
total_no_write_queue,120000,224400.00
total_baseline,57000,106590.00
"""


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedLiveTraces:
    """SHA-256 of the files of live runs, so that a change to any generator
    kind, its row policy included, shows up as a changed digest."""

    SWEEPS = {
        "latency": ("5dd48db8d5119385af2b6e720cdbc7ed2781b101eff6956704c6dfa4a18daf70",
                    "2e50b90d913c186d62ee06d3afb10b1501299ddac2ca953c328d3dcf79ee46a0",
                    "aba61887f67fa5da7e630c7a585ce228ed8b3af6507b9d2f53f7cadedf04a211"),
        "bandwidth_read": (
            "e4b0de378d6fd10800a920a4b1edf26d0aface607da19c112b383cc873fc462f",
            "c32772cf5862c1a9aaacbbf9035dc9c11bf89cadbd13b90e7a931b536ce7e20e",
            "db620538b278fcebcc29e3c571cd7fbb803e5ba067edce6be8c40e59c7476db2"),
        "bandwidth_write": (
            "00f82c5f9d71f6b7caa896d301a58385f7610e7445a85fbe5e1f464e64515a0f",
            "953a703939cb9cd687292d53cc7eb73962a888b68024e8fc719f04c28065ed40",
            "2eadcf096a94b41f317d8a0852b3982b73463b49a0285c6e2e0095483ee43374"),
        "stream": ("6fc796c8b4f890a16d1f0595df77c7ab44f6fe04a9ff5c6db6faa64cb852a615",
                   "1b38ffe04dacfe53ec5cdbf27421c0fd4e44b048637e712fc8462008d4b194bf",
                   "efbce47fcf884909f24a305e64a5d4b9170fe68e029cd69c78318e47c9cdf9eb"),
    }

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_live_sweep_files(self, kind, tmp_path):
        assert harness.main(["sweep", "--kind", kind, "--n", "3", "--seeds", "0",
                             "--out", str(tmp_path)]) == 0
        files = ("seed_0/trace.csv", "seed_0/stats.txt", "summary.csv")
        assert tuple(_sha256(tmp_path / f) for f in files) == self.SWEEPS[kind]

    def test_random_rows_of_every_kind(self, tmp_path):
        # A refused submit holds its drawn row, and every generator on one
        # seeded run draws rows, so _row and held_row are pinned too.
        spec = ScenarioSpec(
            label="random-rows", seed=5,
            open_rows={core: 100 + core for core in range(4)},
            generators=[
                GeneratorSpec(kind, core=core, bank=core, row_policy="random",
                              budget=25 if kind is GeneratorKind.LATENCY else None)
                for core, kind in enumerate(GeneratorKind)],
            analyzed_core=0,
        )
        trace, _ = simulate(spec, tmp_path)
        assert (trace.total_cycles, len(trace.completions)) == (1191, 130)
        assert [_sha256(tmp_path / f) for f in ("trace.csv", "stats.txt")] == [
            "c9c9832440d4a8eabdf2306b77eb7ba75c2a6ba7e2405cb1be5fb038a64d3759",
            "71509e6d50ec778ab19a23d819a1f850be8a1a2a810c3401135d7b94107f9b1b"]


def test_prioritized_bank_changes_schedule(tmp_path):
    # With bank 1 prioritized, the younger read on bank 1 overtakes the
    # three older reads queued on bank 2.
    spec = preset("fig2")
    plain, _ = run_scenario(spec)
    from dataclasses import replace

    boosted_spec = replace(
        spec, scheduler=replace(spec.scheduler, prioritized_bank=1))
    boosted, _ = run_scenario(boosted_spec)
    plain_first = next(r for r in plain.issues if r.bank == 1)
    boosted_first = next(r for r in boosted.issues if r.bank == 1)
    assert plain_first.cycle == 12
    assert boosted_first.cycle == 0
