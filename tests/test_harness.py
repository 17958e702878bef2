import errno
import hashlib
import os
from dataclasses import replace
from pathlib import Path

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
from dramwc.scheduler import SchedulerConfig

# The fig4 scenario file as written while bank priority and partitioning
# were options of the scheduler.
FIG4_SCENARIO = """\
# dramwc scenario
label fig4
seed 0
horizon 200
initial_mode read
analyzed_core 1
num_cores 3
num_rows 4096

[timing]
tck_ns 1.87
trp 7
trcd 7
cl 7
wl 6
tburst 4
tccd 4
twtr 4
trrd 4
trtp 4
tfaw 20
trc 27
twr 3
rd_wr_gap 7

[scheduler]
read_cap 32
write_cap 16
drain_batch 4
prioritized_bank -1
partitioning 1
num_banks 16
stall_window 10000

[mshr]
global_read_cap 32
global_write_cap 16
per_core_read_cap 10
reserve_per_core 0

[banks]
1 20
2 10

[prestage]
read 2 2 10
read 2 2 11
read 1 1 20
"""


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
        analyzed = next(info.request_id for info in trace.requests
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

    def test_a_sweep_makes_each_directory_with_one_call(self, tmp_path, monkeypatch):
        out, calls, failed = tmp_path / "out", [], []

        def counted(name, call):
            def wrapper(path, *args, **kwargs):
                calls.append((name, os.fspath(path)))
                try:
                    return call(path, *args, **kwargs)
                except OSError as exc:
                    failed.append((name, path, exc))
                    raise
            return wrapper

        for name in ("mkdir", "makedirs", "stat", "open"):
            monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
        sweep("bandwidth_write", 3, [0, 1], out, staged=True)
        monkeypatch.undo()
        assert failed == []
        seeds = [str(out / f"seed_{seed}") for seed in (0, 1)]
        assert [call for call in calls if call[0] != "open"] == [
            ("mkdir", str(out)), ("mkdir", seeds[0]), ("mkdir", seeds[1])]
        assert [path for name, path in calls if name == "open"] == [
            os.path.join(seed, file) for seed in seeds
            for file in ("trace.csv", "stats.txt", "scenario.txt")
        ] + [str(out / "summary.csv")]

    def test_a_second_sweep_rewrites_identical_files(self, tmp_path):
        sweep("stream", 3, [0, 1], tmp_path, staged=True)
        files = sorted(path for path in tmp_path.rglob("*") if path.is_file())
        first = {path: path.read_bytes() for path in files}
        for path in files:
            path.write_bytes(b"stale " * 10_000)
        sweep("stream", 3, [0, 1], tmp_path, staged=True)
        assert sorted(path for path in tmp_path.rglob("*") if path.is_file()) == files
        assert {path: path.read_bytes() for path in files} == first

    def test_a_missing_nested_parent_is_made(self, tmp_path):
        simulate(preset("fig2"), tmp_path / "a" / "b")
        for name in ("trace.csv", "stats.txt", "scenario.txt"):
            assert (tmp_path / "a" / "b" / name).is_file()

    def test_a_failed_write_propagates(self, tmp_path, monkeypatch):
        def full(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError) as exc:
            harness._write(tmp_path, {"a.txt": "x"})
        assert exc.value.errno == errno.ENOSPC

    def test_a_shorter_rerun_leaves_no_stale_tail(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        names = ("trace.csv", "stats.txt", "scenario.txt")
        harness.main(["preset", "fig5", "--out", str(out)])
        longer = {name: (out / name).read_bytes() for name in names}
        harness.main(["preset", "fig2", "--out", str(out)])
        harness.main(["preset", "fig2", "--out", str(fresh)])
        for name in names:
            shorter = (fresh / name).read_bytes()
            assert len(shorter) < len(longer[name]), name
            assert (out / name).read_bytes() == shorter, name

    def test_partial_writes_are_resumed(self, tmp_path, monkeypatch):
        write, calls = os.write, []

        def short(fd, data):  # as a full disk or a signal may cut a write
            calls.append(len(data))
            return write(fd, bytes(data[:5]))

        monkeypatch.setattr(os, "write", short)
        harness._write(tmp_path, {"a.txt": "λ" * 9})
        monkeypatch.undo()
        assert (tmp_path / "a.txt").read_bytes() == "λ".encode() * 9
        assert calls == [18, 13, 8, 3]

    def test_a_non_ascii_label_is_written_as_utf8(self, tmp_path):
        spec = replace(preset("fig2"), label="fig2-über-λ")
        simulate(spec, tmp_path)
        assert ((tmp_path / "scenario.txt").read_bytes()
                == scenario_to_text(spec).encode("utf-8"))
        assert scenario_from_text(
            (tmp_path / "scenario.txt").read_text(encoding="utf-8")).label == spec.label

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_interferers_rejected(self, n):
        # Not a solo run reported as a co-run with a full bound charged.
        with pytest.raises(ScenarioError, match=rf"n_interferers \({n}\) must be at least 1"):
            live_scenario(GeneratorKind.BANDWIDTH_WRITE, n)
        with pytest.raises(ScenarioError, match="must be at least 1"):
            harness.sweep("bandwidth_write", n, [0])


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
        # an infinite clock period would print inf in every ns column
        ("miss_count 3\ntck_ns inf\n", "line 2: tCK (inf) must be positive and finite"),
        ("tck_ns 1e400\n", "line 1: tCK (inf) must be positive and finite"),
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

    @pytest.mark.parametrize("command", [
        ["preset", "fig2"],
        ["simulate", "--scenario", "{scenario}"],
        ["compare", "--preset", "fig2"],
        ["sweep", "--kind", "stream", "--staged", "--seeds", "0"],
        ["analyze", "--config", "{config}"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("out, strerror", [
        ("file", "File exists"),
        ("file/sub", "Not a directory"),
        ("", "No such file or directory"),
    ], ids=["a-file", "under-a-file", "empty"])
    def test_an_unusable_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                              command, out, strerror):
        monkeypatch.chdir(tmp_path)
        Path("scenario.txt").write_text(scenario_to_text(preset("fig2")))
        Path("config.txt").write_text("")
        Path("file").write_text("keep")
        argv = [arg.format(scenario="scenario.txt", config="config.txt")
                for arg in command]
        with pytest.raises(SystemExit) as exc:
            harness.main(argv + ["--out", out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"dramwc: error: cannot write {out}: {strerror}")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert Path("file").read_text() == "keep"
        assert sorted(os.listdir()) == ["config.txt", "file", "scenario.txt"]

    def test_a_file_that_cannot_be_opened_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "trace.csv").mkdir()
        with pytest.raises(SystemExit) as exc:
            harness.main(["preset", "fig2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"dramwc: error: cannot write {tmp_path / 'trace.csv'}: Is a directory")

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
        header = text.splitlines().index("[generator]") + 1  # the probe's
        assert captured.err.splitlines()[-1] == (
            f"dramwc: error: line {header}: analyzed core 0 has a generator with "
            "budget 0, so the run would end before any request is served")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_compare_command_default_adversarial(self, tmp_path, capsys):
        code = harness.main(["compare", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound(full) 232" in out

    @pytest.mark.parametrize("flag", [["--kind", "stream"], ["--seed", "7"]],
                             ids=lambda flag: flag[0])
    @pytest.mark.parametrize("source", [["--preset", "fig5"], ["--scenario", "{scenario}"]],
                             ids=lambda source: source[0])
    def test_staged_flags_with_a_named_scenario_are_a_usage_error(
            self, tmp_path, capsys, flag, source):
        # --kind and --seed pick the staged worst case; a named scenario
        # would run without them, as if they had not been given.
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(scenario_to_text(preset("fig5")))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            harness.main(["compare", *(arg.format(scenario=scenario) for arg in source),
                          *flag, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"dramwc: error: {flag[0]} applies only to the staged worst case, "
            "not to --preset or --scenario")
        assert captured.out == ""
        assert not out.exists()

    def test_mshr_reserve_flag_recorded(self, tmp_path):
        harness.main(["compare", "--kind", "latency", "--out", str(tmp_path),
                      "--mshr-reserve", "8"])
        scenario = (tmp_path / "scenario.txt").read_text()
        assert "reserve_per_core 8" in scenario

    def test_compare_stages_through_the_reservation_it_runs_with(
            self, tmp_path, capsys):
        # compare --kind builds its staged worst case with the reservation
        # already applied, so it fails as the staged sweep does: not with
        # reads staged for no reservation that its run then refuses.
        errors = []
        for command in (["compare", "--kind", "stream"],
                        ["sweep", "--kind", "stream", "--staged", "--seeds", "0"]):
            with pytest.raises(SystemExit) as exc:
                harness.main([*command, "--out", str(tmp_path / command[0]),
                              "--mshr-reserve", "3"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors[0] == errors[1] == (
            "dramwc: error: MSHR reservations of 3 per core leave capacity for "
            "29 interferer reads, fewer than the 30 prior reads the bound charges")
        assert not (tmp_path / "compare").exists()

    def test_latency_staging_fits_any_reservation(self, tmp_path):
        # a latency interferer stages one read, which its reserved entries
        # hold, so both staged commands run at every reservation of the grid
        for reserve in (3, 8):
            out = tmp_path / str(reserve)
            harness.main(["compare", "--kind", "latency", "--out", str(out / "c"),
                          "--mshr-reserve", str(reserve)])
            harness.main(["sweep", "--kind", "latency", "--staged", "--seeds", "0",
                          "--out", str(out / "s"), "--mshr-reserve", str(reserve)])
            for scenario in (out / "c" / "scenario.txt",
                             out / "s" / "seed_0" / "scenario.txt"):
                assert f"reserve_per_core {reserve}" in scenario.read_text()

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
        assert "line 31: partitioning must be on" in err  # the key's own line
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_bad_override_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["compare", "--preset", "fig2", "--out", str(tmp_path),
                          "--mshr-reserve", "-1"])
        assert exc.value.code == 2
        assert "reserve_per_core (-1) must be at least 0" in capsys.readouterr().err

    def test_a_fig4_scenario_file_keeps_its_bytes(self, tmp_path):
        # The file format keeps the lines of the deleted bank-priority and
        # partitioning options as fixed values, so a file written while they
        # were options reads back, and every scenario file stays as it was.
        assert not {"prioritized_bank", "partitioning"} & set(vars(SchedulerConfig()))
        assert scenario_to_text(scenario_from_text(FIG4_SCENARIO)) == FIG4_SCENARIO
        path = tmp_path / "scenario.txt"
        path.write_text(FIG4_SCENARIO)
        assert harness.main(["simulate", "--scenario", str(path),
                             "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "scenario.txt").read_text() == FIG4_SCENARIO
        harness.main(["preset", "fig4", "--out", str(tmp_path / "a")])
        assert (tmp_path / "a" / "scenario.txt").read_text() == FIG4_SCENARIO

    def test_a_prioritized_bank_in_a_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text(FIG4_SCENARIO.replace("prioritized_bank -1", "prioritized_bank 1"))
        with pytest.raises(SystemExit) as exc:
            harness.main(["simulate", "--scenario", str(path),
                          "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("line 30: prioritized_bank must be -1: the modelled FR-FCFS "
                "controller has no bank priority") in err
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_the_prioritized_bank_flag_is_gone(self, tmp_path, capsys):
        path = tmp_path / "scenario.txt"
        path.write_text(FIG4_SCENARIO)
        for command in ("simulate", "compare"):
            with pytest.raises(SystemExit) as exc:
                harness.main([command, "--scenario", str(path), "--out",
                              str(tmp_path / "b"), "--prioritized-bank", "1"])
            assert exc.value.code == 2
            assert ("unrecognized arguments: --prioritized-bank 1"
                    in capsys.readouterr().err)
        assert not (tmp_path / "b").exists()
        for name in ("preset", "simulate", "analyze", "compare", "sweep"):
            with pytest.raises(SystemExit) as exc:
                harness.main([name, "--help"])
            assert exc.value.code == 0
            assert "--prioritized-bank" not in capsys.readouterr().out

    def test_simulator_faults_propagate(self, tmp_path, monkeypatch):
        from dramwc import checks
        from dramwc.checks import TraceInvariantError

        def broken(trace):
            raise TraceInvariantError("injected")

        monkeypatch.setattr(checks, "validate_trace", broken)
        with pytest.raises(TraceInvariantError, match="injected"):
            harness.main(["preset", "fig2", "--out", str(tmp_path)])

    def test_sweep_command(self, tmp_path, capsys):
        code = harness.main([
            "sweep", "--kind", "stream", "--n", "3", "--seeds", "0..1",
            "--out", str(tmp_path), "--staged",
        ])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()

    def test_sweep_takes_any_interferer_count_its_scenario_admits(self, tmp_path):
        code = harness.main(["sweep", "--kind", "bandwidth_write", "--n", "7",
                             "--seeds", "0", "--out", str(tmp_path), "--staged"])
        assert code == 0
        assert "num_cores 8" in (tmp_path / "seed_0" / "scenario.txt").read_text()

    @pytest.mark.parametrize("staged", [[], ["--staged"]], ids=["live", "staged"])
    def test_sweep_takes_as_many_interferers_as_the_banks_allow(
            self, staged, tmp_path):
        code = harness.main(["sweep", "--kind", "stream", "--n", "15",
                             "--seeds", "0", "--out", str(tmp_path), *staged])
        assert code == 0
        assert "num_cores 16" in (tmp_path / "seed_0" / "scenario.txt").read_text()

    @pytest.mark.parametrize("n, message", [
        ("0", "n_interferers (0) must be at least 1"),
        ("16", "n_interferers (16) must be at most 15: each core needs a "
               "private bank, and there are 16"),
    ])
    @pytest.mark.parametrize("staged", [[], ["--staged"]], ids=["live", "staged"])
    def test_sweep_rejects_an_interferer_count_its_scenario_cannot_hold(
            self, n, message, staged, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            harness.main(["sweep", "--kind", "bandwidth_write", "--n", n,
                          "--seeds", "0", "--out", str(tmp_path), *staged])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("dramwc")]
        assert errors == [f"dramwc: error: {message}"]


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

    def test_analyze_table_and_report_away_from_the_defaults(self, tmp_path, capsys):
        # Every input the bounds read moved off its default: six competing
        # cores at 1 + 6 + 5 + 4 + 4 cycles each, five prior reads and a
        # drain batch of two.
        config = tmp_path / "analysis.txt"
        config.write_text("num_cores 7\ntrrd 6\nwl 5\ndrain_batch 2\n"
                          "max_prior_reads 5\nmiss_count 3\nsolo_cycles 100\n")
        assert harness.main(["analyze", "--config", str(config),
                             "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "bound                  per-request          ns       total  normalized\n"
            "full                            78      145.86         234        3.34\n"
            "no_write_queue                  20       37.40          60        1.60\n"
            "one_request_baseline           120      224.40         360        4.60\n")
        assert (tmp_path / "report.csv").read_text() == """\
quantity,cycles,ns
read_queue_delay,20,37.40
write_drain_delay,58,108.46
per_request_full,78,145.86
per_request_no_write_queue,20,37.40
per_request_baseline,120,224.40
total_full,234,437.58
total_no_write_queue,60,112.20
total_baseline,360,673.20
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


def test_bad_input_is_an_input_error():
    # InputError is the one type that main reports as a usage error.
    from dramwc import InputError, TimingError
    from dramwc.analysis import AnalysisError

    for error in (ScenarioError, TimingError, AnalysisError):
        assert issubclass(error, InputError)
    with pytest.raises(ScenarioError):
        preset("fig9")
    with pytest.raises(ScenarioError):
        solo_variant(preset("fig2"))
    trace, _ = run_scenario(preset("fig2"))
    with pytest.raises(AnalysisError):
        core_span(trace, 0)
