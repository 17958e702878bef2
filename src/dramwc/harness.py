"""Command-line front end: named scenario presets, single simulations,
bound/measurement comparisons, and randomized interference sweeps.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import analysis
from .device import TIMING_KEYS, TimingError, TimingParams, make_timing
from .keyvalue import codecs, read_lines, read_pairs
from .scheduler import Mode, SchedulerConfig
from .workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    build_adversarial,
    run_scenario,
    scenario_from_text,
    scenario_to_text,
)


def _fig2() -> ScenarioSpec:
    # Three older row-hit reads queued on one bank ahead of a younger
    # row-hit read on another bank: the younger read must wait for the
    # column-to-column gap behind each older read.
    return ScenarioSpec(
        label="fig2",
        open_rows={1: 7, 2: 3},
        prestage=[
            StagedRequest(False, 2, 2, 3),
            StagedRequest(False, 2, 2, 3),
            StagedRequest(False, 2, 2, 3),
            StagedRequest(False, 1, 1, 7),
        ],
        horizon=200,
        analyzed_core=1,
        num_cores=3,
    )


def _fig3() -> ScenarioSpec:
    # One row-miss read per closed bank: the second activate waits only for
    # the activate-to-activate gap, so the two requests overlap.
    return ScenarioSpec(
        label="fig3",
        open_rows={},
        prestage=[
            StagedRequest(False, 2, 2, 5),
            StagedRequest(False, 1, 1, 9),
        ],
        horizon=200,
        analyzed_core=1,
        num_cores=3,
    )


def _fig4() -> ScenarioSpec:
    # An older row-miss request gets overtaken: the younger row-hit column
    # command is preferred over the older precharge.
    return ScenarioSpec(
        label="fig4",
        open_rows={1: 20, 2: 10},
        prestage=[
            StagedRequest(False, 2, 2, 10),  # row hit, oldest
            StagedRequest(False, 2, 2, 11),  # row miss behind it
            StagedRequest(False, 1, 1, 20),  # row hit, youngest
        ],
        horizon=200,
        analyzed_core=1,
        num_cores=3,
    )


def _fig5() -> ScenarioSpec:
    # Drain already triggered with two queued writes, two competing reads
    # staged, and the analyzed read arriving last: it finishes after all of
    # them.
    return ScenarioSpec(
        label="fig5",
        open_rows={0: 5, 1: 15, 2: 25, 3: 35},
        prestage=[
            StagedRequest(True, 3, 3, 36),
            StagedRequest(True, 3, 3, 37),
            StagedRequest(False, 1, 1, 15),
            StagedRequest(False, 2, 2, 25),
            StagedRequest(False, 0, 0, 5),
        ],
        initial_mode=Mode.WRITE_DRAIN,
        horizon=300,
        analyzed_core=0,
        num_cores=4,
    )


_PRESETS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}


def preset(name: str) -> ScenarioSpec:
    """Named illustrative scenario with exact staged queues and open rows."""
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")


def pipeline_scenario(n_reads: int) -> ScenarioSpec:
    """N row-hit reads staged on one open bank; their bursts must occupy
    exactly n_reads * tburst back-to-back data-bus cycles."""
    return ScenarioSpec(
        label=f"pipeline-{n_reads}",
        open_rows={1: 40},
        prestage=[StagedRequest(False, 1, 1, 40) for _ in range(n_reads)],
        horizon=40 + 8 * n_reads,
        analyzed_core=1,
        num_cores=2,
        scheduler=SchedulerConfig(read_cap=max(SchedulerConfig.read_cap, n_reads + 2)),
        mshr=MshrConfig(
            global_read_cap=max(MshrConfig.global_read_cap, n_reads + 2),
            per_core_read_cap=max(MshrConfig.per_core_read_cap, n_reads + 2),
        ),
    )


def live_scenario(kind: GeneratorKind | str, n_interferers: int = 3,
                  seed: int = 0, latency_budget: int = 25,
                  horizon: int = 60_000,
                  mshr: MshrConfig | None = None) -> ScenarioSpec:
    """Latency-style analyzed task on core 0 co-running with n interferers."""
    kind = GeneratorKind(kind)
    generators = [GeneratorSpec(GeneratorKind.LATENCY, core=0, bank=0, budget=latency_budget)]
    generators += [GeneratorSpec(kind, core=c, bank=c) for c in range(1, n_interferers + 1)]
    return ScenarioSpec(
        label=f"live-{kind.value}-x{n_interferers}-{seed}",
        open_rows={core: 100 + core for core in range(n_interferers + 1)},
        generators=generators,
        horizon=horizon,
        analyzed_core=0,
        num_cores=n_interferers + 1,
        mshr=mshr or MshrConfig(),
        seed=seed,
    )


def solo_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scenario with only the analyzed core's generator running."""
    keep = [g for g in spec.generators if g.core == spec.analyzed_core]
    if not keep:
        raise ValueError("scenario has no generator on the analyzed core")
    return replace(spec, label=spec.label + "-solo", generators=keep, prestage=[])


def core_span(trace, core: int) -> int:
    """Cycles from the first arrival to the last completion for one core."""
    completions = [r for r in trace.completions if r.core == core]
    if not completions:
        raise ValueError(f"core {core} completed nothing")
    first = min(r.arrival_cycle for r in completions)
    return max(r.completion_cycle for r in completions) - first


@dataclass
class ExperimentReport:
    scenario: str
    seed: int
    bound_full: int
    bound_nowq: int
    bound_baseline: int
    measured_max: int
    measured_mean: float
    margin_full: float
    margin_nowq: float
    violations_full: int
    violations_nowq: int
    violations_baseline: int
    slowdown: float | None = None

    _FORMATS = {"measured_mean": ".3f", "margin_full": ".4f",
                "margin_nowq": ".4f", "slowdown": ".4f"}

    def text(self, name: str) -> str:
        """One field as it appears in summary.csv and report.csv."""
        value = getattr(self, name)
        return "" if value is None else format(value, self._FORMATS.get(name, ""))

    def csv_row(self) -> str:
        return ",".join(self.text(f.name) for f in fields(self))


ExperimentReport.CSV_HEADER = ",".join(f.name for f in fields(ExperimentReport))


def _analyzed_core(spec: ScenarioSpec) -> int:
    if spec.analyzed_core is None:
        raise ScenarioError(f"scenario {spec.label} has no analyzed core")
    return spec.analyzed_core


def evaluate(trace, spec: ScenarioSpec, slowdown: float | None = None) -> ExperimentReport:
    """Bound-vs-measurement report for the analyzed core of one trace, with
    the bounds of the scenario's own inputs."""
    return _evaluate(trace, spec, analysis.AnalysisInputs.for_scenario(spec, trace), slowdown)


def _evaluate(trace, spec, inputs, slowdown=None) -> ExperimentReport:
    delays = analysis.read_delays(trace, _analyzed_core(spec))
    full, nowq, baseline = analysis.bound_set(inputs)
    worst = max(delays)

    def margin(bound) -> float:
        return bound.per_request_cycles / worst if worst > 0 else math.inf

    def violations(bound) -> int:
        return sum(d > bound.per_request_cycles for d in delays)

    return ExperimentReport(
        scenario=spec.label,
        seed=spec.seed,
        bound_full=full.per_request_cycles,
        bound_nowq=nowq.per_request_cycles,
        bound_baseline=baseline.per_request_cycles,
        measured_max=worst,
        measured_mean=sum(delays) / len(delays),
        margin_full=margin(full),
        margin_nowq=margin(nowq),
        violations_full=violations(full),
        violations_nowq=violations(nowq),
        violations_baseline=violations(baseline),
        slowdown=slowdown,
    )


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _emit(out: Path, trace, spec: ScenarioSpec) -> None:
    """Write one run's trace.csv, stats.txt and scenario.txt under ``out``."""
    _write(out / "trace.csv", trace.to_csv())
    _write(out / "stats.txt", trace.stats_text())
    _write(out / "scenario.txt", scenario_to_text(spec))


def _write_report(out: Path, inputs: analysis.AnalysisInputs,
                  report: ExperimentReport | None = None) -> None:
    """report.csv: the bounds, then the measurements when there are any."""
    rows = ["quantity,cycles,ns"]
    for name, cycles, ns in analysis.bound_rows(inputs):
        rows.append(f"{name},{cycles},{ns:.2f}")
    if report is not None:
        for name in ("measured_max", "measured_mean"):
            rows.append(f"{name}_delay,{report.text(name)},"
                        f"{inputs.timing.ns(getattr(report, name)):.2f}")
        for name in ("margin_full", "margin_nowq"):
            rows.append(f"{name}_ratio,{report.text(name)},")
        for name in ("violations_full", "violations_nowq", "violations_baseline"):
            rows.append(f"{name},{report.text(name)},")
    _write(out / "report.csv", "\n".join(rows) + "\n")


def simulate(spec: ScenarioSpec, out_dir) -> "tuple":
    """Run a scenario and emit its trace/stats/scenario files."""
    trace, workload = run_scenario(spec)
    _emit(Path(out_dir), trace, spec)
    return trace, workload


def compare(spec: ScenarioSpec, out_dir=None) -> ExperimentReport:
    """Single run with all three bounds and the measured delays side by side."""
    _analyzed_core(spec)  # fail before the run, not after it
    trace, _ = run_scenario(spec)
    inputs = analysis.AnalysisInputs.for_scenario(spec, trace)
    report = _evaluate(trace, spec, inputs)
    if out_dir is not None:
        _emit(Path(out_dir), trace, spec)
        _write_report(Path(out_dir), inputs, report)
    return report


def sweep(kind, n_interferers: int, seeds, out_dir=None,
          latency_budget: int = 25, mshr: MshrConfig | None = None,
          staged: bool = False) -> list[ExperimentReport]:
    """Run the analyzed task against n interferers for each seed.

    Live mode (default) co-runs generators and reports the normalized
    response time against a solo run; staged mode replays the pre-loaded
    worst-case initial conditions instead. ``mshr`` is the MSHR
    configuration of either.
    """
    kind = GeneratorKind(kind)
    reports = []
    for seed in seeds:
        if staged:
            spec = build_adversarial(interferer_kind=kind, seed=seed,
                                     n_interferers=n_interferers, mshr=mshr)
        else:
            spec = live_scenario(kind, n_interferers, seed,
                                 latency_budget=latency_budget, mshr=mshr)
        trace, _ = run_scenario(spec)
        slowdown = None
        if not staged:
            solo_trace, _ = run_scenario(solo_variant(spec))
            slowdown = (core_span(trace, spec.analyzed_core)
                        / core_span(solo_trace, spec.analyzed_core))
        reports.append(evaluate(trace, spec, slowdown=slowdown))
        if out_dir is not None:
            _emit(Path(out_dir) / f"seed_{seed}", trace, spec)
    if out_dir is not None:
        lines = [ExperimentReport.CSV_HEADER]
        lines += [r.csv_row() for r in sorted(reports, key=lambda r: r.seed)]
        _write(Path(out_dir) / "summary.csv", "\n".join(lines) + "\n")
    return reports


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_seeds(text: str) -> list[int]:
    """``--seeds``: one seed ``N`` or the inclusive range ``LO..HI``."""
    try:
        bounds = [int(part) for part in text.split("..")]
    except ValueError:
        bounds = []
    if not 1 <= len(bounds) <= 2:
        raise ScenarioError(f"--seeds {text!r}: expected N or LO..HI")
    if bounds[-1] < bounds[0]:
        raise ScenarioError(f"--seeds {text!r}: empty range")
    return list(range(bounds[0], bounds[-1] + 1))


def _read(path) -> str:
    """Text of a ``--scenario`` or ``--config`` file; one that cannot be
    read is a ScenarioError naming it."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from None


def _analysis_inputs(values: dict) -> analysis.AnalysisInputs:
    values = dict(values)
    timing = make_timing({k: values.pop(k) for k in TIMING_KEYS if k in values})
    return analysis.AnalysisInputs(timing, **values)


def load_analysis(path) -> analysis.AnalysisInputs:
    """Read an ``analyze --config`` file: optional ``key value`` lines whose
    keys are the timing keys plus every AnalysisInputs field but ``timing``.

    A range error names the line from which on the values read so far for
    the keys that the failing check read, the defaults standing in for all
    other keys, stay invalid. An error masked by an earlier one then names
    its own line.
    """
    names = tuple(f.name for f in fields(analysis.AnalysisInputs) if f.name != "timing")
    table = {**codecs(TimingParams, TIMING_KEYS), **codecs(analysis.AnalysisInputs, names)}
    lines = list(read_lines(_read(path)))
    values = read_pairs(lines, table, ScenarioError)
    try:
        return _analysis_inputs(values)
    except (TimingError, analysis.AnalysisError) as exc:
        since, read = None, {}
        for lineno, (key, _) in lines:
            if key not in exc.keys:
                continue
            read[key] = values[key]
            try:
                _analysis_inputs(read)
                since = None
            except (TimingError, analysis.AnalysisError):
                since = since or lineno
        raise type(exc)(f"line {since}: {exc}") from None


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    try:
        if getattr(args, "prioritized_bank", None) is not None:
            spec = replace(spec, scheduler=replace(
                spec.scheduler, prioritized_bank=args.prioritized_bank))
        if getattr(args, "mshr_reserve", None) is not None:
            spec = replace(spec, mshr=replace(
                spec.mshr, reserve_per_core=args.mshr_reserve))
    except ValueError as exc:
        raise ScenarioError(f"bad override: {exc}") from None
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dramwc",
        description="Memory-controller simulation and worst-case interference bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="emit and run a named scenario")
    p_preset.add_argument("name", choices=sorted(_PRESETS))

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("--scenario", required=True)

    p_an = sub.add_parser("analyze", help="compute bounds from a config file")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out")

    p_cmp = sub.add_parser("compare", help="bounds vs. one simulated scenario")
    src = p_cmp.add_mutually_exclusive_group()
    src.add_argument("--preset", choices=sorted(_PRESETS))
    src.add_argument("--scenario")
    p_cmp.add_argument("--kind", default="bandwidth_write",
                       choices=[k.value for k in GeneratorKind])
    p_cmp.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="seeded interference experiments")
    p_sweep.add_argument("--kind", required=True,
                         choices=[k.value for k in GeneratorKind])
    p_sweep.add_argument("--n", type=int, default=3, choices=(1, 2, 3))
    p_sweep.add_argument("--seeds", default="0..4")
    p_sweep.add_argument("--staged", action="store_true",
                         help="replay staged worst cases instead of live runs")
    for p in (p_preset, p_sim, p_cmp, p_sweep):
        p.add_argument("--out", required=True)
    for p in (p_sim, p_cmp):
        p.add_argument("--prioritized-bank", type=int)
    for p in (p_sim, p_cmp, p_sweep):
        p.add_argument("--mshr-reserve", type=int)

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ScenarioError, TimingError, analysis.AnalysisError) as exc:
        parser.error(str(exc))


def _run_command(args) -> int:
    if args.command == "preset":
        spec = preset(args.name)
        trace, _ = simulate(spec, args.out)
        print(f"{spec.label}: {len(trace.issues)} commands, "
              f"{len(trace.completions)} completions, "
              f"{trace.total_cycles} cycles")
        return 0

    if args.command == "simulate":
        spec = scenario_from_text(_read(args.scenario))
        spec = _apply_overrides(spec, args)
        trace, _ = simulate(spec, args.out)
        print(f"{spec.label}: {len(trace.completions)} completions in "
              f"{trace.total_cycles} cycles -> {args.out}")
        return 0

    if args.command == "analyze":
        inputs = load_analysis(args.config)
        print(analysis.format_bound_table(inputs), end="")
        if args.out:
            _write_report(Path(args.out), inputs)
        return 0

    if args.command == "compare":
        if args.preset:
            spec = preset(args.preset)
        elif args.scenario:
            spec = scenario_from_text(_read(args.scenario))
        else:
            spec = build_adversarial(interferer_kind=args.kind, seed=args.seed)
        spec = _apply_overrides(spec, args)
        report = compare(spec, args.out)
        print(f"{report.scenario}: measured max {report.measured_max}, "
              f"bound(full) {report.bound_full}, "
              f"bound(nowq) {report.bound_nowq}, "
              f"baseline {report.bound_baseline}")
        return 0

    if args.command == "sweep":
        mshr = _apply_overrides(ScenarioSpec(), args).mshr
        reports = sweep(args.kind, args.n, _parse_seeds(args.seeds),
                        out_dir=args.out, mshr=mshr, staged=args.staged)
        for report in reports:
            slowdown = "-" if report.slowdown is None else f"{report.slowdown:.2f}"
            print(f"seed {report.seed}: max delay {report.measured_max}, "
                  f"slowdown {slowdown}, violations "
                  f"full={report.violations_full} nowq={report.violations_nowq}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
