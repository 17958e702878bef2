"""Command-line front end: named scenario presets, single simulations,
bound/measurement comparisons, and randomized interference sweeps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import analysis
from .device import TIMING_KEYS, TimingParams, make_timing
from .keyvalue import InputError, build, codecs, read_lines
from .scheduler import Mode
from .workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    ScenarioError,
    ScenarioSpec,
    StagedRequest,
    build_adversarial,
    interferer_cores,
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
        raise ScenarioError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")


def live_scenario(kind: GeneratorKind | str, n_interferers: int = 3,
                  seed: int = 0, latency_budget: int = 25,
                  mshr: MshrConfig | None = None) -> ScenarioSpec:
    """Latency-style analyzed task on core 0 co-running with n interferers."""
    kind = GeneratorKind(kind)
    generators = [GeneratorSpec(GeneratorKind.LATENCY, core=0, bank=0, budget=latency_budget)]
    generators += [GeneratorSpec(kind, core=c, bank=c) for c in interferer_cores(n_interferers)]
    return ScenarioSpec(
        label=f"live-{kind.value}-x{n_interferers}-{seed}",
        open_rows={core: 100 + core for core in range(n_interferers + 1)},
        generators=generators,
        horizon=60_000,
        analyzed_core=0,
        num_cores=n_interferers + 1,
        mshr=mshr or MshrConfig(),
        seed=seed,
    )


def solo_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scenario with only the analyzed core's generator running."""
    keep = [g for g in spec.generators if g.core == spec.analyzed_core]
    if not keep:
        raise ScenarioError("scenario has no generator on the analyzed core")
    return replace(spec, label=spec.label + "-solo", generators=keep, prestage=[])


def core_span(trace, core: int) -> int:
    """Cycles from the first arrival to the last completion for one core."""
    completions = [r for r in trace.completions if r.core == core]
    if not completions:
        raise analysis.AnalysisError(f"core {core} completed nothing")
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
    delays = analysis.read_delays(trace, _analyzed_core(spec))
    per_request = analysis.bounds(analysis.AnalysisInputs.for_scenario(spec, trace))
    worst = max(delays)
    margin = {name: bound / worst if worst > 0 else math.inf
              for name, bound in per_request.items()}
    violations = {name: sum(d > bound for d in delays)
                  for name, bound in per_request.items()}
    return ExperimentReport(
        scenario=spec.label,
        seed=spec.seed,
        bound_full=per_request["full"],
        bound_nowq=per_request["no_write_queue"],
        bound_baseline=per_request["baseline"],
        measured_max=worst,
        measured_mean=sum(delays) / len(delays),
        margin_full=margin["full"],
        margin_nowq=margin["no_write_queue"],
        violations_full=violations["full"],
        violations_nowq=violations["no_write_queue"],
        violations_baseline=violations["baseline"],
        slowdown=slowdown,
    )


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _make_dir(out_dir) -> str:
    """Make the output directory ``out_dir``, reusing one that exists, and
    return its path as a string. One ``os.mkdir`` makes it, and
    ``os.makedirs`` runs only when a parent is missing. A path that cannot
    be made into a directory, the empty one included, is a ScenarioError
    naming it."""
    path = os.fspath(out_dir)
    try:
        try:
            os.mkdir(path)
        except FileNotFoundError:  # a parent is missing
            os.makedirs(path)
    except OSError as exc:
        if not (isinstance(exc, FileExistsError) and os.path.isdir(path)):
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from None
    return path


def _write(out: str, files: dict[str, str]) -> None:
    """Write each named file's UTF-8 bytes into the directory ``out``, which
    the caller has made. Each file is one open, one write (resumed if the
    write is partial) and one close by string path, past the text and
    buffer layers that ``Path.write_text`` stacks on the descriptor. A file
    that cannot be opened is a ScenarioError naming it."""
    for name, content in files.items():
        data = memoryview(content.encode("utf-8"))
        path = os.path.join(out, name)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        except OSError as exc:
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from None
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def _emit(out: str, trace, spec: ScenarioSpec) -> None:
    """Write one run's trace.csv, stats.txt and scenario.txt into the
    directory ``out``, which the caller has made."""
    _write(out, {"trace.csv": trace.to_csv(), "stats.txt": trace.stats_text(),
                 "scenario.txt": scenario_to_text(spec)})


def _write_report(out: str, inputs: analysis.AnalysisInputs,
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
    _write(out, {"report.csv": "\n".join(rows) + "\n"})


def simulate(spec: ScenarioSpec, out_dir) -> "tuple":
    """Run a scenario and emit its trace/stats/scenario files into
    ``out_dir``, which is made before the run."""
    out = _make_dir(out_dir)
    trace, workload = run_scenario(spec)
    _emit(out, trace, spec)
    return trace, workload


def compare(spec: ScenarioSpec, out_dir=None) -> ExperimentReport:
    """Single run with all three bounds and the measured delays side by side."""
    _analyzed_core(spec)  # fail before the run, not after it
    out = None if out_dir is None else _make_dir(out_dir)
    trace, _ = run_scenario(spec)
    report = evaluate(trace, spec)
    if out is not None:
        _emit(out, trace, spec)
        _write_report(out, analysis.AnalysisInputs.for_scenario(spec, trace), report)
    return report


def sweep(kind, n_interferers: int, seeds, out_dir=None,
          latency_budget: int = 25, mshr: MshrConfig | None = None,
          staged: bool = False) -> list[ExperimentReport]:
    """Run the analyzed task against n interferers for each seed.

    Live mode (default) co-runs generators and reports the normalized
    response time against a solo run; staged mode replays the pre-loaded
    worst-case initial conditions instead. ``mshr`` is the MSHR
    configuration of either.

    With ``out_dir``, the directory is made before the first run, each
    seed's files go into ``seed_N`` inside it, made when that seed's run
    ends, and ``summary.csv`` comes last: into a missing ``out_dir`` that is
    one ``os.mkdir`` per directory and one open, write and close per file.
    """
    kind = GeneratorKind(kind)
    out = None if out_dir is None else _make_dir(out_dir)
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
        if out is not None:
            _emit(_make_dir(os.path.join(out, f"seed_{seed}")), trace, spec)
    if out is not None:
        lines = [ExperimentReport.CSV_HEADER]
        lines += [r.csv_row() for r in sorted(reports, key=lambda r: r.seed)]
        _write(out, {"summary.csv": "\n".join(lines) + "\n"})
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


def _analysis_inputs(**values) -> analysis.AnalysisInputs:
    timing = make_timing({k: values.pop(k) for k in TIMING_KEYS if k in values})
    return analysis.AnalysisInputs(timing, **values)


def load_analysis(path) -> analysis.AnalysisInputs:
    """Read an ``analyze --config`` file: optional ``key value`` lines whose
    keys are the timing keys plus every AnalysisInputs field but ``timing``.
    A range error names its line as :func:`keyvalue.build` does."""
    names = tuple(f.name for f in fields(analysis.AnalysisInputs) if f.name != "timing")
    table = {**codecs(TimingParams, TIMING_KEYS), **codecs(analysis.AnalysisInputs, names)}
    return build(list(read_lines(_read(path))), table, _analysis_inputs, ScenarioError)


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    if getattr(args, "mshr_reserve", None) is not None:
        spec = replace(spec, mshr=replace(
            spec.mshr, reserve_per_core=args.mshr_reserve))
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
    p_cmp.add_argument("--kind", choices=[k.value for k in GeneratorKind],
                       help="staged interferer kind (default bandwidth_write)")
    p_cmp.add_argument("--seed", type=int, help="staged seed (default 0)")

    p_sweep = sub.add_parser("sweep", help="seeded interference experiments")
    p_sweep.add_argument("--kind", required=True,
                         choices=[k.value for k in GeneratorKind])
    p_sweep.add_argument("--n", type=int, default=3)
    p_sweep.add_argument("--seeds", default="0..4")
    p_sweep.add_argument("--staged", action="store_true",
                         help="replay staged worst cases instead of live runs")
    for p in (p_preset, p_sim, p_cmp, p_sweep):
        p.add_argument("--out", required=True)
    for p in (p_sim, p_cmp, p_sweep):
        p.add_argument("--mshr-reserve", type=int)

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except InputError as exc:
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
        out = None if args.out is None else _make_dir(args.out)
        print(analysis.format_bound_table(inputs), end="")
        if out is not None:
            _write_report(out, inputs)
        return 0

    if args.command == "compare":
        for flag, value in (("--kind", args.kind), ("--seed", args.seed)):
            if value is not None and (args.preset or args.scenario):
                raise ScenarioError(f"{flag} applies only to the staged worst case, "
                                    f"not to --preset or --scenario")
        if args.preset:
            spec = preset(args.preset)
        elif args.scenario:
            spec = scenario_from_text(_read(args.scenario))
        else:  # staged through an MSHR file of the reservation it runs with
            spec = build_adversarial(interferer_kind=args.kind or "bandwidth_write",
                                     seed=args.seed or 0,
                                     mshr=_apply_overrides(ScenarioSpec(), args).mshr)
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
