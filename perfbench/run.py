"""dramwc benchmark: times seeded ``harness.sweep`` workloads end to end,
checks every output file against committed digests, and, with ``--trace 1``,
reports per-layer counts and self time from a separate traced pass.

    python3 perfbench/run.py --workload live_write --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Host times are
scaled to the nominal host speed of ``hostspeed``; the ``record`` line also
gives them unscaled. Single process, no threads. ``--write-references``
regenerates ``references.json`` by running every call in every workload's
grid; a normal run never writes it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import plans
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = WORK / "out"
REFERENCES = BENCH / "references.json"
LAYERS = ("device", "scheduler", "workload", "checks", "analysis", "harness")
SETUP_REPEATS = 7
PROBE_EVERY_S = 0.25
DIGEST_HEX = 16

VALIDITY = ("The model is not validated against hardware, so no error figure "
            "is given. The repo's only reference results are the paper's "
            "figure replays and its 120/112/232-cycle constants, pinned by "
            "acceptance tests c1 and c2. Full-bound violations in live "
            "co-runs are simulated results covered by the digests, not "
            "failed operations.")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no dramwc source, no references)."""


@dataclass
class Session:
    """Everything a timed run needs, built by one set-up."""

    modules: object
    ops: list
    sweep_args: list
    references: dict
    cycles: int = 0  # simulated so far, solo runs included


def load_dramwc():
    """Import dramwc afresh from this checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dramwc" or m.startswith("dramwc.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("dramwc")
    except ImportError as exc:
        raise SetupError(f"cannot import dramwc from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "dramwc":
        raise SetupError(f"dramwc imported from {package.__file__}, not {SRC}")
    modules = type("Modules", (), {})()
    for layer in LAYERS:
        setattr(modules, layer, importlib.import_module(f"dramwc.{layer}"))
    return modules


def sweep_kwargs(modules, op: plans.Op) -> dict:
    if op.staged:
        return {"staged": True}
    return {"latency_budget": op.latency_budget,
            "mshr": modules.workload.MshrConfig(reserve_per_core=op.reserve)}


def _count_cycles(session: Session) -> None:
    """Add every simulated run's cycles, solo runs included, to the session."""
    controller = session.modules.scheduler.Controller
    run = vars(controller)["run"]

    def counted(self, *args, **kwargs):
        trace = run(self, *args, **kwargs)
        session.cycles += trace.total_cycles
        return trace

    controller.run = counted


def setup(workload: str, seed: int) -> Session:
    """Import dramwc, construct every planned scenario, read the references.

    The import replaces the modules of any earlier session, so only the
    latest session may run.
    """
    m = load_dramwc()
    ops = plans.plan(workload, seed)
    sweep_args = [sweep_kwargs(m, op) for op in ops]
    for op, kwargs in zip(ops, sweep_args):
        if op.staged:
            m.workload.build_adversarial(interferer_kind=op.kind, seed=op.seed,
                                         n_interferers=op.n_interferers)
        else:
            m.harness.solo_variant(m.harness.live_scenario(
                op.kind, op.n_interferers, op.seed,
                latency_budget=op.latency_budget, mshr=kwargs["mshr"]))
    try:
        references = json.loads(REFERENCES.read_text())["ops"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read {REFERENCES}: {exc}") from exc
    session = Session(m, ops, sweep_args, references)
    _count_cycles(session)
    return session


def file_digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()[:DIGEST_HEX]
        for path in sorted(out.rglob("*")) if path.is_file()
    }


@dataclass
class OpResult:
    seconds: float
    cycles: int
    ok: bool
    violations: int = 0
    digests: dict = field(default_factory=dict)
    probe: int = 0  # index of the host-speed probe taken just before the call


def run_op(session: Session, index: int, check: bool = True) -> OpResult:
    """Time one sweep call, then compare its files with the references."""
    op = session.ops[index]
    if OUT.exists():
        shutil.rmtree(OUT)
    sweep = session.modules.harness.sweep
    gc.collect()
    before = session.cycles
    start = time.perf_counter()
    try:
        reports = sweep(op.kind, op.n_interferers, [op.seed], out_dir=OUT,
                        **session.sweep_args[index])
    except Exception:
        seconds = time.perf_counter() - start
        print(f"error: {op.key} raised\n{traceback.format_exc()}", file=sys.stderr)
        return OpResult(seconds, session.cycles - before, False)
    seconds = time.perf_counter() - start
    result = OpResult(seconds, session.cycles - before, True,
                      sum(r.violations_full for r in reports), file_digests(OUT))
    if check:
        expected = dict(zip(op.files(), session.references.get(op.key, [])))
        if result.digests != expected:
            print(f"error: {op.key} wrote files that differ from the references: "
                  f"got {result.digests}, expected {expected}", file=sys.stderr)
            result.ok = False
    return result


@dataclass
class Phase:
    """Passes over the plan, with the host-speed probes taken between calls."""

    probes: list = field(default_factory=lambda: [hostspeed.probe()])
    passes: list = field(default_factory=list)

    def run_pass(self, session: Session) -> None:
        results, since = [], 0.0
        for i in range(len(session.ops)):
            result = run_op(session, i)
            result.probe = len(self.probes) - 1
            results.append(result)
            since += result.seconds
            if since >= PROBE_EVERY_S or i == len(session.ops) - 1:
                self.probes.append(hostspeed.probe())
                since = 0.0
        self.passes.append(results)

    def scaled(self, result: OpResult) -> float:
        k = result.probe
        return hostspeed.scale(result.seconds, self.probes[k], self.probes[k + 1])

    def results(self) -> list[OpResult]:
        return [r for results in self.passes for r in results]

    def pass_seconds(self, scaled: bool = True) -> list[float]:
        return [sum(self.scaled(r) if scaled else r.seconds for r in results)
                for results in self.passes]

    def pass_cycles(self) -> list[int]:
        return [sum(r.cycles for r in results) for results in self.passes]


def measure(session: Session, seconds: float) -> Phase:
    """Run whole passes of the plan until ``seconds`` have elapsed."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        phase.run_pass(session)
        if time.perf_counter() >= deadline:
            return phase


def traced_pass(session: Session) -> tuple[Phase, tracing.Tracer]:
    phase = Phase()
    tracer = tracing.Tracer()
    with tracing.traced(session.modules, tracer):
        phase.run_pass(session)
    return phase, tracer


def timed_setups(workload: str, seed: int) -> tuple[Session, list[float], list[float]]:
    """Set up SETUP_REPEATS times; the seconds of each, scaled and unscaled."""
    probes, raw = [hostspeed.probe()], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        session = setup(workload, seed)
        raw.append(time.perf_counter() - start)
        probes.append(hostspeed.probe())
    scaled = [hostspeed.scale(s, probes[i], probes[i + 1]) for i, s in enumerate(raw)]
    return session, scaled, raw


def end_to_end(phase: Phase, setup_seconds: list[float]) -> dict[str, float]:
    wall = statistics.median(phase.pass_seconds())
    cycles = phase.pass_cycles()[0]
    # A scenario's latency is the median over the run's passes; the
    # percentiles are taken across the plan's scenarios.
    op_ms = [statistics.median(phase.scaled(r) * 1000 for r in calls)
             for calls in zip(*phase.passes)]
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": wall,
        "sim_cycles_per_s": cycles / wall,
        "scenario_ms.p50": statistics.median(op_ms),
        "scenario_ms.p95": statistics.quantiles(op_ms, n=20)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": cycles,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a
    git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_references() -> None:
    """Run every call of every workload grid once and record its digests."""
    refs = {}
    for workload in plans.WORKLOADS:
        modules = load_dramwc()
        ops = plans.grid(workload)
        session = Session(modules, ops, [sweep_kwargs(modules, op) for op in ops], {})
        for i, op in enumerate(ops):
            result = run_op(session, i, check=False)
            if not result.ok or sorted(result.digests) != sorted(op.files()):
                raise SystemExit(f"{op.key}: no clean reference run")
            refs[op.key] = [result.digests[f] for f in op.files()]
        print(f"{workload}: {len(ops)} calls", flush=True)
    shutil.rmtree(OUT, ignore_errors=True)
    REFERENCES.write_text(json.dumps(
        {"digest": f"sha256, first {DIGEST_HEX} hex digits",
         "files": "trace.csv, stats.txt, scenario.txt of the sweep seed, then summary.csv",
         "ops": refs}, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    load_start = os.getloadavg()
    try:
        declared = declared_metrics(bool(args.trace))
        session, setup_seconds, setup_raw = timed_setups(args.workload, args.seed)
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()  # keep the benchmark's own state out of the program's GC passes

    phase = measure(session, args.seconds)
    metrics = end_to_end(phase, setup_seconds)
    attempted = len(phase.results())
    failed = sum(not r.ok for r in phase.results())
    correct = len(set(phase.pass_cycles())) == 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "passes": len(phase.passes), "scenarios": len(session.ops),
        "unscaled": {"setup_s": statistics.median(setup_raw),
                     "wall_s": statistics.median(phase.pass_seconds(scaled=False))},
        "probe_s": {"nominal": hostspeed.NOMINAL_S,
                    "median": statistics.median(phase.probes),
                    "min": min(phase.probes), "max": max(phase.probes)},
        "full_bound_violations": sum(r.violations for r in phase.results()),
    }
    if args.trace:
        traced, tracer = traced_pass(session)
        (traced_s,), (traced_raw,) = traced.pass_seconds(), traced.pass_seconds(False)
        correct = correct and traced.pass_cycles() == phase.pass_cycles()[:1]
        attempted += len(traced.results())
        failed += sum(not r.ok for r in traced.results())
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.bin")
        record["spans"] = len(tracer.starts)
        metrics = tracing.layer_metrics(tracer, traced_s / traced_raw,
                                        traced_s / metrics["wall_s"])
    shutil.rmtree(OUT, ignore_errors=True)

    record.update({"ops_failed_frac": failed / attempted,
                   "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                   "validity": VALIDITY})
    print("record " + json.dumps(record))
    for name, unit in declared.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
