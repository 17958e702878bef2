"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys

import pytest

import plans
import run
import tracing


def _truncated(workload, seed, count):
    session = run.setup(workload, seed)
    session.ops = session.ops[:count]
    session.sweep_args = session.sweep_args[:count]
    return session


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_plans_are_seeded_and_covered_by_references(workload):
    references = json.loads(run.REFERENCES.read_text())["ops"]
    grid = set(plans.grid(workload))
    for seed in range(20):
        ops = plans.plan(workload, seed)
        assert ops == plans.plan(workload, seed)
        assert set(ops) <= grid
        assert all(op.key in references for op in ops)
    assert plans.plan(workload, 1) != plans.plan(workload, 2)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(plans.plan(workload, 3)) * (1 + trace)
    declared = run.declared_metrics(trace=bool(trace))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_altered_reference_digest_fails_the_call():
    session = _truncated("staged_sweep", 0, 1)
    assert run.run_op(session, 0).ok
    key = session.ops[0].key
    digests = list(session.references[key])
    digests[1] = "0" * len(digests[1])
    session.references = {**session.references, key: digests}
    phase = run.Phase()
    phase.run_pass(session)
    assert [r.ok for r in phase.results()] == [False]


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_seed_changes_the_digests_and_repeats_them(workload):
    a, b = plans.plan(workload, 1), plans.plan(workload, 2)
    i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    # Each set-up imports dramwc afresh, so a session is used before the next.
    session = run.setup(workload, 1)
    first, again = run.run_op(session, i), run.run_op(session, i)
    other = run.run_op(run.setup(workload, 2), i)
    assert first.ok and again.ok and other.ok
    assert first.digests == again.digests
    assert first.digests != other.digests


def _traced_metrics(session):
    phase, tracer = run.traced_pass(session)
    assert all(r.ok for r in phase.results())
    return tracing.layer_metrics(tracer, 1.0, 1.0)


def test_per_layer_counts_repeat_and_match_the_layer_predictions():
    units = run.declared_metrics(trace=True)
    exact = [n for n, unit in units.items() if unit in ("count", "ratio")
             and n != "trace.overhead"]
    metrics = {}
    for workload in plans.WORKLOADS:
        session = _truncated(workload, 0, 1 if workload in plans.LIVE else 8)
        run.Phase().run_pass(session)  # warm solo_service's cache, as a run does
        first, second = _traced_metrics(session), _traced_metrics(session)
        assert set(first) == set(units)
        assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
        metrics[workload] = first
    for live in plans.LIVE:
        assert metrics[live]["harness.stop.calls"] > 0
        assert metrics[live]["workload.generator_emit.calls"] > 0
    assert metrics["staged_sweep"]["harness.stop.calls"] == 0
    assert metrics["staged_sweep"]["workload.generator_emit.calls"] == 0
    assert metrics["live_read"]["scheduler.mode_switches"] == 0
    assert metrics["live_write"]["scheduler.mode_switches"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_read",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
