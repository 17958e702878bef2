"""The benchmark's output gate as a tier-1 test.

One pass of each workload that ``BENCHMARK.json`` declares, run as
``perfbench/run.py --workload W --seed 1 --seconds 0``, must write files
whose digests match ``perfbench/references.json``. A change that moves any
benchmark output, a speed-up included, then fails here and not only in a
benchmark run. Each run works in a copy of ``src/dramwc``, ``perfbench/``
and ``BENCHMARK.json`` under a temporary directory, so it writes nothing
into the repository and cannot collide with a benchmark run there. The
three runs take about 3 s on a 2-core host. A last test checks that no
live call of the benchmark ends with an analyzed read still pending.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dramwc.harness import live_scenario
from dramwc.workload import MshrConfig, run_scenario

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "_work")
    shutil.copytree(ROOT / "src" / "dramwc", root / "src" / "dramwc", ignore=skip)
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_writes_the_reference_outputs(checkout, workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr[-4000:]
    assert result["attempted"] > 0


def test_no_live_call_ends_with_an_analyzed_read_pending(monkeypatch):
    # read_delays counts only completed reads, so a read still pending when
    # a run ends would leave the measurement unseen. No live call of the
    # benchmark's grids has one, so counting pending reads moves no digest.
    spec = importlib.util.spec_from_file_location("perfbench_plans",
                                                  ROOT / "perfbench" / "plans.py")
    plans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, plans)  # for its dataclasses
    spec.loader.exec_module(plans)
    ops = [op for workload in ("live_write", "live_read") for op in plans.grid(workload)]
    assert len(ops) == 18 and not any(op.staged for op in ops)
    for op in ops:
        scenario = live_scenario(op.kind, op.n_interferers, op.seed,
                                 latency_budget=op.latency_budget,
                                 mshr=MshrConfig(reserve_per_core=op.reserve))
        trace, _ = run_scenario(scenario)
        pending = [req.request_id for req in trace.requests
                   if req.core == scenario.analyzed_core and not req.is_write
                   and req.completion_cycle is None]
        assert not pending, f"{op.key}: analyzed reads {pending} pending at the end"
