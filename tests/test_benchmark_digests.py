"""The benchmark's output gate as a tier-1 test.

One pass of each workload that ``BENCHMARK.json`` declares, run as
``perfbench/run.py --workload W --seed 1 --seconds 0``, must write files
whose digests match ``perfbench/references.json``. A change that moves any
benchmark output, a speed-up included, then fails here and not only in a
benchmark run. Each run works in a copy of ``src/dramwc``, ``perfbench/``
and ``BENCHMARK.json`` under a temporary directory, so it writes nothing
into the repository and cannot collide with a benchmark run there. The
three runs take about 3 s on a 2-core host.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
