"""Measure what dramwc's checks catch: one-line mutants and their runner.

Each mutant replaces one exact piece of text, which occurs once in its
file, so that the code breaks one rule. The runner applies each mutant to a
temporary copy of the repository and runs the tier-1 tests there, stopping
at the first failure, and writes the test that killed each mutant, or
"survived", to ``MUTANTS.json`` in the current directory:

    python3 tools/mutants.py

The digest-pinned tests are left out. A digest detects a change, not an
error, so only a check that knows the rule counts as a kill. Mutants run in
parallel, at most ``os.cpu_count()`` at a time. The exit status is 1 unless
every mutant was killed. Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DEVICE, SCHEDULER = "src/dramwc/device.py", "src/dramwc/scheduler.py"
WORKLOAD, ANALYSIS = "src/dramwc/workload.py", "src/dramwc/analysis.py"
HARNESS = "src/dramwc/harness.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str   # occurs exactly once in the file
    new: str
    rule: str  # the rule that the mutant breaks


MUTANTS = (
    # Timing rules in device.apply_command and device.earliest_ready.
    Mutant("trcd-3", DEVICE, "at = now + timing.trcd", "at = now + timing.trcd - 3",
           "a CAS waits tRCD after its bank's ACT"),
    Mutant("trtp-2", DEVICE, "at = now + timing.trtp", "at = now + timing.trtp - 2",
           "a PRE waits tRTP after a RD to its bank"),
    Mutant("twtr-1", DEVICE, "at = end + timing.twtr", "at = end + timing.twtr - 1",
           "a RD waits tWTR after the end of a write burst"),
    Mutant("tras-2", DEVICE, "at = now + timing.tras", "at = now + timing.tras - 2",
           "a PRE waits tRAS after its bank's ACT"),
    Mutant("trp-1", DEVICE, "at = now + timing.trp", "at = now + timing.trp - 1",
           "an ACT waits tRP after its bank's PRE"),
    Mutant("trrd-1", DEVICE, "gate = hist[-1] + timing.trrd",
           "gate = hist[-1] + timing.trrd - 1", "two ACTs are at least tRRD apart"),
    Mutant("rd_wr_gap-1", DEVICE, "at = now + timing.rd_wr_gap",
           "at = now + timing.rd_wr_gap - 1",
           "a WR waits the read-to-write turnaround after a RD"),
    Mutant("tccd-1", DEVICE,
           "at = now + timing.tccd\n        if at > chan.earliest_rd_cas:",
           "at = now + timing.tccd - 1\n        if at > chan.earliest_rd_cas:",
           "two RDs are at least tCCD apart"),
    Mutant("twr-1", DEVICE, "at = end + timing.twr", "at = end + timing.twr - 1",
           "a PRE waits tWR after the end of a write burst"),
    Mutant("tfaw-1", DEVICE, "gate = hist[-4] + timing.tfaw",
           "gate = hist[-4] + timing.tfaw - 1", "at most four ACTs in any tFAW window"),
    Mutant("no-data-bus-gate", DEVICE, "gate = chan.data_bus_free - timing.cl",
           "gate = 0", "a RD's burst starts once the data bus is free"),
    # Controller policy.
    Mutant("drain-batch+1", SCHEDULER,
           "self.drained_in_batch >= self.config.drain_batch",
           "self.drained_in_batch >= self.config.drain_batch + 1",
           "a drain returns to a waiting read after drain_batch writes"),
    Mutant("fcfs-youngest-first", SCHEDULER, "(cas_rank, req.request_id)",
           "(cas_rank, -req.request_id)",
           "among commands of equal rank, the older request's goes first"),
    Mutant("drain-entry-write_cap-1", SCHEDULER,
           "len(self.write_queue) >= self.config.write_cap",
           "len(self.write_queue) >= self.config.write_cap - 1",
           "a drain starts while reads wait only once the write queue is full"),
    Mutant("probe-gap-1", WORKLOAD, "self.ready_at = now + 1 + self.spec.gap",
           "self.ready_at = now + self.spec.gap",
           "a dependent read leaves no earlier than the cycle after its data "
           "plus the compute gap"),
    # Bank partitioning, in Workload's placement rules.
    Mutant("two-generators-on-one-core", WORKLOAD, "if core in self.gen_by_core:",
           "if False:", "a core has at most one generator"),
    Mutant("bank-shared-by-two-cores", WORKLOAD, "if owner != core:", "if False:",
           "no bank is used by two cores"),
    Mutant("core-on-two-banks", WORKLOAD, "if owned != bank:", "if False:",
           "each core uses one bank"),
    Mutant("zero-analyzed-budget", WORKLOAD, "if gspec.budget == 0:", "if False:",
           "the analyzed core's generator has a budget above 0"),
    # The analysis.
    Mutant("write-term-without-twtr", ANALYSIS,
           "return inputs.drain_batch * inputs.timing.trc + inputs.timing.twtr",
           "return inputs.drain_batch * inputs.timing.trc",
           "the write-drain term charges one write-to-read turnaround"),
    Mutant("max-prior-reads-read_cap", WORKLOAD,
           "return min(self.scheduler.read_cap - 1,",
           "return min(self.scheduler.read_cap,",
           "at most read_cap - 1 reads sit ahead of the analyzed read"),
    # File output.
    Mutant("write-without-resume", HARNESS,
           "while data:\n                data = data[os.write(fd, data):]",
           "os.write(fd, data)",
           "a partial write is resumed until every byte is written"),
    Mutant("mkdir-without-parents", HARNESS, "os.makedirs(path)", "os.mkdir(path)",
           "an output directory's missing parents are made"),
)

# Tests whose expected values pin the outputs of the current code, and this
# table's own check, which every applied mutant fails.
PINNED = ("TestPinnedLiveTraces", "test_probe_gates_are_pinned")
IGNORED = ("tests/test_benchmark_digests.py", "tests/test_mutants.py")
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 1800
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with the mutant applied."""
    text = (ROOT / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run_one(mutant: Mutant) -> dict:
    """Run the tests against a copy of the repository with ``mutant``
    applied; the record of its result."""
    started, output = time.monotonic(), None
    with tempfile.TemporaryDirectory(prefix="dramwc-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "_work")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=skip)
            else:
                shutil.copy2(ROOT / name, copy / name)
        (copy / mutant.file).write_text(mutated(mutant))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *(f"--ignore={path}" for path in IGNORED),
                   "-k", " and ".join(f"not {name}" for name in PINNED)]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            proc = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result, killed_by = "killed", f"timeout after {TIMEOUT_S} s"
        else:
            found = FIRST_FAILURE.search(proc.stdout)
            if proc.returncode == 0:
                result, killed_by = "survived", None
            elif proc.returncode == 1 and found:
                result, killed_by = "killed", found.group(1)
            else:  # the tests could not run
                result, killed_by = "error", None
                output = proc.stdout[-2000:] + proc.stderr[-2000:]
    return {"name": mutant.name, "file": mutant.file, "rule": mutant.rule,
            "result": result, "killed_by": killed_by, "output": output,
            "seconds": round(time.monotonic() - started, 1)}


def main() -> int:
    workers = min(len(MUTANTS), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(run_one, MUTANTS))
    counts = {result: sum(r["result"] == result for r in records)
              for result in ("killed", "survived", "error")}
    Path("MUTANTS.json").write_text(json.dumps(
        {"python": sys.version.split()[0], **counts, "mutants": records}, indent=2) + "\n")
    for record in records:
        print(f"{record['name']:26} {record['result']:9} {record['killed_by'] or ''}")
    print(", ".join(f"{n} {result}" for result, n in counts.items()))
    return 0 if counts["survived"] == counts["error"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
