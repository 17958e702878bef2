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
HARNESS, KEYVALUE = "src/dramwc/harness.py", "src/dramwc/keyvalue.py"
CHECKS = "src/dramwc/checks.py"


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
    # The certified spans of Controller.run, the (bank, row) groups that
    # they are certified from, and the oracle's scan key.
    Mutant("arrivals-do-not-shorten-the-span", SCHEDULER, "if ready < quiet_until:",
           "if False:",
           "an arrival that opens a group ends a certified span at its head's "
           "first-ready cycle"),
    Mutant("arrivals-never-scan-a-new-group", SCHEDULER,
           "ready = first_ready(self, quiet_len)", "ready = first_ready(self, heads)",
           "an arrival into a certified span has the head of each group it opens scanned"),
    Mutant("enqueue-drops-a-joining-request", SCHEDULER,
           "groups.setdefault((req.bank, req.row), []).append(req)",
           "groups.setdefault((req.bank, req.row), [req])",
           "every accepted request joins its (bank, row) group"),
    Mutant("first-ready-trusts-the-groups", CHECKS, "if grouped != queued:", "if False:",
           "a full certification fails when the groups and the queue disagree"),
    Mutant("certification-skips-mode-due", SCHEDULER,
           "if mode_due() is not None:\n                    quiet_until = cycle",
           "if False:\n                    quiet_until = cycle",
           "a visit at which a mode switch is due is stepped"),
    Mutant("span-ends-a-cycle-late", SCHEDULER,
           "quiet_until, quiet_len = first_ready(self), len(self.active_groups)",
           "quiet_until, quiet_len = first_ready(self) + 1, len(self.active_groups)",
           "a span certified after an issue ends at the first-ready cycle"),
    Mutant("switch-leaves-the-active-queue-stale", SCHEDULER,
           "self.active_queue, self.active_groups = self.write_queue, self.write_groups",
           "pass",
           "a mode switch makes the queue that the new mode names the active one"),
    Mutant("target-ignores-the-bank", SCHEDULER,
           "req.target = (req.row * self.config.num_banks + req.bank) * 2 + req.is_write",
           "req.target = req.row * 2 + req.is_write",
           "the oracle shares a head only among requests to one (bank, row, is_write)"),
    Mutant("probe-gap-1", WORKLOAD, "self.ready_at = now + 1 + self.spec.gap",
           "self.ready_at = now + self.spec.gap",
           "a dependent read leaves no earlier than the cycle after its data "
           "plus the compute gap"),
    # The poll schedule of Controller.run and Workload.poll and notify.
    Mutant("no-wake-after-completion", WORKLOAD,
           "return now + 1 if woken and self.generators else NEVER",
           "return NEVER",
           "a completion that frees an MSHR entry or unblocks its generator "
           "wakes the workload on the next visit"),
    Mutant("freed-entry-no-wake", WORKLOAD,
           "freed = (mshr.writes_total if is_write else mshr.reads[core]) < held",
           "freed = False",
           "an MSHR entry still free after the completion's own re-issue wakes "
           "the parked generators"),
    Mutant("notify-ignores-completing-generator", WORKLOAD,
           "woken = freed or gen is not None and not gen.done() and not gen.blocked(mshr.admits)",
           "woken = freed",
           "a completion whose generator is neither done nor blocked wakes it"),
    Mutant("budget-bound-off-by-one", WORKLOAD,
           "self.left = NEVER if spec.budget is None else spec.budget",
           "self.left = NEVER if spec.budget is None else spec.budget + 1",
           "a generator submits no more requests than its budget"),
    Mutant("budgeted-workload-endless", WORKLOAD, "self.endless |= gspec.budget is None",
           "self.endless = True",
           "a run whose sources are all budgeted ends once they are exhausted and "
           "the controller is idle"),
    Mutant("blocked-ignores-write-debt", WORKLOAD,
           "return not admits(core, False) and not (self.write_debt and admits(core, True))",
           "return not admits(core, False)",
           "a bandwidth_write generator that owes a write-back the MSHR file "
           "admits is not blocked"),
    Mutant("stream-blocked-as-reader", WORKLOAD,
           "return not admits(self.spec.core, self.pattern[self.pos])",
           "return not admits(self.spec.core, False)",
           "a stream is blocked by its next pattern entry, a read or a write"),
    # Bank partitioning, in Workload's placement rules.
    Mutant("two-generators-on-one-core", WORKLOAD, "if core in self.gen_by_core:",
           "if False:", "a core has at most one generator"),
    Mutant("bank-shared-by-two-cores", WORKLOAD, "if owner != core:", "if False:",
           "no bank is used by two cores"),
    Mutant("core-on-two-banks", WORKLOAD, "if owned != bank:", "if False:",
           "each core uses one bank"),
    Mutant("zero-analyzed-budget", WORKLOAD, "if gspec.budget == 0:", "if False:",
           "the analyzed core's generator has a budget above 0"),
    # Bad input, as a keyed error naming its line.
    Mutant("staged-is_write-untyped", WORKLOAD, "if type(staged.is_write) is not bool:",
           "if False:", "a staged request's is_write is a bool"),
    Mutant("section-error-at-header", KEYVALUE, 'f"line {since or at}: {exc}"',
           'f"line {at or since}: {exc}"',
           "a keyed error in a section names the line from which its keys stay "
           "invalid, not the section header"),
    # The offline trace checks.
    Mutant("issue-log-order-unchecked", CHECKS, "if cur.cycle < prev.cycle:", "if False:",
           "the issue log is in cycle order, which the later checks read it in"),
    # The analysis.
    Mutant("write-term-without-twtr", ANALYSIS,
           "return spec.scheduler.drain_batch * spec.timing.trc + spec.timing.twtr",
           "return spec.scheduler.drain_batch * spec.timing.trc",
           "the write-drain term charges one write-to-read turnaround"),
    Mutant("task-total-counts-every-core", ANALYSIS,
           "r.core == spec.analyzed_core and not r.is_write for r in trace.completions",
           "not r.is_write for r in trace.completions",
           "a task total counts the analyzed core's completed reads alone"),
    Mutant("max-prior-reads-read_cap", WORKLOAD,
           "return min(self.scheduler.read_cap - 1,",
           "return min(self.scheduler.read_cap,",
           "at most read_cap - 1 reads sit ahead of the analyzed read"),
    # The measured delay, in ScheduleTrace.delay.
    Mutant("censored-a-cycle-early", SCHEDULER, "end = self.total_cycles",
           "end = self.total_cycles - 1",
           "a request pending at the end of the run is censored at total_cycles"),
    Mutant("write-solo-as-read", SCHEDULER, "self._solo[req.is_write, req.hit_class]",
           "self._solo[False, req.hit_class]",
           "a write's delay subtracts a lone write's service time"),
    # File output.
    Mutant("write-without-resume", HARNESS,
           "while data:\n                data = data[os.write(fd, data):]",
           "os.write(fd, data)",
           "a partial write is resumed until every byte is written"),
    Mutant("mkdir-without-parents", HARNESS, "os.makedirs(path)", "os.mkdir(path)",
           "an output directory's missing parents are made"),
)

# Tests whose expected values pin the outputs of the current code, this
# table's own check, which every applied mutant fails, and the tests of the
# tools, which no mutant of src/ reaches and which the copy does not hold.
PINNED = ("TestPinnedLiveTraces", "test_probe_gates_are_pinned")
IGNORED = ("tests/test_benchmark_digests.py", "tests/test_mutants.py", "tests/test_ab.py")
# README.md is copied for the test that runs its command block.
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 1800
# A node id may hold a space (a parameter's id); pytest follows it with " - "
# and the message, if there is one.
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


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
