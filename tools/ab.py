"""A/B benchmark: the working tree against a base revision, in alternating
pairs, written to one JSON record.

    python3 tools/ab.py --base REV --out BENCH_<n>.json

The base tree is extracted with ``git archive REV`` into a temporary
directory, and the change tree is a copy of the working tree's files that
git tracks or would track (``git ls-files --cached --others
--exclude-standard``), so both sides run from fresh directories built from
the local history alone. For each workload of ``BENCHMARK.json`` and each
of the seeds 11-20, ``perfbench/run.py --trace 0`` runs once per side for
the benchmark's ``run_seconds``, the base first on even pairs and the change
first on odd ones. Tune a change on other seeds.

For each workload and end-to-end metric the record gives each side's
median, Q1 and Q3, the change's wins out of the pairs (ties count for
neither) and a verdict (:func:`verdict`). It also records whether
``sim_cycles`` was equal in every pair, each side's ``correct``,
``attempted`` and ``failed``, Python, ``nproc``, both SHAs and the load
average. A run that exits non-zero or does not end with its JSON record
stops the tool with exit status 1 and one message naming its side,
workload and seed, followed by the tail of its stderr. Per-layer self
times are left out: ``perfbench/tracing.py`` still points at functions
that were renamed or deleted (``harness.stop`` reads 0), so its self times
would mislead. Standard library only; one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One pair per seed; the change must win nine tenths of them for a gain.
SEEDS = range(11, 21)
WIN_SHARE = 0.9
STDERR_TAIL = 20  # lines of a failed run's stderr in its message


class RunFailed(Exception):
    """A benchmark run that did not end with its JSON record."""


def quartiles(values: list[float]) -> dict:
    """The median, Q1 and Q3 of ``values`` (inclusive method; one value is
    its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(base: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change, strict=True))


def verdict(base: list[float], change: list[float], better: str, bound: float,
            more_failed: bool = False) -> str:
    """``gain`` when the medians differ in the better direction by more
    than the base's interquartile range, the change wins at least
    ``WIN_SHARE`` of the pairs and it fails no larger share of operations
    (``more_failed`` is false); ``worse`` when the change's median is worse
    than the base's by more than ``bound`` (a share of the base's median);
    ``unresolved`` when neither holds, the base's own spread is wider than
    that bound and some run of the change is not better than every run of
    the base; else ``within bound``."""
    b, c = quartiles(base), quartiles(change)
    sign = 1 if better == "higher" else -1
    gap = sign * (c["median"] - b["median"])  # > 0: the change is better
    allowed = bound * abs(b["median"])
    if (gap > b["q3"] - b["q1"] and wins(base, change, better) >= WIN_SHARE * len(base)
            and not more_failed):
        return "gain"
    if -gap > allowed:
        return "worse"
    if (b["q3"] - b["q1"] > allowed
            and not all(sign * (x - y) > 0 for x in change for y in base)):
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's record from its pairs: each run holds ``seed``,
    ``first`` and the ``base`` and ``change`` results of ``run_bench``."""
    sides = ("base", "change")
    summary = {
        "pairs": len(runs),
        "sim_cycles_equal": all(r["base"]["metrics"]["sim_cycles"]
                                == r["change"]["metrics"]["sim_cycles"] for r in runs),
        "correct": {s: all(r[s]["correct"] for r in runs) for s in sides},
        "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
        "failed": {s: sum(r[s]["failed"] for r in runs) for s in sides},
        "metrics": {},
        "runs": runs,
    }
    share = {s: summary["failed"][s] / max(summary["attempted"][s], 1) for s in sides}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {s: [r[s]["metrics"][name] for r in runs] for s in sides}
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": better, "bound": metric["bound"],
            **{s: quartiles(values[s]) for s in sides},
            "wins": wins(values["base"], values["change"], better),
            "verdict": verdict(values["base"], values["change"], better, metric["bound"],
                               more_failed=share["change"] > share["base"]),
        }
    return summary


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def extract_base(rev: str, dest: Path) -> None:
    """The files of ``rev``, from the local history."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def copy_worktree(dest: Path) -> None:
    """The working tree's files that git tracks or would track."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_bench(side: str, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line's
    ``correct``, ``attempted`` and ``failed``, the metric values, and the load
    average of its ``record`` line. A run without them is :class:`RunFailed`,
    whose message names ``side``, the workload and the seed and ends with
    the last lines of the run's stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    records = [line[7:] for line in lines if line.startswith("record ")]
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        if not records:
            raise ValueError("no record line")
        record, final = json.loads(records[0]), json.loads(lines[-1])
    except ValueError as exc:  # json.JSONDecodeError is one
        tail = proc.stderr.splitlines()[-STDERR_TAIL:]
        raise RunFailed("\n".join([f"{side} run of {workload} at seed {seed} failed: "
                                    f"{exc}", *tail])) from None
    return {"correct": final["correct"], "attempted": final["attempted"],
            "failed": final["failed"],
            "metrics": {name: m["value"] for name, m in final["metrics"].items()},
            "loadavg": record["loadavg_start"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds, seeds = bench["run_seconds"], list(SEEDS)
    base_sha = git("rev-parse", args.base).strip()
    head_sha = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    load_start = os.getloadavg()
    results = {}
    with tempfile.TemporaryDirectory(prefix="dramwc-ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        extract_base(base_sha, trees["base"])
        copy_worktree(trees["change"])
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    try:
                        run[side] = run_bench(side, trees[side], workload, seed, seconds)
                    except RunFailed as exc:
                        print(exc, file=sys.stderr)
                        return 1
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{run[side]['metrics']['wall_s']:.4f}", file=sys.stderr)
                runs.append(run)
            results[workload] = summarize(runs, bench["end_to_end"])
    record = {
        "base": {"rev": args.base, "sha": base_sha},
        "change": {"sha": head_sha, "uncommitted_changes": dirty},
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seconds": seconds, "seeds": seeds, "win_share": WIN_SHARE,
        "loadavg": {"start": load_start, "end": os.getloadavg()},
        "per_layer": "left out: perfbench/tracing.py still points at functions that "
                     "were renamed or deleted, so its self times would mislead",
        "workloads": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, summary in results.items():
        for name, m in summary["metrics"].items():
            print(f"{workload:13} {name:18} base {m['base']['median']:.6g} "
                  f"change {m['change']['median']:.6g} wins {m['wins']}/{summary['pairs']} "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
