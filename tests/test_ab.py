"""The statistics of ``tools/ab.py`` on fixed inputs: quartiles, wins out
of the pairs and the verdict rule; and its report of a run that fails."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("dramwc_ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # IQR 4.5


def test_quartiles_are_inclusive():
    assert ab.quartiles(BASE) == {"median": 14.5, "q1": 12.25, "q3": 16.75}
    assert ab.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}


@pytest.mark.parametrize("better, expected", [("lower", 3), ("higher", 5)])
def test_wins_count_the_better_side_and_no_ties(better, expected):
    base = [5, 5, 5, 5, 5, 5, 5, 5, 5]
    change = [4, 4, 4, 6, 6, 6, 6, 6, 5]
    assert ab.wins(base, change, better) == expected


def test_wins_need_one_change_run_per_base_run():
    with pytest.raises(ValueError):
        ab.wins([1, 2], [1], "lower")


@pytest.mark.parametrize("change, better, expected, more_failed", [
    # 9 of 10 wins and a median gap of 5 > the base's IQR of 4.5.
    ([b - 5 for b in BASE[:9]] + [20.0], "lower", "gain", False),
    # The same gap, but only 8 wins.
    ([b - 5 for b in BASE[:8]] + [20.0, 20.0], "lower", "unresolved", False),
    # Every pair won, but the gap of 4 is inside the base's IQR.
    ([b - 4 for b in BASE], "lower", "unresolved", False),
    # The change fails a larger share of operations, so no gain; the base's
    # IQR of 4.5 is wider than the bound and some change run is not better
    # than every base run.
    ([b - 5 for b in BASE[:9]] + [20.0], "lower", "unresolved", True),
    # Worse by 30% of the base's median, past a 25% bound.
    ([b * 1.3 for b in BASE], "lower", "worse", False),
    # Higher is better: the same runs are a gain.
    ([b * 1.5 for b in BASE], "higher", "gain", False),
])
def test_verdict_rule(change, better, expected, more_failed):
    # A 25% bound is 3.6 here, inside the base's IQR.
    assert ab.verdict(BASE, change, better, 0.25, more_failed) == expected


SKEWED = [10.0] * 6 + [20.0] * 4  # median 10, IQR 10: wider than a 25% bound


@pytest.mark.parametrize("change, expected", [
    ([9.0] * 10, "within bound"),  # every change run beats every base run
    ([9.0] * 9 + [10.0], "unresolved"),  # one ties the base's best run
])
def test_a_wide_base_is_resolved_only_when_every_change_run_is_better(change, expected):
    # The gap of 1 is inside the IQR, so neither is a gain.
    assert ab.verdict(SKEWED, change, "lower", 0.25) == expected


def test_a_narrow_base_without_a_gain_is_within_bound():
    base = [100.0, 100.5, 101.0, 100.0, 100.5, 101.0, 100.0, 100.5, 101.0, 100.0]
    assert ab.verdict(base, [b + 1 for b in base], "lower", 0.1) == "within bound"


def test_summary_records_each_side():
    runs = [{"seed": seed, "first": "base" if seed % 2 == 0 else "change",
             "base": {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"wall_s": 2.0 + seed, "sim_cycles": 100}},
             "change": {"correct": seed != 3, "attempted": 10, "failed": int(seed == 3),
                        "metrics": {"wall_s": 1.0 + seed, "sim_cycles": 100 + (seed == 3)}}}
            for seed in range(4)]
    summary = ab.summarize(runs, [{"name": "wall_s", "unit": "s", "better": "lower",
                                   "bound": 0.25}])
    assert summary["pairs"] == 4 and not summary["sim_cycles_equal"]
    assert summary["correct"] == {"base": True, "change": False}
    assert summary["attempted"] == {"base": 40, "change": 40}
    assert summary["failed"] == {"base": 0, "change": 1}
    wall = summary["metrics"]["wall_s"]
    assert wall["base"]["median"] == 3.5 and wall["change"]["median"] == 2.5
    assert wall["wins"] == 4 and wall["verdict"] == "unresolved"


@pytest.mark.parametrize("change_failed, expected", [(0, "gain"), (1, "unresolved")])
def test_a_gain_needs_no_larger_share_of_failed_operations(change_failed, expected):
    runs = [{"base": {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"wall_s": b, "sim_cycles": 100}},
             "change": {"correct": not change_failed, "attempted": 10, "failed": change_failed,
                        "metrics": {"wall_s": b - 5, "sim_cycles": 100}}}
            for b in BASE]
    summary = ab.summarize(runs, [{"name": "wall_s", "unit": "s", "better": "lower",
                                   "bound": 0.25}])
    assert summary["metrics"]["wall_s"]["verdict"] == expected


def _stub_tree(tree: Path, body: str) -> Path:
    """A tree whose ``perfbench/run.py`` is ``body``."""
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(body)
    return tree


EXITS_2 = ("import sys\n"
           "for i in range(25):\n"
           "    print(f'stderr line {i}', file=sys.stderr)\n"
           "print('record {}')\n"
           "sys.exit(2)\n")
SILENT = "import sys\nprint('no record here', file=sys.stderr)\n"
NOT_JSON = "print('record {\"loadavg_start\": [0, 0, 0]}')\nprint('done')\n"


@pytest.mark.parametrize("body, reason, tail", [
    (EXITS_2, "exit status 2", [f"stderr line {i}" for i in range(5, 25)]),
    (SILENT, "no record line", ["no record here"]),
    (NOT_JSON, "Expecting value", []),
], ids=["exits-2", "prints-nothing", "ends-without-json"])
def test_a_failed_run_names_its_side_workload_and_seed(tmp_path, body, reason, tail):
    tree = _stub_tree(tmp_path, body)
    with pytest.raises(ab.RunFailed) as exc:
        ab.run_bench("base", tree, "live_read", 13, 0)
    first, *rest = str(exc.value).splitlines()
    assert first.startswith("base run of live_read at seed 13 failed: ")
    assert reason in first
    assert rest == tail  # the last 20 lines of its stderr


def test_a_failed_run_exits_1_before_writing_the_record(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ab, "git", lambda *args: "")
    monkeypatch.setattr(ab, "extract_base", lambda rev, dest: _stub_tree(dest, SILENT))
    monkeypatch.setattr(ab, "copy_worktree", lambda dest: _stub_tree(dest, SILENT))
    out = tmp_path / "ab.json"
    assert ab.main(["--base", "HEAD", "--out", str(out)]) == 1
    first = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"][0]["name"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"base run of {first} at seed 11 failed: no record line",
                   "no record here"]
    assert not out.exists()
