"""The mutant table of ``tools/mutants.py`` stays armed: each mutant's old
text occurs exactly once in its file, so a refactor that moves or rewrites
the code it mutates fails here instead of silently disarming the mutant.
The committed ``MUTANTS.json`` is the result of running that table."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("dramwc_mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutants.mutated(mutant) != text


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_the_committed_results_are_of_this_table():
    records = json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]
    assert [r["name"] for r in records] == [m.name for m in mutants.MUTANTS]
    assert [r["name"] for r in records if r["result"] != "killed"] == []
