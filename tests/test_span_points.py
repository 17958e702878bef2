"""The benchmark's per-layer trace wraps dramwc functions by name, and a
name it cannot find is skipped, so that layer silently reads zero. These
tests read the span points from ``perfbench/tracing.py`` and check that
they still name functions that exist."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
LAYERS = ("device", "scheduler", "workload", "checks", "analysis", "harness")

# Points whose function no longer exists under the traced name; mending
# them is a change to the benchmark.
KNOWN_MISSING = {("analysis", "bound_check"), ("analysis", "solo_service")}


@pytest.fixture(scope="module")
def points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = SimpleNamespace(**{name: importlib.import_module(f"dramwc.{name}")
                                 for name in LAYERS})
    layer_of = {id(module): name for name, module in vars(modules).items()}
    return [(layer_of.get(id(owner), owner.__name__), owner, attr)
            for owner, attr, _, _ in tracing._span_points(modules)]


def test_every_harness_point_resolves(points):
    harness_points = [(owner, attr) for layer, owner, attr in points
                      if layer == "harness"]
    assert sorted(attr for _, attr in harness_points) == [
        "_write", "build_adversarial", "evaluate", "scenario_to_text", "sweep"]
    for owner, attr in harness_points:
        assert callable(vars(owner).get(attr)), attr


def test_only_the_known_points_are_missing(points):
    wrapped = {(owner, attr) for _, owner, attr in points}

    def resolves(owner, attr):
        # A class that inherits the function is traced through its base's
        # point.
        return attr in vars(owner) or isinstance(owner, type) and any(
            (base, attr) in wrapped and attr in vars(base) for base in owner.__mro__[1:])

    missing = {(layer, attr) for layer, owner, attr in points
               if not resolves(owner, attr)}
    assert missing <= KNOWN_MISSING
