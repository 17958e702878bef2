"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import sys

import pytest

from dramwc import checks, harness, workload
from dramwc.analysis import (
    bounds,
    read_queue_delay,
    write_drain_delay,
)
from dramwc.device import CommandKind, make_timing
from dramwc.scheduler import SchedulerConfig
from dramwc.workload import (
    GeneratorKind,
    GeneratorSpec,
    MshrConfig,
    ScenarioSpec,
    StagedRequest,
    build_adversarial,
    run_scenario,
)

TIMING = make_timing()
KINDS = (GeneratorKind.BANDWIDTH_READ, GeneratorKind.BANDWIDTH_WRITE,
         GeneratorKind.STREAM, GeneratorKind.LATENCY)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}",
              file=sys.stderr)
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def replay(spec):
    trace, _ = run_scenario(spec)  # validates the trace
    return trace


def issue_cycles(trace, kind, request_id=None):
    return [
        rec.cycle for rec in trace.issues
        if rec.kind is kind and (request_id is None or rec.request.request_id == request_id)
    ]


def test_c1_figure_replays():
    with criterion(1, "figure replays are cycle-exact"):
        fig2 = replay(harness.preset("fig2"))
        assert issue_cycles(fig2, CommandKind.RD) == [0, 4, 8, 12]
        assert [r.request.request_id for r in fig2.issues] == [0, 1, 2, 3]

        fig3 = replay(harness.preset("fig3"))
        assert issue_cycles(fig3, CommandKind.ACT) == [0, 4]
        assert issue_cycles(fig3, CommandKind.RD) == [7, 11]
        # overlap: the younger request pays only the activate gap on top
        act0, act1 = issue_cycles(fig3, CommandKind.ACT)
        assert act1 - act0 == TIMING.trrd

        fig4 = replay(harness.preset("fig4"))
        young_rd = issue_cycles(fig4, CommandKind.RD, request_id=2)[0]
        old_pre = issue_cycles(fig4, CommandKind.PRE, request_id=1)[0]
        assert young_rd == 4
        assert young_rd < old_pre

        fig5 = replay(harness.preset("fig5"))
        analyzed_done = fig5.requests[4].completion_cycle
        others = [fig5.requests[rid].completion_cycle for rid in range(4)]
        assert all(analyzed_done > c for c in others)
        # exact replay: two row-miss writes, turnaround, two reads, then ours
        assert issue_cycles(fig5, CommandKind.WR) == [14, 41]
        assert issue_cycles(fig5, CommandKind.RD) == [55, 59, 63]
        assert analyzed_done == 74


def test_c2_analytic_values():
    with criterion(2, "bound values match the platform constants exactly"):
        # The bounds of c2's staged canonical case, as `dramwc analyze` prints.
        spec = build_adversarial()
        assert spec.timing == TIMING
        full = bounds(spec)["full"]
        assert read_queue_delay(spec) == 120
        assert write_drain_delay(spec) == 112
        assert full == 232
        assert abs(TIMING.ns(full) - 433.84) <= 0.01


def test_c3_bound_safety_over_seeded_scenarios():
    with criterion(3, "zero full-bound violations over 1000 staged scenarios"):
        full_violations = []
        nowq_violations = {kind: 0 for kind in KINDS}
        scenarios = 0
        for seed in range(250):
            for kind in KINDS:
                spec = build_adversarial(interferer_kind=kind, seed=seed)
                trace = replay(spec)
                scenarios += 1
                report = harness.evaluate(trace, spec)
                if report.violations_full:
                    full_violations.append((kind, seed, report.measured_max))
                nowq_violations[kind] += report.violations_nowq
        assert scenarios >= 1000
        assert not full_violations, full_violations[:5]
        assert nowq_violations[GeneratorKind.BANDWIDTH_WRITE] >= 1
        assert nowq_violations[GeneratorKind.BANDWIDTH_READ] == 0


def test_c4_baseline_underestimates():
    with criterion(4, "one-request baseline underestimates the staged worst case"):
        spec = build_adversarial(
            interferer_kind=GeneratorKind.BANDWIDTH_WRITE, seed=0)
        trace = replay(spec)
        baseline = bounds(spec)["baseline"]
        report = harness.evaluate(trace, spec)
        assert report.bound_baseline == baseline == 57
        assert report.measured_max > baseline
        assert report.violations_baseline >= 1
        ratio = report.measured_max / baseline
        print(f"[acceptance]   measured/baseline ratio: {ratio:.2f} "
              f"({report.measured_max} vs {baseline} cycles)")


@pytest.mark.parametrize("kind", [GeneratorKind.BANDWIDTH_WRITE, GeneratorKind.BANDWIDTH_READ],
                         ids=lambda kind: kind.value)
def test_c10_baseline_underestimates_live_co_runs(kind):
    with criterion(10, f"one-request baseline underestimates a live {kind.value} co-run"):
        report, = harness.sweep(kind, 3, [0])
        assert report.bound_baseline == 57
        assert report.measured_max > report.bound_baseline
        print(f"[acceptance]   measured/baseline ratio: "
              f"{report.measured_max / report.bound_baseline:.2f} "
              f"({report.measured_max} vs {report.bound_baseline} cycles)")


def test_c5_full_bound_is_tight():
    with criterion(5, "full bound covers the staged worst case"):
        spec = build_adversarial(
            interferer_kind=GeneratorKind.BANDWIDTH_WRITE, seed=0)
        trace = replay(spec)
        full = bounds(spec)["full"]
        report = harness.evaluate(trace, spec)
        assert report.bound_full == full == 232
        assert full >= report.measured_max
        assert report.violations_full == 0
        ratio = full / report.measured_max
        in_range = "within" if 1.0 <= ratio <= 2.0 else "outside"
        print(f"[acceptance]   bound/measured ratio: {ratio:.3f} "
              f"({in_range} the informational 1.0-2.0 range)")


def pipeline_scenario(n_reads):
    """N row-hit reads staged on one open bank; their bursts must occupy
    exactly n_reads * tburst back-to-back data-bus cycles."""
    return ScenarioSpec(
        label=f"pipeline-{n_reads}",
        open_rows={1: 40},
        prestage=[StagedRequest(False, 1, 1, 40) for _ in range(n_reads)],
        horizon=40 + 8 * n_reads,
        analyzed_core=1,
        num_cores=2,
        scheduler=SchedulerConfig(read_cap=max(SchedulerConfig.read_cap, n_reads + 2)),
        mshr=MshrConfig(
            global_read_cap=max(MshrConfig.global_read_cap, n_reads + 2),
            per_core_read_cap=max(MshrConfig.per_core_read_cap, n_reads + 2),
        ),
    )


@pytest.mark.parametrize("n_reads", [1, 8, 30])
def test_c6_pipelining_throughput(n_reads):
    with criterion(6, f"{n_reads} row-hit reads keep the data bus saturated"):
        trace = replay(pipeline_scenario(n_reads))
        bursts = sorted(trace.bursts, key=lambda b: b.start)
        assert len(bursts) == n_reads
        assert bursts[-1].end - bursts[0].start == n_reads * TIMING.tburst
        for prev, cur in zip(bursts, bursts[1:]):
            assert cur.start == prev.end


def test_c7_interferer_ordering():
    with criterion(7, "write-heavy interferers slow the analyzed task most"):
        slowdown = {}
        for kind in ("bandwidth_write", "stream", "bandwidth_read"):
            reports = harness.sweep(kind, 3, [0], latency_budget=25)
            slowdown[kind] = reports[0].slowdown
        print(f"[acceptance]   slowdowns: "
              + ", ".join(f"{k}={v:.2f}" for k, v in slowdown.items()))
        assert (slowdown["bandwidth_write"] >= slowdown["stream"]
                >= slowdown["bandwidth_read"])


def _mshr_scenario(reserve):
    generators = [GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core=0, bank=0,
                                start=300)]
    for core in (1, 2, 3):
        generators.append(
            GeneratorSpec(GeneratorKind.BANDWIDTH_READ, core=core, bank=core))
    return ScenarioSpec(
        label=f"mshr-reserve-{reserve}",
        open_rows={0: 10, 1: 11, 2: 12, 3: 13},
        generators=generators,
        horizon=1500,
        analyzed_core=0,
        mshr=MshrConfig(reserve_per_core=reserve),
    )


def occupancy_from(trace, cycle):
    """The per-core read MSHR occupancies in effect from ``cycle`` on: the
    occupancy at the end of ``cycle`` and after every later change. A read
    holds its entry from its arrival cycle until its completion cycle
    releases it."""
    reads = [r for r in trace.requests if not r.is_write]
    changes = {r.arrival_cycle for r in reads} | {r.completion_cycle for r in reads}
    return [tuple(sum(r.core == core and r.arrival_cycle <= at
                      and (r.completion_cycle is None or at < r.completion_cycle)
                      for r in reads) for core in range(4))
            for at in [cycle] + sorted(c for c in changes
                                       if c is not None and c > cycle)]


def test_c8_mshr_contention_and_reservation():
    with criterion(8, "saturating interferers squeeze the analyzed core to 2 "
                      "entries; reserving 8 restores them"):
        trace, _ = workload.run_scenario(_mshr_scenario(0))
        window = occupancy_from(trace, 400)
        assert window
        assert all(reads[0] <= 2 for reads in window)  # per-cycle cap
        assert max(reads[0] for reads in window) == 2
        assert max(sum(reads[1:]) for reads in window) == 30

        trace, _ = workload.run_scenario(_mshr_scenario(8))
        window = occupancy_from(trace, 400)
        assert max(reads[0] for reads in window) >= 8


def test_c9_invariants_and_determinism(monkeypatch):
    oracle_cycles = []
    verify = checks.verify_selection

    def counted(controller, chosen):
        oracle_cycles.append(controller.now)
        return verify(controller, chosen)

    monkeypatch.setattr(checks, "verify_selection", counted)
    with criterion(9, "trace validators and byte-exact reproducibility"):
        specs = [harness.preset(name) for name in ("fig2", "fig3", "fig4", "fig5")]
        specs.append(build_adversarial(
            interferer_kind=GeneratorKind.BANDWIDTH_WRITE, seed=0))
        specs.append(build_adversarial(
            interferer_kind=GeneratorKind.STREAM, seed=123))
        for spec in specs:
            oracle_cycles.clear()
            first = replay(spec)   # validate_trace runs on every replay
            # the selection oracle checked the replay, at its first cycle too
            assert oracle_cycles and oracle_cycles[0] == 0
            second = replay(spec)
            assert first.to_csv() == second.to_csv()
            assert first.stats_text() == second.stats_text()
