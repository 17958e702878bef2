"""Cores, the shared MSHR file, synthetic request generators, and scenario
construction (including staged worst-case initial conditions).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import random
from dataclasses import dataclass, field

from . import checks
from .device import NEVER, TIMING_KEYS, TimingError, TimingParams, make_timing
from .keyvalue import check_min, codecs, read_lines, read_pairs, to_lines
from .scheduler import Controller, MemRequest, Mode, SchedulerConfig


class ScenarioError(ValueError):
    """Malformed or cap-violating scenario."""


# ---------------------------------------------------------------------------
# MSHR file
# ---------------------------------------------------------------------------

@dataclass
class MshrConfig:
    global_read_cap: int = 32
    global_write_cap: int = 16
    per_core_read_cap: int = 10
    reserve_per_core: int = 0  # guaranteed read entries per core when > 0

    def __post_init__(self):
        check_min(self, 1, "global_read_cap", "global_write_cap",
                  "per_core_read_cap", error=ScenarioError)
        check_min(self, 0, "reserve_per_core", error=ScenarioError)


class MshrFile:
    """Shared miss-status registers bounding outstanding requests.

    Reads are capped per core and globally; writes only globally. With
    reservations enabled each core always has ``reserve_per_core`` read
    entries available regardless of the other cores' demand.
    """

    def __init__(self, config: MshrConfig | None = None, num_cores: int = 4):
        self.config = config or MshrConfig()
        self.num_cores = num_cores
        cfg = self.config
        if cfg.reserve_per_core * num_cores > cfg.global_read_cap:
            raise ScenarioError(
                f"reservations ({cfg.reserve_per_core} x {num_cores}) exceed the "
                f"global read capacity ({cfg.global_read_cap})"
            )
        self.reads = [0] * num_cores
        self.writes = [0] * num_cores
        self.writes_total = 0

    def idle(self) -> bool:
        return sum(self.reads) == 0 and self.writes_total == 0

    def acquire(self, core: int, is_write: bool) -> bool:
        cfg = self.config
        if is_write:
            if self.writes_total >= cfg.global_write_cap:
                return False
            self.writes[core] += 1
            self.writes_total += 1
            return True
        if self.reads[core] >= cfg.per_core_read_cap:
            return False
        reserve = cfg.reserve_per_core
        if reserve:
            if self.reads[core] >= reserve:
                shared = cfg.global_read_cap - reserve * self.num_cores
                shared_used = sum(max(0, r - reserve) for r in self.reads)
                if shared_used >= shared:
                    return False
        elif sum(self.reads) >= cfg.global_read_cap:
            return False
        self.reads[core] += 1
        return True

    def release(self, core: int, is_write: bool) -> None:
        if is_write:
            if self.writes[core] == 0:
                raise ScenarioError(f"write release without acquire on core {core}")
            self.writes[core] -= 1
            self.writes_total -= 1
        else:
            if self.reads[core] == 0:
                raise ScenarioError(f"read release without acquire on core {core}")
            self.reads[core] -= 1


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class GeneratorKind(enum.Enum):
    LATENCY = "latency"
    BANDWIDTH_READ = "bandwidth_read"
    BANDWIDTH_WRITE = "bandwidth_write"
    STREAM = "stream"


@dataclass
class GeneratorSpec:
    kind: GeneratorKind
    core: int
    bank: int
    row_policy: str = "sequential"  # "sequential" (row hits) or "random"
    budget: int | None = None       # total requests; None = horizon-limited
    gap: int = 0                    # compute cycles between dependent reads
    start: int = 0                  # first cycle the generator may emit
    stream_reads: int = 2           # reads per stream pattern period
    stream_writes: int = 1          # writes per stream pattern period

    def __post_init__(self):
        if self.row_policy not in ("sequential", "random"):
            raise ScenarioError(f"unknown row_policy {self.row_policy!r}")
        if (self.budget or 0) < 0:
            raise ScenarioError(f"budget ({self.budget}) must be at least 0")
        check_min(self, 0, "gap", "start", "stream_reads", "stream_writes",
                  error=ScenarioError)
        if self.stream_reads + self.stream_writes < 1:
            raise ScenarioError("a stream pattern needs at least one request")


class _Generator:
    def __init__(self, spec: GeneratorSpec, base_row: int, num_rows: int,
                 rng: random.Random, submit):
        self.spec = spec
        self.base_row = base_row
        self.num_rows = num_rows
        self.rng = rng
        self.submit = submit  # (row, is_write) -> accepted, for this core's bank
        self.emitted = 0
        self.held_row: int | None = None

    def _row(self) -> int:
        """Row of the next new request. A random row is drawn once and held
        until a submit accepts it, so the rows drawn do not depend on how
        long the core was blocked."""
        if self.spec.row_policy == "sequential":
            return self.base_row
        if self.held_row is None:
            self.held_row = self.rng.randrange(self.num_rows)
        return self.held_row

    def _submit_next(self, is_write: bool) -> bool:
        """Submit a new request to :meth:`_row`; True if it was accepted."""
        if not self._track(self.submit(self._row(), is_write)):
            return False
        self.held_row = None
        return True

    def budget_left(self, need: int = 1) -> bool:
        budget = self.spec.budget
        return budget is None or self.emitted + need <= budget

    def done(self) -> bool:
        return self.spec.budget is not None and self.emitted >= self.spec.budget

    def _track(self, accepted: bool) -> bool:
        if accepted:
            self.emitted += 1
        return accepted

    def emit(self, now: int) -> None:
        raise NotImplementedError

    def on_completion(self, now: int, is_write: bool) -> None:
        pass

    def wake(self, now: int) -> int:
        """First cycle from ``now`` on at which a poll can change this
        generator, or NEVER if only freed queue or MSHR room can: a refused
        submit changes nothing but the held row, which is the same whenever
        it is drawn."""
        return self.spec.start if self.spec.start >= now else NEVER


class LatencyGenerator(_Generator):
    """Pointer-chase analog: a single outstanding dependent read at a time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.in_flight = False
        self.ready_at = self.spec.start

    def emit(self, now):
        if self.in_flight or now < self.ready_at or not self.budget_left():
            return
        if self._submit_next(False):
            self.in_flight = True

    def on_completion(self, now, is_write):
        # The next address depends on the returned data, so the follow-up
        # read cannot leave before the next cycle plus the compute gap.
        self.in_flight = False
        self.ready_at = now + 1 + self.spec.gap

    def wake(self, now):
        if self.in_flight:
            return NEVER
        if self.ready_at >= now:  # ready_at starts at spec.start
            return self.ready_at
        return super().wake(now)


class BandwidthWriteGenerator(_Generator):
    """Write-heavy streamer: every logical miss enqueues an allocating read
    plus a write-back, so reads and writes come in 1:1 pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.write_debt: list[int] = []  # rows whose write-back is still owed

    def _flush_debt(self):
        while self.write_debt:
            if not self._track(self.submit(self.write_debt[0], True)):
                return
            self.write_debt.pop(0)

    def _emit_pair(self) -> bool:
        if not self.budget_left(2):
            return False
        row = self._row()
        if not self._submit_next(False):
            return False
        if not self._track(self.submit(row, True)):
            self.write_debt.append(row)
        return True

    def emit(self, now):
        self._flush_debt()
        while self._emit_pair():
            pass

    def on_completion(self, now, is_write):
        self._flush_debt()
        if not is_write:
            self._emit_pair()


class StreamGenerator(_Generator):
    """Mixed reader/writer following a fixed read:write pattern."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pattern = self._pattern()
        self.pos = 0

    def _pattern(self) -> list[bool]:
        return [False] * self.spec.stream_reads + [True] * self.spec.stream_writes

    def _emit_one(self) -> bool:
        if not self.budget_left():
            return False
        if not self._submit_next(self.pattern[self.pos]):
            return False
        self.pos = (self.pos + 1) % len(self.pattern)
        return True

    def emit(self, now):
        while self._emit_one():
            pass

    def on_completion(self, now, is_write):
        self._emit_one()


class BandwidthReadGenerator(StreamGenerator):
    """Streaming reader that keeps as many reads outstanding as caps allow:
    a stream whose pattern is one read."""

    def _pattern(self):
        return [False]


_GENERATOR_CLASSES = {
    GeneratorKind.LATENCY: LatencyGenerator,
    GeneratorKind.BANDWIDTH_READ: BandwidthReadGenerator,
    GeneratorKind.BANDWIDTH_WRITE: BandwidthWriteGenerator,
    GeneratorKind.STREAM: StreamGenerator,
}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

@dataclass
class StagedRequest:
    is_write: bool
    core: int
    bank: int
    row: int


@dataclass
class ScenarioSpec:
    label: str = "scenario"
    timing: dict = field(default_factory=dict)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    mshr: MshrConfig = field(default_factory=MshrConfig)
    open_rows: dict[int, int] = field(default_factory=dict)
    generators: list[GeneratorSpec] = field(default_factory=list)
    prestage: list[StagedRequest] = field(default_factory=list)
    initial_mode: Mode = Mode.READ
    horizon: int = 20_000
    analyzed_core: int | None = None
    num_cores: int = 4
    num_rows: int = 4096
    seed: int = 0

    def __post_init__(self):
        # The label is one token of a ``key value`` line.
        if "#" in self.label or self.label.split() != [self.label]:
            raise ScenarioError(f"label {self.label!r} must be one word "
                                f"without whitespace or '#'")

    def max_prior_reads(self) -> int:
        """The reads that can sit ahead of the analyzed core's read: what the
        read queue, the global MSHR read cap and the other cores' per-core
        caps admit, plus the analyzed core's own further reads (none for one
        latency generator or staged read). Reservations only take entries
        from the other cores, so leaving them out keeps the count sound."""
        core, cap = self.analyzed_core, self.mshr.per_core_read_cap
        in_flight = sum(not r.is_write for r in self.prestage if r.core == core) + sum(
            1 if g.kind is GeneratorKind.LATENCY else cap
            for g in self.generators if g.core == core)
        return min(self.scheduler.read_cap - 1, self.mshr.global_read_cap - 1,
                   (self.num_cores - 1) * cap + max(0, min(in_flight, cap) - 1))


def _check_placement(spec: ScenarioSpec, core: int = 0, bank: int = 0) -> None:
    """A core and bank named by a scenario must exist in it."""
    if not (0 <= core < spec.num_cores and 0 <= bank < spec.scheduler.num_banks):
        raise ScenarioError(f"core {core}, bank {bank} is outside the scenario's "
                            f"{spec.num_cores} cores and {spec.scheduler.num_banks} banks")


class Workload:
    """One run of a scenario: its MSHR file, its controller (``controller``,
    with the pre-staged requests already enqueued) and its generators, each
    bound at construction to its core's private bank.

    Completions are handed back to the owning generator in the same cycle, so
    a saturating core re-acquires its freed MSHR entry before any other core
    can poll it (out-of-order cores re-issue immediately). A new request
    arrives at ``now``, the cycle being polled or notified.
    """

    def __init__(self, spec: ScenarioSpec):
        check_min(spec, 1, "horizon", "num_cores", "num_rows", error=ScenarioError)
        _check_placement(spec, core=spec.analyzed_core or 0)
        for bank in spec.open_rows:
            _check_placement(spec, bank=bank)
        core_bank: dict[int, int] = {}

        def claim(core: int, bank: int) -> None:
            _check_placement(spec, core, bank)
            owned = core_bank.setdefault(core, bank)
            if owned != bank:
                raise ScenarioError(
                    f"core {core} uses banks {owned} and {bank} but partitioning "
                    f"assigns one private bank per core"
                )

        self.spec = spec
        self.generators: list[_Generator] = []
        self.gen_by_core: dict[int, _Generator] = {}
        for gspec in sorted(spec.generators, key=lambda g: g.core):
            if gspec.core in self.gen_by_core:
                raise ScenarioError(f"core {gspec.core} has two generators")
            claim(gspec.core, gspec.bank)
            base_row = spec.open_rows.get(gspec.bank, 0)
            rng = random.Random((spec.seed << 8) ^ (gspec.core + 1))
            submit = functools.partial(self._submit, gspec.core, gspec.bank)
            gen = _GENERATOR_CLASSES[gspec.kind](gspec, base_row, spec.num_rows,
                                                 rng, submit)
            self.generators.append(gen)
            self.gen_by_core[gspec.core] = gen
        for staged in spec.prestage:
            claim(staged.core, staged.bank)
        analyzed = self.gen_by_core.get(spec.analyzed_core)
        # Generator completions on the analyzed core still owed before the
        # run ends; None when that core has no budgeted generator.
        self.analyzed_left = None if analyzed is None else analyzed.spec.budget
        if self.analyzed_left == 0:
            raise ScenarioError(
                f"analyzed core {spec.analyzed_core} has a generator with budget 0, "
                f"so the run would end before any request is served"
            )
        self.has_sources = bool(spec.generators or spec.prestage)
        self.mshr = MshrFile(spec.mshr, num_cores=spec.num_cores)
        self.controller = Controller(make_timing(spec.timing), spec.scheduler,
                                     open_rows=spec.open_rows,
                                     initial_mode=spec.initial_mode)
        self.now = 0
        self._next_id = 0
        # The staged requests arrive at cycle 0 in listed order, so they
        # hold the first ids.
        for staged in spec.prestage:
            if not self._submit(staged.core, staged.bank, staged.row,
                                staged.is_write):
                raise ScenarioError(
                    f"pre-staged request for core {staged.core} exceeds queue or "
                    f"MSHR capacity"
                )

    def _submit(self, core: int, bank: int, row: int, is_write: bool) -> bool:
        if not self.mshr.acquire(core, is_write):
            return False
        req = MemRequest(self._next_id, core, is_write, bank, row,
                         arrival_cycle=self.now)
        if not self.controller.enqueue(req):
            self.mshr.release(core, is_write)
            return False
        self._next_id += 1
        return True

    def poll(self, now: int) -> None:
        self.now = now
        for gen in self.generators:
            if now < gen.spec.start or gen.done():
                continue
            gen.emit(now)

    def next_wake(self, now: int) -> int:
        """First cycle from ``now`` on at which polling can submit a request
        or change a generator (see :meth:`_Generator.wake`), or NEVER."""
        return min((gen.wake(now) for gen in self.generators if not gen.done()),
                   default=NEVER)

    def notify(self, now: int, completed: list[MemRequest]) -> None:
        # Every id past the staged ones is a generator's, on its own core.
        self.now = now
        staged = len(self.spec.prestage)
        for req in completed:
            self.mshr.release(req.core, req.is_write)
            if req.request_id < staged:
                continue
            if req.core == self.spec.analyzed_core and self.analyzed_left:
                self.analyzed_left -= 1
            self.gen_by_core[req.core].on_completion(now, req.is_write)

    def exhausted(self) -> bool:
        return all(g.done() for g in self.generators) and self.mshr.idle()

    def finished(self) -> bool:
        """Whether the run ends after this cycle: the analyzed core's budget
        is served (the co-runners are still running, as the measured delay
        assumes), or there were sources of work, all are exhausted and the
        controller is idle."""
        return self.analyzed_left == 0 or (
            self.controller.idle() and self.has_sources and self.exhausted())


def run_scenario(spec: ScenarioSpec):
    """Build and run a scenario until it ends, validate its trace, and return
    the trace and the workload."""
    workload = Workload(spec)
    trace = workload.controller.run(workload)
    checks.validate_trace(trace)
    return trace, workload


# ---------------------------------------------------------------------------
# Staged worst-case scenarios
# ---------------------------------------------------------------------------

def build_adversarial(analyzed_core: int = 0,
                      interferer_kind: GeneratorKind = GeneratorKind.BANDWIDTH_WRITE,
                      seed: int = 0,
                      n_interferers: int = 3,
                      timing: dict | None = None,
                      mshr: MshrConfig | None = None) -> ScenarioSpec:
    """Stage the worst-case initial condition for one analyzed read.

    The scenario pre-loads a write batch with the drain already triggered,
    pre-loads row-hit reads from the interfering cores, and appends the
    analyzed core's single read as the youngest request. Seed 0 stages the
    canonical worst case (full write batch on one bank, all row misses, the
    full complement of prior reads); other seeds sample perturbed variants
    under the same capacity limits. The limits are those of the returned
    scenario: its drain batch, its per-core MSHR read cap, and its
    :meth:`ScenarioSpec.max_prior_reads`, which its bound charges. MSHR
    reservations that admit fewer interferer reads than that count are a
    ScenarioError, not a scenario the MSHR file cannot admit.
    """
    kind = GeneratorKind(interferer_kind)
    rng = random.Random(seed)
    cores = [c for c in range(n_interferers + 1) if c != analyzed_core][:n_interferers]
    open_rows = {core: 100 + core for core in [analyzed_core, *cores]}  # bank == core
    spec = ScenarioSpec(
        label=f"adversarial-{kind.value}-{seed}",
        mshr=mshr or MshrConfig(),
        timing=dict(timing or {}),
        open_rows=open_rows,
        horizon=4000, analyzed_core=analyzed_core,
        num_cores=max(cores + [analyzed_core]) + 1,
        seed=seed,
    )
    max_prior_reads = spec.max_prior_reads()
    # The interferer reads MshrFile.acquire admits: reserved plus shared entries.
    cap, reserve = spec.mshr.per_core_read_cap, spec.mshr.reserve_per_core
    shared = spec.mshr.global_read_cap - reserve * spec.num_cores
    room = len(cores) * min(cap, reserve) + min(shared, len(cores) * max(0, cap - reserve))
    if reserve and room < max_prior_reads:
        raise ScenarioError(
            f"MSHR reservations of {reserve} per core leave capacity for {room} "
            f"interferer reads, fewer than the {max_prior_reads} prior reads the bound charges")

    canonical = seed == 0
    if kind is GeneratorKind.BANDWIDTH_READ or kind is GeneratorKind.LATENCY:
        n_writes = 0
    elif canonical:
        n_writes = spec.scheduler.drain_batch
    else:
        n_writes = rng.randint(1, spec.scheduler.drain_batch)

    if kind is GeneratorKind.LATENCY:
        n_reads = min(len(cores), max_prior_reads)  # one per interfering core
    elif canonical or not max_prior_reads:
        n_reads = max_prior_reads
    else:
        n_reads = rng.randint(1, max_prior_reads)

    prestage: list[StagedRequest] = []

    # Write batch. Canonically all on one interferer's bank, each to a
    # distinct non-open row so every drained write pays a full row cycle.
    if n_writes:
        writer = cores[-1] if canonical else rng.choice(cores)
        for i in range(n_writes):
            core = writer if canonical else rng.choice(cores)
            row = open_rows[core] + 1 + i
            if not canonical and rng.random() < 0.25:
                row = open_rows[core]  # occasional row-hit write
            prestage.append(StagedRequest(True, core, core, row))

    # Prior reads: row hits on their cores' open banks so they pipeline,
    # canonically round robin, which spends the equal budgets evenly.
    read_budget = dict.fromkeys(cores, 1 if kind is GeneratorKind.LATENCY
                                else spec.mshr.per_core_read_cap)
    for placed in range(n_reads):
        eligible = [c for c in cores if read_budget[c]]
        if not eligible:
            break
        core = cores[placed % len(cores)] if canonical else rng.choice(eligible)
        read_budget[core] -= 1
        prestage.append(StagedRequest(False, core, core, open_rows[core]))

    if not canonical:
        rng.shuffle(prestage)

    # The analyzed core's dependent read arrives right after everything else.
    prestage.append(
        StagedRequest(False, analyzed_core, analyzed_core, open_rows[analyzed_core])
    )
    spec.prestage = prestage
    spec.initial_mode = Mode.WRITE_DRAIN if n_writes else Mode.READ
    return spec


# ---------------------------------------------------------------------------
# Scenario file format
# ---------------------------------------------------------------------------

#: Top-level scalars of a scenario file, in file order.
_SCALARS = ("label", "seed", "horizon", "initial_mode", "analyzed_core",
            "num_cores", "num_rows")
_SECTIONS = ("timing", "scheduler", "mshr", "banks", "generator", "prestage")


def scenario_to_text(spec: ScenarioSpec) -> str:
    """Serialize a scenario to the sectioned text format."""
    lines = ["# dramwc scenario", *to_lines(spec, _SCALARS),
             "", "[timing]", *to_lines(make_timing(spec.timing), TIMING_KEYS),
             "", "[scheduler]", *to_lines(spec.scheduler),
             "", "[mshr]", *to_lines(spec.mshr),
             "", "[banks]"]
    lines += [f"{bank} {row}" for bank, row in sorted(spec.open_rows.items())]
    for gen in spec.generators:
        lines += ["", "[generator]", *to_lines(gen)]
    if spec.prestage:
        lines += ["", "[prestage]"]
        lines += [f"{'write' if r.is_write else 'read'} {r.core} {r.bank} {r.row}"
                  for r in spec.prestage]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _blame(lineno: int, error=ScenarioError):
    """Re-raise a bad value or failed constructor as ``error`` naming a line."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise error(f"line {lineno}: {exc}") from None


def scenario_from_text(text: str) -> ScenarioSpec:
    """Parse the sectioned text format back into a ScenarioSpec.

    Every key is optional and keeps its dataclass default. Anything else
    malformed raises ScenarioError naming its line, or TimingError for the
    ``[timing]`` section: a section's own range checks name its header.
    """
    top: list = []
    sections = {name: (0, []) for name in _SECTIONS}
    generators: list[tuple[int, list]] = []
    body = top
    for lineno, tokens in read_lines(text):
        if not tokens[0].startswith("["):
            body.append((lineno, tokens))
            continue
        name = tokens[0][1:-1]
        if len(tokens) > 1 or not tokens[0].endswith("]") or name not in sections:
            raise ScenarioError(f"line {lineno}: unknown section {' '.join(tokens)!r}")
        if sections[name][0] and name != "generator":
            raise ScenarioError(f"line {lineno}: repeated section [{name}]")
        body = []
        sections[name] = (lineno, body)
        if name == "generator":
            generators.append((lineno, body))

    def keyed(cls, at, body):
        values = read_pairs(body, codecs(cls), ScenarioError)
        with _blame(at):
            return cls(**values)

    spec = ScenarioSpec(**read_pairs(top, codecs(ScenarioSpec, _SCALARS), ScenarioError))
    at, body = sections["timing"]
    spec.timing = read_pairs(body, codecs(TimingParams, TIMING_KEYS), TimingError)
    with _blame(at, TimingError):
        make_timing(spec.timing)
    spec.scheduler = keyed(SchedulerConfig, *sections["scheduler"])
    spec.mshr = keyed(MshrConfig, *sections["mshr"])
    for lineno, tokens in sections["banks"][1]:
        with _blame(lineno):
            bank, row = map(int, tokens)
            if bank in spec.open_rows:
                raise ScenarioError(f"repeated bank {bank}")
            _check_placement(spec, bank=bank)
        spec.open_rows[bank] = row
    for at, body in generators:
        gen = keyed(GeneratorSpec, at, body)
        with _blame(at):
            _check_placement(spec, gen.core, gen.bank)
        spec.generators.append(gen)
    for lineno, tokens in sections["prestage"][1]:
        with _blame(lineno):
            word, core, bank, row = tokens
            if word not in ("read", "write"):
                raise ScenarioError(f"{word!r} is neither read nor write")
            staged = StagedRequest(word == "write", int(core), int(bank), int(row))
            _check_placement(spec, staged.core, staged.bank)
        spec.prestage.append(staged)
    return spec
