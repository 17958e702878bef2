"""Cores, the shared MSHR file, synthetic request generators, and scenario
construction (including staged worst-case initial conditions).
"""

from __future__ import annotations

import contextlib
import functools
import random
from dataclasses import dataclass, field

from . import checks
from .device import DEFAULT_TIMING, NEVER, TIMING_KEYS, TimingError, TimingParams, make_timing
from .keyvalue import (Choice, ScenarioError, build, check_min, codecs, read_lines, read_pairs,
                       to_lines)
from .scheduler import Controller, MemRequest, Mode, SchedulerConfig, SchedulerError


# ---------------------------------------------------------------------------
# MSHR file
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MshrConfig:
    global_read_cap: int = 32
    global_write_cap: int = 16
    per_core_read_cap: int = 10
    reserve_per_core: int = 0  # guaranteed read entries per core when > 0

    def __post_init__(self):
        check_min(self, 1, "global_read_cap", "global_write_cap", "per_core_read_cap")
        check_min(self, 0, "reserve_per_core")


class MshrFile:
    """Shared miss-status registers bounding outstanding requests.

    Reads are capped per core and globally; writes only globally. With
    reservations enabled each core always has ``reserve_per_core`` read
    entries available regardless of the other cores' demand. :meth:`admits`
    is the one admission rule.
    """

    def __init__(self, config: MshrConfig | None = None, num_cores: int = 4):
        self.config = cfg = config or MshrConfig()
        # The read entries beyond the reservations, which any core may take:
        # all of them when nothing is reserved.
        self.shared = cfg.global_read_cap - cfg.reserve_per_core * num_cores
        if self.shared < 0:
            raise ScenarioError(
                f"reservations ({cfg.reserve_per_core} x {num_cores}) exceed the "
                f"global read capacity ({cfg.global_read_cap})"
            )
        self.reads = [0] * num_cores
        self.writes = [0] * num_cores
        self.writes_total = 0
        self.shared_used = 0  # reads held beyond their core's reservation

    def idle(self) -> bool:
        return self.writes_total == 0 and not any(self.reads)

    def admits(self, core: int, is_write: bool) -> bool:
        """Whether ``core`` may take one more entry now."""
        cfg = self.config
        if is_write:
            return self.writes_total < cfg.global_write_cap
        held = self.reads[core]
        return held < cfg.per_core_read_cap and (
            held < cfg.reserve_per_core or self.shared_used < self.shared)

    def acquire(self, core: int, is_write: bool) -> bool:
        if not self.admits(core, is_write):
            return False
        if is_write:
            self.writes[core] += 1
            self.writes_total += 1
        else:
            held = self.reads[core]
            self.reads[core] = held + 1
            self.shared_used += held >= self.config.reserve_per_core
        return True

    def release(self, core: int, is_write: bool) -> None:
        if is_write:
            if self.writes[core] == 0:
                raise SchedulerError(f"write release without acquire on core {core}")
            self.writes[core] -= 1
            self.writes_total -= 1
        else:
            held = self.reads[core]
            if held == 0:
                raise SchedulerError(f"read release without acquire on core {core}")
            self.reads[core] = held - 1
            self.shared_used -= held > self.config.reserve_per_core


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class GeneratorKind(Choice):
    """A generator's behaviour."""

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
        self.kind = GeneratorKind(self.kind)
        if self.row_policy not in ("sequential", "random"):
            raise ScenarioError(f"unknown row_policy {self.row_policy!r}", ("row_policy",))
        if self.budget is not None:
            check_min(self, 0, "budget")
        if self.kind is GeneratorKind.BANDWIDTH_WRITE and (self.budget or 0) % 2:
            raise ScenarioError(f"a bandwidth_write budget ({self.budget}) must be "
                                "even: its requests come in read/write-back pairs",
                                ("budget",))
        check_min(self, 0, "gap", "start", "stream_reads", "stream_writes")
        if self.stream_reads + self.stream_writes < 1:
            raise ScenarioError("a stream pattern needs at least one request",
                                ("stream_reads", "stream_writes"))


class _Generator:
    def __init__(self, spec: GeneratorSpec, base_row: int, num_rows: int,
                 rng: random.Random, submit):
        self.spec = spec
        self.send = submit  # (row, is_write) -> accepted, for this core's bank
        self.left = NEVER if spec.budget is None else spec.budget  # requests still allowed
        # The row policy: every new request goes to the base row, or, when
        # that is None, to a random row drawn by ``draw``.
        self.base_row = None if spec.row_policy == "random" else base_row
        self.draw = functools.partial(rng.randrange, num_rows)
        self.row = self.base_row  # the next new request's, None until drawn
        # The first cycle at which a poll can change this generator; after
        # it only freed room can (an MSHR entry at a completion, queue room at
        # a CAS issue), since a refused submit keeps its row.
        self.ready_at = spec.start

    def _submit(self, is_write: bool, need: int = 1, row: int | None = None) -> int | None:
        """Submit a request, one owed to ``row`` or else a new one, if the
        budget allows ``need`` more requests; the accepted request's row, or
        None if none was. An accepted request spends budget. A new request's
        random row is drawn once and held until a submit accepts it, so the
        rows drawn do not depend on how long the core was blocked."""
        if self.left < need:
            return None
        if row is None:
            row = self.row
            if row is None:
                row = self.row = self.draw()
            if not self.send(row, is_write):
                return None
            self.row = self.base_row
        elif not self.send(row, is_write):
            return None
        self.left -= 1
        return row

    def done(self) -> bool:
        return self.left == 0

    def blocked(self, admits) -> bool:
        """Whether ``admits`` (the MSHR file's rule) refuses every request
        that the next :meth:`emit` would submit first: here, a read."""
        return not admits(self.spec.core, False)

    def emit(self, now: int) -> None:
        raise NotImplementedError

    def on_completion(self, now: int, is_write: bool) -> None:
        pass


class LatencyGenerator(_Generator):
    """Pointer-chase analog: a single outstanding dependent read at a time."""

    def emit(self, now):
        if now >= self.ready_at and self._submit(False) is not None:
            self.ready_at = NEVER  # until the read completes

    def on_completion(self, now, is_write):
        # The next address depends on the returned data, so the follow-up
        # read cannot leave before the next cycle plus the compute gap.
        self.ready_at = now + 1 + self.spec.gap


class BandwidthWriteGenerator(_Generator):
    """Write-heavy streamer: every logical miss enqueues an allocating read
    plus a write-back, so reads and writes come in 1:1 pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.write_debt: list[int] = []  # rows whose write-back is still owed

    def _flush_debt(self):
        debt = self.write_debt
        while debt and self._submit(True, row=debt[0]) is not None:
            debt.pop(0)

    def _emit_pair(self) -> bool:
        # Each write-back still owed will spend budget too.
        row = self._submit(False, 2 + len(self.write_debt))
        if row is None:
            return False
        if self._submit(True, row=row) is None:
            self.write_debt.append(row)
        return True

    def blocked(self, admits):
        core = self.spec.core
        return not admits(core, False) and not (self.write_debt and admits(core, True))

    def emit(self, now):
        if self.write_debt:
            self._flush_debt()
        while self._emit_pair():
            pass

    def on_completion(self, now, is_write):
        if self.write_debt:
            self._flush_debt()
        if not is_write:
            self._emit_pair()


class StreamGenerator(_Generator):
    """Mixed reader/writer following a fixed read:write pattern."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pattern = self._pattern()
        self.period = len(self.pattern)
        self.pos = 0

    def _pattern(self) -> list[bool]:
        return [False] * self.spec.stream_reads + [True] * self.spec.stream_writes

    def _emit_one(self) -> bool:
        if self._submit(self.pattern[self.pos]) is None:
            return False
        self.pos = (self.pos + 1) % self.period
        return True

    def blocked(self, admits):
        return not admits(self.spec.core, self.pattern[self.pos])

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
    timing: TimingParams = DEFAULT_TIMING  # a dict of overrides is resolved
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
        if not isinstance(self.timing, TimingParams):
            self.timing = make_timing(self.timing)
        self.initial_mode = Mode(self.initial_mode)
        # The label is one token of a ``key value`` line.
        if "#" in self.label or self.label.split() != [self.label]:
            raise ScenarioError(f"label {self.label!r} must be one word "
                                f"without whitespace or '#'", ("label",))
        check_min(self, 1, "horizon", "num_cores", "num_rows")
        check_min(self, None, "seed")  # any int: ``--seeds`` takes negative ones
        if self.analyzed_core is not None:
            check_min(self, 0, "analyzed_core")
        _check_placement(self, core=self.analyzed_core,
                         keys=("analyzed_core", "num_cores"))

    def max_prior_reads(self) -> int:
        """The reads that can sit ahead of the analyzed core's read: what the
        read queue, the global MSHR read cap and the other cores' per-core
        caps admit, plus the analyzed core's own further reads (none for one
        latency generator or staged read). Reservations only take entries
        from the other cores, so leaving them out keeps the count sound."""
        core, cap = self.analyzed_core, self.mshr.per_core_read_cap
        own_reads = sum(not r.is_write for r in self.prestage if r.core == core) + sum(
            1 if g.kind is GeneratorKind.LATENCY else cap
            for g in self.generators if g.core == core)
        return min(self.scheduler.read_cap - 1, self.mshr.global_read_cap - 1,
                   (self.num_cores - 1) * cap + max(0, min(own_reads, cap) - 1))


def _check_placement(spec: ScenarioSpec, core: int | None = None, bank: int | None = None,
                     row: int | None = None, keys: tuple[str, ...] = ()) -> None:
    """A core, a bank and a row named by a scenario must exist in it. The
    error names the ones given, and is keyed by ``keys``. ``Workload`` checks
    it for each item it places, before its partitioning rules, and each row.
    An index that is not an ``int`` (a ``bool`` is not one) is an error keyed
    by its name."""
    named = [(what, index, count) for what, index, count in (
        ("core", core, spec.num_cores), ("bank", bank, spec.scheduler.num_banks),
        ("row", row, spec.num_rows)) if index is not None]
    for what, index, _ in named:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ScenarioError(f"{what} ({index!r}) must be an integer", (what,))
    if any(not 0 <= index < count for _, index, count in named):
        raise ScenarioError(", ".join(f"{what} {index}" for what, index, _ in named)
                            + " is outside the scenario's "
                            + " and ".join(f"{count} {what}s" for what, _, count in named),
                            keys)


class Workload:
    """One run of a scenario: its MSHR file, its controller (``controller``,
    with the pre-staged requests already enqueued) and its generators
    (``gen_by_core``), each bound at construction to its core's private bank.
    It owns the placement rules: each core runs on one bank that no other
    core uses, with at most one generator, and the analyzed core's generator
    has no zero budget, which would end the run before any request is served.

    Completions are handed back to the owning generator in the same cycle, so
    a saturating core re-acquires its freed MSHR entry before any other core
    can poll it (out-of-order cores re-issue immediately). A new request
    arrives at ``now``, the cycle being polled or notified.

    A generator that the MSHR file blocks (see :meth:`_Generator.blocked`)
    is parked: it is not polled until a completion leaves an entry free
    (see :meth:`notify`).
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        for bank, row in spec.open_rows.items():
            _check_placement(spec, bank=bank)
            _check_placement(spec, row=row)
        self.mshr = MshrFile(spec.mshr, num_cores=spec.num_cores)
        self.controller = Controller(spec.timing, spec.scheduler, open_rows=spec.open_rows,
                                     initial_mode=spec.initial_mode)
        self.now = 0
        self._core_bank, self._bank_core = {}, {}  # the placed cores and banks
        self.generators: list[_Generator] = []
        self.gen_by_core: dict[int, _Generator] = {}
        # Generator completions on the analyzed core still owed before the
        # run ends; None when that core has no budgeted generator.
        self.analyzed_left: int | None = None
        self.has_sources = bool(spec.generators or spec.prestage)
        self.endless = False  # has an unbudgeted generator, so is never exhausted
        for gspec in sorted(spec.generators, key=lambda g: g.core):
            self._add_generator(gspec)
        # The staged requests arrive at cycle 0 in listed order, so they
        # hold the first ids: adding a generator submits nothing.
        for staged in spec.prestage:
            self.stage(staged)

    def _claim(self, core: int, bank: int) -> None:
        # A pair already placed was checked then. A bool or a float equal
        # to one of its ints (True == 1 == 1.0) is still checked, and fails.
        if type(core) is int and type(bank) is int and self._core_bank.get(core) == bank:
            return
        _check_placement(self.spec, core, bank)
        owned = self._core_bank.setdefault(core, bank)
        owner = self._bank_core.setdefault(bank, core)
        if owned != bank:
            raise ScenarioError(f"core {core} uses banks {owned} and {bank} but "
                                f"partitioning assigns one private bank per core")
        if owner != core:
            raise ScenarioError(f"cores {owner} and {core} share bank {bank} but "
                                f"partitioning assigns one private bank per core")

    def _add_generator(self, gspec: GeneratorSpec) -> None:
        """Place a generator on its core's bank and bind it to the run."""
        spec, core = self.spec, gspec.core
        if core in self.gen_by_core:
            raise ScenarioError(f"core {core} has two generators")
        self._claim(core, gspec.bank)
        if core == spec.analyzed_core:
            if gspec.budget == 0:
                raise ScenarioError(f"analyzed core {core} has a generator with budget 0, "
                                    f"so the run would end before any request is served")
            self.analyzed_left = gspec.budget
        self.endless |= gspec.budget is None
        rng = random.Random((spec.seed << 8) ^ (core + 1))
        gen = _GENERATOR_CLASSES[gspec.kind](
            gspec, spec.open_rows.get(gspec.bank, 0), spec.num_rows, rng,
            functools.partial(self._submit, core, gspec.bank))
        self.generators.append(gen)
        self.gen_by_core[core] = gen

    def stage(self, staged: StagedRequest) -> None:
        """Place a pre-staged request and submit it at cycle 0, through the run's
        own admission; one that these refuse, or whose ``is_write`` is not a
        ``bool``, is a ScenarioError."""
        self._claim(staged.core, staged.bank)
        row = staged.row  # tested in line: called per request
        if type(row) is not int or not 0 <= row < self.spec.num_rows:
            _check_placement(self.spec, row=row)
        if type(staged.is_write) is not bool:
            raise ScenarioError(f"is_write ({staged.is_write!r}) must be a bool",
                                ("is_write",))
        if not self._submit(staged.core, staged.bank, staged.row, staged.is_write):
            raise ScenarioError(f"pre-staged request for core {staged.core} exceeds "
                                f"queue or MSHR capacity")

    def _submit(self, core: int, bank: int, row: int, is_write: bool) -> bool:
        if not self.mshr.acquire(core, is_write):
            return False
        req = MemRequest(core, is_write, bank, row, arrival_cycle=self.now)
        if not self.controller.enqueue(req):
            self.mshr.release(core, is_write)
            return False
        return True

    def poll(self, now: int) -> int:
        """Let every unfinished, unblocked generator whose ``ready_at`` has
        come emit, and return the wake: the first cycle at which a poll can
        change a generator unless a completion comes first.

        The wake is the smallest ``ready_at`` above ``now`` among the
        unfinished generators, or ``now + 1`` if one that is ready is neither
        done nor blocked after its emit: a controller queue refused it, and
        queue room grows at any CAS issue. A blocked generator is parked and
        adds nothing. ``MshrFile.admits`` only gets stricter as its counters
        grow, and they fall only at a completion, whose :meth:`notify` says
        whether to poll. Skipping a blocked generator is exact, since its emit
        would change nothing but its held row, drawn once per request.
        """
        self.now = now
        admits = self.mshr.admits
        wake = NEVER
        for gen in self.generators:
            ready_at = gen.ready_at
            if now >= ready_at:
                if gen.done() or gen.blocked(admits):
                    continue
                gen.emit(now)
                if gen.blocked(admits):
                    continue  # parked until a completion
                ready_at = gen.ready_at if gen.ready_at > now else now + 1
            if ready_at < wake and not gen.done():
                wake = ready_at
        return wake

    def notify(self, now: int, req: MemRequest) -> int:
        """Hand back the request that completed at ``now``: free its MSHR
        entry and tell its generator, if it has one. Return the wake: the next
        cycle if the freed entry is still free after the generator's own
        re-issue (a parked generator may now be admitted), or if that
        generator is neither done nor blocked; else NEVER, as for a workload
        without generators."""
        self.now = now
        mshr, core, is_write = self.mshr, req.core, req.is_write
        held = mshr.writes_total if is_write else mshr.reads[core]
        mshr.release(core, is_write)
        gen = None
        # Every id past the staged ones is a generator's, on its own core.
        if req.request_id >= len(self.spec.prestage):
            if core == self.spec.analyzed_core and self.analyzed_left:
                self.analyzed_left -= 1
            gen = self.gen_by_core[core]
            gen.on_completion(now, is_write)
        # An entry still free decides the wake without asking the generator.
        freed = (mshr.writes_total if is_write else mshr.reads[core]) < held
        woken = freed or gen is not None and not gen.done() and not gen.blocked(mshr.admits)
        return now + 1 if woken and self.generators else NEVER

    def exhausted(self) -> bool:
        return all(g.done() for g in self.generators) and self.mshr.idle()

    def finished(self) -> bool:
        """Whether the run ends after this cycle: the analyzed core's budget
        is served (the co-runners are still running, as the measured delay
        assumes), or there were sources of work, all are exhausted and the
        controller is idle.

        ``Controller.run`` asks only on cycle 0 and on a completion's cycle,
        since no other cycle can turn the answer true. ``analyzed_left``
        falls only at a completion. The controller turns idle only when its
        last burst completes: a queue empties only at a CAS issue, whose
        burst is then in flight. A generator turns done only when one of its
        submits is accepted, and that request keeps the controller busy
        until it completes. The MSHR file frees its last entry only at a
        completion. A workload with an unbudgeted generator is never
        exhausted, so only the analyzed core's budget can end it."""
        return self.analyzed_left == 0 or (
            not self.endless and self.has_sources and self.controller.idle()
            and self.exhausted())


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

def interferer_cores(n_interferers: int) -> list[int]:
    """The cores other than the analyzed core 0 in a scenario of
    ``n_interferers + 1`` cores, at least 2 and at most one per bank of the
    default scheduler, since each core has a private bank."""
    if n_interferers < 1:
        raise ScenarioError(f"n_interferers ({n_interferers}) must be at least 1")
    if n_interferers >= SchedulerConfig.num_banks:
        raise ScenarioError(
            f"n_interferers ({n_interferers}) must be at most "
            f"{SchedulerConfig.num_banks - 1}: each core needs a private bank, "
            f"and there are {SchedulerConfig.num_banks}")
    return list(range(1, n_interferers + 1))


def co_run_scenario(n_interferers: int, mshr: MshrConfig | None = None,
                    **fields) -> ScenarioSpec:
    """The layout of a co-run experiment, live or staged, with ``fields``
    the scenario's other fields: the analyzed core 0 and the
    :func:`interferer_cores`, ``n_interferers + 1`` cores in all. Each core
    runs on the bank of its own number (bank == core), whose row
    ``100 + core`` is open."""
    cores = [0, *interferer_cores(n_interferers)]
    return ScenarioSpec(open_rows={core: 100 + core for core in cores}, analyzed_core=0,
                        num_cores=len(cores), mshr=mshr or MshrConfig(), **fields)


@functools.cache  # a staged sweep builds hundreds of scenarios of one set of caps
def _interferer_room(mshr: MshrConfig, num_cores: int) -> int:
    """The reads a freshly filled MSHR file admits to every core but one;
    which one does not matter in an empty file."""
    filled, room = MshrFile(mshr, num_cores), 0
    for core in range(1, num_cores):
        while filled.acquire(core, False):
            room += 1
    return room


def build_adversarial(interferer_kind: GeneratorKind = GeneratorKind.BANDWIDTH_WRITE,
                      seed: int = 0,
                      n_interferers: int = 3,
                      timing: TimingParams | dict | None = None,
                      mshr: MshrConfig | None = None) -> ScenarioSpec:
    """Stage the worst-case initial condition for one analyzed read.

    The scenario pre-loads a write batch with the drain already triggered,
    pre-loads row-hit reads from the interfering cores, and appends the
    analyzed core's single read as the youngest request. Seed 0 stages the
    canonical worst case (full write batch on one bank, all row misses, the
    full complement of prior reads); other seeds sample perturbed variants
    under the same capacity limits. The limits are those of the returned
    scenario: its drain batch, its per-core MSHR read cap, and its
    :meth:`ScenarioSpec.max_prior_reads`, which its bound charges. The reads
    are staged through an MSHR file of the scenario's caps, so its run
    admits them. Caps that admit fewer interferer reads than the scenario
    stages (that count, or one per interferer for the latency kind), or a
    write cap below the drain batch for a kind that stages writes, are a
    ScenarioError, not a scenario its run refuses.

    The scenario has the :func:`co_run_scenario` layout, so every core but
    the analyzed core 0 interferes, and the bounds charge no idle core.
    """
    cores = interferer_cores(n_interferers)
    kind = GeneratorKind(interferer_kind)
    rng = random.Random(seed)
    spec = co_run_scenario(n_interferers, mshr, label=f"adversarial-{kind.value}-{seed}",
                           timing=timing or DEFAULT_TIMING, horizon=4000, seed=seed)
    open_rows = spec.open_rows
    max_prior_reads = spec.max_prior_reads()
    one_each = kind is GeneratorKind.LATENCY
    staged_reads = min(len(cores), max_prior_reads) if one_each else max_prior_reads
    room = _interferer_room(spec.mshr, spec.num_cores)
    if room < staged_reads:
        raise ScenarioError(
            f"MSHR reservations of {spec.mshr.reserve_per_core} per core leave capacity "
            f"for {room} interferer reads, fewer than the {staged_reads} prior reads "
            + ("staged one per interferer" if one_each else "the bound charges"))
    drain_batch = spec.scheduler.drain_batch
    stages_writes = kind in (GeneratorKind.BANDWIDTH_WRITE, GeneratorKind.STREAM)
    if stages_writes and spec.mshr.global_write_cap < drain_batch:
        raise ScenarioError(
            f"the MSHR write capacity ({spec.mshr.global_write_cap}) cannot hold "
            f"a staged write batch of up to {drain_batch} writes")

    canonical = seed == 0
    if not stages_writes:
        n_writes = 0
    elif canonical:
        n_writes = drain_batch
    else:
        n_writes = rng.randint(1, drain_batch)

    if one_each:
        n_reads = staged_reads
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
    # canonically round robin. A core is eligible while an MSHR file of the
    # scenario's caps admits its next read; a latency core keeps one read
    # outstanding. n_reads is within room, so some core always is, and the
    # even round robin spread is admitted too.
    staging = MshrFile(spec.mshr, spec.num_cores)
    for placed in range(n_reads):
        eligible = [c for c in cores
                    if staging.admits(c, False) and not (one_each and staging.reads[c])]
        core = cores[placed % len(cores)] if canonical else rng.choice(eligible)
        staging.acquire(core, False)
        prestage.append(StagedRequest(False, core, core, open_rows[core]))

    if not canonical:
        rng.shuffle(prestage)

    # The analyzed core's dependent read arrives right after everything else.
    prestage.append(StagedRequest(False, 0, 0, open_rows[0]))
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
#: The ``[scheduler]`` lines, after ``drain_batch``, of two options that the modelled
#: controller does not have, and the error for any other value. Each appears once.
_FIXED_LINES = ("prioritized_bank -1", "partitioning 1")
_FIXED_ERRORS = {
    "prioritized_bank": "prioritized_bank must be -1: the modelled FR-FCFS "
                        "controller has no bank priority",
    "partitioning": "partitioning must be on: every core has one private bank",
}


def scenario_to_text(spec: ScenarioSpec) -> str:
    """Serialize a scenario to the sectioned text format."""
    scheduler = to_lines(spec.scheduler)
    at = list(codecs(SchedulerConfig)).index("drain_batch") + 1
    lines = ["# dramwc scenario", *to_lines(spec, _SCALARS),
             "", "[timing]", *to_lines(spec.timing, TIMING_KEYS),
             "", "[scheduler]", *scheduler[:at], *_FIXED_LINES, *scheduler[at:],
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
def _blame(lineno: int):
    """Re-raise a bad value or failed placement as a ScenarioError naming a line."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"line {lineno}: {exc}", getattr(exc, "keys", ())) from None


def _fields(tokens: list[str], form: str) -> list:
    """``tokens``, if there are as many as ``form`` names, each read as an
    integer but a choice of words (``read|write``)."""
    names = form.split()
    if len(tokens) != len(names):
        raise ScenarioError(f"expected '{form}', got {' '.join(tokens)!r}")
    values = []
    for name, token in zip(names, tokens):
        if "|" not in name:
            try:
                token = int(token)
            except ValueError:
                raise ScenarioError(f"{name} must be an integer in '{form}', got "
                                    f"{token!r}", (name,)) from None
        values.append(token)
    return values


def scenario_from_text(text: str) -> ScenarioSpec:
    """Parse the sectioned text format back into a ScenarioSpec.

    Every key is optional and keeps its dataclass default (a generator's
    ``kind``, ``core`` and ``bank`` have none); a fixed line takes only its
    value (``_FIXED_LINES``). Anything else malformed raises ScenarioError
    naming its line, or TimingError for the ``[timing]`` section. The
    top-level scalars and the ``[timing]``, ``[scheduler]``, ``[mshr]`` and
    ``[generator]`` sections are each read by :func:`keyvalue.build`, so a
    range check names the line that it names. After ``[banks]``, one
    ``Workload`` of the scenario read so far is built under the ``[mshr]``
    header, which names reservations over the read capacity, and each
    generator and ``[prestage]`` line is replayed into it under its header or
    line, which a broken placement rule or admission names.
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

    spec = build(top, codecs(ScenarioSpec, _SCALARS), ScenarioSpec, ScenarioError)
    at, body = sections["timing"]
    spec.timing = build(body, codecs(TimingParams, TIMING_KEYS),
                        lambda **timing: make_timing(timing), TimingError, at)
    at, body = sections["scheduler"]
    fixed = [line for line in body if line[1][0] in _FIXED_ERRORS]
    read_pairs(fixed, dict.fromkeys(_FIXED_ERRORS, (str, str)), ScenarioError)  # once each
    for lineno, tokens in fixed:
        if " ".join(tokens) not in _FIXED_LINES:
            raise ScenarioError(f"line {lineno}: {_FIXED_ERRORS[tokens[0]]}")
    spec.scheduler = build([line for line in body if line not in fixed],
                           codecs(SchedulerConfig), SchedulerConfig, ScenarioError, at)
    at, body = sections["mshr"]
    spec.mshr = build(body, codecs(MshrConfig), MshrConfig, ScenarioError, at)
    for lineno, tokens in sections["banks"][1]:
        with _blame(lineno):
            bank, row = _fields(tokens, "bank row")
            if bank in spec.open_rows:
                raise ScenarioError(f"repeated bank {bank}")
            _check_placement(spec, bank=bank)
            _check_placement(spec, row=row)
        spec.open_rows[bank] = row
    with _blame(sections["mshr"][0]):  # reservations over the read capacity
        workload = Workload(spec)
    for at, body in generators:
        gen = build(body, codecs(GeneratorSpec), GeneratorSpec, ScenarioError, at)
        with _blame(at):
            workload._add_generator(gen)
        spec.generators.append(gen)
    for lineno, tokens in sections["prestage"][1]:
        with _blame(lineno):
            word, core, bank, row = _fields(tokens, "read|write core bank row")
            if word not in ("read", "write"):
                raise ScenarioError(f"{word!r} is neither read nor write")
            staged = StagedRequest(word == "write", core, bank, row)
            workload.stage(staged)
        spec.prestage.append(staged)
    return spec
