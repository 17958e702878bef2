"""FR-FCFS memory controller: separate read/write queues, read priority,
batched write draining, one command per cycle on the shared command bus.

Priority among ready commands: column (CAS) commands beat row (PRE/ACT)
commands, then older arrival order. There is no bank priority.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import device
from .device import ACT, CAS_KINDS, NEVER, PRE, RD, WR, CommandKind, DataBurst, TimingParams
from .keyvalue import Choice, ScenarioError, check_min


class SchedulerError(RuntimeError):
    """Internal scheduling fault (simulator bug, not back-pressure)."""


class SimulationStalled(SchedulerError):
    """No command issued for a whole stall window despite pending work."""


class Mode(Choice):
    READ = "read"
    WRITE_DRAIN = "write_drain"


# Module names for the per-cycle code, as device binds the command kinds.
READ, WRITE_DRAIN = Mode


@dataclass
class SchedulerConfig:
    read_cap: int = 32
    write_cap: int = 16
    drain_batch: int = 4
    num_banks: int = 16
    stall_window: int = 10_000

    def __post_init__(self):
        check_min(self, 1, "read_cap", "write_cap", "drain_batch", "num_banks",
                  "stall_window")
        if self.drain_batch > self.write_cap:
            raise ScenarioError(
                f"drain_batch ({self.drain_batch}) cannot exceed write_cap "
                f"({self.write_cap})", ("drain_batch", "write_cap"))


@dataclass(eq=False)  # a mutable record, compared and hashed by identity
class MemRequest:
    """The one record of a request: issue and burst records point at it."""

    core: int
    is_write: bool
    bank: int
    row: int
    arrival_cycle: int = 0
    request_id: int = -1  # assigned by the controller on accept, as are
    hit_class: str = ""   # the own-bank state then (hit, closed, conflict)
    target: int = -1      # and the oracle's scan key, one int per (bank, row, is_write)
    completion_cycle: int | None = None  # set when its data burst ends


@dataclass
class IssueRecord:
    cycle: int
    kind: CommandKind
    request: MemRequest


@dataclass(frozen=True)
class ModeSwitch:
    cycle: int
    mode: Mode
    write_queue_len: int


class ScheduleTrace:
    """Cycle-stamped log of issued commands and bursts, every accepted
    request at the index of its id, and the completed ones in completion order."""

    CSV_HEADER = "cycle,event,kind,bank,row,core,request_id"

    def __init__(self, timing: TimingParams, config: SchedulerConfig,
                 initial_mode: Mode):
        self.timing = timing
        self.config = config
        self.initial_mode = initial_mode
        self.issues: list[IssueRecord] = []
        self.completions: list[MemRequest] = []
        self.bursts: list[DataBurst] = []
        self.mode_switches: list[ModeSwitch] = []
        self.requests: list[MemRequest] = []
        self.total_cycles = 0
        self.quiescent = False

    def to_csv(self) -> str:
        """One row per issue and per completion, with the fields of the
        request it serves, by cycle, an issue before the completion of its cycle.

        ``step`` logs at most one issue a cycle, in cycle order, and
        ``_retire`` at most one completion a cycle, in cycle order, so
        merging the two logs puts the rows in that order without a sort."""
        issues = self.issues
        issue_rows = [f"{rec.cycle},issue,{rec.kind._value_},{req.bank},"
                      f"{req.row},{req.core},{req.request_id}"
                      for rec in issues for req in [rec.request]]
        rows = [self.CSV_HEADER]
        i, n = 0, len(issues)
        for rec in self.completions:
            cycle = rec.completion_cycle
            while i < n and issues[i].cycle <= cycle:
                rows.append(issue_rows[i])
                i += 1
            rows.append(f"{cycle},complete,,{rec.bank},,{rec.core},{rec.request_id}")
        rows += issue_rows[i:]
        return "\n".join(rows) + "\n"

    @functools.cached_property
    def _solo(self) -> dict[tuple[bool, str], int]:
        """Each ``(is_write, hit_class)`` pair's solo service time, looked up
        once per trace: a cached lookup hashes the whole TimingParams. Filled
        on first use, since ``solo_service``'s own controller builds a trace."""
        return {(is_write, hit_class): solo_service(self.timing, is_write, hit_class)
                for is_write in (False, True)
                for hit_class in ("hit", "closed", "conflict")}

    def delay(self, req: MemRequest) -> int:
        """A request's interference delay: its latency, ``completion_cycle -
        arrival_cycle``, minus its solo service time against the same
        own-bank state. A request still pending at the end of the run is
        censored there: its latency so far, ``total_cycles - arrival_cycle``,
        stands in for the latency it was still accruing."""
        end = req.completion_cycle
        if end is None:
            end = self.total_cycles
        return end - req.arrival_cycle - self._solo[req.is_write, req.hit_class]

    def stats_text(self) -> str:
        lines = [
            f"total_cycles {self.total_cycles}",
            f"mode_switches {len(self.mode_switches)}",
            f"requests_enqueued {len(self.requests)}",
            f"requests_completed {len(self.completions)}",
        ]
        cores = sorted({req.core for req in self.requests})
        by_core: dict[int, list[int]] = {c: [] for c in cores}
        for rec in self.completions:
            by_core[rec.core].append(self.delay(rec))
        for core in cores:
            delays = by_core[core]
            lines.append(f"core{core}_completions {len(delays)}")
            if delays:
                mean = sum(delays) / len(delays)
                lines.append(f"core{core}_max_delay {max(delays)}")
                lines.append(f"core{core}_mean_delay {mean:.3f}")
        return "\n".join(lines) + "\n"


def priority_key(kind: CommandKind, request_id: int) -> tuple:
    """FR-FCFS ordering key; smaller wins. The oracle ranks by it;
    select_command builds the same key in its own loop. Request ids are
    unique, so no two keys tie."""
    return (0 if kind in CAS_KINDS else 1, request_id)


class Controller:
    """Deterministic single-channel controller. :meth:`step` advances one
    cycle; :meth:`run` visits every cycle, steps those at which a command
    can issue or the mode switch, and only retires bursts on the others."""

    def __init__(self, timing: TimingParams, config: SchedulerConfig | None = None,
                 open_rows: dict[int, int] | None = None,
                 initial_mode: Mode = Mode.READ):
        self.timing = timing
        self.config = config or SchedulerConfig()
        open_rows = open_rows or {}
        for bank in open_rows:
            if not 0 <= bank < self.config.num_banks:
                raise ScenarioError(f"bank {bank} is outside the scenario's "
                                    f"{self.config.num_banks} banks")
        self.banks = [
            device.BankState(open_row=open_rows.get(i))
            for i in range(self.config.num_banks)
        ]
        self.chan = device.ChannelState()
        self.read_queue: list[MemRequest] = []
        self.write_queue: list[MemRequest] = []
        # Each queue's requests grouped by (bank, row), each group in arrival
        # order: the index that selection and the oracle's first-ready scan
        # read. The queues stay the arrival-order record that the oracle's
        # pick check walks.
        self.read_groups: dict[tuple[int, int], list[MemRequest]] = {}
        self.write_groups: dict[tuple[int, int], list[MemRequest]] = {}
        self.mode = initial_mode
        # The active queue and its groups, the ones that ``mode`` names: set
        # only here and by _switch_mode. The oracle derives its own from ``mode``.
        self.active_queue, self.active_groups = (
            (self.read_queue, self.read_groups) if initial_mode is READ
            else (self.write_queue, self.write_groups))
        self.drained_in_batch = 0
        self.now = 0
        self.next_end = NEVER  # the end of the first burst not retired
        self._first_ready = NEVER  # the oracle's, set by step when idle
        self.trace = ScheduleTrace(timing, self.config, initial_mode)

    # -- queue admission ----------------------------------------------------

    def enqueue(self, req: MemRequest) -> bool:
        """Accept a request and number it by its index in ``trace.requests``,
        or return False as back-pressure when full. A numbered request has
        been accepted already: enqueueing it again is a SchedulerError."""
        if req.request_id != -1:
            raise SchedulerError(f"request {req.request_id} is already accepted")
        queue, cap = (
            (self.write_queue, self.config.write_cap)
            if req.is_write
            else (self.read_queue, self.config.read_cap)
        )
        if len(queue) >= cap:
            return False
        if not 0 <= req.bank < self.config.num_banks:
            raise SchedulerError(f"a request targets unknown bank {req.bank}")
        requests = self.trace.requests
        req.request_id = len(requests)
        req.target = (req.row * self.config.num_banks + req.bank) * 2 + req.is_write
        queue.append(req)
        groups = self.write_groups if req.is_write else self.read_groups
        groups.setdefault((req.bank, req.row), []).append(req)
        open_row = self.banks[req.bank].open_row
        req.hit_class = ("hit" if open_row == req.row else
                         "closed" if open_row is None else "conflict")
        requests.append(req)
        return True

    # -- scheduling ---------------------------------------------------------

    def update_mode(self) -> None:
        mode = self._mode_due()
        if mode is not None:
            self._switch_mode(mode)

    def _mode_due(self) -> Mode | None:
        """The mode that update_mode would switch to now, or None."""
        if self.mode is READ:
            if self.write_queue and (
                len(self.write_queue) >= self.config.write_cap or not self.read_queue
            ):
                return WRITE_DRAIN
        elif not self.write_queue or (
            self.drained_in_batch >= self.config.drain_batch and self.read_queue
        ):
            return READ
        return None

    def _switch_mode(self, mode: Mode) -> None:
        self.mode = mode
        if mode is READ:
            self.active_queue, self.active_groups = self.read_queue, self.read_groups
        else:
            self.active_queue, self.active_groups = self.write_queue, self.write_groups
            self.drained_in_batch = 0
        self.trace.mode_switches.append(
            ModeSwitch(self.now, mode, len(self.write_queue))
        )

    def select_command(self) -> tuple[CommandKind, MemRequest] | None:
        """Highest-priority ready command among the active queue, as the
        pair (kind, request served), or None.

        Requests to one (bank, row) share their next command and its
        readiness, so only the oldest of them can win: selection reads only
        the head of each (bank, row) group, whatever the length of the queue.
        """
        best = None
        best_key = None
        groups = self.active_groups
        banks, chan, timing, now = self.banks, self.chan, self.timing, self.now
        earliest_ready = device.earliest_ready
        for group in groups.values():
            req = group[0]
            row = req.row
            state = banks[req.bank]
            # The head's kind and FR-FCFS key, in line; the oracle derives
            # its own, from decompose_request and priority_key.
            open_row = state.open_row
            if open_row == row:
                kind, cas_rank = WR if req.is_write else RD, 0
            else:
                kind, cas_rank = ACT if open_row is None else PRE, 1
            if earliest_ready(kind, row, state, chan, timing) > now:
                continue
            key = (cas_rank, req.request_id)
            if best_key is None or key < best_key:
                best, best_key = (kind, req), key
        return best

    def step(self) -> tuple[IssueRecord | None, MemRequest | None]:
        """Advance one cycle: update mode, issue at most one command, and
        complete the request whose data burst ends this cycle, if one does.

        This is the full per-cycle primitive, with the oracle check.
        :meth:`run` calls it only on a cycle at which a command is ready or
        the mode switch is due. On an idle cycle it keeps the oracle's
        first-ready cycle, the end of the quiet span that :meth:`run` may
        follow it with; a quiet cycle does only the last part of a step,
        :meth:`_retire`.
        """
        self.update_mode()
        chosen = self.select_command()
        self._first_ready = checks.verify_selection(self, chosen)
        issued = None
        if chosen is not None:
            kind, req = chosen
            burst = device.apply_command(
                kind, req, self.banks[req.bank], self.chan, self.timing, self.now
            )
            issued = IssueRecord(self.now, kind, req)
            self.trace.issues.append(issued)
            if burst is not None:
                if self.next_end == NEVER:
                    self.next_end = burst.end
                self.trace.bursts.append(burst)
                self._dequeue(req)
                if kind is WR:
                    self.drained_in_batch += 1
        return issued, self._retire()

    def _dequeue(self, req: MemRequest) -> None:
        """Remove a request whose CAS has issued from its queue and from the
        head of its (bank, row) group."""
        self.active_queue.remove(req)
        groups = self.write_groups if req.is_write else self.read_groups
        target = (req.bank, req.row)
        group = groups[target]
        if group[0] is not req:
            raise SchedulerError(
                f"request {req.request_id} served ahead of the older request "
                f"{group[0].request_id} to bank {req.bank}, row {req.row}")
        if len(group) == 1:
            del groups[target]
        else:
            del group[0]

    def _retire(self) -> MemRequest | None:
        """End the cycle: complete the request that the burst ending now points
        at, if any. Each CAS waits for the data bus (``earliest_ready``), so bursts
        end in issue order, one a cycle at most: the next is the first not
        completed, and ``next_end`` is its end, kept by ``step`` and here."""
        now = self.now
        self.now = now + 1
        if now != self.next_end:
            return None
        trace = self.trace
        completions, bursts = trace.completions, trace.bursts
        done = len(completions)
        req = bursts[done].request
        req.completion_cycle = now
        completions.append(req)
        done += 1
        self.next_end = bursts[done].end if done < len(bursts) else NEVER
        return req

    def idle(self) -> bool:
        return self.next_end == NEVER and not self.read_queue and not self.write_queue

    def run(self, workload) -> ScheduleTrace:
        """Run the workload that owns this controller until its horizon, or
        until it says the run has ended (see :meth:`Workload.finished`).

        Every cycle is visited: the cycle is stepped or quiet, and the stall
        guard runs. A visit is stepped only when a mode switch is due or the
        oracle has found a command ready on it; every other cycle is
        certified idle by the oracle, without a select, and is quiet: it
        only retires the burst ending on it, if one does, and else only
        advances the clock.

        Cycle 0 is stepped. The oracle certifies a span of quiet cycles
        that ends at its first-ready cycle: in the idle check of a step that
        leaves no mode switch due, or on the first visit after an issue,
        once the workload has polled, by :func:`checks.first_ready` over the
        active queue's (bank, row) group heads. A request that arrives in a
        span and joins a group costs nothing: it shares the group head's
        kind and ready cycle. One that opens a group ends the span at the
        new head's first-ready cycle, if that is earlier, found by
        :func:`checks.first_ready` over the new groups alone, the tail of
        the dict; one that makes a mode switch due ends the span at once.
        This is exact: a head's kind and ready cycle depend only on its
        (bank, row), its bank's state and the channel's state, which only an
        issue changes; only a mode switch changes the active queue, and its
        inputs, the queues and the drain count, change only at an arrival or
        an issue; and an arrival only appends a request, to a group or as a
        new one, while only a CAS issue removes a group. So a certification
        holds until the next issue or mode switch, and an arrival can
        shorten it only by the head of a group that it opens.

        Each workload hook runs only on a visit where its inputs can have
        changed. The workload polls on cycle 0 and then on the wake that its
        last poll returned, or the earlier wake of a notify since. It is
        notified of each completion, the one event that frees an MSHR entry
        for a generator that the MSHR file blocks, and asked whether the run
        has ended on cycle 0 and on a completion's cycle.
        """
        horizon = workload.spec.horizon
        stall_window = self.config.stall_window
        poll, notify, finished = workload.poll, workload.notify, workload.finished
        step, retire, mode_due, idle = self.step, self._retire, self._mode_due, self.idle
        first_ready = checks.first_ready
        trace = self.trace
        requests = trace.requests
        last_progress = 0
        wake = 0  # the next poll's cycle
        # The certified span: nothing is ready before quiet_until, with
        # quiet_order requests accepted and quiet_len (bank, row) groups in
        # the active queue; quiet_order is -1 after an issue or a due mode
        # switch. The span is empty on cycle 0, which is stepped.
        quiet_order, quiet_until, quiet_len = 0, 0, 0
        while self.now < horizon:
            cycle = self.now
            if cycle >= wake:
                wake = poll(cycle)
            if len(requests) != quiet_order:
                if mode_due() is not None:
                    quiet_until = cycle
                elif quiet_order < 0:
                    quiet_until, quiet_len = first_ready(self), len(self.active_groups)
                elif cycle < quiet_until:
                    heads = len(self.active_groups)
                    if heads != quiet_len:
                        ready = first_ready(self, quiet_len)
                        quiet_len = heads
                        if ready < quiet_until:
                            quiet_until = ready
                quiet_order = len(requests)
            issued = completed = None
            if cycle >= quiet_until:
                issued, completed = step()
                if issued is None and mode_due() is None:
                    quiet_order, quiet_until = len(requests), self._first_ready
                    quiet_len = len(self.active_groups)
                else:
                    quiet_order = -1
            elif cycle == self.next_end:
                completed = retire()
            else:
                self.now = cycle + 1
            if completed is not None:
                woken = notify(cycle, completed)
                if woken < wake:
                    wake = woken
            if issued is not None:
                last_progress = cycle
            elif cycle - last_progress > stall_window and not idle():
                raise SimulationStalled(
                    f"no command issued since cycle {last_progress} "
                    f"(reads={len(self.read_queue)}, writes={len(self.write_queue)}, "
                    f"mode={self.mode.value})"
                )
            if (completed is not None or cycle == 0) and finished():
                break
        trace.total_cycles = self.now
        trace.quiescent = idle() and workload.exhausted()
        return trace


@functools.lru_cache(maxsize=None)
def solo_service(timing: TimingParams, is_write: bool, hit_class: str) -> int:
    """Service latency of a lone request against a bank in the given state.

    Computed by simulation of a one-request scenario, not by formula, so it
    stays an independent reference for delay measurements.
    """
    row = 1
    open_rows = {"hit": {0: row}, "closed": {}, "conflict": {0: row + 1}}[hit_class]
    cfg = SchedulerConfig(num_banks=1)
    ctrl = Controller(timing, cfg, open_rows=open_rows)
    req = MemRequest(0, is_write, 0, row)
    if not ctrl.enqueue(req):
        raise SchedulerError("solo request rejected")
    guard = 10_000
    while not ctrl.idle():
        ctrl.step()
        guard -= 1
        if guard == 0:
            raise SimulationStalled("solo service simulation did not finish")
    return req.completion_cycle


# The oracle's module imports this one, so it is bound once this one is whole.
from . import checks  # noqa: E402
