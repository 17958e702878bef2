"""FR-FCFS memory controller: separate read/write queues, read priority,
batched write draining, one command per cycle on the shared command bus.

Priority among ready commands: column (CAS) commands beat row (PRE/ACT)
commands, then older arrival order. There is no bank priority.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from . import device
from .device import ACT, CAS_KINDS, PRE, RD, WR, CommandKind, DataBurst, TimingParams
from .keyvalue import ScenarioError, check_min


class SchedulerError(RuntimeError):
    """Internal scheduling fault (simulator bug, not back-pressure)."""


class SimulationStalled(SchedulerError):
    """No command issued for a whole stall window despite pending work."""


class Mode(enum.Enum):
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
    target: tuple = ()    # and (bank, row, is_write), the oracle's scan key
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

    def per_request_delay(self, request_id: int) -> int:
        """Interference delay: contended latency minus the solo service time
        against the same own-bank state."""
        req = self.requests[request_id] if 0 <= request_id < len(self.requests) else None
        if req is None or req.completion_cycle is None:
            raise KeyError(f"request {request_id} has no completion in trace")
        return (req.completion_cycle - req.arrival_cycle
                - solo_service(self.timing, req.is_write, req.hit_class))

    def stats_text(self) -> str:
        lines = [
            f"total_cycles {self.total_cycles}",
            f"mode_switches {len(self.mode_switches)}",
            f"requests_enqueued {len(self.requests)}",
            f"requests_completed {len(self.completions)}",
        ]
        cores = sorted({req.core for req in self.requests})
        by_core: dict[int, list[int]] = {c: [] for c in cores}
        # per_request_delay's formula, with each solo service time looked up
        # once per call: a cached lookup hashes the whole TimingParams.
        solo: dict[tuple[bool, str], int] = {}
        for rec in self.completions:
            key = (rec.is_write, rec.hit_class)
            base = solo.get(key)
            if base is None:
                base = solo[key] = solo_service(self.timing, *key)
            by_core[rec.core].append(rec.completion_cycle - rec.arrival_cycle - base)
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
        # order: the selection index. The queues stay the arrival-order
        # record that the oracle scans.
        self.read_groups: dict[tuple[int, int], list[MemRequest]] = {}
        self.write_groups: dict[tuple[int, int], list[MemRequest]] = {}
        self.mode = initial_mode
        self.drained_in_batch = 0
        self.now = 0
        self._first_ready = device.NEVER  # the oracle's, set by step when idle
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
        req.target = (req.bank, req.row, req.is_write)
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
        if mode is WRITE_DRAIN:
            self.drained_in_batch = 0
        self.trace.mode_switches.append(
            ModeSwitch(self.now, mode, len(self.write_queue))
        )

    def candidate_queue(self) -> list[MemRequest]:
        return self.read_queue if self.mode is READ else self.write_queue

    def select_command(self) -> tuple[CommandKind, MemRequest] | None:
        """Highest-priority ready command among the active queue, as the
        pair (kind, request served), or None.

        Requests to one (bank, row) share their next command and its
        readiness, so only the oldest of them can win: selection reads only
        the head of each (bank, row) group, whatever the length of the queue.
        """
        best = None
        best_key = None
        groups = self.read_groups if self.mode is READ else self.write_groups
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

        This is the full per-cycle primitive, with the oracle check. On an
        idle cycle it keeps the oracle's first-ready cycle, the end of the
        quiet span that :meth:`run` may follow it with; a quiet cycle does
        only the last part of a step, :meth:`_retire`.
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
                self.trace.bursts.append(burst)
                self._dequeue(req)
                if kind is WR:
                    self.drained_in_batch += 1
        return issued, self._retire()

    def _dequeue(self, req: MemRequest) -> None:
        """Remove a request whose CAS has issued from its queue and from the
        head of its (bank, row) group."""
        self.candidate_queue().remove(req)
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
        end in issue order, one a cycle at most: the next is the first not completed."""
        trace, now = self.trace, self.now
        self.now = now + 1
        done = len(trace.completions)
        if done == len(trace.bursts) or trace.bursts[done].end != now:
            return None
        req = trace.bursts[done].request
        req.completion_cycle = now
        trace.completions.append(req)
        return req

    def _next_end(self) -> int:
        """The cycle at which the first burst not yet retired ends, or NEVER."""
        trace = self.trace
        done = len(trace.completions)
        return trace.bursts[done].end if done < len(trace.bursts) else device.NEVER

    def idle(self) -> bool:
        retired = len(self.trace.completions) == len(self.trace.bursts)
        return retired and not self.read_queue and not self.write_queue

    def run(self, workload) -> ScheduleTrace:
        """Run the workload that owns this controller until its horizon, or
        until it says the run has ended (see :meth:`Workload.finished`).

        Every cycle is visited: the cycle is stepped or quiet, and the stall
        guard runs. A cycle is quiet when the last stepped cycle issued
        nothing and left no mode switch due, no request has been accepted
        since, and the cycle comes before the first-ready cycle that the
        oracle's idle check of that step returned. A quiet cycle only
        retires the burst ending on it, if one does, and else only advances
        the clock. Selection reads the queues, which only an arrival or an
        issue changes, the bank and channel state, which only an issue
        changes, and the mode, whose inputs are the queues and the drain
        count, so on a quiet cycle it would issue nothing, and the oracle's
        check in the same state has already certified that.

        Each workload hook runs only on a visit where its inputs can have
        changed. The workload polls on the wake that its last poll returned,
        or sooner when the trace's completion and burst counts, the stamps
        of its parked generators, have moved since. It is notified of a
        completion, and asked whether the run has ended on cycle 0 and on a
        completion's cycle.
        """
        horizon = workload.spec.horizon
        stall_window = self.config.stall_window
        poll, notify, finished = workload.poll, workload.notify, workload.finished
        step, retire, mode_due, idle = self.step, self._retire, self._mode_due, self.idle
        trace = self.trace
        requests, completions, bursts = trace.requests, trace.completions, trace.bursts
        last_progress = 0
        wake, polled = 0, -1  # the next poll's cycle, and the counts at the last
        quiet_order, quiet_until = -1, 0  # arrival count and end of the quiet span
        next_end = device.NEVER  # the end of the first burst not retired, when quiet
        while self.now < horizon:
            cycle = self.now
            room = len(completions) + len(bursts)
            if cycle >= wake or room != polled:
                polled, wake = room, poll(cycle)
            issued = completed = None
            if cycle >= quiet_until or len(requests) != quiet_order:
                issued, completed = step()
                quiet_order = len(requests)
                if issued is None and mode_due() is None:
                    quiet_until, next_end = self._first_ready, self._next_end()
                else:
                    quiet_until = 0
            elif cycle == next_end:
                completed, next_end = retire(), self._next_end()
            else:
                self.now = cycle + 1
            if completed is not None:
                notify(cycle, completed)
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
