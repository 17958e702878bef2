"""FR-FCFS memory controller: separate read/write queues, read priority,
batched write draining, one command per cycle on the shared command bus.

Priority among ready commands: column (CAS) commands beat row (PRE/ACT)
commands, then the prioritized bank if one is configured, then older
arrival order, then lower bank index.
"""

from __future__ import annotations

import enum
import functools
import heapq
from dataclasses import dataclass

from . import device
from .device import CommandKind, DataBurst, TimingParams
from .keyvalue import check_min


class SchedulerError(RuntimeError):
    """Internal scheduling fault (simulator bug, not back-pressure)."""


class SimulationStalled(SchedulerError):
    """No command issued for a whole stall window despite pending work."""


class Mode(enum.Enum):
    READ = "read"
    WRITE_DRAIN = "write_drain"


@dataclass
class SchedulerConfig:
    read_cap: int = 32
    write_cap: int = 16
    drain_batch: int = 4
    prioritized_bank: int | None = None
    partitioning: bool = True  # must stay on; a key of the scenario file
    num_banks: int = 16
    stall_window: int = 10_000

    def __post_init__(self):
        check_min(self, 1, "read_cap", "write_cap", "drain_batch", "num_banks",
                  "stall_window")
        if not 0 <= (self.prioritized_bank or 0) < self.num_banks:
            raise ValueError(f"prioritized_bank ({self.prioritized_bank}) is not "
                             f"one of the {self.num_banks} banks")
        if not self.partitioning:
            raise ValueError("partitioning must be on: every core has one "
                             "private bank")
        if self.drain_batch > self.write_cap:
            raise ValueError(
                f"drain_batch ({self.drain_batch}) cannot exceed write_cap "
                f"({self.write_cap})"
            )


@dataclass
class MemRequest:
    request_id: int
    core: int
    is_write: bool
    bank: int
    row: int
    arrival_cycle: int = 0
    arrival_order: int = -1  # assigned by the controller on accept, as is
    hit_class: str = ""      # the own-bank state then: hit, closed or conflict
    completion_cycle: int | None = None  # set when its data burst ends


@dataclass(frozen=True)
class IssueRecord:
    cycle: int
    kind: CommandKind
    bank: int
    row: int
    core: int
    request_id: int


@dataclass(frozen=True)
class ModeSwitch:
    cycle: int
    mode: Mode
    write_queue_len: int


class ScheduleTrace:
    """Cycle-stamped log of issued commands and bursts, every accepted
    request by id, and the completed requests in completion order."""

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
        self.requests: dict[int, MemRequest] = {}
        self.total_cycles = 0
        self.quiescent = False

    def to_csv(self) -> str:
        rows = []
        for rec in self.issues:
            rows.append((rec.cycle, 0, rec.request_id,
                         f"{rec.cycle},issue,{rec.kind.value},{rec.bank},"
                         f"{rec.row},{rec.core},{rec.request_id}"))
        for rec in self.completions:
            rows.append((rec.completion_cycle, 1, rec.request_id,
                         f"{rec.completion_cycle},complete,,{rec.bank},,"
                         f"{rec.core},{rec.request_id}"))
        rows.sort(key=lambda r: r[:3])
        return "\n".join([self.CSV_HEADER] + [r[3] for r in rows]) + "\n"

    def per_request_delay(self, request_id: int) -> int:
        """Interference delay: contended latency minus the solo service time
        against the same own-bank state."""
        req = self.requests.get(request_id)
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
        cores = sorted({req.core for req in self.requests.values()})
        by_core: dict[int, list[int]] = {c: [] for c in cores}
        for rec in self.completions:
            by_core[rec.core].append(self.per_request_delay(rec.request_id))
        for core in cores:
            delays = by_core[core]
            lines.append(f"core{core}_completions {len(delays)}")
            if delays:
                mean = sum(delays) / len(delays)
                lines.append(f"core{core}_max_delay {max(delays)}")
                lines.append(f"core{core}_mean_delay {mean:.3f}")
        return "\n".join(lines) + "\n"


def priority_key(kind: CommandKind, bank: int, arrival_order: int,
                 prioritized_bank: int | None) -> tuple:
    """FR-FCFS ordering key; smaller wins."""
    cas_rank = 0 if kind in device.CAS_KINDS else 1
    bank_rank = 0 if prioritized_bank is None or bank == prioritized_bank else 1
    return (cas_rank, bank_rank, arrival_order, bank)


class Controller:
    """Deterministic single-channel controller. :meth:`step` advances one
    cycle; :meth:`run` steps the cycles at which a command can issue or the
    mode switch, only retires bursts on the other visited cycles, and jumps
    over the rest."""

    def __init__(self, timing: TimingParams, config: SchedulerConfig | None = None,
                 open_rows: dict[int, int] | None = None,
                 initial_mode: Mode = Mode.READ):
        self.timing = timing
        self.config = config or SchedulerConfig()
        open_rows = open_rows or {}
        for bank in open_rows:
            if not 0 <= bank < self.config.num_banks:
                raise ValueError(f"open row for unknown bank {bank}")
        self.banks = [
            device.BankState(open_row=open_rows.get(i))
            for i in range(self.config.num_banks)
        ]
        self.chan = device.ChannelState()
        self.read_queue: list[MemRequest] = []
        self.write_queue: list[MemRequest] = []
        self.mode = initial_mode
        self.drained_in_batch = 0
        self.now = 0
        self._next_order = 0
        self.next_ready = device.NEVER  # set by select_command
        self._first_ready = device.NEVER  # the oracle's, set by step when idle
        self._inflight: list[tuple[int, int, MemRequest]] = []  # (end, id, req)
        self.trace = ScheduleTrace(timing, self.config, initial_mode)

    # -- queue admission ----------------------------------------------------

    def enqueue(self, req: MemRequest) -> bool:
        """Accept a request, or return False as back-pressure when full."""
        queue, cap = (
            (self.write_queue, self.config.write_cap)
            if req.is_write
            else (self.read_queue, self.config.read_cap)
        )
        if len(queue) >= cap:
            return False
        if not 0 <= req.bank < self.config.num_banks:
            raise SchedulerError(f"request {req.request_id} targets unknown bank {req.bank}")
        req.arrival_order = self._next_order
        self._next_order += 1
        queue.append(req)
        open_row = self.banks[req.bank].open_row
        req.hit_class = ("hit" if open_row == req.row else
                         "closed" if open_row is None else "conflict")
        self.trace.requests[req.request_id] = req
        return True

    # -- scheduling ---------------------------------------------------------

    def update_mode(self) -> None:
        mode = self._mode_due()
        if mode is not None:
            self._switch_mode(mode)

    def _mode_due(self) -> Mode | None:
        """The mode that update_mode would switch to now, or None."""
        if self.mode is Mode.READ:
            if self.write_queue and (
                len(self.write_queue) >= self.config.write_cap or not self.read_queue
            ):
                return Mode.WRITE_DRAIN
        elif not self.write_queue or (
            self.drained_in_batch >= self.config.drain_batch and self.read_queue
        ):
            return Mode.READ
        return None

    def _switch_mode(self, mode: Mode) -> None:
        self.mode = mode
        if mode is Mode.WRITE_DRAIN:
            self.drained_in_batch = 0
        self.trace.mode_switches.append(
            ModeSwitch(self.now, mode, len(self.write_queue))
        )

    def _next_kind(self, req: MemRequest) -> CommandKind:
        open_row = self.banks[req.bank].open_row
        if open_row == req.row:
            return CommandKind.WR if req.is_write else CommandKind.RD
        if open_row is None:
            return CommandKind.ACT
        return CommandKind.PRE

    def candidate_queue(self) -> list[MemRequest]:
        return self.read_queue if self.mode is Mode.READ else self.write_queue

    def select_command(self) -> tuple[CommandKind, MemRequest] | None:
        """Highest-priority ready command among the active queue, as the
        pair (kind, request served), or None.

        Also sets ``next_ready`` to the earliest cycle at which a command it
        could not issue becomes ready (NEVER if there is none). The queue is
        in arrival order, and requests to one (bank, row) share their next
        command and its readiness, so only the oldest of them can win and
        readiness is computed once per (bank, row).
        """
        best = None
        best_key = None
        next_ready = device.NEVER
        prio = self.config.prioritized_bank
        seen = set()
        for req in self.candidate_queue():
            target = (req.bank, req.row)
            if target in seen:
                continue
            seen.add(target)
            kind = self._next_kind(req)
            at = device.earliest_ready(kind, req.row, self.banks[req.bank],
                                       self.chan, self.timing)
            if at > self.now:
                next_ready = min(next_ready, at)
                continue
            key = priority_key(kind, req.bank, req.arrival_order, prio)
            if best_key is None or key < best_key:
                best, best_key = (kind, req), key
        self.next_ready = next_ready
        return best

    def step(self) -> tuple[IssueRecord | None, list[MemRequest]]:
        """Advance one cycle: update mode, issue at most one command, and
        complete the requests whose data burst ends this cycle.

        This is the full per-cycle primitive, with the oracle check; the
        quiet cycles of :meth:`run` do only its last part, :meth:`_retire`.
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
            issued = IssueRecord(self.now, kind, req.bank, req.row,
                                 req.core, req.request_id)
            self.trace.issues.append(issued)
            if burst is not None:
                self.trace.bursts.append(burst)
                self.candidate_queue().remove(req)
                heapq.heappush(self._inflight, (burst.end, req.request_id, req))
                if kind is CommandKind.WR:
                    self.drained_in_batch += 1
        return issued, self._retire()

    def _retire(self) -> list[MemRequest]:
        """End the cycle: complete the requests whose data burst ends now."""
        completed = []
        while self._inflight and self._inflight[0][0] == self.now:
            req = heapq.heappop(self._inflight)[2]
            req.completion_cycle = self.now
            completed.append(req)
        self.trace.completions += completed
        self.now += 1
        return completed

    def idle(self) -> bool:
        return not self.read_queue and not self.write_queue and not self._inflight

    def run(self, workload) -> ScheduleTrace:
        """Run the workload that owns this controller until its horizon, or
        until it says the run has ended (see :meth:`Workload.finished`).

        After a cycle that issues and completes nothing, with no mode switch
        due, every input of the next cycle is as it was, so the clock jumps
        to the next cycle at which state can change (:meth:`_next_event`).
        That idle cycle's oracle check gave the first cycle at which anything
        becomes ready in this state, so the skipped span is sound iff the
        target does not pass it; otherwise the oracle runs at the cycle
        before the target, where something is ready, and reports it.

        A visited cycle is quiet when the last stepped cycle issued nothing
        and left no mode switch due, no request has arrived since, and the
        cycle comes before that step's first-ready cycle (the earlier of
        ``next_ready`` and the oracle's). A quiet cycle only retires the
        bursts that end on it. Selection reads the queues, which only an
        arrival or an issue changes, the bank and channel state, which only
        an issue changes, and the mode, whose inputs are the queues and the
        drain count, so on a quiet cycle it would issue nothing, and the
        oracle's check in the same state has already certified that.
        """
        horizon = workload.spec.horizon
        last_progress = 0
        quiet_order, quiet_until = -1, 0  # arrival count and end of the quiet span
        while self.now < horizon:
            cycle = self.now
            workload.poll(cycle)
            if cycle < quiet_until and self._next_order == quiet_order:
                issued, completed = None, self._retire()
            else:
                issued, completed = self.step()
                quiet_order = self._next_order
                quiet_until = (min(self.next_ready, self._first_ready)
                               if issued is None and self._mode_due() is None
                               else 0)
            workload.notify(cycle, completed)
            if issued is not None:
                last_progress = cycle
            elif not self.idle() and cycle - last_progress > self.config.stall_window:
                raise SimulationStalled(
                    f"no command issued since cycle {last_progress} "
                    f"(reads={len(self.read_queue)}, writes={len(self.write_queue)}, "
                    f"mode={self.mode.value})"
                )
            if workload.finished():
                break
            if issued is not None or completed or self._mode_due() is not None:
                continue  # freed room may admit a request; the mode may flip
            target = self._next_event(workload, horizon, last_progress)
            if target > self.now:
                if target > self._first_ready:
                    self.now = target - 1
                    checks.verify_selection(self, None)
                self.now = target
        self.trace.total_cycles = self.now
        self.trace.quiescent = self.idle() and workload.exhausted()
        return self.trace

    def _next_event(self, workload, horizon: int, last_progress: int) -> int:
        """The first cycle from ``now`` on at which, after an uneventful
        cycle, something can happen: a command becomes ready, a burst
        completes, a generator wakes, the stall guard trips, or the horizon."""
        target = min(self.next_ready, horizon, workload.next_wake(self.now))
        if self._inflight:
            target = min(target, self._inflight[0][0])
        if not self.idle():
            target = min(target, last_progress + self.config.stall_window + 1)
        return target


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
    req = MemRequest(0, 0, is_write, 0, row, 0)
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
