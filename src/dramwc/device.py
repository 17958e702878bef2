"""DDR3 device timing model: per-bank row-buffer state, channel state, and the
legality and effect of PRE/ACT/RD/WR commands.

All quantities are in memory-clock cycles unless the name ends in ``_ns``.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

from .keyvalue import InputError


class TimingError(InputError):
    """Missing or inconsistent timing parameters."""


class CommandKind(enum.Enum):
    PRE = "PRE"
    ACT = "ACT"
    RD = "RD"
    WR = "WR"


# The members as module names. On CPython 3.10 and 3.11 a read through the
# class (``CommandKind.RD``) takes the enum metaclass's slow attribute path,
# about ten times the cost of a global, so the per-cycle code reads these.
PRE, ACT, RD, WR = CommandKind

#: Column (CAS) command kinds; ACT and PRE form the row (RAS) class.
CAS_KINDS = (RD, WR)

#: DDR3-1066 timing set. Cycle values except tck_ns.
DDR3_1066 = {
    "tck_ns": 1.87,
    "trp": 7,
    "trcd": 7,
    "cl": 7,
    "wl": 6,
    "tburst": 4,
    "tccd": 4,
    "twtr": 4,
    "trrd": 4,
    "trtp": 4,
    "tfaw": 20,
    "trc": 27,
}


@dataclass(frozen=True)
class TimingParams:
    tck_ns: float
    trp: int
    trcd: int
    cl: int
    wl: int
    tburst: int
    tccd: int
    twtr: int
    trrd: int
    trtp: int
    tfaw: int
    trc: int
    tras: int        # derived: trc - trp
    twr: int         # write recovery (WR issue + WL + tBURST + tWR gates PRE)
    rd_wr_gap: int   # read-to-write CAS turnaround on the channel

    def ns(self, cycles: float) -> float:
        return cycles * self.tck_ns


#: Settable timing keys, in file order: every field but the derived tras.
TIMING_KEYS = tuple(f.name for f in fields(TimingParams) if f.name != "tras")


def make_timing(raw: dict | None = None) -> TimingParams:
    """Build a validated TimingParams from DDR3-1066 defaults plus overrides.

    ``raw`` may supply any base key, plus the optional ``twr`` and
    ``rd_wr_gap``. ``tras`` is always derived from trc - trp.
    """
    merged = dict(DDR3_1066)
    for key, value in (raw or {}).items():
        if key == "tras":
            raise TimingError("tras is derived from trc - trp and cannot be set",
                              (key,))
        if key not in TIMING_KEYS:
            raise TimingError(f"unknown timing parameter: {key}", (key,))
        merged[key] = value

    tck = merged.pop("tck_ns")
    if not (isinstance(tck, numbers.Real) and not isinstance(tck, bool)
            and tck > 0 and math.isfinite(tck)):
        raise TimingError(f"tCK ({tck}) must be positive and finite", ("tck_ns",))
    cycles = {}
    for key, value in merged.items():
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value) and value == int(value)):  # not 7.9, "7", True or None
            raise TimingError(f"{key} ({value!r}) must be a whole number", (key,))
        value, least = int(value), 0 if key == "rd_wr_gap" else 1
        if value < least:
            raise TimingError(f"{key} ({value}) must be at least {least}", (key,))
        cycles[key] = value
    if cycles["trc"] <= cycles["trp"]:
        raise TimingError(f"tRC ({cycles['trc']}) must exceed tRP ({cycles['trp']})",
                          ("trc", "trp"))
    if cycles["tfaw"] < cycles["trrd"]:
        raise TimingError(
            f"tFAW ({cycles['tfaw']}) cannot be shorter than tRRD ({cycles['trrd']})",
            ("tfaw", "trrd"))
    tras = cycles["trc"] - cycles["trp"]
    # Largest write recovery for which a same-bank row-miss write stream
    # still cycles at tRC (needs tRCD + WL + tBURST + tWR <= tRAS).
    cycles.setdefault("twr", max(1, tras - cycles["trcd"] - cycles["wl"] - cycles["tburst"]))
    cycles.setdefault("rd_wr_gap", max(1, cycles["cl"] + cycles["tburst"] + 2 - cycles["wl"]))
    return TimingParams(tck_ns=float(tck), tras=tras, **cycles)


#: The DDR3-1066 timing, without overrides.
DEFAULT_TIMING = make_timing()


@dataclass
class DataBurst:
    start: int
    end: int  # exclusive
    request: object  # the scheduler's MemRequest that the burst serves


@dataclass
class BankState:
    """Row-buffer state plus per-kind earliest legal issue cycles."""

    open_row: int | None = None
    earliest_act: int = 0
    earliest_pre: int = 0
    earliest_rd: int = 0
    earliest_wr: int = 0


@dataclass
class ChannelState:
    """Shared command/data bus state across all banks.

    act_history keeps the issue cycles of the four most recent ACTs for the
    rolling four-activate window check.
    """

    act_history: list[int] = field(default_factory=list)
    earliest_rd_cas: int = 0
    earliest_wr_cas: int = 0
    data_bus_free: int = 0


def decompose_request(req, bank: BankState) -> tuple[CommandKind, ...]:
    """Open-page decomposition of a request against the current bank state.

    Row hit -> (CAS,); closed bank -> (ACT, CAS); conflicting open row ->
    (PRE, ACT, CAS). The head is the kind of the request's next command.
    """
    cas = WR if req.is_write else RD
    if bank.open_row == req.row:
        return (cas,)
    if bank.open_row is None:
        return (ACT, cas)
    return (PRE, ACT, cas)


#: earliest_ready of a command that the bank's row state forbids outright.
NEVER = sys.maxsize


def earliest_ready(
    kind: CommandKind,
    row: int,
    bank: BankState,
    chan: ChannelState,
    timing: TimingParams,
) -> int:
    """First cycle at which every bank and channel constraint allows a
    command of this kind for this row, or NEVER when the open row forbids
    it. Each constraint has the form ``now >= X``, so until the state
    changes the command is ready from here on.

    The latest gate wins; it is picked by plain comparisons, which cost
    about a third of a builtin ``max()`` call on CPython 3.11."""
    if kind is RD:
        if bank.open_row != row:
            return NEVER
        at = bank.earliest_rd
        gate = chan.earliest_rd_cas
        if gate > at:
            at = gate
        gate = chan.data_bus_free - timing.cl
        return gate if gate > at else at
    if kind is WR:
        if bank.open_row != row:
            return NEVER
        at = bank.earliest_wr
        gate = chan.earliest_wr_cas
        if gate > at:
            at = gate
        gate = chan.data_bus_free - timing.wl
        return gate if gate > at else at
    if kind is ACT:
        if bank.open_row is not None:
            return NEVER
        at = bank.earliest_act
        hist = chan.act_history
        if hist:
            gate = hist[-1] + timing.trrd
            if gate > at:
                at = gate
            if len(hist) >= 4:
                gate = hist[-4] + timing.tfaw
                if gate > at:
                    at = gate
        return at
    if kind is PRE:
        return NEVER if bank.open_row is None else bank.earliest_pre
    raise ValueError(f"unknown command kind: {kind}")


def command_ready(
    kind: CommandKind,
    row: int,
    bank: BankState,
    chan: ChannelState,
    timing: TimingParams,
    now: int,
) -> bool:
    """True iff every bank and channel constraint allows issuing the command
    at now."""
    return earliest_ready(kind, row, bank, chan, timing) <= now


def apply_command(
    kind: CommandKind,
    req,
    bank: BankState,
    chan: ChannelState,
    timing: TimingParams,
    now: int,
) -> DataBurst | None:
    """Issue the command of this kind that serves req at now, updating
    bank/channel state in place.

    Returns the data burst for CAS commands, None otherwise. Issuing a
    non-ready command is a simulator bug and raises RuntimeError.
    """
    if not command_ready(kind, req.row, bank, chan, timing, now):
        raise RuntimeError(f"command not ready at cycle {now}: {kind.value} "
                           f"for request {req.request_id}")

    # Every register only moves later: ``if at > reg: reg = at`` is
    # ``reg = max(reg, at)`` without the builtin call.
    if kind is ACT:
        bank.open_row = req.row
        at = now + timing.trcd
        if at > bank.earliest_rd:
            bank.earliest_rd = at
        if at > bank.earliest_wr:
            bank.earliest_wr = at
        at = now + timing.tras
        if at > bank.earliest_pre:
            bank.earliest_pre = at
        chan.act_history.append(now)
        if len(chan.act_history) > 4:
            chan.act_history.pop(0)
        return None

    if kind is PRE:
        bank.open_row = None
        at = now + timing.trp
        if at > bank.earliest_act:
            bank.earliest_act = at
        return None

    if kind is RD:
        at = now + timing.trtp
        if at > bank.earliest_pre:
            bank.earliest_pre = at
        start = now + timing.cl
        burst = DataBurst(start, start + timing.tburst, req)
        at = now + timing.tccd
        if at > chan.earliest_rd_cas:
            chan.earliest_rd_cas = at
        at = now + timing.rd_wr_gap
        if at > chan.earliest_wr_cas:
            chan.earliest_wr_cas = at
    else:  # WR
        start = now + timing.wl
        end = start + timing.tburst
        at = end + timing.twr
        if at > bank.earliest_pre:
            bank.earliest_pre = at
        burst = DataBurst(start, end, req)
        at = now + timing.tccd
        if at > chan.earliest_wr_cas:
            chan.earliest_wr_cas = at
        at = end + timing.twtr
        if at > chan.earliest_rd_cas:
            chan.earliest_rd_cas = at
    chan.data_bus_free = burst.end
    return burst
