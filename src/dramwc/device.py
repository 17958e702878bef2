"""DDR3 device timing model: per-bank row-buffer state, channel state, and the
legality and effect of PRE/ACT/RD/WR commands.

All quantities are in memory-clock cycles unless the name ends in ``_ns``.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field, fields


class TimingError(ValueError):
    """Missing or inconsistent timing parameters. ``keys`` names the
    parameters that the failing check read."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


class CommandKind(enum.Enum):
    PRE = "PRE"
    ACT = "ACT"
    RD = "RD"
    WR = "WR"


#: Column (CAS) command kinds; ACT and PRE form the row (RAS) class.
CAS_KINDS = (CommandKind.RD, CommandKind.WR)

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

    tck = float(merged.pop("tck_ns"))
    if not tck > 0:
        raise TimingError(f"tCK ({tck}) must be positive", ("tck_ns",))
    cycles = {}
    for key, value in merged.items():
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
    return TimingParams(tck_ns=tck, tras=tras, **cycles)


@dataclass(frozen=True)
class DataBurst:
    start: int
    end: int  # exclusive
    request_id: int


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
    cas = CommandKind.WR if req.is_write else CommandKind.RD
    if bank.open_row == req.row:
        return (cas,)
    if bank.open_row is None:
        return (CommandKind.ACT, cas)
    return (CommandKind.PRE, CommandKind.ACT, cas)


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
    changes the command is ready from here on."""
    if kind is CommandKind.ACT:
        if bank.open_row is not None:
            return NEVER
        at = bank.earliest_act
        hist = chan.act_history
        if hist:
            at = max(at, hist[-1] + timing.trrd)
            if len(hist) >= 4:
                at = max(at, hist[-4] + timing.tfaw)
        return at
    if kind is CommandKind.PRE:
        return NEVER if bank.open_row is None else bank.earliest_pre
    if kind is CommandKind.RD:
        if bank.open_row != row:
            return NEVER
        return max(bank.earliest_rd, chan.earliest_rd_cas,
                   chan.data_bus_free - timing.cl)
    if kind is CommandKind.WR:
        if bank.open_row != row:
            return NEVER
        return max(bank.earliest_wr, chan.earliest_wr_cas,
                   chan.data_bus_free - timing.wl)
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

    if kind is CommandKind.ACT:
        bank.open_row = req.row
        bank.earliest_rd = max(bank.earliest_rd, now + timing.trcd)
        bank.earliest_wr = max(bank.earliest_wr, now + timing.trcd)
        bank.earliest_pre = max(bank.earliest_pre, now + timing.tras)
        chan.act_history.append(now)
        if len(chan.act_history) > 4:
            chan.act_history.pop(0)
        return None

    if kind is CommandKind.PRE:
        bank.open_row = None
        bank.earliest_act = max(bank.earliest_act, now + timing.trp)
        return None

    if kind is CommandKind.RD:
        bank.earliest_pre = max(bank.earliest_pre, now + timing.trtp)
        burst = DataBurst(now + timing.cl, now + timing.cl + timing.tburst,
                          req.request_id)
        chan.earliest_rd_cas = max(chan.earliest_rd_cas, now + timing.tccd)
        chan.earliest_wr_cas = max(chan.earliest_wr_cas, now + timing.rd_wr_gap)
    else:  # WR
        bank.earliest_pre = max(
            bank.earliest_pre, now + timing.wl + timing.tburst + timing.twr
        )
        burst = DataBurst(now + timing.wl, now + timing.wl + timing.tburst,
                          req.request_id)
        chan.earliest_wr_cas = max(chan.earliest_wr_cas, now + timing.tccd)
        chan.earliest_rd_cas = max(
            chan.earliest_rd_cas, now + timing.wl + timing.tburst + timing.twtr
        )
    chan.data_bus_free = burst.end
    return burst
