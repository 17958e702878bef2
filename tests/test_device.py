import random

import pytest
from hypothesis import given, settings, strategies as st

from dramwc.device import (
    NEVER,
    BankState,
    ChannelState,
    CommandKind,
    TimingError,
    apply_command,
    command_ready,
    decompose_request,
    earliest_ready,
    make_timing,
)
from dramwc.scheduler import MemRequest


def req(row=1, bank=0, rid=0):
    """The request a command serves; apply_command reads its row and id."""
    return MemRequest(rid, 0, False, bank, row)


class TestMakeTiming:
    def test_defaults_match_ddr3_1066(self):
        t = make_timing()
        assert (t.trp, t.trcd, t.cl, t.tburst, t.trc) == (7, 7, 7, 4, 27)
        assert t.wl == 6 and t.tccd == 4 and t.twtr == 4
        assert t.trrd == 4 and t.trtp == 4 and t.tfaw == 20
        assert t.tck_ns == 1.87

    def test_tras_is_derived(self):
        t = make_timing()
        assert t.tras == 27 - 7
        with pytest.raises(TimingError, match="derived"):
            make_timing({"tras": 20})

    def test_trc_must_exceed_trp(self):
        with pytest.raises(TimingError, match="tRC"):
            make_timing({"trc": 5, "trp": 7})

    def test_tfaw_not_below_trrd(self):
        with pytest.raises(TimingError, match="tFAW"):
            make_timing({"tfaw": 3, "trrd": 4})

    def test_unknown_key_rejected(self):
        with pytest.raises(TimingError, match="unknown"):
            make_timing({"tktk": 12})

    def test_overrides(self):
        t = make_timing({"twr": 8, "tburst": 8})
        assert t.twr == 8 and t.tburst == 8

    def test_default_twr_keeps_row_miss_writes_at_trc(self):
        t = make_timing()
        # PRE->PRE distance for a row-miss write stream is
        # max(trc, trp + trcd + wl + tburst + twr); default twr keeps it trc.
        assert t.trp + t.trcd + t.wl + t.tburst + t.twr <= t.trc
        assert t.twr == t.tras - (t.trcd + t.wl + t.tburst)


class TestDecompose:
    def read(self, row):
        return MemRequest(0, 0, False, 0, row, 0, 0)

    def test_row_hit(self):
        kinds = decompose_request(self.read(5), BankState(open_row=5))
        assert kinds == (CommandKind.RD,)

    def test_closed_bank(self):
        kinds = decompose_request(self.read(5), BankState())
        assert kinds == (CommandKind.ACT, CommandKind.RD)

    def test_row_conflict(self):
        kinds = decompose_request(self.read(5), BankState(open_row=3))
        assert kinds == (CommandKind.PRE, CommandKind.ACT, CommandKind.RD)

    def test_write_uses_wr(self):
        req = MemRequest(0, 0, True, 0, 5, 0, 0)
        kinds = decompose_request(req, BankState(open_row=5))
        assert kinds == (CommandKind.WR,)


class TestCommandReady:
    def setup_method(self):
        self.t = make_timing()

    def test_rd_on_open_row_ready(self):
        assert command_ready(CommandKind.RD, 1, BankState(open_row=1),
                             ChannelState(), self.t, 0)

    def test_rd_on_wrong_row_not_ready(self):
        assert not command_ready(CommandKind.RD, 1, BankState(open_row=2),
                                 ChannelState(), self.t, 10)

    def test_act_blocked_by_trrd(self):
        chan = ChannelState(act_history=[0])
        bank = BankState()
        assert not command_ready(CommandKind.ACT, 1, bank, chan, self.t, 3)
        assert command_ready(CommandKind.ACT, 1, bank, chan, self.t, 4)

    def test_rd_blocked_by_tccd(self):
        bank0, bank1 = BankState(open_row=1), BankState(open_row=1)
        chan = ChannelState()
        apply_command(CommandKind.RD, req(bank=0), bank0, chan, self.t, 0)
        assert not command_ready(CommandKind.RD, 1, bank1, chan, self.t, 1)
        assert command_ready(CommandKind.RD, 1, bank1, chan, self.t, 4)

    def test_fifth_act_waits_for_tfaw(self):
        chan = ChannelState()
        banks = [BankState() for _ in range(5)]
        now = 0
        for i in range(4):
            apply_command(CommandKind.ACT, req(bank=i), banks[i], chan, self.t, now)
            now += self.t.trrd
        # four activates at 0,4,8,12; a fifth is legal only from 0 + tfaw
        assert not command_ready(CommandKind.ACT, 1, banks[4], chan, self.t, 16)
        assert command_ready(CommandKind.ACT, 1, banks[4], chan, self.t, 20)

    def test_write_to_read_turnaround(self):
        bank0, bank1 = BankState(open_row=1), BankState(open_row=1)
        chan = ChannelState()
        apply_command(CommandKind.WR, req(bank=0), bank0, chan, self.t, 0)
        gate = self.t.wl + self.t.tburst + self.t.twtr
        assert not command_ready(CommandKind.RD, 1, bank1, chan, self.t, gate - 1)
        assert command_ready(CommandKind.RD, 1, bank1, chan, self.t, gate)

    def test_read_to_write_turnaround(self):
        bank0, bank1 = BankState(open_row=1), BankState(open_row=1)
        chan = ChannelState()
        apply_command(CommandKind.RD, req(bank=0), bank0, chan, self.t, 0)
        assert not command_ready(CommandKind.WR, 1, bank1, chan, self.t,
                                 self.t.rd_wr_gap - 1)
        assert command_ready(CommandKind.WR, 1, bank1, chan, self.t,
                             self.t.rd_wr_gap)


def ready_reference(kind, row, bank, chan, t, now):
    """The legality predicate checked constraint by constraint at one cycle,
    as command_ready computed it before earliest_ready existed."""
    if kind is CommandKind.ACT:
        if bank.open_row is not None or now < bank.earliest_act:
            return False
        hist = chan.act_history
        if hist:
            if now < hist[-1] + t.trrd:
                return False
            if len(hist) >= 4 and now < hist[-4] + t.tfaw:
                return False
        return True
    if kind is CommandKind.PRE:
        return bank.open_row is not None and now >= bank.earliest_pre
    if kind is CommandKind.RD:
        return (bank.open_row == row and now >= bank.earliest_rd
                and now >= chan.earliest_rd_cas and now + t.cl >= chan.data_bus_free)
    return (bank.open_row == row and now >= bank.earliest_wr
            and now >= chan.earliest_wr_cas and now + t.wl >= chan.data_bus_free)


cycles = st.integers(0, 80)


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(list(CommandKind)), row=st.integers(0, 2),
       bank=st.builds(BankState, st.none() | st.integers(0, 2),
                      cycles, cycles, cycles, cycles),
       chan=st.builds(ChannelState,
                      st.lists(cycles, max_size=4).map(sorted),
                      cycles, cycles, cycles),
       timing=st.fixed_dictionaries(
           {k: st.integers(1, 12) for k in ("cl", "wl", "trrd", "trp")},
           optional={"tfaw": st.integers(12, 30)}))
def test_earliest_ready_is_the_first_ready_cycle(kind, row, bank, chan, timing):
    t = make_timing(timing)
    at = earliest_ready(kind, row, bank, chan, t)
    forbidden = (bank.open_row is not None if kind is CommandKind.ACT else
                 bank.open_row is None if kind is CommandKind.PRE else
                 bank.open_row != row)
    if forbidden:
        assert at == NEVER
        assert not any(ready_reference(kind, row, bank, chan, t, now)
                       for now in range(200))
        return
    assert not ready_reference(kind, row, bank, chan, t, at - 1)
    assert ready_reference(kind, row, bank, chan, t, at)
    for now in range(max(0, at - 40), at + 40):
        assert command_ready(kind, row, bank, chan, t, now) == (now >= at) \
            == ready_reference(kind, row, bank, chan, t, now)


class TestApplyCommand:
    def setup_method(self):
        self.t = make_timing()

    def test_act_opens_row_and_sets_trcd(self):
        bank, chan = BankState(), ChannelState()
        apply_command(CommandKind.ACT, req(row=9), bank, chan, self.t, 0)
        assert bank.open_row == 9
        assert bank.earliest_rd == 7  # row activation time
        assert bank.earliest_pre == self.t.tras

    def test_rd_burst_window(self):
        bank, chan = BankState(open_row=9), ChannelState()
        burst = apply_command(CommandKind.RD, req(row=9, rid=3),
                              bank, chan, self.t, 7)
        assert (burst.start, burst.end) == (7 + 7, 7 + 7 + 4)  # cl, cl + tburst
        assert burst.request_id == 3

    def test_pre_closes_and_sets_trp(self):
        bank, chan = BankState(open_row=9), ChannelState()
        apply_command(CommandKind.PRE, req(), bank, chan, self.t, 12)
        assert bank.open_row is None
        assert bank.earliest_act == 12 + 7

    def test_write_recovery_gates_pre(self):
        bank, chan = BankState(open_row=9), ChannelState()
        apply_command(CommandKind.WR, req(row=9), bank, chan, self.t, 0)
        assert bank.earliest_pre == self.t.wl + self.t.tburst + self.t.twr

    def test_not_ready_is_hard_fault(self):
        bank, chan = BankState(open_row=2), ChannelState()
        with pytest.raises(RuntimeError, match="not ready at cycle 0: RD for request 4"):
            apply_command(CommandKind.RD, req(row=9, rid=4), bank, chan, self.t, 0)


def _legal_driver(seed, cycles=260, num_banks=4):
    """Issue a random ready command whenever one exists; returns the issue
    log, final state, and bursts for invariant checking."""
    t = make_timing()
    rng = random.Random(seed)
    banks = [BankState() for _ in range(num_banks)]
    chan = ChannelState()
    issued = []
    bursts = []
    for now in range(cycles):
        options = []
        for i, bank in enumerate(banks):
            if bank.open_row is None:
                options.append((CommandKind.ACT, req(rng.randrange(3), bank=i)))
            else:
                target = req(bank.open_row, bank=i)
                options += [(kind, target) for kind in
                            (CommandKind.PRE, CommandKind.RD, CommandKind.WR)]
        ready = [(kind, r) for kind, r in options
                 if command_ready(kind, r.row, banks[r.bank], chan, t, now)]
        if not ready or rng.random() < 0.2:
            continue
        kind, pick = rng.choice(ready)
        burst = apply_command(kind, pick, banks[pick.bank], chan, t, now)
        issued.append((now, kind, pick))
        if burst:
            bursts.append(burst)
    return t, issued, banks, chan, bursts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_replay_determinism(seed):
    t, issued, banks, chan, bursts = _legal_driver(seed)
    rebanks = [BankState() for _ in banks]
    rechan = ChannelState()
    rebursts = []
    for now, kind, served in issued:
        burst = apply_command(kind, served, rebanks[served.bank], rechan, t, now)
        if burst:
            rebursts.append(burst)
    assert rebanks == banks and rechan == chan and rebursts == bursts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_legal_sequences_keep_invariants(seed):
    t, issued, banks, chan, bursts = _legal_driver(seed)
    ordered = sorted(bursts, key=lambda b: b.start)
    for prev, cur in zip(ordered, ordered[1:]):
        assert cur.start >= prev.end, "data bursts overlap"
    acts = [now for now, kind, _ in issued if kind is CommandKind.ACT]
    for i in range(4, len(acts)):
        assert acts[i] - acts[i - 4] >= t.tfaw, "five activates in a tFAW window"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_timestamps_monotone(seed):
    t = make_timing()
    rng = random.Random(seed)
    bank, chan = BankState(open_row=0), ChannelState()
    fields = ("earliest_act", "earliest_pre", "earliest_rd", "earliest_wr")
    for now in range(180):
        before = {f: getattr(bank, f) for f in fields}
        options = ([(CommandKind.ACT, req(rng.randrange(3)))]
                   if bank.open_row is None else
                   [(k, req(bank.open_row))
                    for k in (CommandKind.PRE, CommandKind.RD, CommandKind.WR)])
        ready = [(kind, r) for kind, r in options
                 if command_ready(kind, r.row, bank, chan, t, now)]
        if not ready:
            continue
        apply_command(*rng.choice(ready), bank, chan, t, now)
        for f in fields:
            assert getattr(bank, f) >= before[f]


@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("spread_banks", [False, True])
def test_row_hit_reads_pipeline_exactly(n, spread_banks):
    # Greedy issue of n row-hit reads, on one open bank or spread across
    # open banks: the data bus must carry exactly n * tburst back-to-back
    # cycles once the first burst begins.
    t = make_timing()
    banks = [BankState(open_row=1) for _ in range(4 if spread_banks else 1)]
    chan = ChannelState()
    bursts = []
    now = 0
    while len(bursts) < n:
        target = len(bursts) % len(banks)
        if command_ready(CommandKind.RD, 1, banks[target], chan, t, now):
            bursts.append(apply_command(CommandKind.RD,
                                        req(bank=target, rid=len(bursts)),
                                        banks[target], chan, t, now))
        now += 1
    assert bursts[-1].end - bursts[0].start == n * t.tburst
    for prev, cur in zip(bursts, bursts[1:]):
        assert cur.start == prev.end
