"""Component oracles: each production LTE process (and the RTP pacer),
fed the block streams or inputs its batched twin reads, equals that
twin column for column.

The whole-session equivalence tests (tests/test_batch.py,
tests/test_batch_cell.py) prove the lockstep engines agree end to end;
these pin each process on its own, over thousands of updates and
heterogeneous configs, so a divergence points at one class.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from repro.config import CellConfig, ChannelConfig, FleetConfig, LteConfig
from repro.lte.cell import CellLoadArray, CellLoadProcess
from repro.lte.channel import ChannelArray, ChannelDraws, ChannelProcess
from repro.lte.competitors import CompetitorCell
from repro.lte.scheduler import EnbScheduler, SchedulerArray, SchedulerDraws
from repro.lte.shared_cell import LOAD_MAX, SharedCellArray
from repro.rate_control.pacer import PacedSender, PacedSenderArray
from repro.sim.blocks import BlockStream, normal_transform
from repro.sim.rng import RngRegistry

MS = 1e-3
SEEDS = (3, 17, 29, 41)


def streams(seed):
    """A fresh ``stream(name)`` over one session's lockstep streams."""
    registry = RngRegistry(seed)
    return lambda name: registry.stream("batch." + name)


def test_channel_process_equals_channel_array():
    configs = [
        ChannelConfig(rss_dbm=-82.0),
        ChannelConfig(
            rss_dbm=-100.0,
            speed_mph=50.0,
            handover_rate_per_min_at_30mph=20.0,
            deep_fade_rate_per_min=12.0,
        ),
        ChannelConfig(rss_dbm=-70.0, speed_mph=15.0, deep_fade_duration=(0.2, 0.6)),
        ChannelConfig(rss_dbm=-112.0, shadow_sigma_db=8.0, deep_fade_rate_per_min=0.0),
    ]
    scalar = [
        ChannelProcess(config, ChannelDraws.from_streams(streams(seed), config))
        for config, seed in zip(configs, SEEDS)
    ]
    batched = ChannelArray(configs, [streams(seed) for seed in SEEDS])
    step = int(round(configs[0].update_interval / MS))
    outages = fades = 0
    for update in range(1, 3001):
        now = update * step * MS
        for channel in scalar:
            channel.update(now)
        batched.update(now)
        rss = batched.rss + batched.shadow - batched.fade_db
        cqi = batched.effective_cqi(now)
        for s, channel in enumerate(scalar):
            assert channel.rss_dbm == rss[s]
            assert channel.cqi(now) == cqi[s]
            assert channel._outage_until == batched.outage_until[s]
            assert channel._fade_until == batched.fade_until[s]
        outages += int((cqi == 0).sum())
        fades += int((batched.fade_db > 0.0).sum())
    assert outages and fades  # handovers and deep fades both fired


def test_cell_load_process_equals_cell_load_array():
    configs = [
        CellConfig(background_load=0.15),
        CellConfig(background_load=0.5, load_sigma=0.4, load_corr_time=1.0),
        CellConfig(background_load=0.05, load_sigma=0.0),
        CellConfig(background_load=0.85, load_sigma=0.2, load_corr_time=20.0),
    ]
    scalar = [
        CellLoadProcess(
            config, BlockStream(streams(seed)("cell.z"), normal_transform(), 1024).next
        )
        for config, seed in zip(configs, SEEDS)
    ]
    batched = CellLoadArray(configs, [streams(seed) for seed in SEEDS])
    for _ in range(3000):
        for cell in scalar:
            cell.update()
        batched.update()
        assert [cell.load for cell in scalar] == batched.load.tolist()


class _Inputs:
    """One session's CQI, load and PRB cap, set per subframe — the
    channel, cell and shared-cell claim hook the scalar scheduler reads."""

    def __init__(self):
        self.cqi_value = 0
        self.load = 0.0
        self.cap = 0

    def cqi(self, now):
        return self.cqi_value

    def claim_prbs(self, prbs):
        return min(prbs, self.cap)


class _ArrayClaims:
    """The batched claim hook over per-session caps."""

    def __init__(self):
        self.caps = None

    def claim_rows(self, rows, prbs):
        return np.minimum(prbs, self.caps[rows])


def test_enb_scheduler_equals_scheduler_array_with_prb_claims():
    base = LteConfig()
    configs = [
        base,
        replace(base, p_max=0.8, pf_backlog_ref=4096.0, prb_quota=12),
        replace(
            base,
            scheduling_burst_subframes=9.0,
            channel=replace(base.channel, speed_mph=50.0),
        ),
        replace(base, p_max=0.2, prb_quota=3, scheduling_burst_subframes=1.5),
    ]
    n = len(configs)
    inputs = [_Inputs() for _ in configs]
    scalar = []
    for config, seed, source in zip(configs, SEEDS, inputs):
        scheduler = EnbScheduler(
            config, source, source, SchedulerDraws.from_streams(streams(seed), config)
        )
        scheduler.set_cell(source)
        scalar.append(scheduler)
    batched = SchedulerArray(configs, [streams(seed) for seed in SEEDS])
    claims = _ArrayClaims()
    drive = np.random.default_rng(7)
    served = clipped = 0
    for k in range(1, 5001):
        now = k * MS
        reported = np.where(drive.random(n) < 0.15, 0.0, drive.uniform(0.0, 30000.0, n))
        actual = drive.uniform(0.0, 30000.0, n)
        cqi = np.where(drive.random(n) < 0.05, 0, drive.integers(1, 16, n))
        load = drive.uniform(0.0, LOAD_MAX, n)
        caps = drive.integers(0, 40, n)
        claims.caps = caps.astype(np.float64)
        grants = [0.0] * n
        for s in range(n):
            inputs[s].cqi_value = int(cqi[s])
            inputs[s].load = float(load[s])
            inputs[s].cap = int(caps[s])
            grants[s] = scalar[s].grant_for_subframe(reported[s], actual[s], now)
        rows, values = batched.serve_subframe(
            reported, actual, cqi, cqi > 0, load, cells=claims
        )
        dense = np.zeros(n)
        dense[rows] = values
        assert grants == dense.tolist()
        served += rows.size
        clipped += int((caps == 0).sum())
    assert served and clipped


def test_background_crowd_equals_shared_cell_array_crowd():
    fleets = [
        FleetConfig(ues=1, seed=5, background_ues=12, background_load=0.3),
        FleetConfig(ues=1, seed=6, background_ues=3, background_load=0.7, prb_budget=25),
        FleetConfig(ues=1, seed=7),
        FleetConfig(ues=1, seed=8, background_ues=40, background_load=0.9),
    ]

    class _Fallback:
        load = np.full(len(fleets), 0.125)

    scalar = [
        CompetitorCell(
            CellConfig(
                background_load=fleet.background_load,
                competitor_count=fleet.background_ues,
            ),
            RngRegistry(fleet.seed).stream("fleet.background"),
        )
        if fleet.background_ues
        else None
        for fleet in fleets
    ]
    batched = SharedCellArray(fleets, [1] * len(fleets), _Fallback())
    for k in range(1, 20001):
        now = k * MS
        loads = batched.member_loads(k, now)
        for c, (fleet, crowd) in enumerate(zip(fleets, scalar)):
            if crowd is None:
                assert loads[c] == _Fallback.load[c]
                assert batched.budget_left[c] == fleet.prb_budget
                continue
            if k % 50 == 0:
                crowd.update(now)
            budget = max(0, fleet.prb_budget - int(round(fleet.prb_budget * crowd.load)))
            assert loads[c] == crowd.load
            assert batched.budget_left[c] == budget


def test_paced_sender_equals_paced_sender_array():
    """Per-session :class:`PacedSender` instances, fed the frames and
    rates the batched pacer gets, emit the same packets — frame, size
    and last-of-frame, in order — and drop the same stale frames, with
    equal queued bytes after every pacing tick.  Rates mix in zero,
    some frame sizes are exact payload multiples, and the slowest
    rates let the 1 s queue cap fire."""
    payloads = np.array([1200, 1200, 1000, 600])
    n = payloads.size
    emitted = [[] for _ in range(n)]
    scalar = [
        PacedSender(emitted[s].append, payload_size=int(payload))
        for s, payload in enumerate(payloads)
    ]
    batched = PacedSenderArray(payloads)
    rng = np.random.default_rng(11)
    rate_choices = np.array([0.0, 0.2e6, 0.5e6, 1.5e6, 4.0e6])
    zero_rate_ticks = multiples = 0
    for k in range(1, 30001):
        now = k * MS
        if k % 40 == 0:
            frame_id = k // 40
            sizes = rng.uniform(500.0, 16000.0, size=n)
            exact = rng.random(n) < 0.25
            sizes[exact] = payloads[exact] * rng.integers(1, 8, size=exact.sum())
            multiples += int(exact.sum())
            for s, pacer in enumerate(scalar):
                pacer.enqueue_frame(
                    SimpleNamespace(
                        frame_id=frame_id,
                        capture_time=now,
                        size_bytes=float(sizes[s]),
                    )
                )
            batched.enqueue_all(frame_id, sizes)
        if k % 5:
            continue
        rates = rate_choices[rng.integers(0, rate_choices.size, size=n)]
        zero_rate_ticks += int((rates == 0.0).sum())
        for s, pacer in enumerate(scalar):
            emitted[s].clear()
            pacer.tick(now, float(rates[s]))
        rounds = [[] for _ in range(n)]
        for rows, frame_ids, sizes, last in batched.tick(rates):
            for row, frame_id, size, is_last in zip(rows, frame_ids, sizes, last):
                rounds[row].append((int(frame_id), float(size), bool(is_last)))
        for s, pacer in enumerate(scalar):
            packets = [
                (
                    p.payload["frame"].frame_id,
                    p.size_bytes,
                    p.payload["frame_seq"] + 1 == p.payload["frame_packets"],
                )
                for p in emitted[s]
            ]
            assert packets == rounds[s]
            assert pacer.dropped_frames == batched.dropped_frames[s]
            assert pacer.queued_bytes == batched._queued[s]
    assert zero_rate_ticks > 0 and multiples > 0
    assert batched.dropped_frames.min() > 0
