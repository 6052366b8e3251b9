"""eNodeB PF-style grant engine: the Fig. 5 relation and its pieces."""

import numpy as np
import pytest

from repro.config import CellConfig, ChannelConfig, LteConfig
from repro.lte.cell import CellLoadProcess
from repro.lte.channel import ChannelDraws, ChannelProcess
from repro.lte.scheduler import EnbScheduler, SchedulerDraws
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.units import kbytes


def _build(load=0.1, rss=-82.0, seed=1):
    sim = Simulation()
    rng = RngRegistry(seed)
    config = LteConfig(
        channel=ChannelConfig(
            rss_dbm=rss, shadow_sigma_db=0.01, deep_fade_rate_per_min=0.0
        ),
        cell=CellConfig(background_load=load, load_sigma=0.0),
    )
    channel = ChannelProcess(
        config.channel, ChannelDraws.from_generator(rng.stream("ch"), config.channel)
    )
    cell = CellLoadProcess(config.cell, rng.stream("cell").normal)
    scheduler = EnbScheduler(
        config, channel, cell, SchedulerDraws.from_generator(rng.stream("sched"), config)
    )
    return sim, scheduler, config


def _mean_grant_rate(scheduler, backlog, subframes=30_000):
    """Average service rate (bps) at a steadily-held backlog."""
    total = 0.0
    for _ in range(subframes):
        total += scheduler.grant_for_subframe(backlog, backlog, 0.0)
    return total * 8.0 / (subframes / 1000.0)


def test_no_grant_without_backlog():
    _, scheduler, _ = _build()
    assert scheduler.grant_for_subframe(0.0, 0.0, 0.0) == 0.0


def test_grant_never_exceeds_actual_backlog():
    _, scheduler, _ = _build()
    grants = [scheduler.grant_for_subframe(kbytes(50), 500.0, 0.0) for _ in range(5000)]
    assert max(grants) <= 500.0


def test_service_rate_grows_with_backlog():
    """The linear region of Fig. 5."""
    _, scheduler, _ = _build()
    low = _mean_grant_rate(scheduler, kbytes(2))
    high = _mean_grant_rate(scheduler, kbytes(8))
    assert high > 2.0 * low


def test_service_rate_saturates_past_knee():
    """The plateau of Fig. 5."""
    _, scheduler, _ = _build()
    at_knee = _mean_grant_rate(scheduler, kbytes(12))
    deep = _mean_grant_rate(scheduler, kbytes(40))
    assert deep < 1.25 * at_knee


def test_background_load_shrinks_throughput():
    _, idle_sched, _ = _build(load=0.05)
    _, busy_sched, _ = _build(load=0.6)
    idle = _mean_grant_rate(idle_sched, kbytes(20))
    busy = _mean_grant_rate(busy_sched, kbytes(20))
    assert busy < 0.7 * idle


def test_weak_signal_shrinks_throughput():
    _, strong_sched, _ = _build(rss=-73.0)
    _, weak_sched, _ = _build(rss=-115.0)
    strong = _mean_grant_rate(strong_sched, kbytes(20))
    weak = _mean_grant_rate(weak_sched, kbytes(20))
    assert weak < 0.5 * strong


def test_effective_prbs_shrink_with_load():
    _, scheduler, config = _build()
    assert scheduler.effective_prbs(0.0) > scheduler.effective_prbs(0.8)
    assert scheduler.effective_prbs(0.99) >= 2


def test_service_arrives_in_bursts():
    """Consecutive scheduled subframes cluster (burst/idle process)."""
    _, scheduler, _ = _build()
    served = [scheduler.grant_for_subframe(kbytes(10), kbytes(10), 0.0) > 0 for _ in range(20_000)]
    transitions = sum(1 for a, b in zip(served, served[1:]) if a != b)
    duty = float(np.mean(served))
    # An i.i.d. Bernoulli process would flip ~2*duty*(1-duty) per slot;
    # bursts make transitions much rarer.
    iid_transitions = 2 * duty * (1 - duty) * len(served)
    assert transitions < 0.7 * iid_transitions


def test_saturation_rate_estimate_positive():
    _, scheduler, _ = _build()
    assert scheduler.saturation_rate_bps(0.0) > 1e6
