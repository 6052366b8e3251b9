"""Proportional-fair-flavoured eNodeB uplink grant engine.

Every 1 ms subframe the scheduler decides whether our UE transmits and
how large its transport block is:

- the UE's long-run scheduling duty cycle is
  ``p = p_max * (1 - load) * max(floor, min(1, B_reported / B_ref))`` —
  a deeply backlogged UE wins (almost) its full PF share, a
  lightly-backlogged one is scheduled rarely;
- service arrives in *bursts* of consecutive subframes separated by
  idle gaps (the other UEs' turns), not i.i.d. per subframe — this is
  what makes LTE frame-arrival jitter an order of magnitude larger than
  wireline and drives the receiver's adaptive de-jitter buffer;
- a scheduled subframe carries
  ``min(backlog, prbs(load) * bytes_per_prb(CQI) * fading)`` bytes.

The emergent steady-state throughput is linear in the firmware-buffer
level up to the knee ``B_ref`` and saturates beyond it — the paper's
Fig. 5, which both of POI360's FBCC mechanisms rely on.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.config import LteConfig
from repro.lte.cell import CellLoadProcess
from repro.lte.channel import ChannelProcess
from repro.lte.tbs import (
    BYTES_PER_PRB_TABLE,
    transport_block_bytes,
    transport_block_bytes_array,
)
from repro.sim.blocks import (
    BlockStream,
    BlockStreamArray,
    lognormal_transform,
    neglog_uniform_transform,
    uniform_transform,
)

#: A near-empty buffer is still scheduled occasionally (scheduling
#: request path); this floor bounds the queue-head wait for tiny sends.
MIN_SCHEDULING_FRACTION = 0.04

#: The scheduling-request/grant cycle bounds how long a backlogged UE
#: can go unserved, whatever its PF share (subframes).
MAX_IDLE_SUBFRAMES = 28

#: Batch size of pre-drawn uniforms (one per subframe decision).
_BATCH = 4096

#: Shared empty results for subframes that serve nobody.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_GRANTS = np.empty(0, dtype=np.float64)


def fading_sigma(config: LteConfig) -> float:
    """Lognormal sigma of the per-grant fast fading (grows with speed)."""
    return 0.10 + max(0.0, config.channel.speed_mph) / 300.0


class SchedulerDraws(NamedTuple):
    """The variates :class:`EnbScheduler` consumes, one callable each."""

    #: ``-log(u)`` for a uniform ``u``: the mean burst length times this
    #: (truncated, plus one) is the next geometric service burst.
    burst: Callable[[], float]
    #: Lognormal fast-fading factor applied to a granted transport block.
    fading: Callable[[], float]

    @staticmethod
    def from_generator(rng: np.random.Generator, config: LteConfig) -> "SchedulerDraws":
        """Draw from ``rng``: burst uniforms pre-drawn in batches of
        :data:`_BATCH` (the first batch now), fading normals on demand."""
        uniforms = BlockStream(rng, uniform_transform(), _BATCH)
        normal = rng.normal
        sigma = fading_sigma(config)
        return SchedulerDraws(
            burst=lambda: -np.log(max(1e-12, uniforms.next())),
            fading=lambda: float(np.exp(normal(0.0, sigma))),
        )

    @staticmethod
    def from_streams(stream, config: LteConfig, block: int = 1024) -> "SchedulerDraws":
        """Read the ``sched.*`` block streams ``stream(name)`` returns,
        with ``-log`` and ``exp`` applied block-wise."""
        return SchedulerDraws(
            burst=BlockStream(
                stream("sched.burst"), neglog_uniform_transform(), block
            ).next,
            fading=BlockStream(
                stream("sched.fading"), lognormal_transform(fading_sigma(config)), block
            ).next,
        )


class EnbScheduler:
    """Per-subframe grant decisions for a single tracked UE.

    Reads CQI from ``channel.cqi(now)`` and load from ``cell.load``, but
    only when a grant decision needs them.  The event-driven UE and the
    lockstep reference both run this class, and it is the scalar oracle
    the batched :class:`SchedulerArray` is proven against.
    """

    __slots__ = (
        "_config", "_channel", "_cell", "_cell_claim", "_burst", "_fading",
        "_p_max", "_backlog_ref", "_prb_quota", "_mean_burst",
        "_burst_left", "_idle_left",
    )

    def __init__(
        self,
        config: LteConfig,
        channel: ChannelProcess,
        cell: CellLoadProcess,
        draws: SchedulerDraws,
    ):
        self._config = config
        self._channel = channel
        self._cell = cell
        #: Optional per-subframe PRB budget hook (shared cells only);
        #: ``None`` keeps the solo grant arithmetic untouched.
        self._cell_claim = None
        self._burst, self._fading = draws
        # Frozen-config fields used every subframe, hoisted once.
        self._p_max = config.p_max
        self._backlog_ref = config.pf_backlog_ref
        self._prb_quota = config.prb_quota
        self._mean_burst = config.scheduling_burst_subframes
        #: Burst/idle service process state (subframes remaining).
        self._burst_left = 0
        self._idle_left = 0

    def set_cell(self, cell) -> None:
        """Re-point the load source (e.g. a shared cell's member view).

        When the new cell exposes ``claim_prbs`` — a
        :class:`repro.lte.shared_cell.CellMemberView` does — the grant
        path additionally claims its PRBs from the cell's per-subframe
        budget, so members of one cell cannot jointly exceed it.  A
        claim of zero returns before the fading draw, as the batched
        :class:`SchedulerArray` drops unserved rows before its take.
        """
        self._cell = cell
        self._cell_claim = getattr(cell, "claim_prbs", None)

    def effective_prbs(self, load: float) -> int:
        """PRBs our UE is granted when scheduled, given the cell load."""
        return max(2, int(round(self._prb_quota * (2.0 - load))))

    def grant_for_subframe(
        self, reported_backlog: float, actual_backlog: float, now: float
    ) -> float:
        """Transport block size (bytes) granted at ``now`` (0 = none)."""
        if reported_backlog <= 0.0:
            return 0.0
        cqi = self._channel.cqi(now)
        if cqi <= 0:
            return 0.0
        load = self._cell.load
        backlog_fraction = min(1.0, reported_backlog / self._backlog_ref)
        probability = (
            self._p_max
            * (1.0 - load)
            * max(MIN_SCHEDULING_FRACTION, backlog_fraction)
        )
        if not self._in_service_burst(probability):
            return 0.0
        prbs = self.effective_prbs(load)
        if self._cell_claim is not None:
            # Shared cell: the PF share is only an *entitlement* — the
            # subframe's remaining PRB budget caps what is actually
            # granted (claims by peers and background UEs come first).
            prbs = self._cell_claim(prbs)
            if prbs <= 0:
                return 0.0
        capacity = transport_block_bytes(cqi, prbs)
        fading = self._fading()
        return min(actual_backlog, capacity * fading)

    def _in_service_burst(self, duty_cycle: float) -> bool:
        """Advance the burst/idle process; True when this subframe serves.

        Burst lengths are geometric with the configured mean; idle gaps
        are sized so the long-run duty cycle matches ``duty_cycle``.
        """
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        if self._idle_left > 0:
            self._idle_left -= 1
            return False
        duty = min(1.0, max(1e-3, duty_cycle))
        burst = 1 + int(self._mean_burst * self._burst())
        idle = min(MAX_IDLE_SUBFRAMES, int(round(burst * (1.0 - duty) / duty)))
        self._burst_left = burst - 1  # this subframe is the burst's first
        self._idle_left = idle
        return True

    def saturation_rate_bps(self, now: float) -> float:
        """Expected plateau throughput under channel/load at ``now`` (bps).

        This is a model introspection helper for tests and calibration,
        not something POI360 gets to observe.
        """
        cqi = self._channel.cqi(now)
        load = self._cell.load
        capacity = transport_block_bytes(cqi, self.effective_prbs(load))
        probability = self._config.p_max * (1.0 - load)
        return probability * capacity * 8.0 * 1000.0


# ----------------------------------------------------------------------
# Batched twin (batched engine, repro.sim.batch)
# ----------------------------------------------------------------------


class SchedulerArray:
    """``(n_sessions,)`` vectorised twin of :class:`EnbScheduler`.

    The burst/idle counters live as int64 arrays; a subframe only
    consumes a burst draw (and a fading draw) for the sessions whose
    scalar twin would, so the per-session stream cursors stay aligned.
    """

    def __init__(self, configs, streams, block: int = 1024):
        n = len(configs)
        self._p_max = np.array([c.p_max for c in configs])
        self._backlog_ref = np.array([c.pf_backlog_ref for c in configs])
        self._prb_quota = np.array([c.prb_quota for c in configs], dtype=np.float64)
        self._mean_burst = np.array([c.scheduling_burst_subframes for c in configs])
        sigmas = [fading_sigma(c) for c in configs]
        self._burst_u = BlockStreamArray(
            [streams[s]("sched.burst") for s in range(n)],
            [neglog_uniform_transform()] * n,
            block,
        )
        self._fading = BlockStreamArray(
            [streams[s]("sched.fading") for s in range(n)],
            [lognormal_transform(sigma) for sigma in sigmas],
            block,
        )
        self._burst_left = np.zeros(n, dtype=np.int64)
        self._idle_left = np.zeros(n, dtype=np.int64)
        # Scratch buffers for the per-subframe boolean masks: the hot
        # path runs every 1 ms, so the handful of temporaries it needs
        # are preallocated and reused instead of reallocated per call.
        self._scratch_e = np.zeros(n, dtype=bool)
        self._scratch_b = np.zeros(n, dtype=bool)
        self._scratch_i = np.zeros(n, dtype=bool)

    def serve_subframe(
        self,
        reported: np.ndarray,
        actual: np.ndarray,
        cqi: np.ndarray,
        cqi_positive: np.ndarray,
        load: np.ndarray,
        cells=None,
    ):
        """Served-session indices and their grant bytes this subframe.

        The hot-path form: returns ``(rows, grants)`` with one entry per
        *served* session instead of a dense ``(n,)`` vector, and keeps
        the burst/idle counter updates as whole-array boolean arithmetic
        (a bool subtracts as 0/1) rather than fancy-indexed writes.

        ``cells`` (a :class:`repro.lte.shared_cell.SharedCellArray`)
        routes every session's PRBs through the vectorised budget claim;
        sessions whose claim came back zero are dropped *before* the
        fading take, so each per-session fading stream advances exactly
        when its scalar twin's would.
        """
        eligible = np.greater(reported, 0.0, out=self._scratch_e)
        eligible &= cqi_positive
        if not eligible.any():
            return _EMPTY_ROWS, _EMPTY_GRANTS
        # Burst/idle service process, advanced only for eligible sessions.
        # ``eligible ^ in_burst`` == ``eligible & ~in_burst`` because
        # in_burst is a subset of eligible (one op, reusing the buffer).
        in_burst = np.greater(self._burst_left, 0, out=self._scratch_b)
        in_burst &= eligible
        np.subtract(self._burst_left, in_burst, out=self._burst_left)
        in_idle = np.greater(self._idle_left, 0, out=self._scratch_i)
        rest = np.bitwise_xor(eligible, in_burst, out=self._scratch_e)
        in_idle &= rest
        np.subtract(self._idle_left, in_idle, out=self._idle_left)
        draw_mask = np.bitwise_xor(rest, in_idle, out=self._scratch_e)
        if draw_mask.any():
            draw = np.nonzero(draw_mask)[0]
            duty_cycle = (
                self._p_max[draw]
                * (1.0 - load[draw])
                * np.maximum(
                    MIN_SCHEDULING_FRACTION,
                    np.minimum(1.0, reported[draw] / self._backlog_ref[draw]),
                )
            )
            duty = np.minimum(1.0, np.maximum(1e-3, duty_cycle))
            burst = 1 + (self._mean_burst[draw] * self._burst_u.take(draw)).astype(
                np.int64
            )
            idle = np.minimum(
                MAX_IDLE_SUBFRAMES,
                np.rint(burst * (1.0 - duty) / duty).astype(np.int64),
            )
            self._burst_left[draw] = burst - 1
            self._idle_left[draw] = idle
            in_burst |= draw_mask  # a fresh draw's first subframe serves
        rows = np.nonzero(in_burst)[0]
        if not rows.size:
            return _EMPTY_ROWS, _EMPTY_GRANTS
        prbs = np.maximum(2.0, np.rint(self._prb_quota[rows] * (2.0 - load[rows])))
        if cells is not None:
            prbs = cells.claim_rows(rows, prbs)
            served = prbs > 0.0
            if not served.all():
                rows = rows[served]
                if not rows.size:
                    return _EMPTY_ROWS, _EMPTY_GRANTS
                prbs = prbs[served]
        capacity = BYTES_PER_PRB_TABLE[cqi[rows]] * prbs
        fading = self._fading.take(rows)
        grants = np.minimum(actual[rows], capacity * fading)
        return rows, grants

    def grants_for_subframe(
        self,
        reported: np.ndarray,
        actual: np.ndarray,
        cqi: np.ndarray,
        load: np.ndarray,
    ) -> np.ndarray:
        """Per-session grant bytes for this subframe (0 = not scheduled)."""
        grants = np.zeros(reported.shape[0])
        rows, values = self.serve_subframe(reported, actual, cqi, cqi > 0, load)
        if rows.size:
            grants[rows] = values
        return grants
