"""Batched lockstep execution: N sessions per 1 ms subframe step.

The event-driven engine (:mod:`repro.sim.engine`) pays Python's
per-event price for every subframe of every session.  But the uplink
lockstep profile (:mod:`repro.telephony.uplink`) puts *every* cadence on
the shared 1 ms LTE subframe grid, so a whole cohort of sessions can be
advanced one tick at a time with per-session state held in
``(n_sessions,)`` numpy arrays — one set of array ops per tick instead
of ``n`` event dispatches.  That is what :class:`BatchedSimulation`
does, and it is the repo's answer to fleet-scale sweeps: aggregate
sessions/sec grows ~linearly with the cohort size until the arrays
dominate (see docs/PERFORMANCE.md, "Batched lockstep engine").

The same engine runs shared cells (docs/FLEET.md): given per-cell
member counts and fleets, the flat cohort is the cell-major
concatenation of C cells' member lists (cells may differ in size), and
one :class:`repro.lte.shared_cell.SharedCellArray` holds every cell's
realized-share EWMAs as a zero-padded ``(C, N_max)`` array, computes
all members' PF-coupled effective loads in one pass, and clips every
PRB grant against the per-cell per-subframe budgets in a single
order-preserving claim pass.  A run without cells builds no
``SharedCellArray``: its subframe phase is the plain UE pass.

Equivalence contract
--------------------

A cohort of one MUST reproduce :class:`~repro.telephony.uplink.UplinkSession`
**bit-for-bit** — same seeds, same :class:`SessionResult` numbers — and
a cohort of N must equal N scalar runs.  tests/test_batch.py enforces
both.  The machinery making that possible:

- per-session block-drawn RNG streams (:mod:`repro.sim.blocks`) with
  transforms applied block-wise in both engines;
- ``*Array`` twins that perform the scalar classes' float64 ops in the
  same order (:class:`~repro.lte.ue.UeUplinkArray`,
  :class:`~repro.rate_control.fbcc.batch.DetectorArray`, ...);
- rare per-frame events (assembly, jitter, display, PSNR) routed
  through the *same* scalar code both engines share
  (:class:`~repro.telephony.uplink.ReceiverState`).

Shared cells (``tests/test_batch_cell.py``): a cell run inside any
block equals the same cell run alone (cells never couple, whatever
their member counts); a **C=1** block reproduces the scalar reference
:class:`repro.telephony.uplink.UplinkCellSession` (the production
:class:`~repro.lte.shared_cell.SharedCell` on the tick clock) to the
bit — logs, summaries, member bytes, Jain index; and a block of
**1-member** cells equals the same configs run without cells (peer
share 0.0 adds bitwise-neutrally, the PF weight branch is skipped, the
default budget covers the largest solo grant).  Parity with the
event-driven :func:`repro.telephony.fleet.run_cell` is statistical
(same contention model, different clocking).

Cohorts must be *structurally* homogeneous — same grid cadences, same
detector window, same TBS window (see
:meth:`~repro.telephony.uplink.UplinkProfile.signature`).  Everything
parametric (RSS, speed, load, seeds, rates, margins, targets, member
counts, per-cell fleet parameters) may vary per session or per cell;
:func:`repro.experiments.batch.run_batched_sessions` slices arbitrary
sweep grids into valid cohorts.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import FleetConfig, SessionConfig
from repro.lte.shared_cell import SharedCellArray
from repro.lte.ue import UeUplinkArray
from repro.metrics.stats import jain_index
from repro.metrics.summary import SessionLog, SessionSummary
from repro.obs.meter import SessionMeter, coerce_meter
from repro.rate_control.fbcc.batch import (
    DetectorArray,
    EncodingHoldArray,
    RampArray,
    RtpRateArray,
    TbsWindowArray,
)
from repro.rate_control.pacer import PacedSenderArray
from repro.sim.blocks import BlockStreamArray, lognormal_transform
from repro.sim.rng import RngRegistry
from repro.telephony.fleet import CellResult, member_configs
from repro.telephony.session import SessionResult
from repro.telephony.uplink import (
    MS,
    SAMPLE_TICKS,
    ReceiverState,
    UplinkProfile,
    run_ticks,
)
from repro.units import BITS_PER_BYTE
from repro.video.quality import mos_score


def _session_streams(config: SessionConfig):
    registry = RngRegistry(config.seed)
    return lambda name: registry.stream("batch." + name)


#: Grid ticks between ``progress`` callbacks (5000 ticks = 5 s of
#: simulated time) — frequent enough for live heartbeats, rare enough
#: to stay invisible next to the tick body.
DEFAULT_PROGRESS_TICKS = 5000


class BatchedSimulation:
    """Advance a homogeneous cohort of sessions in 1 ms lockstep.

    Without ``counts`` the sessions are independent.  With ``counts``
    (one member count per cell, summing to ``len(configs)``) the
    cell-major cohort is coupled into shared cells, and ``fleets``
    holds one :class:`FleetConfig` per cell (PRB budget, PF coupling,
    background population; default: ``FleetConfig(ues=count,
    seed=<the cell's first member seed>)``).  Member counts, per-member
    parameters and per-cell fleet parameters may vary freely; every
    session must share the grid cadences.
    """

    def __init__(
        self,
        configs: Sequence[SessionConfig],
        counts: Optional[Sequence[int]] = None,
        fleets: Optional[Sequence[FleetConfig]] = None,
    ):
        if not configs:
            raise ValueError("empty cohort")
        profiles = [UplinkProfile.from_config(c) for c in configs]
        signature = profiles[0].signature()
        for config, profile in zip(configs[1:], profiles[1:]):
            if profile.signature() != signature:
                raise ValueError(
                    "cohort is not structurally homogeneous: "
                    f"{profile.signature()} != {signature} "
                    "(slice the grid with run_batched_sessions)"
                )
        self.configs = list(configs)
        self.profile = profiles[0]
        n = self.n = len(self.configs)
        streams = [_session_streams(c) for c in self.configs]

        self._ue = UeUplinkArray([c.lte for c in self.configs], streams)
        self._pacer = PacedSenderArray(
            np.array([float(c.video.rtp_payload) for c in self.configs])
        )
        self._noise = BlockStreamArray(
            [streams[s]("frame.noise") for s in range(n)],
            [lognormal_transform(c.video.size_sigma_base) for c in self.configs],
            aligned=True,
        )
        self._receivers = [
            ReceiverState(c.video, streams[s]("recv"))
            for s, c in enumerate(self.configs)
        ]
        self.logs = [SessionLog() for _ in range(n)]

        fbcc = [c.fbcc for c in self.configs]
        diag_interval = self.profile.diag_interval
        self._bandwidth = TbsWindowArray(n, self.profile.tbs_window)
        self._detector = DetectorArray(
            n,
            self.profile.k_consecutive,
            np.array([diag_interval / f.gamma_time_constant for f in fbcc]),
        )
        self._encoding = EncodingHoldArray(
            n,
            np.array([f.phy_rate_margin for f in fbcc]),
            np.array([p.hold_delta for p in profiles]),
        )
        self._ramp = RampArray(
            np.array([c.gcc.start_rate for c in self.configs]),
            np.array([c.gcc.min_rate for c in self.configs]),
            np.array([c.gcc.max_rate for c in self.configs]),
            np.array([c.gcc.beta for c in self.configs]),
            np.array([p.ramp_growth for p in profiles]),
        )
        self._rtp = RtpRateArray(
            np.array([c.gcc.start_rate for c in self.configs]),
            np.array([f.target_buffer for f in fbcc]),
            diag_interval,
            np.array([f.rtp_min_rate for f in fbcc]),
            np.array([f.rtp_max_rate for f in fbcc]),
        )
        self._kf_factor = np.array([c.video.keyframe_factor for c in self.configs])

        #: frame_id -> (capture_s, per-session size_bytes, damaged flags)
        #: — one cohort-wide entry per frame (capture is lockstep, so
        #: the capture instant is shared by the whole cohort).
        self._frames: Dict[int, Tuple[float, List[float], List[bool]]] = {}
        self._next_fid = 0
        self._frame_index = 0
        self._frames_sent = 0
        self._sent_bits = np.zeros(n)
        #: Staged packet-arrival logging: (now, rows, sizes) per drain
        #: round, materialised into per-session (t, bytes) tuple lists
        #: once at the end of the run (a stable sort by session keeps
        #: each session's arrival order).
        self._arrival_stage: List[Tuple[float, np.ndarray, np.ndarray]] = []
        #: (done_tick, frame_id, per-session size_bytes array).
        self._pipe: Deque[Tuple[int, int, np.ndarray]] = deque()
        #: arrival_tick -> [(rows, frame_ids, last, sizes), ...].
        self._in_flight: Dict[int, List[tuple]] = {}
        self._seen_drops = np.zeros(n, dtype=np.int64)
        self._last_level = np.zeros(n)
        self._batch_level_sum = np.zeros(n)
        self._batch_count = 0
        self._sec_tbs = np.zeros(n)
        self._sec_level_sum = np.zeros(n)
        self._sec_count = 0
        self._last_flush_k = 0
        self._baseline_fw_drops = np.zeros(n, dtype=np.int64)
        self._baseline_pacer_drops = np.zeros(n, dtype=np.int64)
        self._baseline_bytes = np.zeros(n)
        #: Per-session earliest pending display instant, plus its scalar
        #: min — the gate that keeps the flush phase off the hot path.
        self._next_display = np.full(n, float("inf"))
        self._next_flush = float("inf")

        #: Shared cells, or None for independent sessions.
        self._cells: Optional[SharedCellArray] = None
        #: Per-cell count of subframes that ended with the PRB budget
        #: exhausted — telemetry of a metered :meth:`run_cells`, never
        #: read by the simulation (None when not counting).
        self._prb_exhausted: Optional[np.ndarray] = None
        if counts is None:
            if fleets is not None:
                raise ValueError("fleets need per-cell member counts")
            return
        counts = list(counts)
        if sum(counts) != n or min(counts) < 1:
            raise ValueError(
                f"cell member counts {counts} must be >= 1 and sum to {n}"
            )
        #: Flat-cohort offsets: cell ``c`` owns sessions
        #: ``bounds[c]:bounds[c + 1]``.
        self._bounds = list(itertools.accumulate(counts, initial=0))
        if fleets is None:
            fleets = [
                FleetConfig(ues=count, seed=self.configs[lo].seed)
                for count, lo in zip(counts, self._bounds)
            ]
        self.fleets = list(fleets)
        self._cells = SharedCellArray(self.fleets, counts, self._ue.cell)

    # -- tick phases (numbered as in UplinkSession._tick) ---------------

    def _arrivals(self, k: int, now: float) -> None:
        packets = self._in_flight.pop(k, None)
        if packets is None:
            return
        stage = self._arrival_stage
        receivers = self._receivers
        next_display = self._next_display
        for rows, frame_ids, last, sizes in packets:
            stage.append((now, rows, sizes))
            n_last = int(last.sum())
            if not n_last:
                continue
            if n_last == last.size:
                lrows, lfids = rows, frame_ids
            else:
                lrows, lfids = rows[last], frame_ids[last]
            frames = self._frames
            for s, fid in zip(lrows.tolist(), lfids.tolist()):
                capture, frame_sizes, damaged = frames[fid]
                if not damaged[s]:
                    receiver = receivers[s]
                    receiver.on_frame_complete(now, capture, frame_sizes[s])
                    when = receiver.next_display
                    next_display[s] = when
                    if when < self._next_flush:
                        self._next_flush = when

    def _flush_displays(self, now: float) -> None:
        due = np.nonzero(self._next_display <= now)[0]
        for s in due.tolist():
            receiver = self._receivers[s]
            receiver.flush(now, self.logs[s])
            self._next_display[s] = receiver.next_display
        self._next_flush = float(self._next_display.min())

    def _deliver_diag(self, k: int, now: float) -> None:
        mean_level = self._batch_level_sum / self._batch_count
        congested = self._detector.on_report_level(mean_level)
        fired = np.nonzero(congested)[0]
        if fired.size:
            self._encoding.on_congestion(fired, self._bandwidth.rate_bps()[fired], now)
        video_rate = self._encoding.rate(now, self._ramp.rate)
        self._rtp.on_batch(self._last_level, video_rate)
        drops = self._ue.buffer.dropped_packets
        self._ramp.on_batch(drops - self._seen_drops, congested, self._encoding.held)
        self._seen_drops = drops.copy()
        self._batch_level_sum = np.zeros(self.n)
        self._batch_count = 0
        if k - self._last_flush_k >= 1000:
            if self._sec_count:
                means = self._sec_level_sum / self._sec_count
            else:
                means = np.zeros(self.n)
            tbs_bits = self._sec_tbs * BITS_PER_BYTE
            for s, log in enumerate(self.logs):
                log.diag_seconds.append((float(tbs_bits[s]), float(means[s])))
            self._sec_tbs = np.zeros(self.n)
            self._sec_level_sum = np.zeros(self.n)
            self._sec_count = 0
            self._last_flush_k = k

    def _pace(self) -> None:
        logs = self.logs
        for rows, frame_ids, sizes, last in self._pacer.tick(self._rtp.rate):
            accepted = self._ue.buffer.push(rows, sizes, frame_ids, last)
            if accepted.all():
                continue
            rejected = ~accepted
            for s, frame_id in zip(
                rows[rejected].tolist(), frame_ids[rejected].tolist()
            ):
                damaged = self._frames[frame_id][2]
                if not damaged[s]:
                    damaged[s] = True
                    logs[s].frames_lost += 1

    def _capture(self, k: int, now: float) -> None:
        profile = self.profile
        rate_v = self._encoding.rate(now, self._ramp.rate)
        size = rate_v * profile.frame_interval * self._noise.take_all()
        if self._frame_index % profile.kf_frames == 0:
            size = size * self._kf_factor
        self._frame_index += 1
        size_bytes = size / BITS_PER_BYTE
        bits = size_bytes * BITS_PER_BYTE
        frame_id = self._next_fid
        self._next_fid += 1
        # Python lists: the completion path reads these per-row, where
        # list indexing (and plain-float math downstream) beats numpy
        # scalar extraction.
        self._frames[frame_id] = (now, size_bytes.tolist(), [False] * self.n)
        # frames_sent is lockstep-uniform; sent_bits accumulates the
        # same per-capture float adds as the scalar log, as one vector.
        self._frames_sent += 1
        self._sent_bits += bits
        self._pipe.append((k + profile.encode_ticks, frame_id, size_bytes))

    def _tick(self, k: int, warm_ticks: int) -> None:
        profile = self.profile
        now = k * MS

        # 1. in-flight packet arrivals
        if self._in_flight:
            self._arrivals(k, now)
        # 2. due displays
        if self._next_flush <= now:
            self._flush_displays(now)
        # 3./4. channel and cell dynamics
        if k % profile.chan_ticks == 0:
            self._ue.channel.update(now)
        if k % profile.cell_ticks == 0:
            self._ue.cell.update()
        # 5. diag batch delivery
        if k % profile.diag_ticks == 0 and self._batch_count:
            self._deliver_diag(k, now)
        # 6. frames leaving the encoder
        pipe = self._pipe
        while pipe and pipe[0][0] == k:
            _, frame_id, size_bytes = pipe.popleft()
            self._pacer.enqueue_all(frame_id, size_bytes)
        # 7. pacing tick
        if k % profile.pacer_ticks == 0:
            self._pace()
        # 8. LTE subframe (through the shared cells' loads and budgets
        # when the cohort is coupled)
        cells = self._cells
        if cells is None:
            tbs, rounds = self._ue.subframe(now)
        else:
            tbs, rounds = self._ue.subframe(
                now, loads=cells.member_loads(k, now), cells=cells
            )
            if self._prb_exhausted is not None:
                self._prb_exhausted += cells.budget_left < 1.0
        if rounds:
            self._in_flight.setdefault(k + profile.deliver_ticks, []).extend(rounds)
        self._bandwidth.on_record(tbs)
        level = self._ue.buffer.level
        self._batch_level_sum += level
        self._batch_count += 1
        self._sec_tbs += tbs
        self._sec_level_sum += level
        self._sec_count += 1
        # The RTP controller needs the last pre-diag level (Eq. 7 reads
        # batch[-1]); snapshot it only on the tick before a delivery.
        if (k + 1) % profile.diag_ticks == 0:
            self._last_level = level.copy()
        # 9. frame capture
        if k % profile.frame_ticks == 0:
            self._capture(k, now)
        # 10. rate / buffer traces
        if k % SAMPLE_TICKS == 0:
            rates = self._encoding.rate(now, self._ramp.rate).tolist()
            rtp_rates = self._rtp.rate.tolist()
            levels = self._ue.buffer.level.tolist()
            for s, log in enumerate(self.logs):
                log.rate_trace.append((now, rates[s], rtp_rates[s]))
                log.buffer_levels.append((now, levels[s]))
        # 11. end of warm-up
        if k == warm_ticks:
            self._arrival_stage.clear()
            self._frames_sent = 0
            self._sent_bits = np.zeros(self.n)
            for log, receiver in zip(self.logs, self._receivers):
                log.reset()
                receiver.reset_measurement()
                log.start_time = now
            self._baseline_fw_drops = self._ue.buffer.dropped_packets.copy()
            self._baseline_pacer_drops = self._pacer.dropped_frames.copy()
            self._baseline_bytes = self._ue.bytes_sent.copy()

    def _materialise_arrivals(self) -> None:
        """Turn the staged (now, rows, sizes) drain rounds into each
        session's ``log.arrivals``.  The stable sort keeps every
        session's rounds in staging (= arrival) order, so the rows are
        identical to the scalar engine's live appends — but they are
        handed over as ``(m, 2)`` float64 views into one shared array
        (arrivals dominate the log at ~100 packets/s per session, and
        ``from_log`` converts to an array anyway)."""
        stage = self._arrival_stage
        if not stage:
            return
        rows_all = np.concatenate([rows for _, rows, _ in stage])
        sizes_all = np.concatenate([sizes for _, _, sizes in stage])
        counts = np.fromiter(
            (rows.size for _, rows, _ in stage), dtype=np.int64, count=len(stage)
        )
        times_all = np.repeat(
            np.fromiter(
                (when for when, _, _ in stage), dtype=np.float64, count=len(stage)
            ),
            counts,
        )
        order = np.argsort(rows_all, kind="stable")
        rows_sorted = rows_all[order]
        bounds = np.searchsorted(rows_sorted, np.arange(self.n + 1))
        pairs = np.column_stack((times_all[order], sizes_all[order]))
        for s, log in enumerate(self.logs):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if hi > lo:
                log.arrivals = pairs[lo:hi]
        self._arrival_stage = []

    # -- public API ------------------------------------------------------

    def _advance(self, duration, warmup, progress, progress_every):
        """Tick the whole run; returns ``(duration, total_ticks)``."""
        if duration is None:
            durations = {c.duration for c in self.configs}
            if len(durations) != 1:
                raise ValueError("mixed config durations; pass duration explicitly")
            duration = durations.pop()
        warm_ticks, total_ticks = run_ticks(duration, warmup)
        if progress is not None:
            stride = max(1, int(progress_every))
            for k in range(1, total_ticks + 1):
                self._tick(k, warm_ticks)
                if k % stride == 0 or k == total_ticks:
                    progress(k, total_ticks, self.n)
        else:
            for k in range(1, total_ticks + 1):
                self._tick(k, warm_ticks)
        return duration, total_ticks

    def _results(self, duration: float) -> List[SessionResult]:
        """Close every session's log after the last tick."""
        fw_drops = self._ue.buffer.dropped_packets - self._baseline_fw_drops
        pacer_drops = self._pacer.dropped_frames - self._baseline_pacer_drops
        congestion = self._encoding.congestion_events
        self._materialise_arrivals()
        results = []
        for s, (config, log) in enumerate(zip(self.configs, self.logs)):
            self._receivers[s].finalise(log)
            log.frames_sent = self._frames_sent
            log.sent_bits = float(self._sent_bits[s])
            log.congestion_events = int(congestion[s])
            log.packets_lost += int(fw_drops[s])
            log.frames_lost += int(pacer_drops[s])
            summary = SessionSummary.from_log(
                log,
                scheme=config.scheme,
                transport=config.transport,
                duration=duration,
                freeze_threshold=config.freeze_threshold,
            )
            results.append(SessionResult(config=config, summary=summary, log=log))
        return results

    def run(
        self,
        duration: Optional[float] = None,
        warmup: float = 0.0,
        meter=None,
        progress=None,
        progress_every: int = DEFAULT_PROGRESS_TICKS,
    ) -> List[SessionResult]:
        """Run the cohort and return one :class:`SessionResult` each.

        ``meter`` (same coercion as ``run_session``) receives the
        cohort-level batch counters and the ``batch.run`` wall-clock
        span.  Every counter is a pure function of the cohort (sessions,
        grid ticks), so the counters are identical however a sweep is
        sliced into cohorts of equal total size.  ``progress`` is an
        optional live callback invoked as ``progress(tick, total_ticks,
        n_sessions)`` every ``progress_every`` grid ticks plus once at
        the final tick (see
        :func:`repro.obs.ledger.cohort_heartbeat_callback`).  Both only
        *read* engine state, so a metered/observed run stays
        byte-identical to a plain one.
        """
        meter = coerce_meter(meter)
        t0 = meter.span_start() if meter else 0.0
        duration, total_ticks = self._advance(
            duration, warmup, progress, progress_every
        )
        if meter:
            meter.inc("batch.cohorts")
            meter.inc("batch.sessions", float(self.n))
            meter.inc("batch.subframes", float(self.n * total_ticks))
            meter.span_end("batch.run", t0)
        return self._results(duration)

    def run_cells(
        self,
        duration: Optional[float] = None,
        warmup: float = 0.0,
        meter: bool = False,
        progress=None,
    ) -> List[CellResult]:
        """Run a cell-coupled cohort; one :class:`CellResult` per cell.

        With ``meter=True`` every cell gets a **live** engine meter: the
        ``fleet.*`` cell observations plus the batched-engine counters
        (``batch.sessions``, ``batch.subframes``,
        ``fleet.cell_prb_exhausted``) accumulated during the tick loop —
        all pure functions of the cell, so merged registries are
        byte-equal for any block partition.  The block's
        ``batch.cell_run`` wall-clock span rides the first cell's meter
        (spans never enter deterministic snapshots).  ``progress`` is
        :meth:`run`'s.
        """
        if self._cells is None:
            raise ValueError("run_cells needs per-cell member counts")
        engine = SessionMeter() if meter else None
        t0 = engine.span_start() if meter else 0.0
        if meter:
            self._prb_exhausted = np.zeros(self._cells.cells, dtype=np.int64)
        duration, total_ticks = self._advance(
            duration, warmup, progress, DEFAULT_PROGRESS_TICKS
        )
        if meter:
            engine.span_end("batch.cell_run", t0)
        results = self._results(duration)
        bytes_sent = (self._ue.bytes_sent - self._baseline_bytes).tolist()
        bounds = self._bounds
        cell_results = []
        for index, fleet in enumerate(self.fleets):
            lo, hi = bounds[index], bounds[index + 1]
            members = results[lo:hi]
            member_bytes = tuple(bytes_sent[lo:hi])
            member_mos = tuple(
                mos_score(result.summary.quality.mos_pdf) for result in members
            )
            cell_results.append(
                CellResult(
                    fleet=fleet,
                    results=members,
                    jain=jain_index(member_bytes),
                    member_bytes=member_bytes,
                    member_mos=member_mos,
                    meter=self._one_cell_meter(
                        index, members, member_bytes, total_ticks
                    )
                    if meter
                    else None,
                )
            )
        if meter:
            cell_results[0].meter.merge(engine)
        return cell_results

    def _one_cell_meter(
        self, index: int, members, member_bytes, total_ticks: int
    ) -> SessionMeter:
        """The live per-cell registry (see :meth:`run_cells`)."""
        n = len(members)
        meter = SessionMeter()
        meter.inc("fleet.cells")
        meter.observe("fleet.cell_members", float(n))
        meter.observe("fleet.cell_jain", jain_index(member_bytes))
        for result in members:
            mos = mos_score(result.summary.quality.mos_pdf)
            if not math.isnan(mos):
                meter.observe("fleet.member_mos", mos)
            rate = result.summary.throughput.mean / 1e6
            if not math.isnan(rate):
                meter.observe("fleet.member_rate_mbps", rate)
        meter.inc("batch.sessions", float(n))
        meter.inc("batch.subframes", float(n * total_ticks))
        meter.inc("fleet.cell_prb_exhausted", float(self._prb_exhausted[index]))
        return meter


def run_batched(
    configs: Sequence[SessionConfig],
    duration: Optional[float] = None,
    warmup: float = 0.0,
    meter=None,
    progress=None,
) -> List[SessionResult]:
    """Build and run one lockstep cohort."""
    return BatchedSimulation(configs).run(
        duration, warmup=warmup, meter=meter, progress=progress
    )


def run_batched_cells(
    cells: Sequence[Sequence[SessionConfig]],
    fleets: Optional[Sequence[FleetConfig]] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
    meter: bool = False,
    progress=None,
) -> List[CellResult]:
    """Build and run one block of shared cells; ``cells`` is a list of
    per-cell member-config lists of any lengths."""
    cells = [list(members) for members in cells]
    if not cells:
        raise ValueError("empty cell block")
    flat = [config for members in cells for config in members]
    engine = BatchedSimulation(
        flat, counts=[len(members) for members in cells], fleets=fleets
    )
    return engine.run_cells(duration, warmup=warmup, meter=meter, progress=progress)


def run_batched_cell(
    config: SessionConfig,
    ues: int = 4,
    fleet: Optional[FleetConfig] = None,
    duration: Optional[float] = None,
    warmup: float = 0.0,
) -> CellResult:
    """Single-cell convenience mirroring
    :func:`repro.telephony.uplink.run_uplink_cell` (and, statistically,
    :func:`repro.telephony.fleet.run_cell`)."""
    if fleet is None:
        fleet = FleetConfig(ues=ues, seed=config.seed)
    return run_batched_cells(
        [member_configs(config, ues)], fleets=[fleet], duration=duration,
        warmup=warmup,
    )[0]
