"""RTP packet pacer over a frame-level media queue.

Encoded frames queue at the application layer; the pacer packetises
them into RTP packets as budget allows and hands them to the access hop
(the LTE firmware buffer or the wireline link).  Transport sequence
numbers are assigned **as packets leave** — WebRTC's pacer drops stale
*frames* before packetisation, so a sender-side drop never occupies
sequence space and is invisible to the receiver's loss accounting
(unlike a genuine network loss).

Retransmissions (NACKed packets, which already carry their original
sequence number) jump the queue.  The pacer is the boundary between the
two buffers of the paper's Fig. 9 model: what it does not send waits in
the application layer, what it sends waits in the firmware buffer.

:class:`PacedSender` holds no clock: the event sender and the lockstep
:class:`repro.telephony.uplink.UplinkSession` call :meth:`PacedSender.tick`
with the time and the pacing rate every :data:`PACING_TICK`.
:class:`PacedSenderArray` is its batched twin.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from repro.net.packet import Packet
from repro.units import BITS_PER_BYTE, ms
from repro.video.frame import EncodedFrame

PacketSink = Callable[[Packet], None]

#: Pacing tick (WebRTC uses 5 ms).
PACING_TICK = ms(5)

#: Unused budget carries over at most this many ticks' worth (burst cap),
#: but never less than one MTU so low rates still make progress.
BURST_TICKS = 2.0
MIN_BURST_BYTES = 1500.0

#: Media older than this many seconds of queue is dropped from the head
#: (WebRTC's pacer expires stale frames rather than shipping a slideshow).
MAX_QUEUE_SECONDS = 1.0


class _QueuedFrame:
    __slots__ = ("frame", "payload_size", "total_packets", "next_index", "remaining")

    def __init__(self, frame: EncodedFrame, payload_size: int):
        self.frame = frame
        self.payload_size = payload_size
        self.total_packets = max(1, math.ceil(frame.size_bytes / payload_size))
        self.next_index = 0
        self.remaining = frame.size_bytes


class PacedSender:
    """Token-bucket pacer that packetises frames as they leave.

    ``enqueue_frame`` reads only a frame's ``size_bytes`` and
    ``capture_time``.  A frame leaves as exactly ``frame_packets``
    packets: with an integer payload size, ``remaining -= size`` is exact
    for frames under 2**53 bytes and ``ceil(size / payload)`` rounds to
    the true count, so the packet that empties the frame is the one with
    ``frame_seq == frame_packets - 1``.
    """

    def __init__(
        self,
        sink: PacketSink,
        payload_size: int = 1200,
        on_sent: Optional[PacketSink] = None,
    ):
        self._sink = sink
        self._payload_size = payload_size
        self._on_sent = on_sent
        self._frames: Deque[_QueuedFrame] = deque()
        self._retransmits: Deque[Packet] = deque()
        self._budget_bytes = 0.0
        self._queued_bytes = 0.0
        self._seq = 0
        self.bytes_paced = 0.0
        self.dropped_frames = 0

    def enqueue_frame(self, frame: EncodedFrame) -> None:
        """Queue a freshly encoded frame for packetisation."""
        item = _QueuedFrame(frame, self._payload_size)
        self._frames.append(item)
        self._queued_bytes += item.remaining

    def enqueue_retransmit(self, packet: Packet) -> None:
        """Queue a retransmission (keeps its original sequence number)."""
        self._retransmits.append(packet)

    @property
    def queued_bytes(self) -> float:
        """Application-layer media backlog in bytes (fresh frames only)."""
        return self._queued_bytes

    @property
    def queued_frames(self) -> int:
        return len(self._frames)

    @property
    def next_seq(self) -> int:
        return self._seq

    def _send(self, packet: Packet, now: float) -> None:
        packet.payload["sent"] = now
        self.bytes_paced += packet.size_bytes
        if self._on_sent is not None:
            self._on_sent(packet)
        self._sink(packet)

    def _emit_next_media_packet(self) -> Packet:
        item = self._frames[0]
        size = min(self._payload_size, item.remaining)
        packet = Packet(
            kind="video",
            size_bytes=size,
            created=item.frame.capture_time,
            payload={
                "frame": item.frame,
                "frame_seq": item.next_index,
                "frame_packets": item.total_packets,
                "seq": self._seq,
            },
        )
        self._seq += 1
        item.next_index += 1
        item.remaining -= size
        self._queued_bytes -= size
        if item.remaining <= 0:
            self._frames.popleft()
        return packet

    def tick(self, now: float, rate: float) -> None:
        """One pacing tick at ``now`` with pacing rate ``rate`` (bps):
        expire stale frames, refill the token bucket, then send
        retransmissions and media packets while the budget lasts."""
        rate = max(0.0, rate)
        self._expire_stale(rate)
        tick_budget = rate * PACING_TICK / BITS_PER_BYTE
        burst_cap = max(MIN_BURST_BYTES, BURST_TICKS * tick_budget)
        self._budget_bytes = min(self._budget_bytes + tick_budget, burst_cap)
        while self._retransmits and self._retransmits[0].size_bytes <= self._budget_bytes:
            packet = self._retransmits.popleft()
            self._budget_bytes -= packet.size_bytes
            self._send(packet, now)
        while self._frames and self._budget_bytes > 0:
            head = self._frames[0]
            size = min(self._payload_size, head.remaining)
            if size > self._budget_bytes:
                break
            self._budget_bytes -= size
            self._send(self._emit_next_media_packet(), now)

    def _expire_stale(self, rate: float) -> None:
        """Drop the oldest not-yet-started frames beyond the queue cap.

        The head frame may be partially on the wire and must complete
        (the receiver is already assembling it); everything behind it is
        droppable, oldest first — stale media is superseded anyway.
        """
        if rate <= 0.0:
            return
        max_bytes = rate * MAX_QUEUE_SECONDS / BITS_PER_BYTE
        while self._queued_bytes > max_bytes and len(self._frames) > 1:
            item = self._frames[1]
            del self._frames[1]
            self._queued_bytes -= item.remaining
            self.dropped_frames += 1


# ----------------------------------------------------------------------
# Batched twin (repro.sim.batch)
# ----------------------------------------------------------------------

#: Frame slots per session in the batched pacer ring.  The 1 s queue
#: cap bounds the backlog to ~25 frames at the lockstep profile's frame
#: rates; a pathological overflow trips the explicit check.
_FRAME_SLOTS = 128


class PacedSenderArray:
    """``(n_sessions,)`` vectorised twin of :class:`PacedSender`
    (media frames only: the lockstep profile sends no retransmissions).

    Frames wait in per-session circular rings; :meth:`tick` replays the
    scalar token-bucket loop in *rounds*, each round emitting at most
    one packet per session, so budgets, remainders and the
    size-vs-budget break are float-identical per session.  Stale-frame
    expiry is a rare per-session scalar loop (it only runs under heavy
    congestion).
    """

    def __init__(self, payloads: np.ndarray):
        n = payloads.shape[0]
        self._payload = payloads.astype(np.float64)
        self._rows = np.arange(n)
        self._fid = np.full((n, _FRAME_SLOTS), -1, dtype=np.int64)
        self._rem = np.zeros((n, _FRAME_SLOTS))
        self._head = np.zeros(n, dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)
        self._budget = np.zeros(n)
        self._queued = np.zeros(n)
        self.dropped_frames = np.zeros(n, dtype=np.int64)

    def enqueue_all(self, frame_id: int, sizes: np.ndarray) -> None:
        """Every session queues its copy of frame ``frame_id`` (the
        lockstep profile captures frames on a shared cadence)."""
        if (self._count >= _FRAME_SLOTS).any():
            raise RuntimeError("pacer frame ring overflow")
        cols = (self._head + self._count) % _FRAME_SLOTS
        self._fid[self._rows, cols] = frame_id
        self._rem[self._rows, cols] = sizes
        self._count += 1
        self._queued = self._queued + sizes

    def _expire(self, rate: np.ndarray, max_bytes: np.ndarray) -> None:
        mask = (rate > 0.0) & (self._queued > max_bytes) & (self._count > 1)
        if not mask.any():
            return
        stale = np.nonzero(mask)[0]
        for s in stale.tolist():
            head = int(self._head[s])
            count = int(self._count[s])
            queued = self._queued[s]
            cap = max_bytes[s]
            dropped = 0
            # Frames behind the head are dropped oldest-first; the head
            # may be partially on the wire and must complete.
            while queued > cap and count - dropped > 1:
                col = (head + 1 + dropped) % _FRAME_SLOTS
                queued = queued - self._rem[s, col]
                dropped += 1
            if dropped:
                new_head = (head + dropped) % _FRAME_SLOTS
                self._fid[s, new_head] = self._fid[s, head]
                self._rem[s, new_head] = self._rem[s, head]
                self._head[s] = new_head
                self._count[s] = count - dropped
                self._queued[s] = queued
                self.dropped_frames[s] += dropped

    def tick(self, rates: np.ndarray):
        """One pacing tick; returns emission rounds.

        Each round is ``(rows, frame_ids, sizes, last)`` — parallel 1-D
        arrays, one packet per listed session.  Per-session packet
        order across rounds matches the scalar emit loop.
        """
        rate = np.maximum(0.0, rates)
        max_bytes = rate * MAX_QUEUE_SECONDS / BITS_PER_BYTE
        self._expire(rate, max_bytes)
        tick_budget = rate * PACING_TICK / BITS_PER_BYTE
        burst_cap = np.maximum(MIN_BURST_BYTES, BURST_TICKS * tick_budget)
        self._budget = np.minimum(self._budget + tick_budget, burst_cap)
        emissions = []
        live = np.nonzero((self._count > 0) & (self._budget > 0))[0]
        while live.size:
            heads = self._head[live]
            size = np.minimum(self._payload[live], self._rem[live, heads])
            fits = size <= self._budget[live]
            rows = live[fits]
            if not rows.size:
                break
            heads = heads[fits]
            size = size[fits]
            self._budget[rows] -= size
            remaining = self._rem[rows, heads] - size
            self._rem[rows, heads] = remaining
            self._queued[rows] -= size
            last = remaining <= 0
            done = rows[last]
            if done.size:
                self._head[done] = (heads[last] + 1) % _FRAME_SLOTS
                self._count[done] -= 1
            emissions.append((rows, self._fid[rows, heads], size, last))
            live = rows[(self._count[rows] > 0) & (self._budget[rows] > 0)]
        return emissions
