"""Frame-level pacer: packetisation, budget, expiry, retransmits."""

import pytest

from repro.rate_control.pacer import MAX_QUEUE_SECONDS, PACING_TICK, PacedSender
from repro.net.packet import Packet
from repro.sim.engine import Simulation
from repro.units import mbps
from repro.video.frame import EncodedFrame


def _frame(frame_id, size_bits=96_000.0, capture=0.0):
    import numpy as np

    return EncodedFrame(
        frame_id=frame_id,
        capture_time=capture,
        send_start=capture,
        matrix=np.ones((2, 2)),
        sender_roi=(0, 0),
        size_bits=size_bits,
        bpp=0.05,
        pixel_ratio=0.5,
    )


def _build(rate=mbps(4.0)):
    sim = Simulation()
    sent = []
    pacer = PacedSender(sent.append)
    sim.every(PACING_TICK, lambda: pacer.tick(sim.now, rate))
    return sim, pacer, sent


def test_frame_packetised_with_sequence_numbers():
    sim, pacer, sent = _build()
    pacer.enqueue_frame(_frame(0, size_bits=5 * 1200 * 8))
    sim.run(1.0)
    assert len(sent) == 5
    assert [p.payload["seq"] for p in sent] == [0, 1, 2, 3, 4]
    assert all(p.payload["frame_packets"] == 5 for p in sent)
    assert [p.payload["frame_seq"] for p in sent] == list(range(5))


def test_pacing_respects_rate():
    sim, pacer, sent = _build(rate=mbps(1.0))
    pacer.enqueue_frame(_frame(0, size_bits=1_000_000))  # 1 s at 1 Mbps
    sim.run(0.5)
    half_bytes = sum(p.size_bytes for p in sent)
    assert half_bytes == pytest.approx(1_000_000 / 8 / 2, rel=0.1)


def test_sent_timestamps_recorded():
    sim, pacer, sent = _build()
    pacer.enqueue_frame(_frame(0))
    sim.run(0.5)
    assert all("sent" in p.payload for p in sent)
    assert sent[0].payload["sent"] <= sent[-1].payload["sent"]


def test_stale_frames_expire_but_head_completes():
    sim, pacer, sent = _build(rate=mbps(1.0))
    # 3 Mbit of media at 1 Mbps = 3 s of queue; cap is 1 s.
    for index in range(30):
        pacer.enqueue_frame(_frame(index, size_bits=100_000, capture=index / 30))
    sim.run(5.0)
    assert pacer.dropped_frames > 0
    # Delivered packets cover contiguous sequence space (drops happen
    # before packetisation, invisible to the receiver's loss counters).
    seqs = [p.payload["seq"] for p in sent]
    assert seqs == list(range(len(seqs)))
    # The oldest frame (head) was never dropped.
    assert sent[0].payload["frame"].frame_id == 0


def test_retransmissions_jump_queue():
    sim, pacer, sent = _build(rate=mbps(2.0))
    pacer.enqueue_frame(_frame(0, size_bits=400_000))
    rtx = Packet(kind="video", size_bytes=1200, created=0.0, payload={"seq": 99, "rtx": True})
    pacer.enqueue_retransmit(rtx)
    sim.run(0.1)
    assert sent[0].payload.get("rtx")
    assert sent[0].payload["seq"] == 99


def test_on_sent_callback_invoked():
    sim = Simulation()
    seen = []
    pacer = PacedSender(lambda p: None, on_sent=seen.append)
    sim.every(PACING_TICK, lambda: pacer.tick(sim.now, mbps(4.0)))
    pacer.enqueue_frame(_frame(0))
    sim.run(0.5)
    assert len(seen) == pacer.next_seq


def test_queue_accounting():
    sim, pacer, sent = _build(rate=mbps(1.0))
    pacer.enqueue_frame(_frame(0, size_bits=80_000))
    assert pacer.queued_bytes == pytest.approx(10_000)
    assert pacer.queued_frames == 1
    sim.run(1.0)
    assert pacer.queued_bytes == pytest.approx(0.0)
    assert pacer.queued_frames == 0


def test_zero_rate_sends_nothing():
    sim, pacer, sent = _build(rate=0.0)
    pacer.enqueue_frame(_frame(0))
    sim.run(1.0)
    assert not sent
