"""LTE uplink substrate: channel, PF scheduler, firmware buffer, diag.

This package replaces the commercial LTE network + Nexus 5 modem used by
the paper's prototype with a subframe-level (1 ms) model whose emergent
behaviour reproduces the phenomena POI360 exploits:

- the proportional-fair uplink scheduler serves a UE at a rate that grows
  with its (reported) firmware-buffer backlog and saturates past a knee
  (paper Fig. 5),
- the modem exposes per-subframe buffer level and transport block size
  through a diagnostic interface read in 40 ms batches (MobileInsight).
"""

from repro.lte.channel import ChannelDraws, ChannelProcess
from repro.lte.cell import CellLoadProcess
from repro.lte.diagnostics import DiagMonitor, DiagRecord
from repro.lte.firmware_buffer import FirmwareBuffer
from repro.lte.scheduler import EnbScheduler, SchedulerDraws
from repro.lte.tbs import bytes_per_prb, cqi_from_rss, efficiency_for_cqi
from repro.lte.ue import UeUplink

__all__ = [
    "ChannelDraws",
    "ChannelProcess",
    "CellLoadProcess",
    "DiagMonitor",
    "DiagRecord",
    "FirmwareBuffer",
    "EnbScheduler",
    "SchedulerDraws",
    "UeUplink",
    "bytes_per_prb",
    "cqi_from_rss",
    "efficiency_for_cqi",
]
