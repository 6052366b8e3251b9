"""Span profiling: wall-clock timing of named pipeline stages.

A :class:`SpanProfiler` accumulates (count, total, min, max) wall-clock
statistics per named stage — frame encode, the LTE subframe step, a
rate-control tick, the receiver's display path, a whole session run.
Names come from the typed :data:`SPAN_CATALOGUE` (the same
single-source-of-truth pattern as ``EVENT_CATALOGUE`` /
``METRIC_CATALOGUE``), so docs, exporters and the drift gate stay in
sync.

Wall-clock is kept **strictly out of simulation state**: a span reads
:func:`time.perf_counter` and writes only into the profiler's own
accumulators.  Nothing a span measures is ever fed back into the
simulation, so a profiled run stays byte-identical to a plain run —
only the recorded wall times differ between machines and runs, which is
the point of a profiler.

>>> profiler = SpanProfiler()
>>> with profiler.span("session.run"):
...     _ = sum(range(10))
>>> profiler.stats["session.run"].count
1
>>> bool(NULL_SPANS), bool(profiler)
(False, True)
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, NamedTuple, Tuple


class SpanSpec(NamedTuple):
    """Catalogue entry for one span name."""

    name: str
    subsystem: str
    site: str
    description: str


_SPECS = (
    SpanSpec(
        "session.run",
        "session",
        "repro.telephony.session.TelephonySession.run",
        "One whole session run (wall clock; drives straggler reporting).",
    ),
    SpanSpec(
        "sender.encode",
        "telephony",
        "repro.telephony.sender.PanoramicSender._on_capture",
        "Compress + encode + packetise one captured frame.",
    ),
    SpanSpec(
        "lte.subframe",
        "lte",
        "repro.lte.ue.UeUplink._subframe",
        "One active 1 ms uplink subframe (grant, drain, diag record).",
    ),
    SpanSpec(
        "rate_control.tick",
        "rate_control",
        "repro.rate_control.fbcc.controller.FbccTransport.on_diag / "
        "repro.rate_control.gcc.controller.GccSenderControl.on_feedback",
        "One rate-control decision: an FBCC diag tick or a GCC "
        "REMB/receiver-report update.",
    ),
    SpanSpec(
        "receiver.display",
        "telephony",
        "repro.telephony.receiver.PanoramicReceiver._display",
        "Render + measure one displayed frame (PSNR, mismatch, delay).",
    ),
    SpanSpec(
        "fleet.cell_run",
        "fleet",
        "repro.telephony.fleet.CellSession.run",
        "One whole shared-cell run: every member session, one clock.",
    ),
    SpanSpec(
        "batch.run",
        "batch",
        "repro.sim.batch.BatchedSimulation.run",
        "One batched lockstep cohort: every session, one 1 ms grid.",
    ),
    SpanSpec(
        "batch.cell_run",
        "batch",
        "repro.sim.batch.BatchedSimulation.run_cells",
        "One batched cell block: C cells x N members, one 1 ms grid.",
    ),
)

#: Name → spec for every span the stack can time.
SPAN_CATALOGUE: Dict[str, SpanSpec] = {spec.name: spec for spec in _SPECS}

#: Stable ordering for docs and exporters.
SPAN_NAMES: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)


class SpanStats:
    """Accumulated wall-clock statistics of one span name."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_s += other.total_s
        if other.min_s < self.min_s:
            self.min_s = other.min_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


class _Span:
    """Context manager recording one timed region into a profiler."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "SpanProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiler.record(self._name, perf_counter() - self._t0)


class NullSpanProfiler:
    """Profiling disabled: falsy, records nothing."""

    enabled = False
    stats: Dict[str, SpanStats] = {}

    def __bool__(self) -> bool:
        return False

    def record(self, name: str, elapsed_s: float) -> None:
        """Discard the sample."""

    def span(self, name: str):
        return _NULL_SPAN

    def as_dict(self) -> dict:
        return {}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()

#: The shared disabled profiler.
NULL_SPANS = NullSpanProfiler()


class SpanProfiler:
    """Catalogue-validated accumulator of per-stage wall-clock spans."""

    enabled = True

    def __init__(self):
        #: Name → accumulated statistics.
        self.stats: Dict[str, SpanStats] = {}

    def __bool__(self) -> bool:
        return True

    def record(self, name: str, elapsed_s: float) -> None:
        """Fold one elapsed wall-clock duration into the named span."""
        stats = self.stats.get(name)
        if stats is None:
            if name not in SPAN_CATALOGUE:
                raise KeyError(
                    f"unknown span {name!r}: not in SPAN_CATALOGUE "
                    f"(repro.obs.spans)"
                )
            stats = SpanStats()
            self.stats[name] = stats
        stats.record(elapsed_s)

    def span(self, name: str) -> _Span:
        """Context manager timing a region into the named span."""
        return _Span(self, name)

    def merge(self, other: "SpanProfiler") -> None:
        """Fold another profiler's accumulators into this one."""
        for name, stats in other.stats.items():
            mine = self.stats.get(name)
            if mine is None:
                mine = SpanStats()
                self.stats[name] = mine
            mine.merge(stats)

    def as_dict(self) -> dict:
        """JSON-safe snapshot, in catalogue order then extras."""
        ordered = [name for name in SPAN_NAMES if name in self.stats]
        ordered += [name for name in sorted(self.stats) if name not in SPAN_CATALOGUE]
        return {name: self.stats[name].as_dict() for name in ordered}
