"""The four benchmark workloads.

Each workload drives one entry point users call:

- ``paper_grid``: :func:`repro.telephony.session.run_session`, the path
  every paper figure takes;
- ``batched_cohort``: :class:`repro.experiments.batch.BatchRunner`, the
  ``metrics --batch`` path;
- ``batched_cells``: :func:`repro.experiments.fleet.fleet_sweep` with
  ``batch=True``, the ``fleet --batch`` path;
- ``service_mix``: HTTP on the loopback interface into an in-process
  :class:`repro.service.server.ServiceServer`.

A workload builds every input from the seed in :meth:`setup`, runs
operations in :meth:`run` (until a deadline, or a fixed count for the
traced run) and verifies outputs in :meth:`check`, which runs outside
the timed region.  ``repro`` is imported inside :meth:`setup`, so the
imports count as set-up time.

A timed pass also times a fixed reference block (:func:`reference_block`)
between operations, so each operation's wall time can be expressed in
reference blocks measured beside it (see :meth:`Workload.end_to_end`).
"""

from __future__ import annotations

import heapq
import json
import math
import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The LTE scenarios the seeded sweeps draw from.
LTE_SCENARIOS = (
    "cellular",
    "idle_cell",
    "busy_cell",
    "rss_weak",
    "rss_moderate",
    "rss_strong",
    "driving_15mph",
    "driving_30mph",
    "driving_50mph",
)

#: The cold quick report's 15 unique event-engine conditions:
#: (scenario, scheme, transport).
PAPER_CONDITIONS = tuple(
    [(net, scheme, "gcc") for net in ("wireline", "cellular")
     for scheme in ("poi360", "conduit", "pyramid")]
    + [("cellular", "poi360", "fbcc")]
    + [(name, "poi360", "fbcc") for name in LTE_SCENARIOS[1:]]
)

#: The kinds of capacity curve ``batched_cells`` rotates through:
#: (scenario, background load).
CELL_KINDS = (
    ("cellular", 0.3),
    ("busy_cell", 0.6),
    ("driving_30mph", 0.45),
)

#: Catalogue counters summed into the traced run's per-layer report.
COUNTERS = (
    "sim.events",
    "lte.subframes",
    "lte.drops",
    "gcc.updates",
    "fbcc.ticks",
    "fbcc.congestion_events",
    "compression.mode_switches",
    "sender.frames",
    "receiver.frames",
    "receiver.freezes",
    "batch.subframes",
    "batch.cohorts",
    "batch.sessions",
    "batch.scalar_fallbacks",
    "fleet.cell_prb_exhausted",
    "cache.entry_hits",
    "cache.entry_misses",
    "service.requests",
    "service.jobs_deduped",
    "service.jobs_cache_hits",
)


@dataclass
class Op:
    """One timed operation."""

    kind: str
    wall_s: float
    sim_s: float
    ok: bool
    output: object = None
    error: str = ""
    #: Which input kind (condition or scenario) the operation ran; every
    #: operation of one kind does the same amount of simulated work.
    key: object = None
    #: Mean time of the reference blocks timed just before and just after
    #: the operation (NaN when the pass timed none).
    ref_s: float = float("nan")


@dataclass
class Measurement:
    """What one pass over a workload produced."""

    ops: List[Op]
    window_s: float
    counters: Dict[str, float] = field(default_factory=dict)
    #: Payload-cache lookups seen during the pass: [hits, misses].
    cache_lookups: List[int] = field(default_factory=lambda: [0, 0])
    queue_wait_s: Optional[float] = None
    #: service_mix rounds: (wall s, fresh session-s, jobs done, ref s).
    rounds: List[Tuple[float, float, int, float]] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (NaN if empty)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: The reference block's working buffer (512 KiB), allocated once.
_REFERENCE_INPUT = np.arange(65536, dtype=np.float64)
_REFERENCE_BUFFER = np.empty_like(_REFERENCE_INPUT)


class _ReferenceNode:
    __slots__ = ("rate", "backlog", "sent")

    def __init__(self, rate: float):
        self.rate, self.backlog, self.sent = rate, 0.0, 0


def reference_block() -> float:
    """A fixed amount of work that uses none of the program's code.

    A small discrete-event loop (a heap of timed events, slotted
    objects, float math, string keys into a dict), like the event
    engine's, then in-place numpy arithmetic over a preallocated
    512 KiB buffer.  It takes about 8 ms on a 2-core x86-64 container.
    When the host slows (other tenants on the same cores), it slows with
    the program, so an operation's wall time over the block's time
    beside it measures the program's own cost.  Across fresh processes
    on a drifting host, this mix followed both the event engine and the
    batched engine better than a one-line interpreted loop or numpy
    alone did.
    """
    nodes = [_ReferenceNode(1.0 + k * 0.25) for k in range(16)]
    events = [(k * 0.001, k) for k in range(16)]
    heapq.heapify(events)
    counts: Dict[str, int] = {}
    for step in range(6000):
        now, k = heapq.heappop(events)
        node = nodes[k]
        node.backlog = max(0.0, node.backlog * 0.9 + math.sin(now) * node.rate)
        node.sent += 1
        key = "n%d" % (k & 7)
        counts[key] = counts.get(key, 0) + node.sent
        heapq.heappush(events, (now + 0.001 * node.rate + (step % 3) * 1e-4, k))
    values = _REFERENCE_BUFFER
    np.copyto(values, _REFERENCE_INPUT)
    for _ in range(20):
        np.multiply(values, values, out=values)
        np.add(values, 1.0, out=values)
        np.sqrt(values, out=values)
    return sum(counts.values()) + float(values[-1])


class ReferenceClock:
    """Times :func:`reference_block` between a timed pass's operations."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        if enabled:
            reference_block()
        self.last = self._time() if enabled else float("nan")

    @staticmethod
    def _time() -> float:
        t0 = time.perf_counter()
        reference_block()
        return time.perf_counter() - t0

    def step(self) -> float:
        """Time the block again; the mean of this and the last timing."""
        if not self.enabled:
            return float("nan")
        now = self._time()
        mean = 0.5 * (self.last + now)
        self.last = now
        return mean


def ref_cost(walls: List[float], refs: List[float]) -> float:
    """Mean wall time in reference blocks: ``sum(walls) / sum(refs)``.

    A ratio of sums, not a mean of ratios, so the jitter of single
    reference timings averages out.
    """
    return sum(walls) / sum(refs)


def add_counters(total: Dict[str, float], counters: Dict[str, float]) -> None:
    for name in COUNTERS:
        if name in counters:
            total[name] = total.get(name, 0.0) + float(counters[name])


def summary_problem(summary) -> str:
    """Why a session summary is out of range ('' when it is fine)."""
    checks = (
        ("freeze_ratio", summary.freeze_ratio, 0.0, 1.0),
        ("mean_psnr", summary.quality.mean_psnr, 1.0, 100.0),
        ("delay.median", summary.delay.median, 0.0, 60.0),
        ("throughput.mean", summary.throughput.mean, 0.0, 1e9),
        ("sent_rate_mean", summary.sent_rate_mean, 1.0, 1e9),
    )
    for name, value, low, high in checks:
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            return f"{name} is not finite ({value!r})"
        if not low <= value <= high:
            return f"{name}={value!r} outside [{low}, {high}]"
    if summary.frames_displayed <= 0:
        return "no frame displayed"
    return ""


def same_session(a, b) -> bool:
    """Byte equality of two session results' summaries and logs."""
    return pickle.dumps(a.summary, 4) == pickle.dumps(b.summary, 4) and (
        pickle.dumps(a.log, 4) == pickle.dumps(b.log, 4)
    )


class Workload:
    """Common shape of a workload; subclasses fill in the details."""

    name = ""
    #: cProfile timer of the traced run; None keeps the wall clock.
    profile_timer = None
    #: Operations (or blocks, or cycles) a traced run executes.
    trace_count = 1

    def __init__(self, seed: int, tiny: bool, scratch):
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed * 7919 + 17)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, deadline: Optional[float], count: Optional[int],
            metered: bool) -> Measurement:
        raise NotImplementedError

    def check(self, measurement: Measurement) -> List[Tuple[str, bool, str]]:
        raise NotImplementedError

    def same_outputs(self, a: Measurement, b: Measurement) -> bool:
        """Whether two passes over the same inputs produced equal outputs."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # ------------------------------------------------------ end to end

    def primary(self, measurement: Measurement) -> List[Op]:
        return [op for op in measurement.ops if op.ok]

    def end_to_end(self, measurement: Measurement) -> Dict[str, Tuple[float, int]]:
        """``{metric: (value, samples)}`` for the untraced metrics.

        Operations run one at a time and fall into kinds (``Op.key``)
        that every run visits in the same fixed rotation, whatever the
        seed, so the seed changes the inputs but not the mix of work.
        A kind's cost is :func:`ref_cost` of its operations: their mean
        wall time in reference blocks timed beside them.  ``op_cost_ref``
        is the median cost over kinds, and ``sim_rate_ref`` is one
        rotation's simulated session-seconds over the summed costs.  The
        ``_wall`` and ``_s`` figures are the same in host seconds.
        """
        primary = self.primary(measurement)
        walls = [op.wall_s for op in primary]
        completed = sum(1 for op in measurement.ops if op.ok and op.kind != "dedup")
        kinds: Dict[object, List[Op]] = {}
        for op in primary:
            kinds.setdefault(op.key, []).append(op)
        groups = list(kinds.values())
        costs = [ref_cost([op.wall_s for op in ops], [op.ref_s for op in ops])
                 for ops in groups]
        means = [sum(op.wall_s for op in ops) / len(ops) for ops in groups]
        sim = sum(ops[0].sim_s for ops in groups)
        refs = [op.ref_s for op in primary]
        n = len(walls)
        return {
            "sim_rate_ref": (sim / sum(costs), n),
            "op_cost_ref": (percentile(costs, 50), n),
            "sim_rate_wall": (sim / sum(means), n),
            "op_latency_s_p50": (percentile(walls, 50), n),
            "op_latency_s_p90": (percentile(walls, 90), n),
            "ops_per_s": (completed / measurement.window_s, completed),
            "ref_block_ms": (percentile(refs, 50) * 1e3, n),
        }


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------


class PaperGrid(Workload):
    """Serial event-engine sessions over the quick report's conditions.

    One closed-loop caller runs the 15 conditions in their report order,
    cycle after cycle, each session with a seeded user and seed.  A timed
    pass runs at least one whole cycle; each condition is one kind.
    """

    name = "paper_grid"
    trace_count = 1

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.duration, self.warmup = (2.0, 1.0) if tiny else (20.0, 10.0)
        self.max_cycles = 1 if tiny else 20

    def setup(self) -> None:
        from repro.roi.users import USER_PROFILES
        from repro.telephony.session import TelephonySession, run_session
        from repro.traces.scenarios import scenario

        self._run_session = run_session
        self.inputs = []
        for _ in range(self.max_cycles):
            for name, scheme, transport in PAPER_CONDITIONS:
                profile = self.rng.choice(USER_PROFILES)
                config = scenario(
                    name,
                    scheme=scheme,
                    transport=transport,
                    duration=self.duration,
                    seed=self.rng.randrange(1, 2**31),
                )
                self.inputs.append((config, profile))
        TelephonySession(self.inputs[0][0], profile=self.inputs[0][1])

    def _session(self, index: int, metered: bool):
        config, profile = self.inputs[index]
        return self._run_session(
            config, profile=profile, duration=self.duration,
            warmup=self.warmup, meter=metered,
        )

    def run(self, deadline, count, metered) -> Measurement:
        per_cycle = len(PAPER_CONDITIONS)
        limit = len(self.inputs) if count is None else count * per_cycle
        ops: List[Op] = []
        clock = ReferenceClock(deadline is not None)
        start = time.perf_counter()
        for index in range(min(limit, len(self.inputs))):
            t0 = time.perf_counter()
            try:
                result = self._session(index, metered)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                ops.append(Op("session", time.perf_counter() - t0, 0.0, False,
                              error=repr(error), key=index % per_cycle))
            else:
                # A timed pass keeps only summaries, so the benchmark's own
                # memory does not grow with the number of sessions run.
                ops.append(Op("session", time.perf_counter() - t0,
                              self.duration + self.warmup, True,
                              (index, result.summary,
                               result if count is not None else None),
                              key=index % per_cycle))
            ops[-1].ref_s = clock.step()
            if index + 1 >= per_cycle and deadline is not None \
                    and time.perf_counter() >= deadline:
                break
        measurement = Measurement(ops, time.perf_counter() - start)
        if metered:
            for op in ops:
                if op.ok and op.output[2].meter is not None:
                    add_counters(measurement.counters,
                                 op.output[2].meter.metrics.counters)
        return measurement

    def check(self, measurement):
        results = []
        done = [op.output for op in measurement.ops if op.ok]
        for index, summary, _ in done:
            problem = summary_problem(summary)
            if problem:
                results.append((f"range[{index}]", False, problem))
        if done:
            index, original, _ = self.check_rng.choice(done)
            again = self._session(index, False)
            same = pickle.dumps(again.summary, 4) == pickle.dumps(original, 4)
            results.append((f"rerun[{index}]", same,
                            "" if same else "summary differs on re-run"))
        return results

    def same_outputs(self, a, b):
        pairs = zip([op.output for op in a.ops], [op.output for op in b.ops])
        return len(a.ops) == len(b.ops) and all(
            x is not None and y is not None and same_session(x[2], y[2])
            for x, y in pairs
        )


# ----------------------------------------------------------------------
# batched_cohort
# ----------------------------------------------------------------------


class BatchedCohort(Workload):
    """Seeded sweeps of independent lockstep sessions through BatchRunner.

    Each sweep holds one full cohort of one cadence signature (25 fps)
    plus two small groups (20 fps and 50 fps) below the scalar crossover.
    Every group spreads its sessions evenly over the LTE scenarios, so
    all sweeps do the same work and form one kind.
    """

    name = "batched_cohort"
    trace_count = 2

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        if tiny:
            self.main, self.small, self.duration, self.warmup = 16, (3, 2), 1.0, 0.5
            self.max_sweeps = 2
        else:
            self.main, self.small, self.duration, self.warmup = 64, (5, 3), 2.0, 1.0
            self.max_sweeps = 60
        #: The sweep whose full results a timed pass keeps for the check.
        self.sample = self.check_rng.randrange(2)

    def setup(self) -> None:
        import dataclasses

        from repro.experiments.batch import BatchRunner
        from repro.experiments.fleet import lockstep_scenario
        from repro.sim.batch import BatchedSimulation

        self.runner = BatchRunner(jobs=1)
        self._runner_class = BatchRunner
        base = {
            name: lockstep_scenario(name, duration=self.duration)
            for name in LTE_SCENARIOS
        }

        def make(position: int, fps: Optional[float]):
            config = dataclasses.replace(
                base[LTE_SCENARIOS[position % len(LTE_SCENARIOS)]],
                seed=self.rng.randrange(1, 2**31),
            )
            if fps is not None:
                config = dataclasses.replace(
                    config, video=dataclasses.replace(config.video, fps=fps)
                )
            return config

        self.sweeps = []
        for _ in range(self.max_sweeps):
            tagged = [("main", make(i, None)) for i in range(self.main)]
            tagged += [("fps20", make(i, 20.0)) for i in range(self.small[0])]
            tagged += [("fps50", make(i + self.small[0], 50.0))
                       for i in range(self.small[1])]
            self.rng.shuffle(tagged)
            self.sweeps.append(tagged)
        first = [config for tag, config in self.sweeps[0] if tag == "main"]
        BatchedSimulation(first[: self.runner.max_cohort])

    def run(self, deadline, count, metered) -> Measurement:
        limit = len(self.sweeps) if count is None else min(count, len(self.sweeps))
        ops: List[Op] = []
        measurement = Measurement(ops, 0.0)
        clock = ReferenceClock(deadline is not None)
        start = time.perf_counter()
        for index in range(limit):
            configs = [config for _, config in self.sweeps[index]]
            t0 = time.perf_counter()
            try:
                if metered:
                    results, meter = self.runner.run_metered(configs, warmup=self.warmup)
                    add_counters(measurement.counters, meter.metrics.counters)
                else:
                    results = self.runner.run(configs, warmup=self.warmup)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                ops.append(Op("sweep", time.perf_counter() - t0, 0.0, False,
                              error=repr(error)))
            else:
                keep = count is not None or index == self.sample
                ops.append(Op("sweep", time.perf_counter() - t0,
                              len(configs) * (self.duration + self.warmup), True,
                              (index, [r.summary for r in results],
                               results if keep else None)))
            ops[-1].ref_s = clock.step()
            if deadline is not None and time.perf_counter() >= deadline:
                break
        measurement.window_s = time.perf_counter() - start
        return measurement

    def check(self, measurement):
        results = []
        done = [op.output for op in measurement.ops if op.ok]
        for index, summaries, _ in done:
            for position, summary in enumerate(summaries):
                problem = summary_problem(summary)
                if problem:
                    results.append((f"range[{index}:{position}]", False, problem))
                    break
        kept = [(index, full) for index, _, full in done if full is not None]
        if not kept:
            return results
        index, sweep_results = self.check_rng.choice(kept)
        tagged = self.sweeps[index]
        groups: Dict[str, List[int]] = {}
        for position, (tag, _) in enumerate(tagged):
            groups.setdefault(tag, []).append(position)
        crossover = self.runner.scalar_crossover
        subsets = [
            sorted(self.check_rng.sample(groups["main"], min(crossover, len(groups["main"])))),
            sorted(self.check_rng.sample(groups["fps20"], 2)),
        ]
        for subset in subsets:
            again = self._runner_class(jobs=1).run(
                [tagged[i][1] for i in subset], warmup=self.warmup
            )
            same = all(same_session(a, sweep_results[i]) for a, i in zip(again, subset))
            mode = "scalar" if len(subset) < crossover else "batched"
            results.append((f"subset[{index}:{mode}:{len(subset)}]", same,
                            "" if same else "subset cohort differs"))
        return results

    def same_outputs(self, a, b):
        if len(a.ops) != len(b.ops):
            return False
        for x, y in zip(a.ops, b.ops):
            if not (x.ok and y.ok):
                return False
            if not all(same_session(r, s) for r, s in zip(x.output[2], y.output[2])):
                return False
        return True


# ----------------------------------------------------------------------
# batched_cells
# ----------------------------------------------------------------------


def _same_cell(a, b) -> bool:
    return (
        a.jain == b.jain
        and a.member_bytes == b.member_bytes
        and a.member_mos == b.member_mos
        and all(same_session(x, y) for x, y in zip(a.results, b.results))
        and len(a.results) == len(b.results)
    )


class BatchedCells(Workload):
    """``fleet --batch`` capacity curves with a background crowd.

    Sweeps rotate through :data:`CELL_KINDS`; each is one kind.
    """

    name = "batched_cells"
    trace_count = len(CELL_KINDS)

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        if tiny:
            self.calls, self.cells, self.duration, self.warmup = [2, 4], 2, 1.0, 0.5
            self.max_sweeps = len(CELL_KINDS)
        else:
            self.calls, self.cells, self.duration, self.warmup = [2, 4, 8], 4, 2.0, 1.0
            self.max_sweeps = 60
        #: The sweep whose full results a timed pass keeps for the check.
        self.sample = self.check_rng.randrange(2)

    def setup(self) -> None:
        from repro.experiments.fleet import fleet_batch_tasks, fleet_sweep

        self._fleet_sweep = fleet_sweep
        self._fleet_batch_tasks = fleet_batch_tasks
        self.sweeps = [
            {
                "scenario_name": CELL_KINDS[index % len(CELL_KINDS)][0],
                "calls": list(self.calls),
                "cells": self.cells,
                "duration": self.duration,
                "warmup": self.warmup,
                "seed": self.rng.randrange(1, 2**20),
                "background_ues": 4,
                "background_load": CELL_KINDS[index % len(CELL_KINDS)][1],
            }
            for index in range(self.max_sweeps)
        ]
        fleet_batch_tasks(**self.sweeps[0])

    def run(self, deadline, count, metered) -> Measurement:
        limit = len(self.sweeps) if count is None else min(count, len(self.sweeps))
        ops: List[Op] = []
        measurement = Measurement(ops, 0.0)
        members = sum(self.calls) * self.cells
        clock = ReferenceClock(deadline is not None)
        start = time.perf_counter()
        for index in range(limit):
            key = index % len(CELL_KINDS)
            t0 = time.perf_counter()
            try:
                sweep = self._fleet_sweep(
                    jobs=1, meter=metered, batch=True, **self.sweeps[index]
                )
            except Exception as error:  # noqa: BLE001 - counted as a failure
                ops.append(Op("sweep", time.perf_counter() - t0, 0.0, False,
                              error=repr(error), key=key))
            else:
                keep = count is not None or index == self.sample
                cells = [(cell.jain, [r.summary for r in cell.results])
                         for group in sweep.cells for cell in group]
                ops.append(Op("sweep", time.perf_counter() - t0,
                              members * (self.duration + self.warmup), True,
                              (index, cells, sweep if keep else None), key=key))
                if metered:
                    add_counters(measurement.counters, sweep.meter.metrics.counters)
            ops[-1].ref_s = clock.step()
            if index + 1 >= len(CELL_KINDS) and deadline is not None \
                    and time.perf_counter() >= deadline:
                break
        measurement.window_s = time.perf_counter() - start
        return measurement

    def check(self, measurement):
        results = []
        done = [op.output for op in measurement.ops if op.ok]
        for index, cells, _ in done:
            for jain, summaries in cells:
                problems = [summary_problem(summary) for summary in summaries]
                if not 0.0 < jain <= 1.0 + 1e-9:
                    problems.append(f"jain={jain!r}")
                if any(problems):
                    results.append((f"range[{index}]", False,
                                    next(p for p in problems if p)))
                    break
        kept = [(index, sweep) for index, _, sweep in done if sweep is not None]
        if not kept:
            return results
        index, sweep = self.check_rng.choice(kept)
        point = self.check_rng.randrange(len(self.calls))
        tasks = self._fleet_batch_tasks(jobs=2, **self.sweeps[index])
        blocks = [task for task in tasks if task.ues == self.calls[point]]
        split = [cell for task in blocks for cell in task.run()]
        same = len(blocks) == 2 and len(split) == len(sweep.cells[point]) and all(
            _same_cell(a, b) for a, b in zip(split, sweep.cells[point])
        )
        results.append((f"split[{index}:{self.calls[point]}]", same,
                        "" if same else "two-block split differs"))
        return results

    def same_outputs(self, a, b):
        if len(a.ops) != len(b.ops):
            return False
        for x, y in zip(a.ops, b.ops):
            if not (x.ok and y.ok):
                return False
            for gx, gy in zip(x.output[2].cells, y.output[2].cells):
                if not all(_same_cell(c, d) for c, d in zip(gx, gy)):
                    return False
        return True


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------


class ServiceMix(Workload):
    """Two closed-loop clients against an in-process job server.

    Each client repeats a block: a fresh event ``fleet`` job submitted
    twice back to back (the second attaches to the active first), a
    fresh ``metrics --batch`` job, then three resubmissions of its own
    earlier specs (replays of completed jobs).  A client learns that a
    job finished from the registry's per-job event, an in-process long
    poll with no poll interval, and fetches the record over HTTP.

    The clients run their blocks in rounds: both start a block together,
    and the next round starts when both are done.  Between rounds the
    server is idle and the reference block is timed.  The fresh jobs'
    scenarios rotate through :data:`LTE_SCENARIOS` by client and block;
    the seed picks the sessions' seeds and which specs are replayed.
    """

    name = "service_mix"
    trace_count = 3
    profile_timer = staticmethod(time.thread_time)
    clients = 2
    replays_per_block = 3

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        # (duration, warmup) of the fleet and the metrics specs, sized so
        # the two kinds of fresh job cost about the same.
        if tiny:
            self.fleet_len, self.metrics_len, self.sessions = (1.0, 0.5), (1.0, 0.5), 2
            self.max_blocks = 1
        else:
            self.fleet_len, self.metrics_len, self.sessions = (4.0, 1.0), (1.5, 0.5), 12
            self.max_blocks = 100
        self.server = None

    def _fresh_spec(self, client: int, block: int, kind: str) -> dict:
        seed = 1 + (self.seed % 1000) * 1_000_000 + client * 100_000 + block * 2
        # Scenarios rotate with the block, so every seed gives each round
        # the same mix of work.
        turn = block * self.clients + client + (0 if kind == "fleet" else 4)
        scenario = LTE_SCENARIOS[turn % len(LTE_SCENARIOS)]
        if kind == "fleet":
            return {"kind": "fleet", "scenario": scenario, "calls": [2],
                    "cells": 1, "duration": self.fleet_len[0],
                    "warmup": self.fleet_len[1], "seed": seed}
        return {"kind": "metrics", "scenario": scenario, "batch": True,
                "sessions": self.sessions, "duration": self.metrics_len[0],
                "warmup": self.metrics_len[1], "seed": seed + 1}

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.jobs import execute_job

        self._client_class = ServiceClient
        self._execute_job = execute_job
        self.blocks: List[List[dict]] = []
        for client in range(self.clients):
            blocks = []
            for block in range(self.max_blocks):
                fresh = [self._fresh_spec(client, block, "fleet"),
                         self._fresh_spec(client, block, "metrics")]
                replays = [self.rng.randrange(2 * (block + 1))
                           for _ in range(self.replays_per_block)]
                blocks.append({"fresh": fresh, "replays": replays})
            self.blocks.append(blocks)
        self.boot()

    def boot(self) -> None:
        """Start a server over fresh run-root and cache directories."""
        from repro.experiments import cache
        from repro.service.jobs import JobRegistry
        from repro.service.server import ServiceServer

        root, cache_dir = self.scratch.fresh("runs"), self.scratch.fresh("cache")
        cache.set_cache_dir(cache_dir)
        self.registry = JobRegistry(root, workers=2, jobs=1, recover=True)
        self.server = ServiceServer(self.registry).start()
        self._client_class(self.server.url).healthz()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def _submit(self, client, spec: dict) -> Tuple[dict, float]:
        """Submit, wait for a terminal state, fetch the record."""
        t0 = time.perf_counter()
        record = client.submit(spec)
        if record["state"] not in ("done", "failed", "cancelled"):
            self.registry.wait(record["id"], timeout=120.0)
        final = client.job(record["id"])
        return final, time.perf_counter() - t0

    def _client_block(self, client, history: List[dict], block: dict,
                      local: List[Op]) -> None:
        """Run one client block, appending its operations to ``local``."""
        for position, spec in enumerate(block["fresh"]):
            sessions = (sum(spec["calls"]) * spec["cells"]
                        if spec["kind"] == "fleet" else spec["sessions"])
            sim = sessions * (spec["duration"] + spec["warmup"])
            try:
                t0 = time.perf_counter()
                record = client.submit(spec)
                if position == 0:
                    t1 = time.perf_counter()
                    twin = client.submit(spec)
                    local.append(Op("dedup", time.perf_counter() - t1, 0.0,
                                    twin["id"] == record["id"],
                                    (record["id"], twin["id"])))
                self.registry.wait(record["id"], timeout=120.0)
                final = client.job(record["id"])
                wall = time.perf_counter() - t0
            except Exception as error:  # noqa: BLE001 - counted as a failure
                local.append(Op("fresh", 0.0, 0.0, False, error=repr(error),
                                key=spec["kind"]))
                continue
            ok = final["state"] == "done" and not final["cache_hit"]
            local.append(Op("fresh", wall, sim, ok, (spec, final.get("result")),
                            "" if ok else f"state {final['state']}", key=spec["kind"]))
            history.append(spec)
        for choice in block["replays"] if history else ():
            spec = history[choice % len(history)]
            try:
                final, wall = self._submit(client, spec)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                local.append(Op("replay", 0.0, 0.0, False, error=repr(error)))
                continue
            ok = final["state"] == "done" and final["cache_hit"]
            local.append(Op("replay", wall, 0.0, ok, (spec, final.get("result"))))

    def run(self, deadline, count, metered) -> Measurement:
        from repro.experiments import cache

        if self.server is None:
            self.boot()
        measurement = Measurement([], 0.0)
        lock = threading.Lock()
        lookups = measurement.cache_lookups
        load_payload = cache.load_payload

        def counted_load(key):
            payload = load_payload(key)
            with lock:
                lookups[0 if payload is not None else 1] += 1
            return payload

        if metered:
            # Count payload-cache hits and misses where the registry
            # looks them up.
            cache.load_payload = counted_load
        clients = [self._client_class(self.server.url, timeout=60.0)
                   for _ in range(self.clients)]
        histories: List[List[dict]] = [[] for _ in range(self.clients)]
        limit = self.max_blocks if count is None else min(count, self.max_blocks)
        clock = ReferenceClock(deadline is not None)
        start = time.perf_counter()
        try:
            for round_index in range(limit):
                locals_: List[List[Op]] = [[] for _ in range(self.clients)]
                threads = [
                    threading.Thread(
                        target=self._client_block,
                        args=(clients[i], histories[i],
                              self.blocks[i][round_index], locals_[i]),
                        name=f"perfbench-client-{i}")
                    for i in range(self.clients)
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - t0
                ref = clock.step()
                done = [op for ops in locals_ for op in ops
                        if op.ok and op.kind != "dedup"]
                for ops in locals_:
                    for op in ops:
                        op.ref_s = ref
                    measurement.ops.extend(ops)
                measurement.rounds.append(
                    (wall, sum(op.sim_s for op in done), len(done), ref))
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        finally:
            cache.load_payload = load_payload
        measurement.window_s = time.perf_counter() - start
        if metered:
            for op in measurement.ops:
                if op.ok and op.kind == "fresh" and op.output[1]:
                    add_counters(measurement.counters,
                                 op.output[1]["registry"]["counters"])
            service = self.registry.service_meter()
            add_counters(measurement.counters, service.metrics.counters)
            waits = service.metrics.histogram("service.queue_wait_s")
            if waits is not None and waits.count:
                measurement.queue_wait_s = waits.sum / waits.count
        self.close()
        return measurement

    def primary(self, measurement):
        return [op for op in measurement.ops if op.ok and op.kind == "fresh"]

    def end_to_end(self, measurement):
        """Rates over rounds; job cost per job kind.

        The two fresh job kinds (``fleet`` and ``metrics``) are the
        kinds of :meth:`Workload.end_to_end`, so ``op_cost_ref`` is the
        median over the two of the mean fresh-job latency in reference
        blocks.  The rates are fresh session-seconds (``ops_per_s``: jobs
        done, replays included) over the rounds' summed wall time, in
        reference blocks for ``sim_rate_ref`` and in seconds otherwise.
        """
        values = super().end_to_end(measurement)
        rounds = measurement.rounds
        walls = [r[0] for r in rounds]
        sim = sum(r[1] for r in rounds)
        values["sim_rate_ref"] = (sim / ref_cost(walls, [r[3] for r in rounds])
                                  / len(rounds), len(rounds))
        values["sim_rate_wall"] = (sim / sum(walls), len(rounds))
        values["ops_per_s"] = (sum(r[2] for r in rounds) / sum(walls), len(rounds))
        return values

    def replay_latency_ms(self, measurement) -> List[float]:
        return [op.wall_s * 1e3 for op in measurement.ops
                if op.ok and op.kind in ("replay", "dedup")]

    def check(self, measurement):
        results = []
        fresh = {}
        for op in measurement.ops:
            if op.ok and op.kind == "fresh":
                fresh[json.dumps(op.output[0], sort_keys=True)] = op.output[1]
        for op in measurement.ops:
            if op.ok and op.kind == "replay":
                spec, result = op.output
                original = fresh.get(json.dumps(spec, sort_keys=True))
                same = original is not None and json.dumps(
                    result["payload"]) == json.dumps(original["payload"])
                if not same:
                    results.append(("replay", False, "replay payload differs"))
        if fresh:
            key = self.check_rng.choice(sorted(fresh))
            served = fresh[key]
            outcome = self._execute_job(json.loads(key), jobs=1)
            same = json.dumps(outcome.payload) == json.dumps(served["payload"]) and (
                json.dumps(outcome.registry) == json.dumps(served["registry"])
            )
            results.append(("served==execute_job", same,
                            "" if same else "served payload differs"))
        return results

    def same_outputs(self, a, b):
        def payloads(m):
            return sorted(
                json.dumps([op.output[0], op.output[1]["payload"]], sort_keys=True)
                for op in m.ops if op.ok and op.kind == "fresh"
            )
        return payloads(a) == payloads(b)


WORKLOADS = {
    cls.name: cls for cls in (PaperGrid, BatchedCohort, BatchedCells, ServiceMix)
}
