"""Job specs, the shared execution path, and the thread-pool registry.

A **job** is one CLI-equivalent invocation expressed as a JSON spec::

    {"kind": "fleet", "calls": [1, 2], "duration": 8.0, ...}

:func:`normalise_spec` merges the same defaults the CLI parsers apply
and validates the same constraints (scheme/transport/scenario choices,
FBCC needs LTE, ``--rotate-profiles`` vs ``--batch``), so a spec and
its CLI flag spelling are interchangeable.  :func:`job_key` hashes the
canonical spec through :func:`repro.experiments.cache.payload_key` —
two submissions of the same work share one key, and the key lives
under the cache's code-salt directory, so a simulator change
invalidates every remembered result automatically.

:func:`execute_job` is the **single execution path**: ``repro360
metrics``/``fleet``/``perf`` call it directly, and the service's worker
threads call the very same function — which is why a job submitted over
HTTP produces byte-identical registries and summaries to the same
invocation typed at a terminal.  It never prints, never exits; it
returns a :class:`JobOutcome` and raises on failure.

:class:`JobRegistry` is the queue: submissions dedup against queued and
running jobs by key, completed payloads persist through the
content-addressed cache (so identical resubmissions — even across a
server restart — complete instantly with ``cache_hit=true``), every
executed job runs under a :class:`repro.obs.ledger.RunLedger` in the
registry's run root, and cancellation propagates into the sweep between
tasks via the ``run_tasks`` cancel probe.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.config import SCHEMES, TRANSPORTS, FleetConfig
from repro.experiments import cache
from repro.experiments.parallel import RunCancelled, resolve_jobs
from repro.obs.ledger import (
    RunLedger,
    gc_runs,
    list_runs,
    new_run_id,
    read_manifest,
)
from repro.obs.meter import SessionMeter
from repro.traces.scenarios import SCENARIOS

#: Job kinds the service runs — one per CLI experiment subcommand.
JOB_KINDS = ("metrics", "fleet", "perf")

#: Name of the job's result artifact inside its run directory: the
#: JSON payload (CLI-equivalent output + deterministic registry) that a
#: recovered or cache-hit job serves without re-running anything.
RESULT_NAME = "result.json"

#: Per-kind spec defaults — mirrors of the CLI parser defaults in
#: :func:`repro.cli.build_parser`, asserted against them by the test
#: suite so the two can never drift.
SPEC_DEFAULTS: Dict[str, dict] = {
    "metrics": {
        "scenario": "cellular",
        "duration": 30.0,
        "warmup": 0.0,
        "seed": 1,
        "scheme": "poi360",
        "transport": "fbcc",
        "profile": "user2-typical",
        "sessions": 1,
        "batch": False,
    },
    "fleet": {
        "scenario": "cellular",
        "scheme": "poi360",
        "transport": "fbcc",
        "duration": 30.0,
        "warmup": 5.0,
        "seed": 1,
        "calls": [1, 2, 4, 8],
        "cells": 1,
        "prb_budget": 50,
        "background_ues": 0,
        "background_load": 0.2,
        "rotate_profiles": False,
        "batch": False,
    },
    "perf": {
        "duration": 30.0,
        "warmup": 10.0,
        "batch": False,
        "fleet_batch": False,
    },
}

#: Spec fields checked and coerced to these types during normalisation:
#: floats must be finite and >= 0, ints integral, bools real JSON
#: booleans (everything else keeps the default's type).
_FLOAT_FIELDS = ("duration", "warmup", "background_load")
_INT_FIELDS = ("seed", "sessions", "cells", "prb_budget", "background_ues")
_BOOL_FIELDS = ("batch", "rotate_profiles", "fleet_batch")


class JobCancelled(RunCancelled):
    """A job was cancelled before or during execution."""


class JobOutcome:
    """What one executed job produced.

    ``payload`` is the JSON-safe, CLI-equivalent result (the ``fleet
    --json`` document, the ``metrics`` sweep header fields, the perf
    record); ``registry`` is the deterministic counters+histograms
    registry (``fleet --metrics-output`` byte-for-byte) when the kind
    has one; ``meter`` is the full fleet meter for rendering (spans and
    gauges included — wall-clock, not deterministic).
    """

    __slots__ = ("payload", "registry", "meter")

    def __init__(self, payload: dict, registry: Optional[dict] = None, meter=None):
        self.payload = payload
        self.registry = registry
        self.meter = meter


def _number(field: str, value):
    """``value`` if it is a JSON number (not a bool); else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return value


def normalise_spec(spec: dict) -> dict:
    """Validate a job spec and merge the CLI defaults; raises ValueError.

    Returns a canonical dict (sorted keys, coerced value types) so that
    :func:`job_key` hashes spelling-independent content: ``{"duration":
    8}`` and ``{"duration": 8.0}`` are the same job.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}")
    defaults = SPEC_DEFAULTS[kind]
    unknown = sorted(set(spec) - set(defaults) - {"kind"})
    if unknown:
        raise ValueError(
            f"unknown {kind} spec field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(defaults))}"
        )
    merged = dict(defaults)
    merged.update({key: value for key, value in spec.items() if key != "kind"})
    for field in _FLOAT_FIELDS:
        if field in merged:
            value = float(_number(field, merged[field]))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{field} must be finite and >= 0, got {value!r}")
            merged[field] = value
    for field in _INT_FIELDS:
        if field in merged:
            value = _number(field, merged[field])
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{field} must be an integer, got {value!r}")
            merged[field] = int(value)
    for field in _BOOL_FIELDS:
        if field in merged and not isinstance(merged[field], bool):
            raise ValueError(f"{field} must be true or false, got {merged[field]!r}")

    if "scenario" in merged and merged["scenario"] not in SCENARIOS:
        raise ValueError(f"unknown scenario {merged['scenario']!r}")
    if "scheme" in merged and merged["scheme"] not in SCHEMES:
        raise ValueError(f"unknown scheme {merged['scheme']!r}")
    if "transport" in merged and merged["transport"] not in TRANSPORTS:
        raise ValueError(f"unknown transport {merged['transport']!r}")
    if (
        merged.get("transport") == "fbcc"
        and merged.get("scenario") == "wireline"
    ):
        raise ValueError("FBCC needs the LTE diagnostic interface")
    if kind == "metrics" and merged["sessions"] < 1:
        raise ValueError("sessions must be >= 1")
    if kind == "fleet":
        if isinstance(merged["calls"], str):
            try:
                merged["calls"] = [
                    int(v) for v in merged["calls"].split(",") if v.strip()
                ]
            except ValueError:
                raise ValueError(
                    f"calls must be integers, got {merged['calls']!r}"
                ) from None
        elif isinstance(merged["calls"], int):
            merged["calls"] = [merged["calls"]]
        try:
            merged["calls"] = [int(v) for v in merged["calls"]]
        except (TypeError, ValueError):
            raise ValueError(
                f"calls must be a list of integers, got {merged['calls']!r}"
            ) from None
        if not merged["calls"] or any(v < 1 for v in merged["calls"]):
            raise ValueError("calls values must be >= 1")
        if merged["cells"] < 1:
            raise ValueError("cells must be >= 1")
        # The cell bounds live on FleetConfig; its error names the field.
        FleetConfig(
            prb_budget=merged["prb_budget"],
            background_ues=merged["background_ues"],
            background_load=merged["background_load"],
        )
        if merged["batch"] and merged["rotate_profiles"]:
            raise ValueError(
                "rotate_profiles requires the event engine (drop it or "
                "drop batch)"
            )
    canonical = {"kind": kind}
    canonical.update(sorted(merged.items()))
    return canonical


def job_key(spec: dict) -> str:
    """Content-addressed key of a (normalised) job spec."""
    return cache.payload_key(normalise_spec(spec))


def _guard(progress, cancel):
    """Chain a cancel probe into a ``(done, total, result)`` callback."""
    if cancel is None:
        return progress

    def _wrapped(done: int, total: int, result) -> None:
        if cancel():
            raise JobCancelled(f"cancelled after {done}/{total} tasks")
        if progress is not None:
            progress(done, total, result)

    return _wrapped


def _cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    """This job's share of the process-cumulative cache counters.

    A fresh CLI process sees its own counters directly; a long-lived
    server must difference them per job or every job after the first
    would re-report its predecessors' hits.  In a fresh process the
    delta equals the cumulative value, so the CLI path is unchanged.
    """
    after = cache.counters()
    return {name: after[name] - before.get(name, 0) for name in after}


def execute_job(
    spec: dict,
    jobs: Optional[int] = None,
    ledger: Optional[RunLedger] = None,
    progress: Optional[Callable[[int, int, object], None]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> JobOutcome:
    """Run one normalised job spec — the CLI's and the server's shared path.

    ``jobs`` is the worker-process count (the CLI's ``--jobs``), not
    part of the spec: it changes wall-clock, never results, so the same
    key may legitimately run with different pool sizes.  ``ledger``
    streams run telemetry; ``progress``/``cancel`` have ``run_tasks``
    semantics, with cancellation surfacing as :class:`JobCancelled`.
    """
    spec = normalise_spec(spec)
    kind = spec["kind"]
    workers = resolve_jobs(jobs)
    cache_before = cache.counters()

    try:
        if kind == "metrics":
            outcome = _execute_metrics(
                spec, jobs, workers, ledger, progress, cancel, cache_before
            )
        elif kind == "fleet":
            outcome = _execute_fleet(spec, jobs, workers, ledger, progress, cancel)
        else:
            outcome = _execute_perf(spec, jobs, ledger, progress, cancel)
    except JobCancelled:
        raise
    except RunCancelled as error:
        raise JobCancelled(str(error)) from error
    return outcome


def _execute_metrics(
    spec, jobs, workers, ledger, progress, cancel, cache_before
) -> JobOutcome:
    from repro.experiments.fleet import deterministic_registry_dict
    from repro.experiments.parallel import SessionTask, merged_meter, run_tasks

    guarded = _guard(progress, cancel)
    if spec["batch"]:
        from repro.experiments.batch import BatchRunner
        from repro.experiments.fleet import lockstep_scenario

        configs = [
            lockstep_scenario(
                spec["scenario"],
                scheme=spec["scheme"],
                transport=spec["transport"],
                duration=spec["duration"],
                seed=spec["seed"] + index,
            )
            for index in range(spec["sessions"])
        ]
        runner = BatchRunner(jobs=jobs)
        effective = guarded
        heartbeat = None
        if ledger is not None:
            effective = ledger.progress(
                kind="session", workers=workers, inner=guarded
            )
            heartbeat = str(ledger.heartbeat_path)
        results, engine = runner.run_metered(
            configs,
            warmup=spec["warmup"],
            progress=effective,
            heartbeat_path=heartbeat,
        )
        fleet = merged_meter(
            results, workers=workers, cache_counters=_cache_delta(cache_before)
        )
        fleet.merge(engine)
        # Batched sessions carry no per-session meters (the engine
        # meter is cohort-level), so count them here instead.
        fleet.inc("fleet.sessions", float(len(results)))
    else:
        tasks = [
            SessionTask(
                scenario_name=spec["scenario"],
                scheme=spec["scheme"],
                transport=spec["transport"],
                duration=spec["duration"],
                warmup=spec["warmup"],
                seed=spec["seed"] + index,
                profile_name=spec["profile"],
                meter=True,
            )
            for index in range(spec["sessions"])
        ]
        effective = guarded
        if ledger is not None:
            effective = ledger.progress(
                kind="session", workers=workers, inner=guarded
            )
        results = run_tasks(tasks, jobs=jobs, progress=effective, cancel=cancel)
        fleet = merged_meter(
            results, workers=workers, cache_counters=_cache_delta(cache_before)
        )
    payload = {
        "kind": "metrics",
        "scenario": spec["scenario"],
        "scheme": spec["scheme"],
        "transport": spec["transport"],
        "sessions": spec["sessions"],
        "workers": workers,
        "registry": deterministic_registry_dict(fleet),
    }
    return JobOutcome(payload, registry=payload["registry"], meter=fleet)


def _execute_fleet(spec, jobs, workers, ledger, progress, cancel) -> JobOutcome:
    from repro.experiments.fleet import deterministic_registry_dict, fleet_sweep

    guarded = _guard(progress, cancel)
    effective = guarded
    heartbeat = None
    if ledger is not None:
        effective = ledger.progress(kind="cell", workers=workers, inner=guarded)
        if spec["batch"]:
            heartbeat = str(ledger.heartbeat_path)
    sweep = fleet_sweep(
        spec["scenario"],
        calls=spec["calls"],
        cells=spec["cells"],
        scheme=spec["scheme"],
        transport=spec["transport"],
        duration=spec["duration"],
        warmup=spec["warmup"],
        seed=spec["seed"],
        background_ues=spec["background_ues"],
        background_load=spec["background_load"],
        prb_budget=spec["prb_budget"],
        rotate_profiles=spec["rotate_profiles"],
        jobs=jobs,
        meter=True,
        batch=spec["batch"],
        progress=effective,
        heartbeat_path=heartbeat,
    )
    # The exact document ``repro360 fleet --json`` prints — key order
    # included, so a byte diff against the CLI passes by construction.
    payload = {
        "scenario": spec["scenario"],
        "scheme": spec["scheme"],
        "transport": spec["transport"],
        "cells": spec["cells"],
        "points": [point.to_dict() for point in sweep.points],
        "cell_jains": [
            [round(cell.jain, 6) for cell in group] for group in sweep.cells
        ],
    }
    registry = deterministic_registry_dict(sweep.meter)
    return JobOutcome(payload, registry=registry, meter=sweep.meter)


def _execute_perf(spec, jobs, ledger, progress, cancel) -> JobOutcome:
    from repro.experiments.perf import run_perf_bench

    if cancel is not None and cancel():
        raise JobCancelled("cancelled before the first leg")
    record = run_perf_bench(
        duration=spec["duration"],
        warmup=spec["warmup"],
        jobs=jobs if jobs is not None else 4,
        output=None,
        batch=spec["batch"],
        fleet_batch=spec["fleet_batch"],
        ledger=ledger,
    )
    return JobOutcome(record)


# ----------------------------------------------------------------------
# The job registry (queue + worker threads + telemetry)
# ----------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a submission can still dedup against / a cancel can still hit.
ACTIVE_STATES = (QUEUED, RUNNING)


class Job:
    """One job record (mutable; guarded by the registry lock)."""

    def __init__(self, job_id: str, spec: dict, key: str):
        self.id = job_id
        self.spec = spec
        self.kind = spec["kind"]
        self.key = key
        self.state = QUEUED
        self.cache_hit = False
        self.submitted_wall = time.time()
        self.started_wall: Optional[float] = None
        self.ended_wall: Optional[float] = None
        self.done = 0
        self.total: Optional[int] = None
        self.run_dir: Optional[str] = None
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.cancel_event = threading.Event()
        self.finished = threading.Event()
        self.ledger: Optional[RunLedger] = None
        self._registry_meter: Optional[SessionMeter] = None

    def eta_s(self) -> Optional[float]:
        if (
            self.state != RUNNING
            or self.started_wall is None
            or not self.total
            or self.done <= 0
        ):
            return None
        elapsed = time.time() - self.started_wall
        return elapsed * (self.total - self.done) / self.done

    def to_dict(self, include_result: bool = False) -> dict:
        row = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "spec": self.spec,
            "submitted_wall": round(self.submitted_wall, 3),
            "started_wall": (
                None if self.started_wall is None else round(self.started_wall, 3)
            ),
            "ended_wall": (
                None if self.ended_wall is None else round(self.ended_wall, 3)
            ),
            "done": self.done,
            "total": self.total,
            "run_dir": self.run_dir,
            "error": self.error,
        }
        eta = self.eta_s()
        row["eta_s"] = None if eta is None else round(eta, 3)
        if include_result:
            row["result"] = self.result
        return row


class JobRegistry:
    """The service's job queue: worker threads over :func:`execute_job`.

    ``root`` is the run root every job's ledger lives under; ``workers``
    is the number of concurrent jobs (each job may additionally fan its
    tasks across ``jobs`` worker *processes* — threads queue jobs,
    processes run sessions).  All public methods are thread-safe.
    """

    def __init__(
        self,
        root,
        workers: int = 2,
        jobs: Optional[int] = None,
        recover: bool = True,
    ):
        self.root = Path(root)
        self.jobs = jobs
        self._t0 = time.time()
        self._lock = threading.RLock()
        self._meter = SessionMeter()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._ids = itertools.count(1)
        self._queue: List[str] = []
        self._available = threading.Condition(self._lock)
        self._closed = False
        if recover:
            self._recover()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-job-worker-{index}", daemon=True
            )
            for index in range(max(1, int(workers)))
        ]
        for thread in self._workers:
            thread.start()

    # ---------------------------------------------------------- submit

    def submit(self, spec: dict) -> Job:
        """Queue a job (or attach to / replay an identical one).

        Dedup ladder, all under one lock:

        1. an **active** job (queued/running) with the same key — the
           submission attaches to it (``service.jobs_deduped``);
        2. a **completed** job with the same key, in memory or persisted
           in the payload cache — a new job record completes instantly
           with ``cache_hit=true`` (``service.jobs_cache_hits``);
        3. otherwise a fresh job enters the queue.
        """
        spec = normalise_spec(spec)
        key = cache.payload_key(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("registry is closed")
            for job_id in reversed(self._order):
                other = self._jobs[job_id]
                if other.key == key and other.state in ACTIVE_STATES:
                    self._meter.inc("service.jobs_deduped")
                    return other
            replay: Optional[dict] = None
            for job_id in reversed(self._order):
                other = self._jobs[job_id]
                if other.key == key and other.state == DONE and other.result:
                    replay = other.result
                    break
            if replay is None:
                replay = cache.load_payload(key)
            job = Job(self._new_id(), spec, key)
            self._meter.inc("service.jobs_submitted")
            if replay is not None:
                job.state = DONE
                job.cache_hit = True
                job.result = replay
                job.run_dir = replay.get("run_dir")
                job.started_wall = job.ended_wall = job.submitted_wall
                job.total = job.done = 0
                job.finished.set()
                self._meter.inc("service.jobs_cache_hits")
                self._register(job)
                return job
            self._register(job)
            self._queue.append(job.id)
            self._available.notify()
            return job

    def _new_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)

    # ----------------------------------------------------------- query

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still active."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state not in ACTIVE_STATES:
                return False
            job.cancel_event.set()
            if job.state == QUEUED:
                # The worker will observe the event when it dequeues the
                # job and seal it as cancelled without running anything.
                self._available.notify_all()
            return True

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a job reaches a terminal state (tests, clients)."""
        job = self.get(job_id)
        if job is None:
            return None
        job.finished.wait(timeout)
        return job

    # ---------------------------------------------------------- workers

    def _worker(self) -> None:
        while True:
            with self._available:
                while not self._queue and not self._closed:
                    self._available.wait()
                if self._closed and not self._queue:
                    return
                job = self._jobs[self._queue.pop(0)]
                wait_s = max(0.0, time.time() - job.submitted_wall)
                self._meter.observe("service.queue_wait_s", wait_s)
                if job.cancel_event.is_set():
                    job.state = CANCELLED
                    job.ended_wall = time.time()
                    self._meter.inc("service.jobs_cancelled")
                    job.finished.set()
                    continue
                job.state = RUNNING
                job.started_wall = time.time()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        ledger = RunLedger.open(
            job.kind,
            config={
                "spec": job.spec,
                "service": {"job": job.id, "key": job.key},
            },
            root=self.root,
            run_id=f"{new_run_id(job.kind)}-{job.id}",
        )
        with self._lock:
            job.ledger = ledger
            job.run_dir = str(ledger.run_dir)

        def _progress(done: int, total: int, _result) -> None:
            with self._lock:
                job.done = done
                job.total = total

        def _cancelled() -> bool:
            return job.cancel_event.is_set()

        # _LockedLedger serialises live-meter mutation (absorb from this
        # thread) with /metrics scrapes through the registry lock, so a
        # scrape never iterates a dict the sweep is resizing.
        try:
            outcome = execute_job(
                job.spec,
                jobs=self.jobs,
                ledger=_LockedLedger(ledger, self._lock),
                progress=_progress,
                cancel=_cancelled,
            )
        except JobCancelled as error:
            ledger.finish("cancelled", error=str(error))
            with self._lock:
                job.state = CANCELLED
                job.error = str(error)
                job.ended_wall = time.time()
                self._meter.inc("service.jobs_cancelled")
                job.finished.set()
            return
        except Exception as error:  # noqa: BLE001 - jobs must not kill workers
            if not ledger.finished:
                ledger.finish("error", error=repr(error))
            with self._lock:
                job.state = FAILED
                job.error = repr(error)
                job.ended_wall = time.time()
                self._meter.inc("service.jobs_failed")
                job.finished.set()
            return

        result = {
            "payload": outcome.payload,
            "registry": outcome.registry,
            "run_dir": str(ledger.run_dir),
        }
        (ledger.run_dir / RESULT_NAME).write_text(
            json.dumps(result, indent=1) + "\n"
        )
        ledger.write_cache_stats(cache.stats())
        ledger.finish("ok", meter=outcome.meter)
        cache.store_payload(job.key, result)
        with self._lock:
            job.state = DONE
            job.result = result
            job.ended_wall = time.time()
            self._meter.inc("service.jobs_completed")
            job.finished.set()

    # --------------------------------------------------------- recovery

    def _recover(self) -> None:
        """Re-register jobs from sealed run directories after a restart.

        Any run whose manifest config carries the ``service`` stamp was
        one of ours; its terminal status maps back onto a job state, and
        a ``result.json`` artifact restores the payload, so ``GET
        /jobs`` shows history and resubmissions replay instantly even
        when the payload cache was cleared.
        """
        highest = 0
        for info in list_runs(self.root):
            try:
                manifest = read_manifest(info.run_dir)
            except (OSError, json.JSONDecodeError):
                continue
            config = manifest.get("config") or {}
            stamp = config.get("service")
            if not isinstance(stamp, dict) or "job" not in stamp:
                continue
            spec = config.get("spec")
            try:
                spec = normalise_spec(spec)
            except ValueError:
                continue
            job = Job(str(stamp["job"]), spec, str(stamp.get("key", "")))
            try:
                highest = max(highest, int(job.id.rsplit("-", 1)[-1]))
            except ValueError:
                pass
            job.state = {
                "ok": DONE,
                "cancelled": CANCELLED,
                "error": FAILED,
            }.get(manifest.get("status"), FAILED)
            job.run_dir = str(info.run_dir)
            job.submitted_wall = float(manifest.get("started_wall", 0.0))
            job.started_wall = job.submitted_wall
            job.ended_wall = manifest.get("ended_wall")
            job.error = manifest.get("error")
            result_path = info.run_dir / RESULT_NAME
            if job.state == DONE and result_path.exists():
                try:
                    job.result = json.loads(result_path.read_text())
                except (OSError, ValueError):
                    job.result = None
            job.finished.set()
            if job.id not in self._jobs:
                self._register(job)
        self._ids = itertools.count(highest + 1)

    # -------------------------------------------------------- telemetry

    def count_request(self) -> None:
        """Meter one served HTTP request (called by the handler)."""
        with self._lock:
            self._meter.inc("service.requests")

    def service_meter(self) -> SessionMeter:
        """The service's own counters/histograms plus queue gauges."""
        meter = SessionMeter()
        with self._lock:
            meter.merge(self._meter)
            queued = sum(1 for j in self._jobs.values() if j.state == QUEUED)
            running = sum(1 for j in self._jobs.values() if j.state == RUNNING)
        meter.set_gauge("service.jobs_queued", float(queued))
        meter.set_gauge("service.jobs_running", float(running))
        meter.set_gauge("service.uptime_s", time.time() - self._t0)
        return meter

    def service_registry(self) -> SessionMeter:
        """The ``/metrics`` registry: service meter + every job's registry.

        Running jobs contribute their ledger's live registry (growing
        while the sweep runs); completed jobs contribute their sealed
        ``registry.json``, loaded lazily once and cached on the record.
        """
        meter = self.service_meter()
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
            for job in jobs:
                if job.state == RUNNING and job.ledger is not None:
                    meter.merge(job.ledger.live)
        for job in jobs:
            if job.state != DONE or job.cache_hit or job.run_dir is None:
                continue
            if job._registry_meter is None:
                from repro.obs.ledger import load_registry

                try:
                    job._registry_meter = load_registry(job.run_dir)
                except (OSError, ValueError, json.JSONDecodeError):
                    continue
            meter.merge(job._registry_meter)
        return meter

    # --------------------------------------------------------------- gc

    def gc(self, keep_days: float, dry_run: bool = False) -> List[str]:
        """Prune sealed run dirs older than ``keep_days`` (see gc_runs)."""
        removed, _kept = gc_runs(self.root, keep_days=keep_days, dry_run=dry_run)
        if removed and not dry_run:
            with self._lock:
                self._meter.inc("service.runs_gc_removed", float(len(removed)))
        return [str(info.run_dir) for info in removed]

    # ------------------------------------------------------------ close

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join idle workers (running jobs finish)."""
        with self._lock:
            self._closed = True
            self._available.notify_all()
        for thread in self._workers:
            thread.join(timeout)


class _LockedLedger:
    """A ledger proxy serialising live-meter mutation with scrapes.

    Only the methods the execution path touches are proxied; ``progress``
    wraps the real callback so ``absorb``/``heartbeat``/``snapshot`` run
    under the registry lock, and attribute access falls through for
    everything else (``heartbeat_path``, ``run_dir``, ``live``...).
    """

    def __init__(self, ledger: RunLedger, lock: threading.RLock):
        self._ledger = ledger
        self._lock = lock

    def progress(self, kind: str = "session", workers: int = 1, inner=None):
        real = self._ledger.progress(kind=kind, workers=workers, inner=inner)

        def _locked(done: int, total: int, result) -> None:
            with self._lock:
                real(done, total, result)

        return _locked

    def __getattr__(self, name):
        return getattr(self._ledger, name)
