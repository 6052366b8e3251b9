"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs a fixed amount of work twice, first plain and then
metered under a per-thread profiler, and reports per-layer metrics.
Both print a table with every metric, its unit and its sample count, a
``record:`` line holding the full record (environment fingerprint and
code identity included), and, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record FILE`` also writes the record to a file for
``perfbench/compare.py``.

Every run works in a fresh scratch directory under ``.perfbench_tmp/``
(result cache and run root included) and deletes it when done.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is measured this many times, each in a fresh process.
SETUP_PROBES = 5

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_rate_ref", "session-s/ref"),
    ("op_cost_ref", "ref"),
)

#: Printed with the end-to-end metrics but not gated, with their units.
EXTRA_UNITS = {
    "sim_rate_wall": "session-s/s",
    "op_latency_s_p50": "s",
    "op_latency_s_p90": "s",
    "ops_per_s": "1/s",
    "ref_block_ms": "ms",
    "failed_fraction": "ratio",
    "replay_latency_ms_p50": "ms",
    "replay_latency_ms_p90": "ms",
}

#: The name each generic metric carries on each workload (table only).
ALIASES = {
    "paper_grid": {"sim_rate_ref": "event_sim_rate",
                   "op_cost_ref": "event_session_cost",
                   "sim_rate_wall": "event_sim_rate",
                   "op_latency_s_p50": "event_session_s_p50",
                   "op_latency_s_p90": "event_session_s_p90",
                   "ops_per_s": "sessions_per_s"},
    "batched_cohort": {"sim_rate_ref": "cohort_sim_rate",
                       "op_cost_ref": "sweep_cost",
                       "sim_rate_wall": "cohort_sim_rate",
                       "op_latency_s_p50": "sweep_s_p50",
                       "op_latency_s_p90": "sweep_s_p90",
                       "ops_per_s": "sweeps_per_s"},
    "batched_cells": {"sim_rate_ref": "cell_sim_rate",
                      "op_cost_ref": "sweep_cost",
                      "sim_rate_wall": "cell_sim_rate",
                      "op_latency_s_p50": "sweep_s_p50",
                      "op_latency_s_p90": "sweep_s_p90",
                      "ops_per_s": "sweeps_per_s"},
    "service_mix": {"sim_rate_ref": "fresh_sim_rate",
                    "op_cost_ref": "job_latency_cost",
                    "sim_rate_wall": "fresh_sim_rate",
                    "op_latency_s_p50": "job_latency_s_p50",
                    "op_latency_s_p90": "job_latency_s_p90",
                    "ops_per_s": "jobs_per_s"},
}

#: Catalogue counters reported as they are, with their units.
COUNTS = (
    ("sim.events", "count"),
    ("lte.subframes", "count"),
    ("lte.drops", "count"),
    ("gcc.updates", "count"),
    ("fbcc.ticks", "count"),
    ("fbcc.congestion_events", "count"),
    ("compression.mode_switches", "count"),
    ("sender.frames", "count"),
    ("receiver.frames", "count"),
    ("receiver.freezes", "count"),
    ("batch.subframes", "count"),
    ("batch.cohorts", "count"),
    ("fleet.cell_prb_exhausted", "count"),
    ("service.requests", "count"),
    ("service.jobs_deduped", "count"),
    ("service.jobs_cache_hits", "count"),
)


class Scratch:
    """A run's private directory under ``.perfbench_tmp/`` in the checkout."""

    def __init__(self):
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def prepare_environment(scratch: Scratch) -> None:
    """Point the program's caches at the scratch directory; default knobs."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh("cache"))
    os.environ["REPRO_RUN_DIR"] = str(scratch.fresh("runs"))
    os.environ["REPRO_JOBS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probes(args) -> list:
    """Time set-up in fresh processes: start to first timed operation."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=str(ROOT))
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        ready = float(done.stdout.split("ready ", 1)[1].split()[0])
        samples.append(ready - t0)
    return samples


def run_checks(workload, measurement, label=""):
    """Output checks; returns ``(attempted, failed, failures)``."""
    failures = [f"{label}op {op.kind}: {op.error or 'not ok'}"
                for op in measurement.ops if not op.ok]
    checks = workload.check(measurement)
    sampled = [name for name, _, _ in checks if not name.startswith("range")]
    failures += [f"{label}{name}: {detail}" for name, ok, detail in checks if not ok]
    return len(measurement.ops) + len(sampled), len(failures), failures


def measure(workload, args) -> dict:
    from workloads import percentile

    deadline = time.perf_counter() + args.seconds
    measurement = workload.run(deadline, None, metered=False)
    rss = peak_rss_mb()
    workload.close()
    attempted, failed, failures = run_checks(workload, measurement)
    setup = setup_probes(args)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss, 1),
    }
    # Printed, not gated: the host-second figures move with the speed of
    # a shared host, the p90s rest on fewer than ten samples beyond them,
    # ops_per_s of a closed loop follows from its latency, and
    # failed_fraction is 0 on a healthy run.
    values.update(workload.end_to_end(measurement))
    values["failed_fraction"] = (failed / attempted, attempted)
    if hasattr(workload, "replay_latency_ms"):
        replays = workload.replay_latency_ms(measurement)
        values["replay_latency_ms_p50"] = (percentile(replays, 50), len(replays))
        values["replay_latency_ms_p90"] = (percentile(replays, 90), len(replays))
    return {
        "metrics": {name: {"value": values[name][0], "unit": unit,
                           "n": values[name][1]} for name, unit in END_TO_END},
        "extra": {name: {"value": values[name][0], "unit": unit, "n": values[name][1]}
                  for name, unit in EXTRA_UNITS.items() if name in values},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_samples": setup,
        "window_s": measurement.window_s,
    }


def trace(workload, args) -> dict:
    from layers import LAYERS, LayerMap, ThreadProfiles, attribute
    from workloads import percentile

    count = workload.trace_count
    plain = workload.run(None, count, metered=False)
    workload.close()
    with ThreadProfiles(workload.profile_timer) as profiles:
        traced = workload.run(None, count, metered=True)
    workload.close()
    layer_map = LayerMap(str(SRC / "repro"), [str(HERE)])
    report, total = attribute(profiles.stats(), layer_map)

    attempted, failed, failures = run_checks(workload, traced, "traced ")
    plain_ops_failed = [op for op in plain.ops if not op.ok]
    same = workload.same_outputs(plain, traced)
    attempted += len(plain.ops) + 1
    failed += len(plain_ops_failed) + (0 if same else 1)
    failures += [f"plain op {op.kind}: {op.error}" for op in plain_ops_failed]
    if not same:
        failures.append("metered+profiled outputs differ from plain outputs")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (report[layer]["self_s"], "s")
        metrics[f"{layer}.share"] = (report[layer]["share"], "ratio")
        if layer != "other":
            metrics[f"{layer}.calls"] = (report[layer]["calls"], "count")
    counters = traced.counters
    for name, unit in COUNTS:
        metrics[name] = (counters.get(name, 0.0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["receiver.frame_ratio"] = (
        ratio(counters.get("receiver.frames", 0.0), counters.get("sender.frames", 0.0)),
        "ratio")
    metrics["batch.scalar_fallback_ratio"] = (
        ratio(counters.get("batch.scalar_fallbacks", 0.0),
              counters.get("batch.sessions", 0.0)), "ratio")
    hits = counters.get("cache.entry_hits", 0.0) + traced.cache_lookups[0]
    misses = counters.get("cache.entry_misses", 0.0) + traced.cache_lookups[1]
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["service.queue_wait_s"] = (traced.queue_wait_s or 0.0, "s")
    replays = (workload.replay_latency_ms(plain)
               if hasattr(workload, "replay_latency_ms") else [])
    metrics["service.replay_latency_ms_p50"] = (
        percentile(replays, 50) if replays else 0.0, "ms")
    metrics["service.replay_latency_ms_p90"] = (
        percentile(replays, 90) if replays else 0.0, "ms")
    metrics["trace_overhead"] = (traced.window_s / plain.window_s, "ratio")
    metrics["traced_total_s"] = (total, "s")
    samples = len(traced.ops)
    return {
        "metrics": {name: {"value": value, "unit": unit, "n": samples}
                    for name, (value, unit) in metrics.items()},
        "extra": {},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "window_s": traced.window_s,
        "plain_window_s": plain.window_s,
    }


def print_table(workload_name: str, result: dict) -> None:
    aliases = ALIASES.get(workload_name, {})
    rows = [(name, entry, aliases.get(name, "")) for name, entry in result["metrics"].items()]
    rows += [(name, entry, aliases.get(name, ""))
             for name, entry in result["extra"].items()]
    print(f"{'metric':34s} {'value':>16s}  {'unit':12s} {'n':>6s}  name on this workload")
    for name, entry, alias in rows:
        print(f"{name:34s} {entry['value']:16.6g}  {entry['unit']:12s} "
              f"{entry['n']:6d}  {alias}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="also write the full record to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the smoke test's size)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def execute(args) -> dict:
    """Run one workload as ``args`` says; returns the full record."""
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    scratch = Scratch()
    workload = None
    try:
        prepare_environment(scratch)
        load_before = os.getloadavg()
        workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
        t0 = time.perf_counter()
        workload.setup()
        setup_here = time.perf_counter() - t0
        if args.setup_probe:
            print(f"ready {time.monotonic():.9f}", flush=True)
            return {}
        result = trace(workload, args) if args.trace else measure(workload, args)
        from repro.experiments.cache import code_salt

        result.update(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            tiny=args.tiny,
            setup_in_process_s=setup_here,
            fingerprint=dict(fingerprint(), loadavg_before=list(load_before),
                             loadavg_after=list(os.getloadavg())),
            code={"git_commit": git_commit(), "code_salt": code_salt()},
        )
        return result
    finally:
        if workload is not None:
            workload.close()
        scratch.remove()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    record = execute(args)
    if args.setup_probe:
        return 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print_table(args.workload, record)
    print("record: " + json.dumps(record, sort_keys=True))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    final = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
