"""Smoke test of the benchmark itself, at tiny size.

Every workload runs untraced and traced through the real command, every
metric ``BENCHMARK.json`` names is printed with its unit, and a
deliberately corrupted output is counted as a failure by the output
checks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        shares = sum(entry["value"] for name, entry in result["metrics"].items()
                     if name.endswith(".share"))
        assert shares == pytest.approx(1.0)


def _corrupt_summary(summary):
    return dataclasses.replace(summary, sent_rate_mean=summary.sent_rate_mean * 1.5)


def _corrupt(workload, measurement) -> None:
    """Damage outputs the checks must catch; no range check may hide it."""
    for op in measurement.ops:
        if not op.ok:
            continue
        if workload.name == "paper_grid":
            index, summary, full = op.output
            op.output = (index, _corrupt_summary(summary), full)
        elif workload.name == "batched_cohort":
            for result in op.output[2] or ():
                result.summary = _corrupt_summary(result.summary)
        elif workload.name == "batched_cells":
            sweep = op.output[2]
            if sweep is not None:
                sweep.cells = [[dataclasses.replace(cell, jain=cell.jain * 0.5)
                                for cell in group] for group in sweep.cells]
        elif op.kind in ("fresh", "replay"):
            op.output[-1]["payload"] = dict(op.output[-1]["payload"], corrupted=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    sys.path.insert(0, str(HERE))
    environ = dict(os.environ)
    try:
        import run
        from workloads import WORKLOADS as classes

        scratch = run.Scratch()
        bench = classes[workload](5, True, scratch)
        try:
            run.prepare_environment(scratch)
            bench.setup()
            measurement = bench.run(None, 1, metered=False)
            bench.close()
            assert run.run_checks(bench, measurement)[1] == 0
            _corrupt(bench, measurement)
            attempted, failed, failures = run.run_checks(bench, measurement)
            assert failed >= 1, failures
        finally:
            bench.close()
            scratch.remove()
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path.remove(str(HERE))
