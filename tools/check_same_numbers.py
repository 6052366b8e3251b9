#!/usr/bin/env python3
"""Check that a code change moved no simulated number.

Runs a fixed set of short simulations in the working tree and in a
checkout of another revision, then diffs canonical JSON of every
result.  The set covers each engine a refactor can touch:

- ``run_session`` for every scenario in :mod:`repro.traces.scenarios`
  (the competitor-cell ``stadium`` included) under each of the three
  compression schemes, plus one session with the LTE downlink model;
- one event-driven shared cell (``run_cell``) with a background crowd;
- the scalar lockstep session and cell references and one batched
  cohort and cell block on the lockstep engines.

Usage::

    python tools/check_same_numbers.py --against HEAD~1
    python tools/check_same_numbers.py --against main --keep-json out/

``--against`` checks ``REV`` out into a temporary ``git worktree``
(removed afterwards), runs the set once per tree in fresh
subprocesses, and prints every result whose JSON differs.  Exits 0
when all results are equal, 1 on any difference or failed run.

This is a tool, not a CI gate: a change that moves numbers on purpose
is expected to fail it.  ``--emit PATH`` runs the set in whichever tree
is importable (``PYTHONPATH``) and writes the JSON; ``--against`` uses
it internally, so the set itself always comes from this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Scheme and the transport it runs with (FBCC reads the LTE modem, so
#: wireline sessions run it with GCC instead).  Each transport is covered.
SCHEMES = (("poi360", "fbcc"), ("conduit", "gcc"), ("pyramid", "gcc_ss"))

DURATION = 8.0
WARMUP = 2.0


def canonical(value):
    """JSON-safe form that keeps every float bit (``repr``) and NaN."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return canonical(value.tolist())
    if isinstance(value, float):
        return repr(value) if not math.isfinite(value) else float.hex(value)
    return value


def result_record(result) -> dict:
    """A :class:`SessionResult` as its summary plus a digest of its log."""
    log = json.dumps(canonical(result.log), sort_keys=True)
    return {
        "summary": canonical(result.summary),
        "log_sha256": hashlib.sha256(log.encode()).hexdigest(),
    }


def cell_record(cell) -> dict:
    return {
        "jain": canonical(cell.jain),
        "member_bytes": canonical(cell.member_bytes),
        "member_mos": canonical(cell.member_mos),
        "members": [result_record(result) for result in cell.results],
    }


def lockstep_config(seed: int, rss: float, speed: float, load: float):
    from repro.config import SessionConfig

    config = SessionConfig()
    replace = dataclasses.replace
    return replace(
        config,
        seed=seed,
        duration=DURATION,
        lte=replace(
            config.lte,
            channel=replace(config.lte.channel, rss_dbm=rss, speed_mph=speed),
            cell=replace(config.lte.cell, background_load=load),
        ),
        video=replace(config.video, fps=25.0),
        fbcc=replace(config.fbcc, target_buffer=10240.0),
    )


def emit() -> dict:
    """Run the fixed set in the importable tree; ``{name: record}``."""
    from repro.config import DownlinkConfig, FleetConfig
    from repro.sim.batch import run_batched

    try:
        from repro.sim.batch import run_batched_cell
    except ImportError:  # a tree from before the cell engine was folded in
        from repro.sim.batch_cell import run_batched_cell
    from repro.telephony.fleet import run_cell
    from repro.telephony.session import run_session
    from repro.telephony.uplink import run_uplink_cell, run_uplink_session
    from repro.traces.scenarios import SCENARIOS, scenario

    records = {}
    replace = dataclasses.replace
    for name in sorted(SCENARIOS):
        for scheme, transport in SCHEMES:
            if name == "wireline" and transport == "fbcc":
                transport = "gcc"
            config = scenario(name, scheme=scheme, transport=transport, seed=11)
            result = run_session(config, duration=DURATION, warmup=WARMUP)
            records[f"session/{name}/{scheme}+{transport}"] = result_record(result)
    base = scenario("cellular", scheme="poi360", transport="fbcc", seed=12)
    downlink = replace(base, path=replace(base.path, downlink_lte=DownlinkConfig()))
    records["session/cellular+downlink_lte/poi360+fbcc"] = result_record(
        run_session(downlink, duration=DURATION, warmup=WARMUP)
    )

    crowd = FleetConfig(ues=3, seed=5, background_ues=12, background_load=0.3)
    busy = scenario("cellular", scheme="poi360", transport="fbcc", seed=13)
    records["cell/event/background"] = cell_record(
        run_cell(busy, ues=3, fleet=crowd, duration=DURATION, warmup=WARMUP)
    )

    cohort = [
        lockstep_config(seed=21, rss=-82.0, speed=0.0, load=0.15),
        lockstep_config(seed=22, rss=-100.0, speed=30.0, load=0.45),
        lockstep_config(seed=23, rss=-70.0, speed=50.0, load=0.05),
    ]
    records["lockstep/scalar_session"] = result_record(
        run_uplink_session(cohort[1], warmup=WARMUP)
    )
    for index, result in enumerate(run_batched(cohort, warmup=WARMUP)):
        records[f"lockstep/cohort/{index}"] = result_record(result)
    records["lockstep/scalar_cell/background"] = cell_record(
        run_uplink_cell(cohort[0], ues=3, fleet=crowd, warmup=WARMUP)
    )
    records["lockstep/batched_cell/background"] = cell_record(
        run_batched_cell(cohort[0], ues=3, fleet=crowd, warmup=WARMUP)
    )
    return records


def run_tree(src: Path, output: Path, workdir: Path) -> int:
    """Run ``--emit`` in a fresh interpreter with ``src`` importable."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    command = [sys.executable, str(Path(__file__).resolve()), "--emit", str(output)]
    return subprocess.run(command, env=env, cwd=workdir).returncode


def diff(base: dict, head: dict) -> list:
    """Names whose records differ (or exist on one side only)."""
    names = sorted(set(base) | set(head))
    return [name for name in names if base.get(name) != head.get(name)]


def against(rev: str, keep_json) -> int:
    scratch = Path(tempfile.mkdtemp(prefix="same-numbers-"))
    tree = scratch / "tree"
    try:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "add", "--detach", "--quiet",
             str(tree), rev],
            check=True,
        )
        outputs = {"base": scratch / "base.json", "head": scratch / "head.json"}
        for label, src in (("base", tree / "src"), ("head", REPO_ROOT / "src")):
            print(f"running the fixed set at {label} ({src})", flush=True)
            if run_tree(src, outputs[label], scratch) != 0:
                print(f"FAIL: the {label} run did not complete", file=sys.stderr)
                return 1
        base = json.loads(outputs["base"].read_text())
        head = json.loads(outputs["head"].read_text())
        if keep_json:
            keep = Path(keep_json)
            keep.mkdir(parents=True, exist_ok=True)
            for path in outputs.values():
                shutil.copy(path, keep / path.name)
        changed = diff(base, head)
        for name in changed:
            print(f"DIFFERENT: {name}")
        if changed:
            print(f"FAIL: {len(changed)} of {len(base | head)} results differ from {rev}")
            return 1
        print(f"OK: all {len(head)} results equal to {rev}")
        return 0
    finally:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "remove", "--force", str(tree)],
            stderr=subprocess.DEVNULL,
        )
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REV", help="revision to compare with")
    group.add_argument("--emit", metavar="PATH", help="write this tree's results")
    parser.add_argument(
        "--keep-json", metavar="DIR", help="copy both result files into DIR"
    )
    args = parser.parse_args(argv)
    if args.emit:
        Path(args.emit).write_text(json.dumps(emit(), sort_keys=True, indent=1))
        return 0
    return against(args.against, args.keep_json)


if __name__ == "__main__":
    sys.exit(main())
