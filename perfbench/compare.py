"""Compare two sets of benchmark records.

Usage::

    python3 perfbench/compare.py --base a1.json a2.json ... --head b1.json b2.json ...

Each file is a record written by ``run.py --record``.  All records must
come from the same workload and mode.  For every metric the script
prints each side's median and quartiles and the change of the medians.
It flags a change worse than the metric's bound in ``BENCHMARK.json``,
and a spread wider than the bound as unresolved.

A time measured on another machine is never compared: when the
records' environment fingerprints differ (Python, numpy, core count,
CPU model, machine, kernel), the script says so and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Fingerprint fields that must agree; load averages are context only.
IDENTITY = ("python", "numpy", "nproc", "cpu_model", "machine", "system")


def load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    records = base + head

    kinds = {(r["workload"], r["trace"]) for r in records}
    if len(kinds) != 1:
        print(f"records mix workloads or modes: {sorted(kinds)}", file=sys.stderr)
        return 2
    fingerprints = {tuple(r["fingerprint"].get(k) for k in IDENTITY) for r in records}
    if len(fingerprints) != 1:
        print("FLAG: the records come from different environments; "
              "their times are not comparable:")
        for fingerprint in sorted(fingerprints, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(IDENTITY, fingerprint)))
        return 2

    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for side, group in (("base", base), ("head", head)):
        codes = sorted({(r["code"]["git_commit"] or "?")[:12] + "/" + r["code"]["code_salt"]
                        for r in group})
        loads = [r["fingerprint"]["loadavg_before"][0] for r in group]
        print(f"{side}: {len(group)} runs, code {', '.join(codes)}, "
              f"1-min load {min(loads):.2f}-{max(loads):.2f}")
    print(f"{'metric':34s} {'base median':>12s} {'head median':>12s} "
          f"{'change':>8s}  verdict")
    for name in base[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in head]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        rule = rules.get(name, {})
        verdict = ""
        if "bound" in rule:
            worse = change if rule["better"] == "lower" else -change
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            if spread > rule["bound"]:
                verdict = "unresolved (base spread wider than bound)"
            elif worse > rule["bound"]:
                verdict = f"REGRESSION (bound {rule['bound']:.0%})"
            else:
                verdict = "within bound"
        print(f"{name:34s} {qa[1]:12.5g} {qb[1]:12.5g} {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
