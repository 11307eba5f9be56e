#!/usr/bin/env python3
"""Compare a fresh bench_gara run against its committed baseline.

Usage: perf_gate.py BASELINE.json FRESH.json [--tolerance 0.25]

Both files are bench_gara output: {"workloads": [{name,
reservations_per_sec, admission_p99_us, counts, ...}, ...]}. Each workload
gates reservations/sec (higher is better), the p99 admission latency and,
where the workload reports one, the `counts.compact_us` compaction pass
(both LOWER is better — the ratio is inverted before comparison, with
+1 µs smoothing so sub-microsecond baselines never divide by zero). The
compaction pass runs once, outside the timed churn, so neither of the
other two numbers sees it.

Every workload present in both files is compared; ALL regressions beyond
the tolerance are reported with their deltas before the nonzero exit, so
one failure never masks another. Workloads present in only one file
(e.g. a --quick run emits a subset) are compared on the intersection.
"""

import argparse
import json
import sys


def load(path):
    """Normalize one benchmark file to
    {metric name: (value, unit, higher_is_better)}."""
    with open(path) as f:
        doc = json.load(f)
    rates = {}
    for w in doc["workloads"]:
        rates[f"{w['name']}/rps"] = (w["reservations_per_sec"], "resv/s", True)
        rates[f"{w['name']}/p99"] = (w["admission_p99_us"], "us", False)
        if "compact_us" in w.get("counts", {}):
            rates[f"{w['name']}/compact"] = (w["counts"]["compact_us"], "us", False)
    return rates


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    common = sorted(set(base) & set(fresh))
    if not common:
        print("perf_gate: no common workloads between baseline and fresh run",
              file=sys.stderr)
        return 1

    failed = []
    for name in common:
        b, unit, higher_better = base[name]
        f = fresh[name][0]
        if higher_better:
            ratio = f / b
        else:
            # Lower is better (latency): invert so ratio > 1 still means
            # "fresh is better"; +1 smooths away zero-microsecond bases.
            ratio = (b + 1.0) / (f + 1.0)
        status = "ok"
        if ratio < 1.0 - args.tolerance:
            status = "REGRESSED"
            failed.append((name, ratio))
        # Latencies are often sub-microsecond: keep their decimals.
        spec = "14,.0f" if higher_better else "14,.3f"
        print(f"{name:28s} baseline {b:{spec}} {unit:6s} fresh {f:{spec}} {unit:6s}"
              f"  ({ratio:5.2f}x)  {status}")

    skipped = sorted((set(base) | set(fresh)) - set(common))
    if skipped:
        print(f"perf_gate: not in both files, skipped: {', '.join(skipped)}")

    if failed:
        deltas = ", ".join(f"{name} ({(1 - ratio):.1%} below baseline)"
                           for name, ratio in failed)
        print(f"perf_gate: FAIL — {len(failed)} of {len(common)} workload(s) "
              f"regressed more than {args.tolerance:.0%}: {deltas}",
              file=sys.stderr)
        return 1
    print(f"perf_gate: PASS — {len(common)} workload(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
