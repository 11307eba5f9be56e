#!/usr/bin/env python3
"""Validate results/<experiment>/metrics.json files against the schema
documented in DESIGN.md §9 (§10 for the chaos experiment, §11 for
lifecycle histograms and SLO conformance).

Usage: check_metrics.py results/fig1/metrics.json [more.json ...]

Checks, per file:
- parses as JSON with top-level "counters", "gauges", "trace" objects;
- counters are non-negative integers;
- gauges are {"value": number, "high_water": number} objects;
- the trace carries capacity/recorded/dropped and a list of events with
  monotonically non-decreasing "t_ns" timestamps;
- when present, "histograms" entries are valid snapshots (bucket counts
  sum to "count", quantiles ordered p50 <= p90 <= p99) and "slo" is a
  conformance table whose total_misses equals the per-flow sum;
- the core engine/net counters every simulation run must emit exist;
- experiment-specific keys exist (e.g. the chaos run's adaptation
  counters and fault counters; the traced runs' per-flow delay
  histograms and deadline rows; the gara run's reservation-lifecycle
  counters, per-reason reject breakdown, and populated
  admission-latency histogram).

Files whose top level carries "qcheck_summary" (the scenario fuzzer's
batch report, results/qcheck/summary.json) are validated against the
qcheck summary schema instead (DESIGN.md §12). Timeline documents have
one validator, `qtop --check` (DESIGN.md §16); this script refuses a
timeline.json given on its own. A timeline.json found next to a
metrics.json must agree with it: every registry counter has a series
(all but the snapshot-only `trace.spans_dropped`) and each such series
ends at the counter's value. Experiments marked with "timeline" in
REQUIRED_BY_EXPERIMENT must ship that sibling.

All problems in a file are collected and reported together — a missing
section or key never aborts the remaining checks, so one run lists
every violation at once.

Usage: check_metrics.py --physics-equal OLD_RESULTS NEW_RESULTS

Compares two results/ trees and requires them to describe the same
simulated physics: every file present in both or neither, and
byte-identical — every CSV table, flight-recorder trace, histogram and
SLO report — except for what measures the simulator rather than the
simulated, which is removed from both sides first:
- counters, gauges and timeline series named `engine.*` or
  `shardNN.{events,pending_events}` (event counts, queue population,
  calendar health: the schedule cost an engine change is meant to move);
- `<n> events` figures printed in the .txt reports, and `totals.events`
  of the qcheck summary;
- `*.admission_ns` histograms (bench_gara's host wall-clock latencies).
`trace.json` lifecycle exports are regenerated but never committed, so
one that exists on one side only is not an error. The tree's top-level
README.md is written by hand, not by a run, and is not compared.
"""

import json
import os
import re
import sys

REQUIRED_COUNTERS = [
    "engine.events_processed",
    "engine.events_elided.txdone",
    "engine.events_elided.timer",
    "net.pkts.sent",
    "net.pkts.delivered",
    "net.drops.policed",
    "net.drops.queue_full",
]

# Extra keys required when validating a specific experiment's snapshot,
# selected by the name of the directory holding metrics.json
# (results/<experiment>/metrics.json).
REQUIRED_BY_EXPERIMENT = {
    "chaos": {
        "counters": [
            "agent.requests",
            "agent.rejects",
            "agent.retries",
            "agent.grants",
            "agent.revocations_seen",
            "agent.renegotiations",
            "agent.degrades",
            "agent.probes",
            "agent.recoveries",
            "gara.reservations_granted",
            "gara.reservations_rejected",
            "gara.injected_rejections",
            "gara.revocations",
            "faults.drops.link_down",
            "faults.drops.loss",
            "faults.drops.corrupt",
            "faults.link_downs",
            "faults.link_ups",
        ],
        "gauges": [
            "agent.granted_rate_bps",
            "agent.dscp",
        ],
        # Lifecycle tracing is armed for the chaos run: per-flow delay
        # histograms and a deadline-carrying SLO table must be present,
        # and the run carries premium (EF-marked) traffic.
        "traced": True,
        "ef_traffic": True,
        "timeline": True,
    },
    # The rank-failure chaos run (DESIGN.md §17): rolling HostCrash /
    # HostRestart faults with checkpoint/restart recovery, the crash
    # release + restart re-reserve adaptation path, and the host-down
    # drop ledger, with every premium pair deadline-scored by the SLO
    # layer.
    "chaos_ranks": {
        "counters": [
            "agent.requests",
            "agent.grants",
            "agent.crash_releases",
            "agent.restart_rereserves",
            "gara.reservations_granted",
            "faults.drops.host_down",
            "faults.host_crashes",
            "faults.host_restarts",
            "mpi.checkpoints",
            "mpi.reqs_failed",
            "slo.misses",
        ],
        "gauges": [
            "agent.granted_rate_bps",
        ],
        "traced": True,
        "ef_traffic": True,
        "timeline": True,
    },
    # The TCP sawtooth (fig1) is the canonical sampled run: its committed
    # timeline.json is the regression anchor for the time-series schema.
    "fig1": {"timeline": True},
    "fig7_10fps_40kb_frames": {"traced": True, "ef_traffic": True, "timeline": True},
    "fig7_1fps_400kb_frame": {"traced": True, "ef_traffic": True, "timeline": True},
    # fig8 is the CPU-contention scenario: traced, but no network
    # reservation ever marks EF, so its EF queue-wait histogram is
    # legitimately empty (and empty histograms are omitted).
    "fig8": {"traced": True},
    # The three-PHB conformance run (EF vs AF vs BE on a WFQ/WRED trunk,
    # DESIGN.md §15): AF traffic is marked and escalated at the edge, the
    # AF queue takes WRED early drops, and all three per-class queue-wait
    # histograms are populated.
    "af_conformance": {
        "counters": [
            "net.drops.red_early",
            "qdisc.early_drops.af",
            "qdisc.early_drops.be",
        ],
        "hists": [
            "phb.af.queue_wait_ns",
        ],
        "traced": True,
        "ef_traffic": True,
    },
    # The scheduler × dropper ablation matrix; the committed snapshot is
    # the WFQ × RED cell, so RED early drops and the SLO ledger of the
    # deadline-carrying premium flow must both be present.
    "qdisc_ablation": {
        "counters": [
            "slo.misses",
            "net.drops.red_early",
            "qdisc.early_drops.be",
        ],
        "traced": True,
        "ef_traffic": True,
    },
    # bench_gara's control-plane snapshot: the full reservation
    # lifecycle, the per-reason reject breakdown, and a populated
    # admission-latency histogram (DESIGN.md §14).
    "gara": {
        "counters": [
            "gara.reservations_granted",
            "gara.reservations_rejected",
            "gara.modifies",
            "gara.modifies_rejected",
            "gara.cancels",
            "gara.revocations",
            "gara.injected_rejections",
            "gara.rejects.over_capacity",
            "gara.rejects.unknown_slot",
            "gara.rejects.no_route",
            "gara.rejects.unknown_server",
            "gara.rejects.invalid",
            "gara.rejects.injected",
        ],
        "hists": [
            "gara.admission_ns",
        ],
    },
}


def experiment_name(path):
    """results/chaos/metrics.json -> "chaos" (or None if unrecognized)."""
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    return parent if parent in REQUIRED_BY_EXPERIMENT else None


def check_counters(doc, errors, extra_required, exp):
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        errors.append("missing or non-object section 'counters'")
        counters = {}
    for name, v in counters.items():
        if not isinstance(v, int) or v < 0:
            errors.append(f"counter {name!r} is not a non-negative integer: {v!r}")
    missing = [n for n in REQUIRED_COUNTERS + extra_required if n not in counters]
    if missing:
        errors.append(
            f"{len(missing)} required counter(s) missing for experiment "
            f"{exp!r}: " + ", ".join(missing)
        )


def check_gauges(doc, errors, extra_required, exp):
    gauges = doc.get("gauges")
    if not isinstance(gauges, dict):
        errors.append("missing or non-object section 'gauges'")
        gauges = {}
    for name, g in gauges.items():
        if not isinstance(g, dict) or set(g) != {"value", "high_water"}:
            errors.append(f"gauge {name!r} is not {{value, high_water}}: {g!r}")
            continue
        if not all(isinstance(g[k], (int, float)) for k in g):
            errors.append(f"gauge {name!r} has non-numeric fields: {g!r}")
    missing = [n for n in extra_required if n not in gauges]
    if missing:
        errors.append(
            f"{len(missing)} required gauge(s) missing for experiment "
            f"{exp!r}: " + ", ".join(missing)
        )


def check_trace(doc, errors):
    trace = doc.get("trace")
    if not isinstance(trace, dict):
        errors.append("missing or non-object section 'trace'")
        return
    missing = [f for f in ("capacity", "recorded", "dropped", "events") if f not in trace]
    if missing:
        errors.append("trace missing field(s): " + ", ".join(missing))
    events = trace.get("events", [])
    if len(events) > trace.get("capacity", 0):
        errors.append("trace holds more events than its capacity")
    last_t = -1
    for e in events:
        if set(e) != {"t_ns", "kind", "key", "value"}:
            errors.append(f"malformed trace event: {e!r}")
            break
        if e["t_ns"] < last_t:
            errors.append(f"trace timestamps not monotonic at {e!r}")
            break
        last_t = e["t_ns"]


def check_histograms(doc, errors, traced, ef_traffic, extra_required, exp):
    hists = doc.get("histograms")
    if hists is None:
        if traced:
            errors.append("missing 'histograms' section (tracing was armed)")
        if extra_required:
            errors.append(
                f"{len(extra_required)} required histogram(s) missing for "
                f"experiment {exp!r} (no 'histograms' section): "
                + ", ".join(extra_required)
            )
        return
    if not isinstance(hists, dict):
        errors.append("'histograms' is not an object")
        return
    for name, h in hists.items():
        if not isinstance(h, dict) or "count" not in h or "buckets" not in h:
            errors.append(f"histogram {name!r} is not a snapshot object: {h!r}")
            continue
        count = h["count"]
        bucket_sum = sum(b[1] for b in h["buckets"])
        if bucket_sum != count:
            errors.append(
                f"histogram {name!r}: bucket counts sum to {bucket_sum}, "
                f"count says {count}"
            )
        if count > 0:
            missing = [k for k in ("min", "max", "p50", "p90", "p99") if k not in h]
            if missing:
                errors.append(f"histogram {name!r} missing: " + ", ".join(missing))
            elif not (h["p50"] <= h["p90"] <= h["p99"]):
                errors.append(f"histogram {name!r}: quantiles not ordered")
            if any(b[1] == 0 for b in h["buckets"]):
                errors.append(f"histogram {name!r} stores empty buckets")
    missing = [
        n for n in extra_required if n not in hists or hists[n].get("count", 0) == 0
    ]
    if missing:
        errors.append(
            f"{len(missing)} required histogram(s) missing or empty for "
            f"experiment {exp!r}: " + ", ".join(missing)
        )
    if traced:
        flow_delay = [
            n for n, h in hists.items()
            if n.startswith("flow.") and n.endswith(".delay_ns") and h.get("count", 0) > 0
        ]
        if not flow_delay:
            errors.append("no populated flow.*.delay_ns histogram")
        required_phb = ["phb.be.queue_wait_ns"]
        if ef_traffic:
            required_phb.append("phb.ef.queue_wait_ns")
        for phb in required_phb:
            if phb not in hists:
                errors.append(f"missing per-class histogram {phb!r}")


def check_slo(doc, errors, traced):
    slo = doc.get("slo")
    if slo is None:
        if traced:
            errors.append("missing 'slo' section (tracing was armed)")
        return
    if not isinstance(slo, dict) or "flows" not in slo or "total_misses" not in slo:
        errors.append(f"'slo' is not {{flows, total_misses}}: {slo!r}")
        return
    miss_sum = 0
    with_deadline = 0
    row_keys = {
        "flow", "deadline_ns", "delivered", "misses", "miss_streak_max",
        "worst_delay_ns",
    }
    for f in slo["flows"]:
        if set(f) != row_keys:
            errors.append(f"malformed SLO row: {f!r}")
            continue
        miss_sum += f["misses"]
        if f["deadline_ns"] is not None:
            with_deadline += 1
            if f["misses"] > f["delivered"]:
                errors.append(f"SLO row {f['flow']!r}: more misses than deliveries")
    if slo["total_misses"] != miss_sum:
        errors.append(
            f"slo.total_misses {slo['total_misses']} != per-flow sum {miss_sum}"
        )
    if traced and with_deadline == 0:
        errors.append("no SLO row carries a deadline")


def check_qcheck_summary(doc, errors):
    """Schema of results/qcheck/summary.json (the fuzzer's batch report)."""
    if doc.get("qcheck_summary") != 1:
        errors.append(f"unsupported qcheck_summary schema: {doc.get('qcheck_summary')!r}")
    for k in ("seeds", "violations"):
        if not isinstance(doc.get(k), int) or doc.get(k, -1) < 0:
            errors.append(f"{k!r} is not a non-negative integer: {doc.get(k)!r}")
    failed = doc.get("failed_seeds")
    if not isinstance(failed, list) or not all(isinstance(s, int) for s in failed):
        errors.append(f"'failed_seeds' is not a list of integers: {failed!r}")
    elif isinstance(doc.get("seeds"), int) and len(failed) > doc["seeds"]:
        errors.append("more failed seeds than seeds run")
    elif isinstance(doc.get("violations"), int) and len(failed) > doc["violations"]:
        errors.append("more failed seeds than violations")
    totals = doc.get("totals")
    if not isinstance(totals, dict) or set(totals) != {"events", "sent", "delivered"}:
        errors.append(f"'totals' is not {{events, sent, delivered}}: {totals!r}")
        return
    for k, v in totals.items():
        if not isinstance(v, int) or v < 0:
            errors.append(f"totals.{k} is not a non-negative integer: {v!r}")
    if all(isinstance(totals.get(k), int) for k in ("sent", "delivered")):
        if totals["delivered"] > totals["sent"]:
            errors.append("totals.delivered exceeds totals.sent")


def check_sibling_timeline(path, metrics, errors, required):
    """A timeline.json next to a metrics.json must agree with the
    snapshot — the sampler and the registry are fed by one walk, so every
    registry counter is a series ending at the counter's value (all but
    the snapshot-only `trace.spans_dropped`). Experiments flagged
    "timeline" must ship one. Its shape is `qtop --check`'s to judge; a
    document too malformed to compare is reported as such."""
    sibling = os.path.join(os.path.dirname(os.path.abspath(path)), "timeline.json")
    if not required and not os.path.exists(sibling):
        return
    try:
        with open(sibling) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"sibling timeline.json unreadable or invalid: {exc}")
        return
    sub = []
    try:
        series = doc["series"]
        for name, total in metrics.get("counters", {}).items():
            s = series.get(name)
            if s is None:
                if name != "trace.spans_dropped":
                    sub.append(f"registry counter {name!r} has no series")
            elif s["kind"] == "counter":
                last = s["v0"] + sum(s["dv"])
                if last != total:
                    sub.append(
                        f"series {name!r} ends at {last}, "
                        f"the registry counter says {total}"
                    )
    except (KeyError, TypeError, AttributeError) as exc:
        sub.append(f"malformed, cannot compare (run qtop --check): {exc!r}")
    errors.extend(f"timeline.json: {e}" for e in sub)


def check(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"], None
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"], None

    if "qcheck_summary" in doc:
        check_qcheck_summary(doc, errors)
        return errors, doc

    if "timeline" in doc:
        return ["timeline documents are validated by `qtop --check`"], doc

    exp = experiment_name(path) or "generic"
    extra = REQUIRED_BY_EXPERIMENT.get(exp, {})
    check_counters(doc, errors, extra.get("counters", []), exp)
    check_gauges(doc, errors, extra.get("gauges", []), exp)
    check_trace(doc, errors)
    traced = extra.get("traced", False)
    check_histograms(doc, errors, traced, extra.get("ef_traffic", False),
                     extra.get("hists", []), exp)
    check_slo(doc, errors, traced)
    check_sibling_timeline(path, doc, errors, extra.get("timeline", False))
    return errors, doc


SCHEDULE_COST = re.compile(r"^(engine\..*|shard\d+\.(events|pending_events))$")
HOST_TIME_HIST = re.compile(r"\.admission_ns$")
EVENTS_FIGURE = re.compile(rb"\b\d+ events\b")


def physics_of(path):
    """The content of one results file with schedule-cost and host-time
    figures removed; two files agree on physics iff these are equal."""
    with open(path, "rb") as f:
        raw = f.read()
    if path.endswith(".txt"):
        return EVENTS_FIGURE.sub(b"N events", raw)
    if os.path.basename(path) not in ("metrics.json", "timeline.json", "summary.json"):
        return raw
    doc = json.loads(raw)
    if "qcheck_summary" in doc:
        doc.get("totals", {}).pop("events", None)

    def strip(section, pattern):
        if isinstance(doc.get(section), dict):
            doc[section] = {
                k: v for k, v in doc[section].items() if not pattern.search(k)
            }

    for section in ("counters", "gauges", "series"):
        strip(section, SCHEDULE_COST)
    strip("histograms", HOST_TIME_HIST)
    return doc


def physics_equal(old_root, new_root):
    def files(root):
        return {
            os.path.relpath(os.path.join(d, f), root)
            for d, _, fs in os.walk(root)
            for f in fs
        } - {"README.md"}

    old, new = files(old_root), files(new_root)
    problems = [
        f"{p}: only in {root}"
        for only, root in ((old - new, old_root), (new - old, new_root))
        for p in sorted(only)
        if os.path.basename(p) != "trace.json"
    ]
    for p in sorted(old & new):
        a = physics_of(os.path.join(old_root, p))
        b = physics_of(os.path.join(new_root, p))
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            for section in sorted(set(a) | set(b)):
                sa, sb = a.get(section), b.get(section)
                if sa == sb:
                    continue
                if isinstance(sa, dict) and isinstance(sb, dict):
                    keys = sorted(k for k in set(sa) | set(sb) if sa.get(k) != sb.get(k))
                    shown = ", ".join(keys[:8]) + (" ..." if len(keys) > 8 else "")
                    problems.append(f"{p}: {section}: {len(keys)} differ: {shown}")
                else:
                    problems.append(f"{p}: section {section!r} differs")
        else:
            problems.append(f"{p}: differs")
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print(f"physics equal: {len(old & new)} files under {old_root} and "
              f"{new_root} differ in schedule cost at most")
    return 1 if problems else 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--physics-equal":
        return physics_equal(sys.argv[2], sys.argv[3])
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in sys.argv[1:]:
        errors, doc = check(path)
        if errors:
            failed = True
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        elif "qcheck_summary" in doc:
            print(f"{path}: ok [qcheck summary schema] "
                  f"({doc['seeds']} seeds, {doc['violations']} violations, "
                  f"{doc['totals']['events']} events)")
        else:
            schema = experiment_name(path) or "generic"
            print(f"{path}: ok [{schema} schema] "
                  f"({len(doc['counters'])} counters, "
                  f"{len(doc['gauges'])} gauges, "
                  f"{len(doc['trace'].get('events', []))} trace events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
