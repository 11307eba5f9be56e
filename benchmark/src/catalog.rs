//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`benchmark catalog`), and a test
//! holds the committed file to them.

use mpichgq_obs::JsonWriter;

/// Seconds one run measures for (`--seconds`); the driver passes it back.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDoc] = &[
    WorkloadDoc {
        name: "pingpong_qos",
        why: "Paper Fig. 5 point (40 Kb ping-pong, 6 Mb/s premium, 150 Mb/s UDP contention): netsim forwarding, classifier/policer and SP queue over a shallow event population; TCP and MPI do little.",
    },
    WorkloadDoc {
        name: "pingpong_qos_observed",
        why: "Same scenario with flight recorder, lifecycle tracing and 100 ms timeline armed, exports inside the measured region: the obs/lifecycle cost; must not move when only the plain path changes.",
    },
    WorkloadDoc {
        name: "bulk_tcp32",
        why: "32 greedy bulk TCP flows over one OC12 20 ms trunk: tcp::conn segment processing, per-ACK RTO re-arms and a deep calendar population; little classifier, MPI or GARA work.",
    },
    WorkloadDoc {
        name: "mpi_stencil16",
        why: "16-rank halo stencil (4 KB eager, 128 KB rendezvous, allreduce, cpu_work) on two sites, shaped premium WAN pair: mpi matching, coll, dsrt, core agent and shaper carry the run; no contention.",
    },
    WorkloadDoc {
        name: "gara_broker",
        why: "No packets: qcheck GARA op stream against the broker with enforcement per grant, then SlotTable churn and compact at a standing population: the control plane, which data-plane changes must not move.",
    },
    WorkloadDoc {
        name: "qcheck_sweep",
        why: "Hundreds of short random qcheck scenarios: construction, routing, every qdisc (WFQ/DRR x RED/WRED), fault plans, crashes and audits; guards non-default paths and cost moved into set-up.",
    },
    WorkloadDoc {
        name: "sharded_islands",
        why: "4 WAN-separated groups of bulk flows under run_partitioned on 2 threads: netsim::shard window/barrier/inbox cost and per-shard world duplication; the only multi-threaded workload.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The same four on every workload. `pass_ratio` is `1 - fail_ratio`: a
/// healthy run fails no check, and an end-to-end metric may never read 0.
///
/// The bounds are sized to the host, not to the simulator (README, "Noise
/// protocol"): over sets of ten runs on the 2-core sandbox this was written
/// on, `wall_s` spread 1–14 % and `setup_s` 4–13 % of their medians, the
/// medians of two sets moved up to 14 % and 33 % (a CPU-only loop drifts
/// as much), and `sharded_islands`' high-water mark reads 75–97 MB
/// depending on how its two threads interleave.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "pass_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.0001,
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact; repeats bit for bit on one commit.
    Count,
    /// Isolated micro-loop over the layer's public functions.
    Probe,
    /// Ratio or quotient of other numbers, or a host timing.
    Derived,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind,
    }
}

use Kind::{Count, Derived, Probe};

/// Per-layer metrics, prefix = module. A metric whose layer does no work
/// on a workload reads 0 there (that is its "not on" prediction).
pub const PER_LAYER: &[Layer] = &[
    // sim::engine
    m("engine.events", "count", "lower", Count),
    m("engine.events_per_pkt", "ratio", "lower", Derived),
    m("engine.events_per_s", "1/s", "higher", Derived),
    m("engine.pending_mean", "count", "lower", Count),
    m("engine.cal_scan_per_event", "ratio", "lower", Derived),
    m("engine.cal_slow_push_ratio", "ratio", "lower", Derived),
    m("engine.probe_ns_per_op.1k", "ns", "lower", Probe),
    m("engine.probe_ns_per_op.100k", "ns", "lower", Probe),
    // netsim::net
    m("net.pkts_delivered", "count", "higher", Count),
    m("net.pkt_hops", "count", "higher", Count),
    m("net.drop_ratio", "ratio", "lower", Derived),
    m("net.ns_per_pkt_hop", "ns", "lower", Derived),
    m("net.build_us", "us", "lower", Derived),
    // netsim::queue
    m("queue.probe_ns_per_pkt.sp_droptail", "ns", "lower", Probe),
    m("queue.probe_ns_per_pkt.wfq_red", "ns", "lower", Probe),
    m("queue.probe_ns_per_pkt.drr_wred", "ns", "lower", Probe),
    m("queue.enq", "count", "higher", Count),
    m("queue.tail_drops", "count", "lower", Count),
    m("queue.early_drops", "count", "lower", Count),
    // netsim::{classifier,tokenbucket,shaper}
    m("classifier.probe_ns_per_pkt.2rules", "ns", "lower", Probe),
    m("classifier.probe_ns_per_pkt.16rules", "ns", "lower", Probe),
    m("classifier.policed_ratio", "ratio", "lower", Derived),
    m("tokenbucket.probe_ns_per_op", "ns", "lower", Probe),
    m("shaper.probe_ns_per_pkt", "ns", "lower", Probe),
    // tcp::conn
    m("tcp.probe_ns_per_segment", "ns", "lower", Probe),
    m("tcp.probe_timer_arms_per_segment", "ratio", "lower", Probe),
    m("tcp.probe_allocs_per_segment", "ratio", "lower", Probe),
    m("tcp.rtos", "count", "lower", Count),
    m("tcp.fast_rtx", "count", "lower", Count),
    m("tcp.rtx_ratio", "ratio", "lower", Derived),
    // mpi
    m("mpi.eager_sends", "count", "higher", Count),
    m("mpi.rndv_sends", "count", "higher", Count),
    m("mpi.iterations", "count", "higher", Count),
    m("mpi.ns_per_msg", "ns", "lower", Derived),
    // gara
    m("gara.admissions", "count", "higher", Count),
    m("gara.reject_ratio", "ratio", "lower", Derived),
    m("gara.admit_p50_us", "us", "lower", Derived),
    m("gara.admit_p99_us", "us", "lower", Derived),
    m("slot.insert_p99_us", "us", "lower", Derived),
    m("slot.compact_ms", "ms", "lower", Derived),
    m("slot.boundary_nodes", "count", "lower", Count),
    m("gara.broker_share", "ratio", "lower", Derived),
    // obs + netsim::lifecycle
    m("obs.overhead_ratio", "ratio", "lower", Derived),
    m("obs.run_overhead_ratio", "ratio", "lower", Derived),
    m("obs.export_s", "s", "lower", Derived),
    m("obs.export_bytes", "B", "lower", Count),
    m("obs.timeline_ticks", "count", "higher", Count),
    m("obs.spans_kept", "count", "higher", Count),
    m("obs.spans_dropped", "count", "lower", Count),
    m("obs.probe_hist_ns_per_record", "ns", "lower", Probe),
    m("obs.probe_timeline_ns_per_tick", "ns", "lower", Probe),
    m("obs.probe_counter_ns_per_add", "ns", "lower", Probe),
    // netsim::shard
    m("shard.t1_wall_s", "s", "lower", Derived),
    m("shard.mono_wall_s", "s", "lower", Derived),
    m("shard.speedup_2t", "ratio", "higher", Derived),
    m("shard.partition_overhead_ratio", "ratio", "lower", Derived),
    m("shard.windows", "count", "lower", Count),
    // qcheck
    m("qcheck.seeds", "count", "higher", Count),
    m("qcheck.events", "count", "lower", Count),
    m("qcheck.build_share", "ratio", "lower", Derived),
    m("qcheck.seed_us_p50", "us", "lower", Derived),
    m("qcheck.seed_us_p99", "us", "lower", Derived),
    // allocator
    // Not exact: two back-to-back runs of one commit differed by one
    // allocation in 819 172 (and threads allocate as they interleave).
    m("alloc.count", "count", "lower", Derived),
    m("alloc.per_op", "ratio", "lower", Derived),
    m("alloc.bytes_per_op", "B", "lower", Derived),
    m("alloc.peak_live_mb", "MB", "lower", Derived),
    // host / harness (noise indicators)
    m("host.cores", "count", "higher", Derived),
    m("host.cpu_s", "s", "lower", Derived),
    m("host.preempt_ratio", "ratio", "lower", Derived),
    m("host.reps_discarded", "count", "lower", Derived),
    m("trace.overhead_ratio", "ratio", "lower", Derived),
];

/// One object on one line: `{"k": v, ...}` with string or raw values.
fn row(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn quoted(s: &str) -> String {
    let mut w = JsonWriter::new();
    w.string(s);
    w.finish()
}

/// The contents of `/BENCHMARK.json`, one row per line for readable diffs.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .map(quoted)
    .join(", ");
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| row(&[("name", quoted(w.name)), ("why", quoted(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            row(&[
                ("name", quoted(e.name)),
                ("unit", quoted(e.unit)),
                ("better", quoted(e.better)),
                ("bound", e.bound.to_string()),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|l| {
            row(&[
                ("name", quoted(l.name)),
                ("unit", quoted(l.unit)),
                ("better", quoted(l.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(PER_LAYER.iter().map(|l| l.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|l| l.unit));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
        for e in END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark catalog > BENCHMARK.json`"
        );
    }
}
