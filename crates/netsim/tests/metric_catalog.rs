//! The metric read-out path from the public surface: one world that runs
//! every piece of instrumented machinery, read through both consumers of
//! the network's metric walk (the registry snapshot and the timeline
//! sampler) and through the conservation audit.
//!
//! Three contracts: the two consumers carry the same catalog (they differ
//! by a documented tail each), a handler's probe reaches the timeline
//! through the sink it is handed, and no reader moves what it reads.

use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    ClassCfg, Dscp, FaultAction, FaultPlan, FlowSpec, Framing, LinkCfg, MetricSink, Net,
    NetHandler, NodeId, Packet, PolicingAction, Proto, QueueCfg, RedCfg, SchedCfg, TokenBucket,
    TopoBuilder, L4,
};
use mpichgq_sim::{SimDelta, SimTime};

const SRC: NodeId = NodeId(0);
const SRC2: NodeId = NodeId(1);
const R: NodeId = NodeId(2);
const DST: NodeId = NodeId(3);
const T_END: SimTime = SimTime::from_millis(300);

/// Every millisecond each live source offers its flows' datagrams; the
/// probe reports how many ticks it has seen.
struct Driver {
    ticks: u64,
}

fn udp(src: NodeId, dport: u16) -> Packet {
    Packet {
        src,
        dst: DST,
        src_port: 1,
        dst_port: dport,
        dscp: Dscp::BestEffort,
        l4: L4::Udp,
        payload_len: 972, // 1000-byte datagrams
        id: 0,
        born: SimTime::ZERO,
    }
}

impl NetHandler for Driver {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, net: &mut Net, host: NodeId, _token: u64) {
        self.ticks += 1;
        // SRC: one premium (10), two assured (20), two best-effort (30);
        // SRC2: eight best-effort into its slow access link.
        let ports: &[u16] = if host == SRC {
            &[10, 20, 20, 30, 30]
        } else {
            &[40; 8]
        };
        for &p in ports {
            net.send_ip(udp(host, p));
        }
        let next = net.now() + SimDelta::from_millis(1);
        if next < T_END {
            net.set_host_timer(host, next, 0);
        }
    }
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
    fn host_restarted(&mut self, net: &mut Net, host: NodeId) {
        // The crash swallowed the tick chain; a rebooted source resumes.
        net.set_host_timer(host, net.now(), 0);
    }
    fn timeline_sample(&mut self, _net: &Net, _at: SimTime, sink: &mut dyn MetricSink) {
        sink.counter("probe.ticks", self.ticks);
        sink.gauge("probe.level", 0.5);
    }
}

/// `SRC` and `SRC2` reach `DST` through router `R` over an 8 Mb/s WFQ
/// trunk with WRED on AF and RED on BE. At `R`'s edge the premium flow is
/// marked EF under a drop policer and the assured flow AF under a
/// remarking one; `SRC` also shapes its premium flow. The trunk is cut for
/// 20 ms and `SRC2` crashes with a backlog on its 2 Mb/s access link, then
/// reboots.
fn world() -> (Net, Driver) {
    let mut b = TopoBuilder::new(11);
    let (src, src2, r, dst) = (b.host("src"), b.host("src2"), b.router("r"), b.host("dst"));
    assert_eq!((src, src2, r, dst), (SRC, SRC2, R, DST));
    let link = |bandwidth_bps| LinkCfg {
        bandwidth_bps,
        delay: SimDelta::from_millis(1),
        framing: Framing::None,
    };
    let wred = RedCfg::wred_ramp(10_000, 40_000).map(|c| c.ewma_shift(4));
    let red = RedCfg::new(10_000, 40_000).ewma_shift(4);
    let trunk_q = QueueCfg::Sched(
        SchedCfg::wfq()
            .af(ClassCfg::new(60_000).wred(wred))
            .be(ClassCfg::new(60_000).red(red)),
    );
    b.link(src, r, link(100_000_000), QueueCfg::priority_default());
    b.link(src2, r, link(2_000_000), QueueCfg::droptail_default());
    let (trunk, _) = b.link(r, dst, link(8_000_000), trunk_q);
    let mut net = b.build();

    let flow = |port| FlowSpec::exact(SRC, DST, Proto::Udp, 1, port);
    let edge = &mut net.node_mut(R).classifier;
    edge.install(
        flow(10),
        Dscp::Ef,
        Some(TokenBucket::new(2_000_000, 3_000)),
        PolicingAction::Drop,
    );
    edge.install(
        flow(20),
        Dscp::Af(Default::default()),
        Some(TokenBucket::new(4_000_000, 3_000)),
        PolicingAction::Remark,
    );
    net.install_shaper(SRC, flow(10), TokenBucket::new(4_000_000, 3_000));
    net.install_fault_plan(
        FaultPlan::new(3)
            .link_outage(trunk, SimTime::from_millis(100), SimDelta::from_millis(20))
            .at(
                SimTime::from_millis(150),
                FaultAction::HostCrash { host: SRC2 },
            )
            .at(
                SimTime::from_millis(200),
                FaultAction::HostRestart { host: SRC2 },
            ),
    );
    for host in [SRC, SRC2] {
        net.set_host_timer(host, SimTime::ZERO, 0);
    }
    (net, Driver { ticks: 0 })
}

#[test]
fn registry_and_timeline_carry_one_catalog() {
    let (mut net, mut h) = world();
    net.set_deadline_matching(
        FlowSpec::exact(SRC, DST, Proto::Udp, 1, 10),
        SimDelta::from_millis(5),
    );
    net.enable_timeline(SimDelta::from_millis(10));
    net.run_until(&mut h, T_END);
    net.timeline_finalize(&mut h, T_END);
    net.publish_metrics();
    let reg = &net.obs.metrics;
    let tl = net.timeline().expect("sampler armed");

    // The world ran every gated piece of machinery.
    for key in [
        "net.drops.red_early",
        "qdisc.early_drops.af",
        "qdisc.early_drops.be",
        "iface004.enq_af",
        "iface004.early_af1",
        "iface004.early_be",
        "node002.marked_ef",
        "node002.marked_af",
        "node002.remarked",
        "node002.rule000.policed_pkts",
        "node000.shaper000.delayed",
        "faults.link_downs",
        "faults.drops.host_down",
        "faults.host_restarts",
        "slo.misses",
    ] {
        assert!(
            reg.counter_value(key) > Some(0),
            "{key} never moved: {:?}",
            reg.counter_value(key)
        );
    }
    for key in [
        "iface004.hw_af_bytes",
        "node002.rule000.bucket_level_bytes",
        "node000.shaper000.bucket_level_bytes",
    ] {
        assert!(reg.gauge_value(key).is_some(), "{key} missing");
    }

    // (a) Every registry counter is a series ending at the counter's
    // value; the one snapshot-only counter is the span-log overflow.
    let mut unsampled = Vec::new();
    for (name, v) in reg.counters() {
        match tl.last_counter(name) {
            Some(last) => assert_eq!(last, v, "series {name} ends off its counter"),
            None => unsampled.push(name),
        }
    }
    assert_eq!(unsampled, ["trace.spans_dropped"]);

    // (b) Every gauge series is a registry gauge, but for the timeline's
    // own tail: per-class occupancy, burn rates and the handler's probe.
    let class_backlog = |n: &str| {
        n.starts_with("iface")
            && ["ef", "af", "be"]
                .iter()
                .any(|c| n.ends_with(&format!(".backlog_{c}_bytes")))
    };
    let mut tail = 0;
    for name in tl.names().filter(|n| tl.gauge(n).is_some()) {
        if reg.gauge_value(name).is_none() {
            assert!(
                class_backlog(name) || name.starts_with("slo.burn.") || name == "probe.level",
                "gauge series {name} is in no registry and no documented tail"
            );
            tail += 1;
        }
    }
    assert!(tail >= 6, "the timeline-only tail went missing");

    // (c) What the handler wrote to its sink is in the exported document.
    let doc = mpichgq_obs::parse(&net.timeline_json().expect("armed")).expect("valid JSON");
    let series = doc.get("series").expect("series section");
    let ticks = series.get("probe.ticks").expect("probe counter exported");
    assert_eq!(ticks.get("kind").and_then(|k| k.as_str()), Some("counter"));
    assert_eq!(tl.last_counter("probe.ticks"), Some(h.ticks));
    let level = series.get("probe.level").expect("probe gauge exported");
    assert_eq!(level.get("kind").and_then(|k| k.as_str()), Some("gauge"));
}

/// Every token bucket in the world, as its full `Debug` state (level and
/// refill clock): policers in rule order, then shapers, per node.
fn buckets(net: &Net) -> Vec<String> {
    (0..net.node_count() as u32)
        .flat_map(|n| {
            let node = net.node(NodeId(n));
            let policers = node.classifier.rules().filter_map(|r| r.policer.as_ref());
            policers
                .chain(node.shapers.iter().map(|s| &s.bucket))
                .map(|tb| format!("{tb:?}"))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn snapshot_and_audit_leave_token_buckets_untouched() {
    let half = SimTime::from_nanos(T_END.as_nanos() / 2 + 123_457);
    let (mut net, mut h) = world();
    net.run_until(&mut h, half);
    let before = buckets(&net);
    assert_eq!(before.len(), 3, "two policers and a shaper");
    let snapshot = net.metrics_json();
    assert!(snapshot.contains("node002.rule000.bucket_level_bytes"));
    assert_eq!(net.audit().bucket_violations, 0);
    assert_eq!(buckets(&net), before, "a reader committed a refill");

    // And so the rest of the run is the run nobody looked at.
    let (mut twin, mut th) = world();
    twin.run_until(&mut th, half);
    for (n, hh) in [(&mut net, &mut h), (&mut twin, &mut th)] {
        n.run_until(hh, T_END);
    }
    assert_eq!(net.state_fingerprint(), twin.state_fingerprint());
    assert_eq!(format!("{:?}", net.audit()), format!("{:?}", twin.audit()));
    assert_eq!(buckets(&net), buckets(&twin));
}
