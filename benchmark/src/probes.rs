//! Per-layer probes: isolated micro-loops over one layer's public
//! functions, with inputs shaped like the workloads'. Each runs for five
//! samples and reports the median, inside a `probe.<metric>` span.
//!
//! A probe times a layer alone and uncontended, so `count × probe ns` is
//! an upper estimate of that layer's share of a workload's `wall_s`
//! ([`estimated_shares`]), never a measurement of it.

use crate::alloc;
use crate::host::{median, undisturbed};
use crate::spans::Tracer;
use crate::workloads::{add, get, Counts};
use mpichgq_netsim::{
    AfPrec, ClassCfg, Classifier, Dscp, FlowSpec, NodeId, Packet, PolicingAction, Proto, Queue,
    QueueCfg, RedCfg, SchedCfg, ShapeOutcome, Shaper, TokenBucket, L4,
};
use mpichgq_obs::{Histogram, Registry, Timeline};
use mpichgq_sim::{Engine, SimDelta, SimRng, SimTime};
use mpichgq_tcp::{Connection, Out, SegIn, SegOut, TcpCfg};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 5;
/// Host time per sample at scale 1: five make the 0.2 s a probe runs for.
const SAMPLE_TIME: Duration = Duration::from_millis(40);

/// Median ns per operation. `batch` does some operations and returns how
/// many; it is called until each sample's time is spent.
fn ns_per_op(scale: f64, mut batch: impl FnMut() -> u64) -> f64 {
    let budget = SAMPLE_TIME.mul_f64(scale);
    batch(); // warm-up
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut ops = 0u64;
            while t0.elapsed() < budget || ops == 0 {
                ops += batch();
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&undisturbed(&samples))
}

fn udp(dscp: Dscp, src: u32, dst_port: u16) -> Packet {
    Packet {
        src: NodeId(src),
        dst: NodeId(1),
        src_port: 59_999,
        dst_port,
        dscp,
        l4: L4::Udp,
        payload_len: 1472,
        id: 0,
        born: SimTime::ZERO,
    }
}

/// Pop-then-schedule against a standing population: the engine alone.
fn engine_churn(population: u64) -> impl FnMut() -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = SimRng::new(0xBEEF);
    for i in 0..population {
        eng.schedule(SimTime::from_nanos(rng.below(1_000_000) + 1), i);
    }
    move || {
        for _ in 0..1024 {
            let (at, ev) = eng.pop().expect("population never drains");
            eng.schedule(at + SimDelta::from_nanos(rng.below(1_000_000) + 1), ev);
        }
        1024
    }
}

/// Enqueue + pop around half occupancy, a quarter of the packets EF; the
/// rest are `bulk` (best-effort, or AF so WRED has precedences to pick).
fn queue_churn(cfg: QueueCfg, bulk: [Dscp; 3]) -> impl FnMut() -> u64 {
    let mut q = Queue::with_seed(cfg, 0x51DE);
    let mut n = 0u32;
    let mut next = move || {
        n = n.wrapping_add(1);
        if n.is_multiple_of(4) {
            udp(Dscp::Ef, 0, 20_000)
        } else {
            udp(bulk[n as usize % 3], 0, 20_000)
        }
    };
    for _ in 0..50 {
        q.enqueue(next());
    }
    move || {
        for _ in 0..256 {
            black_box(q.enqueue(next()));
            black_box(q.pop());
        }
        256
    }
}

/// Classify against `rules` exact-match policed rules. As on GARNET's
/// edge, nine packets in ten match no rule and walk the whole list.
fn classifier_churn(rules: u16) -> impl FnMut() -> u64 {
    let mut cl = Classifier::new();
    for r in 0..rules {
        cl.install(
            FlowSpec::exact(NodeId(0), NodeId(1), Proto::Udp, 59_999, 10_000 + r),
            Dscp::Ef,
            Some(TokenBucket::new(6_000_000, 150_000)),
            PolicingAction::Drop,
        );
    }
    let mut now_ns = 0u64;
    let mut n = 0u16;
    move || {
        for _ in 0..256 {
            n = n.wrapping_add(1);
            now_ns += 80_000;
            let mut pkt = if n.is_multiple_of(10) {
                udp(Dscp::BestEffort, 0, 10_000 + n % rules)
            } else {
                udp(Dscp::BestEffort, 2, 20_000)
            };
            black_box(cl.classify(SimTime::from_nanos(now_ns), &mut pkt));
        }
        256
    }
}

fn tokenbucket_churn() -> impl FnMut() -> u64 {
    let mut tb = TokenBucket::new(6_000_000, 150_000);
    let mut now_ns = 0u64;
    move || {
        for _ in 0..1024 {
            now_ns += 1_500_000; // 1500 B every 1.5 ms: 8 Mb/s into 6 Mb/s
            black_box(tb.try_consume(SimTime::from_nanos(now_ns), 1500));
        }
        1024
    }
}

/// Offer packets a third faster than the shaper's rate and release on its
/// schedule, so most packets queue and leave through `release_into`.
fn shaper_churn() -> impl FnMut() -> u64 {
    let mut sh = Shaper::new(0, FlowSpec::any(), TokenBucket::new(6_000_000, 15_000));
    let mut now_ns = 0u64;
    let mut release: Option<(SimTime, u64)> = None;
    let mut out = Vec::new();
    move || {
        for _ in 0..256 {
            now_ns += 1_500_000;
            let now = SimTime::from_nanos(now_ns);
            while let Some((at, gen)) = release.filter(|(at, _)| *at <= now) {
                out.clear();
                release = sh.release_into(at, gen, &mut out).map(|n| (n, sh.gen));
                black_box(&out);
            }
            // A full source would block; keep the backlog bounded.
            if sh.queue.len() < 64 {
                if let ShapeOutcome::Queued { arm_at: Some(at) } =
                    sh.offer(now, udp(Dscp::BestEffort, 0, 20_000))
                {
                    release = Some((at, sh.gen));
                }
            }
        }
        256
    }
}

/// Two `Connection`s piped in memory: a greedy writer, a reader that
/// drains, every segment delivered 10 µs after it was emitted, no loss.
struct TcpPipe {
    ends: [Connection; 2],
    wire: VecDeque<(usize, SegOut)>,
    now_ns: u64,
    timer_arms: u64,
    segments: u64,
}

impl TcpPipe {
    fn new() -> TcpPipe {
        let cfg = TcpCfg::default();
        let (client, outs) = Connection::connect(cfg, SimTime::ZERO);
        let syn = outs
            .iter()
            .find_map(|o| match o {
                Out::Seg(s) => Some(*s),
                _ => None,
            })
            .expect("connect emits a SYN");
        let (server, outs) = Connection::accept(cfg, &seg_in(&syn), SimTime::ZERO);
        let mut pipe = TcpPipe {
            ends: [client, server],
            wire: VecDeque::new(),
            now_ns: 0,
            timer_arms: 0,
            segments: 0,
        };
        pipe.apply(1, outs);
        pipe
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }

    /// Act on what connection `end` asked for.
    fn apply(&mut self, end: usize, outs: Vec<Out>) {
        for o in outs {
            match o {
                Out::Seg(s) => self.wire.push_back((1 - end, s)),
                Out::ArmTimer { .. } => self.timer_arms += 1,
                Out::Connected | Out::Writable if end == 0 => {
                    let (_, outs) = self.ends[0].write(64 * 1024, self.now());
                    self.apply(0, outs);
                }
                Out::Readable => {
                    let (_, outs) = self.ends[end].read(u64::MAX);
                    self.apply(end, outs);
                }
                _ => {}
            }
        }
    }

    /// Deliver `n` segments (data or ACK), refilling the writer as needed.
    fn deliver(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            let (to, seg) = self.wire.pop_front().expect("a greedy flow never idles");
            self.now_ns += 10_000;
            let outs = self.ends[to].on_segment(&seg_in(&seg), self.now());
            self.segments += 1;
            self.apply(to, outs);
            if self.ends[0].send_buffer_free() >= 16 * 1024 {
                let (_, outs) = self.ends[0].write(16 * 1024, self.now());
                self.apply(0, outs);
            }
        }
        n
    }
}

fn seg_in(s: &SegOut) -> SegIn {
    SegIn {
        seq: s.seq,
        ack: s.ack,
        wnd: s.wnd,
        len: s.len,
        flags: s.flags,
    }
}

fn hist_churn() -> impl FnMut() -> u64 {
    let mut h = Histogram::new();
    let mut rng = SimRng::new(0x4157);
    move || {
        for _ in 0..1024 {
            // Delays from microseconds to tens of milliseconds.
            h.observe(1_000 + rng.below(30_000_000));
        }
        black_box(h.count());
        1024
    }
}

/// One sampler tick = one push on each of 200 series (half counters, half
/// gauges), looked up by name as `Net`'s sampler does.
fn timeline_churn() -> impl FnMut() -> u64 {
    let names: Vec<String> = (0..100)
        .map(|i| format!("iface{i:03}.tx_packets"))
        .collect();
    let gauges: Vec<String> = (0..100).map(|i| format!("iface{i:03}.backlog")).collect();
    let mut tl = Timeline::new(100_000_000);
    let mut tick = 0u64;
    move || {
        // A fresh timeline per batch keeps memory bounded.
        if tick.is_multiple_of(4096) {
            tl = Timeline::new(100_000_000);
        }
        for _ in 0..16 {
            tick += 1;
            let at = tick * 100_000_000;
            for (i, n) in names.iter().enumerate() {
                tl.push_counter(n, at, tick * (i as u64 + 1));
            }
            for (i, n) in gauges.iter().enumerate() {
                tl.push_gauge(n, at, (tick + i as u64) as f64);
            }
        }
        16
    }
}

/// String-keyed `Registry::add` in a registry as populated as a run's, the
/// way `mpi` counts every send.
fn counter_churn() -> impl FnMut() -> u64 {
    let mut reg = Registry::default();
    for i in 0..200 {
        reg.add(&format!("iface{i:03}.enq_be"), 1);
    }
    move || {
        for _ in 0..512 {
            reg.add("mpi.eager_sends", 1);
            reg.add("mpi.sent_bytes", 4096);
        }
        1024
    }
}

/// A probe's inner loop: does some operations, returns how many.
type Batch<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// Run every probe, adding its metric to `c`.
pub fn run_all(t: &mut Tracer, scale: f64, c: &mut Counts) {
    let be = [Dscp::BestEffort; 3];
    let af = [
        Dscp::Af(AfPrec::Low),
        Dscp::Af(AfPrec::Medium),
        Dscp::Af(AfPrec::High),
    ];
    let red = RedCfg::new(30_000, 120_000);
    let wfq_red = SchedCfg::wfq().be(ClassCfg::new(150_000).red(red));
    let drr_wred = SchedCfg::drr().af(ClassCfg::new(150_000)
        .weight(3)
        .wred(RedCfg::wred_ramp(30_000, 120_000)));
    let sp = queue_churn(QueueCfg::priority_default(), be);
    let wfq = queue_churn(QueueCfg::Sched(wfq_red), be);
    let drr = queue_churn(QueueCfg::Sched(drr_wred), af);
    let mut pipe = TcpPipe::new();

    let timed: Vec<(&'static str, Batch)> = vec![
        ("engine.probe_ns_per_op.1k", Box::new(engine_churn(1_000))),
        (
            "engine.probe_ns_per_op.100k",
            Box::new(engine_churn(100_000)),
        ),
        ("queue.probe_ns_per_pkt.sp_droptail", Box::new(sp)),
        ("queue.probe_ns_per_pkt.wfq_red", Box::new(wfq)),
        ("queue.probe_ns_per_pkt.drr_wred", Box::new(drr)),
        (
            "classifier.probe_ns_per_pkt.2rules",
            Box::new(classifier_churn(2)),
        ),
        (
            "classifier.probe_ns_per_pkt.16rules",
            Box::new(classifier_churn(16)),
        ),
        ("tokenbucket.probe_ns_per_op", Box::new(tokenbucket_churn())),
        ("shaper.probe_ns_per_pkt", Box::new(shaper_churn())),
        ("obs.probe_hist_ns_per_record", Box::new(hist_churn())),
        ("obs.probe_timeline_ns_per_tick", Box::new(timeline_churn())),
        ("obs.probe_counter_ns_per_add", Box::new(counter_churn())),
        ("tcp.probe_ns_per_segment", Box::new(|| pipe.deliver(256))),
    ];
    for (name, batch) in timed {
        let v = t.span(&format!("probe.{name}"), |_| ns_per_op(scale, batch));
        add(c, name, v);
    }

    // Counted in a pass of its own: counting slows the allocator.
    let span = t.begin("probe.tcp.probe_allocs_per_segment");
    let (arms0, segs0) = (pipe.timer_arms, pipe.segments);
    alloc::start();
    pipe.deliver(20_000);
    let allocs = alloc::snapshot().count;
    alloc::stop();
    let segs = (pipe.segments - segs0) as f64;
    add(c, "tcp.probe_allocs_per_segment", allocs as f64 / segs);
    add(
        c,
        "tcp.probe_timer_arms_per_segment",
        (pipe.timer_arms - arms0) as f64 / segs,
    );
    t.end(span);
}

/// Each probed layer's estimated share of a repetition's CPU time
/// (`busy_s`: `wall_s` on one thread): its count in the traced repetition
/// × its probe's ns ÷ `busy_s`, with the unattributed remainder last. Probes run uncontended and warm, so a share is what a
/// faster layer could save at most; should the estimates overshoot they
/// are scaled to sum to 100 %, never past it.
pub fn estimated_shares(c: &Counts, busy_s: f64) -> Vec<(String, f64)> {
    let engine_probe = if get(c, "engine.pending_mean") >= 10_000.0 {
        "engine.probe_ns_per_op.100k"
    } else {
        "engine.probe_ns_per_op.1k"
    };
    let rows = [
        ("engine.events", engine_probe),
        ("queue.enq", "queue.probe_ns_per_pkt.sp_droptail"),
        ("net.pkts_sent", "classifier.probe_ns_per_pkt.2rules"),
        ("shaper.pkts", "shaper.probe_ns_per_pkt"),
        ("tcp.segs", "tcp.probe_ns_per_segment"),
        ("obs.timeline_ticks", "obs.probe_timeline_ns_per_tick"),
        ("obs.spans_kept", "obs.probe_hist_ns_per_record"),
    ];
    let mut shares: Vec<(String, f64)> = rows
        .iter()
        .map(|(count, probe)| {
            (
                format!("{count} x {probe}"),
                get(c, count) * get(c, probe) / 1e9 / busy_s,
            )
        })
        .filter(|(_, s)| *s > 0.0)
        .collect();
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    if total > 1.0 {
        for (_, s) in &mut shares {
            *s /= total;
        }
    }
    shares.push(("unattributed".to_string(), (1.0 - total).max(0.0)));
    shares
}
