//! Packet-lifecycle tracing: per-hop spans, per-flow latency histograms,
//! and deadline (SLO) conformance.
//!
//! The paper's Figures 7–8 are claims about *where delay accrues* — in the
//! sender's shaper, an EF or best-effort queue, serialization, or the wire.
//! The flight recorder's flat event ring cannot answer that, so this module
//! follows each packet through its life and decomposes one-way delay per
//! hop:
//!
//! ```text
//! send ──(shaper?)── enqueue ──queue── tx start ──tx── tx done ──wire── deliver
//!                       │                 │                          │
//!                       └── queue span ───┘     per hop              └─ e2e span
//! ```
//!
//! The [`PacketTracer`] is owned by `Net` as `Option<Box<...>>` (the same
//! pattern as the fault layer): when tracing is off, every hook is a single
//! predictable branch and the simulation byte-stream is unchanged. When on,
//! it maintains:
//!
//! * per-flow ([`FlowKey`]) one-way **delay** and **jitter** histograms,
//! * per-class (EF / best-effort) **queue-wait** histograms across all hops,
//! * a bounded log of lifecycle [`Span`]s for Chrome-trace export,
//! * per-flow **deadline** conformance: miss counters, miss-streak
//!   high-water marks, and `slo.miss` flight-recorder events.
//!
//! All times are nanoseconds of sim time; everything is deterministic.

use crate::classifier::FlowSpec;
use crate::link::{Chan, ChanId};
use crate::packet::{Dscp, FlowKey, Packet};
use mpichgq_obs::{FlightRecorder, Histogram, JsonWriter, Registry};
use mpichgq_sim::{FxHashMap, SimTime};
use std::collections::VecDeque;

/// Default bound on retained lifecycle spans (~3 MB of span log).
pub(crate) const DEFAULT_MAX_SPANS: usize = 65_536;

/// How many consecutive packet ids the in-flight ring covers. A packet
/// still in flight when one this many ids younger is sent — one parked in
/// a shaper, say — moves to the spill map instead of holding the ring open.
const RING_SPAN: u64 = 4_096;

/// Bytes to reserve per span for the Chrome trace export
/// ([`crate::Net::chrome_trace_json`]): a span exports as ≈ 154 B, so
/// the document is written into one buffer that never grows.
pub(crate) const CHROME_TRACE_BYTES_PER_SPAN: usize = 192;

/// What a lifecycle span or instant records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Waiting in an interface queue (duration = queue wait).
    Queue,
    /// Serializing onto the link (duration = serialization time).
    Tx,
    /// Propagating on the wire (duration = propagation delay).
    Wire,
    /// Whole packet life, birth to delivery (duration = one-way delay).
    E2e,
    /// Instant: held back by an egress shaper.
    Shaped,
    /// Instant: dropped by a full queue.
    DropQueueFull,
    /// Instant: dropped early by RED/WRED before the queue filled.
    DropRedEarly,
    /// Instant: dropped by an edge policer.
    DropPoliced,
    /// Instant: dropped by the fault layer (loss/corrupt/link-down).
    DropFault,
    /// Instant: dropped for want of a route, or delivered to a host it was
    /// not addressed to (hosts do not forward).
    DropMisrouted,
    /// Instant: delivered past its flow's deadline.
    SloMiss,
}

impl SpanKind {
    /// Stable label used in trace exports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Tx => "tx",
            SpanKind::Wire => "wire",
            SpanKind::E2e => "e2e",
            SpanKind::Shaped => "shaped",
            SpanKind::DropQueueFull => "drop.queue_full",
            SpanKind::DropRedEarly => "drop.red_early",
            SpanKind::DropPoliced => "drop.policed",
            SpanKind::DropFault => "drop.fault",
            SpanKind::DropMisrouted => "drop.misrouted",
            SpanKind::SloMiss => "slo.miss",
        }
    }

    /// Complete spans export as Chrome `"X"` events; the rest as `"i"`.
    pub(crate) fn is_complete(self) -> bool {
        matches!(
            self,
            SpanKind::Queue | SpanKind::Tx | SpanKind::Wire | SpanKind::E2e
        )
    }
}

/// One recorded lifecycle span (or instant, when `dur_ns` is irrelevant).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start time, nanoseconds of sim time.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    pub kind: SpanKind,
    /// The channel this span happened on, or `u32::MAX` for flow-scoped
    /// spans (e2e, shaped, SLO misses).
    pub chan: u32,
    /// Packet trace id.
    pub pkt: u64,
    /// Dense flow index (see [`PacketTracer::flows`]).
    pub flow: u32,
}

impl Span {
    /// `chan` value for spans not tied to a channel.
    pub(crate) const NO_CHAN: u32 = u32::MAX;
}

/// Per-flow latency and conformance state.
#[derive(Debug)]
pub struct FlowRec {
    pub key: FlowKey,
    /// Stable display/metric name, e.g. `"n0p49152-n2p6000.tcp"`.
    pub name: String,
    /// One-way delay, birth to delivery, nanoseconds.
    pub delay: Histogram,
    /// Delay variation: `|delay - previous delay|`, nanoseconds.
    pub jitter: Histogram,
    last_delay_ns: Option<u64>,
    /// Delivery deadline; delay strictly above it is a miss.
    pub deadline_ns: Option<u64>,
    pub delivered: u64,
    pub misses: u64,
    miss_streak: u64,
    /// Longest run of consecutive misses.
    pub max_miss_streak: u64,
    pub worst_delay_ns: u64,
}

impl FlowRec {
    fn new(key: FlowKey) -> FlowRec {
        let proto = match key.proto {
            crate::packet::Proto::Tcp => "tcp",
            crate::packet::Proto::Udp => "udp",
        };
        FlowRec {
            name: format!(
                "{}p{}-{}p{}.{}",
                key.src, key.src_port, key.dst, key.dst_port, proto
            ),
            key,
            delay: Histogram::new(),
            jitter: Histogram::new(),
            last_delay_ns: None,
            deadline_ns: None,
            delivered: 0,
            misses: 0,
            miss_streak: 0,
            max_miss_streak: 0,
            worst_delay_ns: 0,
        }
    }
}

/// In-flight state of one traced packet.
#[derive(Debug, Clone, Copy)]
struct PacketLife {
    flow: u32,
    /// When the packet entered the queue of its current hop.
    enq_at: SimTime,
}

/// Traced packets in flight, by id. `Net::send_ip` hands out ids in send
/// order, so the live ones sit in a window of ids: `ring[id - base]` is
/// packet `id`, `None` once it was delivered or dropped, and the front is
/// always the oldest live packet of the window. Finding a packet is an
/// index, not a hash. Ids below `base` — packets pushed out of the window
/// by one [`RING_SPAN`] younger, or sent out of order — live in `spill`.
#[derive(Debug, Default)]
struct InFlight {
    ring: VecDeque<Option<PacketLife>>,
    base: u64,
    spill: FxHashMap<u64, PacketLife>,
}

impl InFlight {
    fn insert(&mut self, id: u64, life: PacketLife) {
        if self.ring.is_empty() && id >= self.base {
            self.base = id;
        }
        if id < self.base {
            self.spill.insert(id, life);
            return;
        }
        while id - self.base >= RING_SPAN {
            match self.ring.pop_front() {
                Some(old) => {
                    if let Some(old) = old {
                        self.spill.insert(self.base, old);
                    }
                    self.base += 1;
                }
                None => self.base = id,
            }
        }
        let off = (id - self.base) as usize;
        if off >= self.ring.len() {
            self.ring.resize(off + 1, None);
        }
        self.ring[off] = Some(life);
        self.trim();
    }

    #[inline]
    fn get_mut(&mut self, id: u64) -> Option<&mut PacketLife> {
        match id.checked_sub(self.base) {
            Some(off) => self.ring.get_mut(off as usize)?.as_mut(),
            None => self.spill.get_mut(&id),
        }
    }

    #[inline]
    fn remove(&mut self, id: u64) -> Option<PacketLife> {
        match id.checked_sub(self.base) {
            Some(off) => {
                let life = self.ring.get_mut(off as usize)?.take();
                self.trim();
                life
            }
            None => self.spill.remove(&id),
        }
    }

    /// Drop finished packets off the front, so it is the oldest live one.
    #[inline]
    fn trim(&mut self) {
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

/// The lifecycle tracer. Created by `Net::enable_packet_tracing`; all
/// hooks are crate-internal and called from the network's hot paths behind
/// an `Option` check.
#[derive(Debug)]
pub struct PacketTracer {
    flow_ids: FxHashMap<FlowKey, u32>,
    flows: Vec<FlowRec>,
    active: InFlight,
    /// Queue wait of EF-marked packets, all hops.
    pub ef_wait: Histogram,
    /// Queue wait of AF-marked packets (all drop precedences), all hops.
    pub af_wait: Histogram,
    /// Queue wait of best-effort packets, all hops.
    pub be_wait: Histogram,
    spans: Vec<Span>,
    max_spans: usize,
    spans_dropped: u64,
    /// Deadline rules applied to flows on first sight (first match wins).
    deadline_rules: Vec<(FlowSpec, u64)>,
    total_misses: u64,
}

impl PacketTracer {
    pub(crate) fn new(max_spans: usize) -> PacketTracer {
        PacketTracer {
            flow_ids: FxHashMap::default(),
            flows: Vec::new(),
            active: InFlight::default(),
            ef_wait: Histogram::new(),
            af_wait: Histogram::new(),
            be_wait: Histogram::new(),
            spans: Vec::new(),
            max_spans,
            spans_dropped: 0,
            deadline_rules: Vec::new(),
            total_misses: 0,
        }
    }

    /// Registered flows, in first-seen order (dense `flow` indices).
    pub fn flows(&self) -> &[FlowRec] {
        &self.flows
    }

    /// Retained lifecycle spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans discarded after the retention bound filled up.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Total deadline misses across all flows.
    pub(crate) fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Traced packets neither delivered nor dropped yet.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.active.ring.iter().flatten().count() + self.active.spill.len()
    }

    pub(crate) fn add_deadline_rule(&mut self, spec: FlowSpec, deadline_ns: u64) {
        // Existing flows: first installed rule wins, so only fill gaps.
        for f in &mut self.flows {
            if f.deadline_ns.is_none() && spec_matches_key(&spec, &f.key) {
                f.deadline_ns = Some(deadline_ns);
            }
        }
        self.deadline_rules.push((spec, deadline_ns));
    }

    #[inline]
    fn push_span(&mut self, span: Span) {
        if self.spans.len() < self.max_spans {
            self.spans.push(span);
        } else {
            self.spans_dropped += 1;
        }
    }

    fn flow_of(&mut self, pkt: &Packet) -> u32 {
        let key = FlowKey::of(pkt);
        if let Some(&i) = self.flow_ids.get(&key) {
            return i;
        }
        let i = self.flows.len() as u32;
        let mut rec = FlowRec::new(key);
        for (spec, dl) in &self.deadline_rules {
            // DSCP at send time is pre-marking, which is what deadline
            // specs written against the 5-tuple expect.
            if spec_matches_key(spec, &key) {
                rec.deadline_ns = Some(*dl);
                break;
            }
        }
        self.flows.push(rec);
        self.flow_ids.insert(key, i);
        i
    }

    /// Hook: packet injected at its source host (after id/birth stamping).
    pub(crate) fn on_send(&mut self, now: SimTime, pkt: &Packet) {
        let flow = self.flow_of(pkt);
        self.active.insert(pkt.id, PacketLife { flow, enq_at: now });
    }

    /// Hook: packet held back by an egress shaper.
    pub(crate) fn on_shaped(&mut self, now: SimTime, pkt_id: u64) {
        if let Some(life) = self.active.get_mut(pkt_id) {
            let flow = life.flow;
            self.push_span(Span {
                ts_ns: now.as_nanos(),
                dur_ns: 0,
                kind: SpanKind::Shaped,
                chan: Span::NO_CHAN,
                pkt: pkt_id,
                flow,
            });
        }
    }

    /// Hook: packet entered the queue of an interface.
    pub(crate) fn on_enqueue(&mut self, now: SimTime, pkt_id: u64) {
        if let Some(life) = self.active.get_mut(pkt_id) {
            life.enq_at = now;
        }
    }

    /// Hook: packet left a queue and started transmitting on `chan`.
    /// Emits the hop's queue/tx/wire spans and the per-class queue-wait
    /// observation.
    pub(crate) fn on_tx_start(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        chan: ChanId,
        ser_ns: u64,
        wire_ns: u64,
    ) {
        let Some(life) = self.active.get_mut(pkt.id).copied() else {
            return; // packet predates tracing enablement
        };
        let wait = now.as_nanos().saturating_sub(life.enq_at.as_nanos());
        match pkt.dscp {
            Dscp::Ef => self.ef_wait.observe(wait),
            Dscp::Af(_) => self.af_wait.observe(wait),
            Dscp::BestEffort => self.be_wait.observe(wait),
        }
        let base = Span {
            ts_ns: life.enq_at.as_nanos(),
            dur_ns: wait,
            kind: SpanKind::Queue,
            chan: chan.0,
            pkt: pkt.id,
            flow: life.flow,
        };
        self.push_span(base);
        self.push_span(Span {
            ts_ns: now.as_nanos(),
            dur_ns: ser_ns,
            kind: SpanKind::Tx,
            ..base
        });
        self.push_span(Span {
            ts_ns: now.as_nanos() + ser_ns,
            dur_ns: wire_ns,
            kind: SpanKind::Wire,
            ..base
        });
    }

    /// Hook: packet destroyed before delivery. `chan` is the interface it
    /// died on, or [`Span::NO_CHAN`].
    pub(crate) fn on_drop(&mut self, now: SimTime, pkt_id: u64, kind: SpanKind, chan: u32) {
        if let Some(life) = self.active.remove(pkt_id) {
            self.push_span(Span {
                ts_ns: now.as_nanos(),
                dur_ns: 0,
                kind,
                chan,
                pkt: pkt_id,
                flow: life.flow,
            });
        }
    }

    /// Hook: packet reached its destination host. Updates delay/jitter
    /// histograms and evaluates the flow's deadline; misses feed both the
    /// span log and the flight recorder (`slo.miss`).
    pub(crate) fn on_delivered(&mut self, now: SimTime, pkt: &Packet, fr: &mut FlightRecorder) {
        let Some(life) = self.active.remove(pkt.id) else {
            return;
        };
        let delay_ns = now.as_nanos().saturating_sub(pkt.born.as_nanos());
        let f = &mut self.flows[life.flow as usize];
        f.delivered += 1;
        f.delay.observe(delay_ns);
        if let Some(prev) = f.last_delay_ns {
            f.jitter.observe(delay_ns.abs_diff(prev));
        }
        f.last_delay_ns = Some(delay_ns);
        if delay_ns > f.worst_delay_ns {
            f.worst_delay_ns = delay_ns;
        }
        let mut missed = false;
        if let Some(dl) = f.deadline_ns {
            if delay_ns > dl {
                missed = true;
                f.misses += 1;
                f.miss_streak += 1;
                if f.miss_streak > f.max_miss_streak {
                    f.max_miss_streak = f.miss_streak;
                }
            } else {
                f.miss_streak = 0;
            }
        }
        let flow = life.flow;
        self.push_span(Span {
            ts_ns: pkt.born.as_nanos(),
            dur_ns: delay_ns,
            kind: SpanKind::E2e,
            chan: Span::NO_CHAN,
            pkt: pkt.id,
            flow,
        });
        if missed {
            self.total_misses += 1;
            self.push_span(Span {
                ts_ns: now.as_nanos(),
                dur_ns: 0,
                kind: SpanKind::SloMiss,
                chan: Span::NO_CHAN,
                pkt: pkt.id,
                flow,
            });
            fr.record(now, "slo.miss", flow as u64, delay_ns as i64);
        }
    }

    /// Publish what only a snapshot carries — per-flow and per-class
    /// histograms and the span-log overflow count — into the registry
    /// (called from `Net::publish_metrics`; `slo.misses` is part of the
    /// network's metric walk, so the sampler records it too).
    pub(crate) fn publish(&self, m: &mut Registry) {
        m.record_hist("phb.ef.queue_wait_ns", &self.ef_wait);
        m.record_hist("phb.af.queue_wait_ns", &self.af_wait);
        m.record_hist("phb.be.queue_wait_ns", &self.be_wait);
        for f in &self.flows {
            m.record_hist(&format!("flow.{}.delay_ns", f.name), &f.delay);
            m.record_hist(&format!("flow.{}.jitter_ns", f.name), &f.jitter);
        }
        m.record_total("trace.spans_dropped", self.spans_dropped);
    }

    /// Write the `"slo"` metrics section:
    /// `{"flows": [{"flow", "deadline_ns", "delivered", "misses",
    /// "miss_streak_max", "worst_delay_ns"}, ...], "total_misses": N}`.
    /// Flows are name-sorted; flows without a deadline report
    /// `"deadline_ns": null`.
    pub(crate) fn write_slo_json(&self, w: &mut JsonWriter) {
        let mut order: Vec<usize> = (0..self.flows.len()).collect();
        order.sort_by(|&a, &b| self.flows[a].name.cmp(&self.flows[b].name));
        w.begin_object();
        w.key("flows");
        w.begin_array();
        for i in order {
            let f = &self.flows[i];
            w.begin_object();
            w.key("flow");
            w.string(&f.name);
            w.key("deadline_ns");
            match f.deadline_ns {
                Some(d) => w.u64(d),
                None => w.raw("null"),
            }
            w.key("delivered");
            w.u64(f.delivered);
            w.key("misses");
            w.u64(f.misses);
            w.key("miss_streak_max");
            w.u64(f.max_miss_streak);
            w.key("worst_delay_ns");
            w.u64(f.worst_delay_ns);
            w.end_object();
        }
        w.end_array();
        w.key("total_misses");
        w.u64(self.total_misses);
        w.end_object();
    }

    /// Write the span log as a Chrome trace-event document (Perfetto and
    /// `chrome://tracing` load it).
    ///
    /// Layout: each channel is a "process" (`pid` = channel index + 1)
    /// named after its endpoints; flow-scoped spans (e2e, shaped, SLO
    /// misses) land on per-flow processes after the channels. Timestamps
    /// are microseconds with fixed 3-digit nanosecond fractions, so output
    /// is byte-stable; exact nanosecond values ride along in `args`.
    pub(crate) fn write_chrome_trace(&self, w: &mut JsonWriter, chans: &[Chan], names: &[String]) {
        let flow_pid_base = chans.len() as u64 + 1;
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        // Process-name metadata first: channels, then flows.
        let mut used = vec![false; chans.len()];
        for s in &self.spans {
            if let Some(u) = used.get_mut(s.chan as usize) {
                *u = true; // `NO_CHAN` falls outside
            }
        }
        for (i, c) in chans.iter().enumerate() {
            if !used[i] {
                continue; // idle channel: keep the trace small
            }
            write_process_name(
                w,
                i as u64 + 1,
                &format!(
                    "chan{} {}->{}",
                    i, names[c.from.0 as usize], names[c.to.0 as usize]
                ),
            );
        }
        for (i, f) in self.flows.iter().enumerate() {
            write_process_name(w, flow_pid_base + i as u64, &format!("flow {}", f.name));
        }
        for s in &self.spans {
            let pid = if s.chan == Span::NO_CHAN {
                flow_pid_base + s.flow as u64
            } else {
                s.chan as u64 + 1
            };
            w.begin_object();
            w.key("name");
            w.string(s.kind.label());
            w.key("ph");
            w.string(if s.kind.is_complete() { "X" } else { "i" });
            w.key("ts");
            us(w, s.ts_ns);
            if s.kind.is_complete() {
                w.key("dur");
                us(w, s.dur_ns);
            } else {
                w.key("s");
                w.string("p"); // process-scoped instant
            }
            w.key("pid");
            w.u64(pid);
            w.key("tid");
            w.u64(1);
            w.key("args");
            w.begin_object();
            w.key("pkt");
            w.u64(s.pkt);
            w.key("flow");
            w.string(&self.flows[s.flow as usize].name);
            w.key("ts_ns");
            w.u64(s.ts_ns);
            w.key("dur_ns");
            w.u64(s.dur_ns);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.key("displayTimeUnit");
        w.string("ms");
        // Summary block for qtrace: per-flow histograms + SLO state.
        w.key("otherData");
        w.begin_object();
        w.key("spans_dropped");
        w.u64(self.spans_dropped);
        w.key("flows");
        w.begin_array();
        let mut order: Vec<usize> = (0..self.flows.len()).collect();
        order.sort_by(|&a, &b| self.flows[a].name.cmp(&self.flows[b].name));
        for i in order {
            let f = &self.flows[i];
            w.begin_object();
            w.key("flow");
            w.string(&f.name);
            w.key("delay_ns");
            f.delay.write_json(w);
            w.key("jitter_ns");
            f.jitter.write_json(w);
            w.key("deadline_ns");
            match f.deadline_ns {
                Some(d) => w.u64(d),
                None => w.raw("null"),
            }
            w.key("delivered");
            w.u64(f.delivered);
            w.key("misses");
            w.u64(f.misses);
            w.key("miss_streak_max");
            w.u64(f.max_miss_streak);
            w.key("worst_delay_ns");
            w.u64(f.worst_delay_ns);
            w.end_object();
        }
        w.end_array();
        w.key("slo");
        self.write_slo_json(w);
        w.end_object();
        w.end_object();
    }
}

/// Match a deadline spec against a flow's 5-tuple. The DS field is not
/// part of [`FlowKey`] (marking happens downstream of the sender), so a
/// `dscp` constraint in the spec is ignored here.
fn spec_matches_key(spec: &FlowSpec, key: &FlowKey) -> bool {
    spec.src.is_none_or(|v| v == key.src)
        && spec.dst.is_none_or(|v| v == key.dst)
        && spec.proto.is_none_or(|v| v == key.proto)
        && spec.src_port.is_none_or(|v| v == key.src_port)
        && spec.dst_port.is_none_or(|v| v == key.dst_port)
}

/// Nanoseconds as a microsecond decimal with exactly three fraction
/// digits — a fixed-width, byte-stable JSON number.
fn us(w: &mut JsonWriter, ns: u64) {
    w.raw_fmt(format_args!("{}.{:03}", ns / 1_000, ns % 1_000));
}

fn write_process_name(w: &mut JsonWriter, pid: u64, name: &str) {
    w.begin_object();
    w.key("name");
    w.string("process_name");
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.u64(pid);
    w.key("tid");
    w.u64(0);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string(name);
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, Proto, L4};

    fn probe(src_port: u16) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(2),
            src_port,
            dst_port: 6000,
            dscp: Dscp::BestEffort,
            l4: L4::Udp,
            payload_len: 100,
            id: 7,
            born: SimTime::from_millis(1),
        }
    }

    #[test]
    fn deadline_rules_apply_to_existing_and_future_flows() {
        let mut t = PacketTracer::new(16);
        let mut p1 = probe(1000);
        p1.id = 1;
        t.on_send(SimTime::ZERO, &p1);
        t.add_deadline_rule(
            FlowSpec::host_pair(NodeId(0), NodeId(2), Proto::Udp),
            5_000_000,
        );
        assert_eq!(t.flows()[0].deadline_ns, Some(5_000_000));
        let mut p2 = probe(2000);
        p2.id = 2;
        t.on_send(SimTime::ZERO, &p2);
        assert_eq!(t.flows()[1].deadline_ns, Some(5_000_000));
        // Non-matching flow stays deadline-free.
        let mut p3 = probe(3000);
        p3.dst = NodeId(9);
        p3.id = 3;
        t.on_send(SimTime::ZERO, &p3);
        assert_eq!(t.flows()[2].deadline_ns, None);
    }

    #[test]
    fn delivery_updates_delay_jitter_and_misses() {
        let mut t = PacketTracer::new(16);
        let mut fr = FlightRecorder::default();
        fr.enable(8);
        t.add_deadline_rule(FlowSpec::any(), 2_000_000); // 2 ms deadline
        let mut send_recv = |id: u64, born_ms: u64, deliver_ms: u64| {
            let mut p = probe(1000);
            p.id = id;
            p.born = SimTime::from_millis(born_ms);
            t.on_send(p.born, &p);
            t.on_delivered(SimTime::from_millis(deliver_ms), &p, &mut fr);
        };
        send_recv(1, 0, 1); // 1 ms: conformant
        send_recv(2, 10, 13); // 3 ms: miss
        send_recv(3, 20, 24); // 4 ms: miss (streak 2)
        send_recv(4, 30, 31); // 1 ms: streak resets
        let f = &t.flows()[0];
        assert_eq!(f.delivered, 4);
        assert_eq!(f.misses, 2);
        assert_eq!(f.max_miss_streak, 2);
        assert_eq!(f.worst_delay_ns, 4_000_000);
        assert_eq!(f.delay.count(), 4);
        assert_eq!(f.jitter.count(), 3);
        assert_eq!(t.total_misses(), 2);
        let miss_events: Vec<_> = fr.events().filter(|e| e.kind == "slo.miss").collect();
        assert_eq!(miss_events.len(), 2);
        assert_eq!(miss_events[0].key, 0); // flow index
        assert_eq!(miss_events[0].value, 3_000_000);
        // E2e spans recorded for every delivery, SloMiss instants for misses.
        let e2e = t.spans().iter().filter(|s| s.kind == SpanKind::E2e).count();
        assert_eq!(e2e, 4);
    }

    #[test]
    fn a_parked_packet_spills_instead_of_holding_the_ring_open() {
        let mut t = PacketTracer::new(0);
        let mut fr = FlightRecorder::default();
        let mut p = probe(1000);
        p.id = 0;
        t.on_send(SimTime::ZERO, &p); // parked in a shaper for the whole run
        let n = 3 * RING_SPAN;
        for id in 1..=n {
            let mut q = probe(2000);
            q.id = id;
            t.on_send(SimTime::ZERO, &q);
            t.on_enqueue(SimTime::ZERO, id);
            t.on_tx_start(SimTime::from_millis(1), &q, ChanId(0), 1_000, 1_000);
            t.on_delivered(SimTime::from_millis(2), &q, &mut fr);
            // Packet 0 holds the ring open until it is RING_SPAN ids old.
            let held = if id < RING_SPAN { id + 1 } else { 0 };
            assert_eq!(t.active.ring.len() as u64, held, "after packet {id}");
        }
        assert_eq!((t.active.spill.len(), t.in_flight()), (1, 1));
        assert_eq!(t.be_wait.count(), n);
        // Released at last: found in the spill map, delivered as any other.
        t.on_tx_start(SimTime::from_secs(1), &p, ChanId(0), 1_000, 1_000);
        t.on_delivered(SimTime::from_secs(2), &p, &mut fr);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.flows()[0].delivered, 1);
        assert_eq!(t.be_wait.max(), Some(1_000_000_000));
    }

    #[test]
    fn ids_out_of_send_order_are_still_found() {
        let mut t = PacketTracer::new(64);
        let mut fr = FlightRecorder::default();
        let send = |t: &mut PacketTracer, id: u64| {
            let mut p = probe(1000);
            p.id = id;
            t.on_send(SimTime::ZERO, &p);
            p
        };
        // 50 first, then older ids (below the ring: spilled), a gap, and
        // one far beyond the ring's span (the window moves past 50).
        let ps: Vec<Packet> = [50, 7, 3, 52, 60, 51, 50 + 2 * RING_SPAN]
            .into_iter()
            .map(|id| send(&mut t, id))
            .collect();
        assert_eq!(t.in_flight(), ps.len());
        for (k, p) in ps.iter().enumerate().rev() {
            t.on_drop(SimTime::from_millis(1), p.id, SpanKind::DropQueueFull, 0);
            assert_eq!(t.in_flight(), k, "after dropping {}", p.id);
        }
        // Nothing is found twice.
        t.on_delivered(SimTime::from_millis(2), &ps[0], &mut fr);
        assert_eq!(t.flows()[0].delivered, 0);
        assert_eq!(t.spans().len(), ps.len());
        assert!(t.active.ring.is_empty() && t.active.spill.is_empty());
    }

    #[test]
    fn span_log_is_bounded() {
        let mut t = PacketTracer::new(2);
        let mut fr = FlightRecorder::default();
        for id in 0..5u64 {
            let mut p = probe(1000);
            p.id = id;
            t.on_send(SimTime::ZERO, &p);
            t.on_delivered(SimTime::from_millis(1), &p, &mut fr);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans_dropped(), 3);
    }

    #[test]
    fn chrome_trace_names_only_channels_that_carry_spans() {
        // h0 -- r -- h1: four channels; the packet crosses 0 (h0->r) and
        // 2 (r->h1), the reverse directions stay idle and unnamed.
        let cfg = crate::link::LinkCfg::fast_ethernet(mpichgq_sim::SimDelta::from_millis(1));
        let chans: Vec<Chan> = [(0, 1), (1, 0), (1, 2), (2, 1)]
            .into_iter()
            .map(|(from, to)| Chan {
                from: NodeId(from),
                to: NodeId(to),
                cfg,
                edge_ingress: false,
                tx_packets: 0,
                tx_bytes_wire: 0,
                rx_packets: 0,
                purged: 0,
            })
            .collect();
        let names = ["h0", "r", "h1"].map(String::from);
        let mut t = PacketTracer::new(64);
        let mut fr = FlightRecorder::default();
        let p = probe(1000);
        t.on_send(p.born, &p);
        t.on_tx_start(SimTime::from_millis(1), &p, ChanId(0), 8_000, 1_000_000);
        t.on_tx_start(SimTime::from_millis(3), &p, ChanId(2), 8_000, 1_000_000);
        t.on_delivered(SimTime::from_millis(5), &p, &mut fr);
        let mut w = JsonWriter::new();
        t.write_chrome_trace(&mut w, &chans, &names);
        let doc = mpichgq_obs::parse(&w.finish()).expect("trace parses");
        let processes: Vec<(u64, String)> = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .map(|e| {
                let name = e.get("args").and_then(|a| a.get("name"));
                (
                    e.get("pid").and_then(|p| p.as_u64()).expect("pid"),
                    name.and_then(|n| n.as_str()).expect("name").to_owned(),
                )
            })
            .collect();
        let flow = format!("flow {}", t.flows()[0].name);
        assert_eq!(
            processes,
            [
                (1, "chan0 h0->r".to_owned()),
                (3, "chan2 r->h1".to_owned()),
                (5, flow),
            ]
        );
    }
}
