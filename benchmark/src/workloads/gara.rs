//! `gara_broker`: the control plane alone — no packet moves.
//!
//! (a) Broker churn: qcheck's GARA op mix (`draw_gara_op`) driven straight
//! at the `Gara` service on an 8-router / 16-host line, enforcement
//! installed per grant. (b) Direct `SlotTable` churn at a standing
//! population: admit + free, resizes, all-or-nothing batches of 8, then
//! one `compact()`. The engine and the data plane do nothing here, so a
//! data-plane optimisation must not move this workload.

use super::{add, check, Counts, Laps, Params, Rep, Workload};
use crate::fingerprint::Fnv;
use crate::spans::Tracer;
use mpichgq_gara::{Gara, NetworkRequest, Request, ResvId, SlotId, SlotTable, StartSpec};
use mpichgq_netsim::{DepthRule, LinkCfg, Net, NodeId, PolicingAction, QueueCfg, TopoBuilder};
use mpichgq_obs::Histogram;
use mpichgq_qcheck::{draw_gara_op, GaraOp};
use mpichgq_sim::{SimDelta, SimRng, SimTime};
use std::time::Instant;

const ROUTERS: usize = 8;
const HOSTS: usize = 16;
/// Work at scale 1 (≈ 1 s of host time on the reference box).
const BROKER_OPS: u64 = 1_200_000;
const STANDING_SLOTS: u64 = 30_000;
const TABLE_ROUNDS: u64 = 60_000;
/// One simulated day of reservation windows.
const HORIZON_NS: u64 = 86_400_000_000_000;

pub struct GaraBroker;

pub struct World {
    net: Net,
    gara: Gara,
    hosts: Vec<NodeId>,
    table: SlotTable,
    slots: Vec<SlotId>,
    tenants: u64,
    ops: SimRng,
    table_rng: SimRng,
}

fn draw_window(rng: &mut SimRng) -> (SimTime, SimTime) {
    let start = rng.below(HORIZON_NS);
    let len = rng.range(1_000_000, HORIZON_NS / 100);
    (SimTime::from_nanos(start), SimTime::from_nanos(start + len))
}

/// Per-call latencies, recorded only in the traced pass: two clock reads
/// per admission would be a tenth of an untraced repetition.
struct Latency {
    on: bool,
    hist: Histogram,
}

impl Latency {
    fn new(on: bool) -> Latency {
        Latency {
            on,
            hist: Histogram::new(),
        }
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.hist.observe(t0.elapsed().as_nanos() as u64);
        r
    }

    fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q).unwrap_or(0) as f64 / 1_000.0
    }
}

/// Admit one scattered window, or — a quarter of the time — a chain of
/// four end-abutting equal-amount segments: what a tenant renewing an
/// advance reservation leaves behind, and what `compact()` is for.
/// Returns the number of admissions made.
fn admit(
    st: &mut SlotTable,
    rng: &mut SimRng,
    tenants: u64,
    ids: &mut Vec<SlotId>,
    lat: &mut Latency,
) -> u64 {
    let tenant = rng.below(tenants);
    let segments = if rng.chance(0.25) { 4 } else { 1 };
    let (s, e) = draw_window(rng);
    let amount = rng.range(1, 1_000);
    let seg = SimDelta::from_nanos((e.as_nanos() - s.as_nanos()) / segments);
    let mut at = s;
    for _ in 0..segments {
        let id = lat.time(|| st.try_insert_tenant(at, at + seg, amount, tenant));
        ids.push(id.expect("capacity is effectively unbounded"));
        at += seg;
    }
    segments
}

impl Workload for GaraBroker {
    type World = World;

    fn name(&self) -> &'static str {
        "gara_broker"
    }

    fn work_unit(&self) -> &'static str {
        "admission decision"
    }

    fn setup_builds(&self) -> u32 {
        25
    }

    /// Topology, routes, GARA on every core trunk, and the standing slot
    /// population.
    fn build(&self, p: &Params) -> World {
        let mut b = TopoBuilder::new(p.derive("topo"));
        let routers: Vec<NodeId> = (0..ROUTERS).map(|i| b.router(&format!("r{i}"))).collect();
        for pair in routers.windows(2) {
            b.link(
                pair[0],
                pair[1],
                LinkCfg::atm_vc(40_000_000, SimDelta::from_millis(1)),
                QueueCfg::priority_default(),
            );
        }
        let hosts: Vec<NodeId> = (0..HOSTS)
            .map(|i| {
                let h = b.host(&format!("h{i}"));
                b.link(
                    h,
                    routers[i % ROUTERS],
                    LinkCfg::fast_ethernet(SimDelta::from_micros(50)),
                    QueueCfg::priority_default(),
                );
                h
            })
            .collect();
        let net = b.build();
        let mut gara = Gara::new();
        gara.manage_core_links(&net, 0.7);

        // Capacity out of the way: the tree is what is measured.
        let mut table = SlotTable::new(u64::MAX / 4);
        let mut table_rng = p.rng("table");
        let standing = p.scaled(STANDING_SLOTS);
        let tenants = (standing / 8).max(1);
        let mut slots = Vec::with_capacity(standing as usize + 8);
        let mut untimed = Latency::new(false);
        while (slots.len() as u64) < standing {
            admit(
                &mut table,
                &mut table_rng,
                tenants,
                &mut slots,
                &mut untimed,
            );
        }
        World {
            net,
            gara,
            hosts,
            table,
            slots,
            tenants,
            ops: p.rng("gara-ops"),
            table_rng,
        }
    }

    fn run(&self, world: World, p: &Params, t: &mut Tracer) -> Rep {
        let World {
            mut net,
            mut gara,
            hosts,
            table: mut st,
            slots: mut ids,
            tenants,
            ops: mut rng,
            mut table_rng,
        } = world;
        let mut broker_lat = Latency::new(t.is_on());
        let mut table_lat = Latency::new(t.is_on());
        let mut admissions = 0u64;

        let mut laps = Laps::start();
        let span = t.begin("broker.churn");
        let mut granted: Vec<ResvId> = Vec::new();
        let pick = |granted: &[ResvId], victim: u64| granted[victim as usize % granted.len()];
        let ops = p.scaled(BROKER_OPS);
        for i in 0..ops {
            match draw_gara_op(&mut rng, &hosts, 1_000) {
                GaraOp::Reserve {
                    src,
                    dst,
                    proto,
                    rate_bps,
                    duration_ms,
                    shape,
                } => {
                    let req = NetworkRequest {
                        src,
                        dst,
                        proto,
                        src_port: None,
                        dst_port: None,
                        rate_bps,
                        depth: DepthRule::Normal,
                        action: PolicingAction::Drop,
                        shape_at_source: shape,
                    };
                    let dur = duration_ms.map(SimDelta::from_millis);
                    admissions += 1;
                    let res = broker_lat.time(|| {
                        gara.reserve(&mut net, Request::Network(req), StartSpec::Now, dur)
                    });
                    if let Ok(id) = res {
                        granted.push(id);
                    }
                }
                GaraOp::Modify { victim, rate_bps } if !granted.is_empty() => {
                    let _ = gara.modify_network_rate(&mut net, pick(&granted, victim), rate_bps);
                }
                GaraOp::Cancel { victim } if !granted.is_empty() => {
                    gara.cancel(&mut net, pick(&granted, victim));
                }
                GaraOp::Revoke { victim } if !granted.is_empty() => {
                    gara.revoke(&mut net, pick(&granted, victim));
                }
                _ => {}
            }
            laps.lap_every(i, ops);
        }
        t.end(span);
        let broker_s: f64 = laps.walls.iter().sum();

        // Every 8 rounds: 6 admit-and-free (population stays constant), one
        // resize in place, one batch of 8 co-reservations.
        let span = t.begin("table.churn");
        let rounds = p.scaled(TABLE_ROUNDS);
        for round in 0..rounds {
            match round % 8 {
                0..=5 => {
                    let n = admit(&mut st, &mut table_rng, tenants, &mut ids, &mut table_lat);
                    admissions += n;
                    for _ in 0..n {
                        let victim = table_rng.below(ids.len() as u64) as usize;
                        st.remove(ids.swap_remove(victim));
                    }
                }
                6 => {
                    let victim = ids[table_rng.below(ids.len() as u64) as usize];
                    let _ = st.try_resize(victim, table_rng.range(1, 1_000));
                }
                _ => {
                    let batch: Vec<(SimTime, SimTime, u64)> = (0..8)
                        .map(|_| {
                            let (s, e) = draw_window(&mut table_rng);
                            (s, e, table_rng.range(1, 1_000))
                        })
                        .collect();
                    admissions += 8;
                    let got = table_lat.time(|| st.try_insert_batch(&batch));
                    for id in got.expect("capacity is effectively unbounded") {
                        st.remove(id);
                    }
                }
            }
            laps.lap_every(round, rounds);
        }
        t.end(span);
        let before = st.len() as u64;
        let merges = t.span("table.compact", |_| st.compact().len() as u64);
        laps.lap();
        let compact_s = *laps.walls.last().expect("the compact slice");
        let wall_s: f64 = laps.walls.iter().sum();

        let chk = t.begin("check");
        let c = |name: &str| net.obs.metrics.counter_value(name).unwrap_or(0);
        let decisions = [
            ("granted", c("gara.reservations_granted")),
            ("rejected", c("gara.reservations_rejected")),
            ("modified", c("gara.modifies")),
            ("modify_rejected", c("gara.modifies_rejected")),
            ("cancelled", c("gara.cancels")),
            ("revoked", c("gara.revocations")),
            ("compact_merges", merges),
            ("standing_slots", st.len() as u64),
            ("boundary_nodes", st.boundary_count() as u64),
        ];
        let mut fp = Fnv::default();
        for (_, v) in decisions {
            fp.put(v);
        }
        fp.put(st.max_peak());
        let overcommit = gara
            .slot_tables()
            .map(|(_, tbl)| tbl.max_overcommit())
            .chain([st.max_overcommit()])
            .max()
            .unwrap_or(0);

        let mut counts = Counts::new();
        add(&mut counts, "gara.admissions", admissions as f64);
        add(&mut counts, "gara.granted", decisions[0].1 as f64);
        add(&mut counts, "gara.rejected", decisions[1].1 as f64);
        add(
            &mut counts,
            "gara.admit_p50_us",
            broker_lat.quantile_us(0.5),
        );
        add(
            &mut counts,
            "gara.admit_p99_us",
            broker_lat.quantile_us(0.99),
        );
        add(
            &mut counts,
            "gara.admit_samples",
            broker_lat.hist.count() as f64,
        );
        add(
            &mut counts,
            "slot.insert_p99_us",
            table_lat.quantile_us(0.99),
        );
        add(&mut counts, "slot.compact_ms", compact_s * 1e3);
        add(&mut counts, "slot.boundary_nodes", decisions[8].1 as f64);
        add(&mut counts, "gara.broker_share", broker_s / wall_s);
        let rep = Rep {
            slices: laps.walls,
            worker_wait_s: 0.0,
            physics_fp: fp.finish(),
            work: admissions,
            counts,
            facts: decisions.to_vec(),
            checks: vec![
                check("no table is overcommitted", overcommit == 0),
                check(
                    "compact merge accounting",
                    before - merges == st.len() as u64,
                ),
                check(
                    "broker made decisions",
                    decisions[0].1 > 0 && decisions[1].1 > 0,
                ),
            ],
        };
        t.end(chk);
        rep
    }
}
