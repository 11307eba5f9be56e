//! `bulk_tcp32`: 32 greedy bulk TCP flows over one OC12 20 ms trunk with
//! 10 GbE edges and default TCP. `tcp::conn` segment processing, per-ACK
//! RTO re-arms and a deep calendar population do the work — ROADMAP item
//! 2's named target. The greedy apps are the benchmark's own, written on
//! `tcp::{App, Ctx}`; `sharded_islands` reuses them.

use super::{check, collect, drive, get, start_jitter, Counts, Params, Rep, Workload};
use crate::fingerprint::physics_fp;
use crate::spans::Tracer;
use mpichgq_netsim::{Framing, LinkCfg, NodeId, QueueCfg, TopoBuilder};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, Sim, SockId, TcpCfg};
use std::cell::Cell;
use std::rc::Rc;

const FLOWS: usize = 32;
/// Simulated length at scale 1 (≈ 1 s of host time on the reference box).
const SIM_LEN: SimDelta = SimDelta::from_millis(3_500);
const TIMER_START: u32 = 1;

/// Greedy sender: connect after `start`, then keep the send buffer full.
pub struct BulkTx {
    dst: NodeId,
    port: u16,
    start: SimDelta,
    sock: Option<SockId>,
}

impl BulkTx {
    pub fn new(dst: NodeId, port: u16, start: SimDelta) -> BulkTx {
        BulkTx {
            dst,
            port,
            start,
            sock: None,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        let s = self.sock.expect("pump after connect");
        while ctx.send(s, 16 * 1024) > 0 {}
    }
}

impl App for BulkTx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.start, TIMER_START);
    }
    fn on_timer(&mut self, _token: u32, ctx: &mut Ctx) {
        self.sock =
            Some(ctx.tcp_connect(self.dst, self.port, TcpCfg::default(), DataMode::Counted));
    }
    fn on_connected(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
    fn on_writable(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
}

/// Drain-everything receiver; counts the bytes it read.
pub struct BulkRx {
    port: u16,
    received: Rc<Cell<u64>>,
}

impl BulkRx {
    pub fn new(port: u16) -> (BulkRx, Rc<Cell<u64>>) {
        let received = Rc::new(Cell::new(0));
        (
            BulkRx {
                port,
                received: received.clone(),
            },
            received,
        )
    }
}

impl App for BulkRx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(self.port, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, s: SockId, ctx: &mut Ctx) {
        self.received
            .set(self.received.get() + ctx.recv(s, u64::MAX));
    }
}

/// 10 GbE host-to-router edge.
pub fn edge_link() -> LinkCfg {
    LinkCfg {
        bandwidth_bps: 10_000_000_000,
        delay: SimDelta::from_micros(10),
        framing: Framing::None,
    }
}

pub fn oc12(delay: SimDelta) -> LinkCfg {
    LinkCfg {
        bandwidth_bps: 622_080_000,
        delay,
        framing: Framing::None,
    }
}

pub struct BulkTcp32;

pub struct World {
    sim: Sim,
    received: Vec<Rc<Cell<u64>>>,
    t_end: SimTime,
}

impl Workload for BulkTcp32 {
    type World = World;

    fn name(&self) -> &'static str {
        "bulk_tcp32"
    }

    fn work_unit(&self) -> &'static str {
        "delivered packet"
    }

    fn setup_builds(&self) -> u32 {
        2_800
    }

    fn build(&self, p: &Params) -> World {
        let mut b = TopoBuilder::new(p.derive("topo"));
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let q = QueueCfg::priority_default();
        b.link(r1, r2, oc12(SimDelta::from_millis(20)), q);
        let pairs: Vec<(NodeId, NodeId)> = (0..FLOWS)
            .map(|i| {
                let src = b.host(&format!("src{i}"));
                let dst = b.host(&format!("dst{i}"));
                b.link(src, r1, edge_link(), q);
                b.link(r2, dst, edge_link(), q);
                (src, dst)
            })
            .collect();
        let mut sim = Sim::new(b.build());
        let mut jitter = p.rng("flow-start");
        let mut received = Vec::with_capacity(FLOWS);
        for &(src, dst) in &pairs {
            let (rx, got) = BulkRx::new(7000);
            received.push(got);
            sim.spawn_app(dst, Box::new(rx));
            sim.spawn_app(
                src,
                Box::new(BulkTx::new(dst, 7000, start_jitter(&mut jitter))),
            );
        }
        World {
            sim,
            received,
            t_end: p.scaled_time(SIM_LEN),
        }
    }

    fn run(&self, world: World, _p: &Params, t: &mut Tracer) -> Rep {
        let World {
            mut sim,
            received,
            t_end,
        } = world;
        let mut counts = Counts::new();
        let slices = drive(&mut sim, t_end, t, &mut counts);

        let chk = t.begin("check");
        let audit = collect(&mut sim, &mut counts);
        let bytes: Vec<u64> = received.iter().map(|r| r.get()).collect();
        let rep = Rep {
            slices,
            worker_wait_s: 0.0,
            physics_fp: physics_fp(sim.now(), &audit, &bytes),
            work: audit.delivered,
            checks: vec![
                check("ledger conserved", audit.conserved()),
                check("all 32 flows delivered", bytes.iter().all(|&b| b > 0)),
                check(
                    "no karn/invariant violations",
                    get(&counts, "tcp.violations") == 0.0,
                ),
            ],
            counts,
            facts: vec![
                ("pkts_delivered", audit.delivered),
                ("bytes_received", bytes.iter().sum()),
            ],
        };
        t.end(chk);
        rep
    }
}
