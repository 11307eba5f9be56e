//! `mpi_stencil16`: the only workload where `mpi::engine` matching,
//! `mpi::coll`, `dsrt`, `core::agent` and `netsim::shaper` carry the run.
//!
//! 16 ranks on two 8-host sites joined by a 100 Mb/s, 5 ms WAN VC. Per
//! iteration: a 4 KB eager halo exchange with both line neighbours (a
//! 128 KB rendezvous halo every 8th iteration), an 8-byte allreduce, then
//! 1 ms of `cpu_work`. The pair of ranks that spans the WAN talks through
//! a two-party intercommunicator carrying a premium attribute, shaped at
//! the source. No contention, so forwarding is cheap.

use super::{check, collect, drive, get, start_jitter, Counts, Params, Rep, Workload};
use crate::fingerprint::physics_fp;
use crate::spans::Tracer;
use mpichgq_apps::TwoSites;
use mpichgq_core::{enable_qos, QosAgentCfg, QosAttribute, QosEnv};
use mpichgq_mpi::{
    Allreduce, CollState, CommId, JobBuilder, JobHandle, Mpi, MpiProgram, Poll, ReqId,
};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::Sim;
use std::cell::RefCell;
use std::rc::Rc;

const RANKS: usize = 16;
/// Iterations at scale 1 (≈ 1 s of host time on the reference box).
const ITERATIONS: u64 = 1100;
const HALO_EAGER: u32 = 4 * 1024;
/// Above the 64 KB eager limit: goes by rendezvous.
const HALO_RNDV: u32 = 128 * 1024;
const RNDV_EVERY: u64 = 8;
const COMPUTE: SimDelta = SimDelta::from_millis(1);
/// Premium rate for each direction of the WAN pair, in Kb/s.
const WAN_PREMIUM_KBPS: f64 = 40_000.0;
/// An iteration takes 17.8 simulated ms (two WAN crossings for the halo,
/// two for the allreduce, the compute); the run is given 20 ms for each
/// plus the start jitter, and the job must finish within it.
const SIM_PER_ITERATION: SimDelta = SimDelta::from_millis(20);
const SIM_SLACK: SimDelta = SimDelta::from_millis(200);
const TAG_HALO: u32 = 0x57E;
const TIMER_START: u32 = 1;

/// What rank 0 saw, shared with the harness.
#[derive(Debug, Default)]
struct Progress {
    iterations: u64,
    /// Σ over iterations of the allreduce result.
    checksum: u64,
    finished_at: Option<SimTime>,
}

enum State {
    Wait,
    Init,
    Exchange,
    WaitExchange,
    Reduce(Box<Allreduce>),
    Compute,
    Done,
}

struct StencilRank {
    rank: usize,
    iterations: u64,
    start: SimDelta,
    qos: (QosEnv, QosAttribute),
    progress: Rc<RefCell<Progress>>,
    state: State,
    iter: u64,
    inter: Option<CommId>,
    pending: Vec<ReqId>,
}

fn sum_u64(a: &[u8], b: &[u8]) -> Vec<u8> {
    let word = |x: &[u8]| u64::from_le_bytes(x.try_into().expect("8-byte operand"));
    (word(a) + word(b)).to_le_bytes().to_vec()
}

impl StencilRank {
    /// The two ranks either side of the WAN.
    const BOUNDARY: (usize, usize) = (RANKS / 2 - 1, RANKS / 2);

    fn wan_peer(&self) -> Option<usize> {
        let (lo, hi) = Self::BOUNDARY;
        match self.rank {
            r if r == lo => Some(hi),
            r if r == hi => Some(lo),
            _ => None,
        }
    }

    fn neighbours(&self) -> impl Iterator<Item = usize> {
        let r = self.rank;
        [r.checked_sub(1), (r + 1 < RANKS).then_some(r + 1)]
            .into_iter()
            .flatten()
    }

    /// Communicator and rank within it that reach world rank `peer`.
    fn route(&self, peer: usize, mpi: &Mpi) -> (CommId, usize) {
        if self.wan_peer() == Some(peer) {
            // The intercommunicator's remote group has one member.
            (self.inter.expect("intercomm made at init"), 0)
        } else {
            (mpi.comm_world(), peer)
        }
    }
}

impl MpiProgram for StencilRank {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        loop {
            match &mut self.state {
                State::Wait => {
                    mpi.set_timer(self.start, TIMER_START);
                    self.state = State::Init;
                }
                State::Init => {
                    if !mpi.take_timer(TIMER_START) {
                        return Poll::Pending;
                    }
                    if let Some(peer) = self.wan_peer() {
                        let ic = mpi.intercomm_pair(peer);
                        self.inter = Some(ic);
                        mpi.attr_put(ic, self.qos.0.keyval(), Rc::new(self.qos.1));
                    }
                    self.state = State::Exchange;
                }
                State::Exchange => {
                    if self.iter == self.iterations {
                        self.state = State::Done;
                        continue;
                    }
                    let halo = if (self.iter + 1).is_multiple_of(RNDV_EVERY) {
                        HALO_RNDV
                    } else {
                        HALO_EAGER
                    };
                    for peer in self.neighbours() {
                        let (comm, dest) = self.route(peer, mpi);
                        self.pending
                            .push(mpi.irecv(comm, Some(dest), Some(TAG_HALO)));
                        self.pending.push(mpi.isend(comm, dest, TAG_HALO, halo));
                    }
                    self.state = State::WaitExchange;
                }
                State::WaitExchange => {
                    self.pending.retain(|&r| mpi.test(r).is_none());
                    if !self.pending.is_empty() {
                        return Poll::Pending;
                    }
                    let mine = (self.rank as u64 + 1).to_le_bytes().to_vec();
                    let world = mpi.comm_world();
                    let all = Allreduce::new(mpi, world, mine, sum_u64);
                    self.state = State::Reduce(Box::new(all));
                }
                State::Reduce(all) => match all.poll(mpi) {
                    CollState::Pending => return Poll::Pending,
                    CollState::Failed(r) => return Poll::Failed(r),
                    CollState::Ready => {
                        if self.rank == 0 {
                            let sum = all.take_result().expect("allreduce result");
                            let sum: [u8; 8] = sum.try_into().expect("8-byte result");
                            self.progress.borrow_mut().checksum += u64::from_le_bytes(sum);
                        }
                        mpi.cpu_work(COMPUTE);
                        self.state = State::Compute;
                    }
                },
                State::Compute => {
                    if !mpi.take_cpu_done() {
                        return Poll::Pending;
                    }
                    self.iter += 1;
                    if self.rank == 0 {
                        let mut p = self.progress.borrow_mut();
                        p.iterations = self.iter;
                        p.finished_at = Some(mpi.now());
                    }
                    self.state = State::Exchange;
                }
                State::Done => return Poll::Done,
            }
        }
    }
}

pub struct MpiStencil16;

pub struct World {
    sim: Sim,
    job: JobHandle,
    progress: Rc<RefCell<Progress>>,
    iterations: u64,
}

impl Workload for MpiStencil16 {
    type World = World;

    fn name(&self) -> &'static str {
        "mpi_stencil16"
    }

    fn work_unit(&self) -> &'static str {
        "delivered packet"
    }

    fn setup_builds(&self) -> u32 {
        40_000
    }

    fn build(&self, p: &Params) -> World {
        let iterations = p.scaled(ITERATIONS);
        let sites = TwoSites::build(RANKS / 2, 100_000_000, SimTime::from_millis(5), 0.7);
        let hosts = sites.hosts();
        let mut sim = sites.sim;
        let agent = QosAgentCfg {
            shape_at_source: true,
            ..QosAgentCfg::default()
        };
        let (mut builder, env) = enable_qos(JobBuilder::new(), agent);
        let progress = Rc::new(RefCell::new(Progress::default()));
        let mut jitter = p.rng("rank-start");
        for (rank, &host) in hosts.iter().enumerate() {
            builder = builder.rank(
                host,
                Box::new(StencilRank {
                    rank,
                    iterations,
                    start: start_jitter(&mut jitter),
                    qos: (
                        env.clone(),
                        QosAttribute::premium(WAN_PREMIUM_KBPS, HALO_RNDV),
                    ),
                    progress: progress.clone(),
                    state: State::Wait,
                    iter: 0,
                    inter: None,
                    pending: Vec::new(),
                }),
            );
        }
        let job = builder.launch(&mut sim);
        World {
            sim,
            job,
            progress,
            iterations,
        }
    }

    fn run(&self, world: World, _p: &Params, t: &mut Tracer) -> Rep {
        let World {
            mut sim,
            job,
            progress,
            iterations,
        } = world;
        let mut counts = Counts::new();
        let limit = SimTime::ZERO + SIM_PER_ITERATION * iterations + SIM_SLACK;
        let slices = drive(&mut sim, limit, t, &mut counts);

        let chk = t.begin("check");
        let audit = collect(&mut sim, &mut counts);
        let pr = progress.borrow();
        let finished_ns = pr.finished_at.map_or(0, |at| at.as_nanos());
        counts.insert("mpi.iterations", pr.iterations as f64);
        let rep = Rep {
            slices,
            worker_wait_s: 0.0,
            physics_fp: physics_fp(
                sim.now(),
                &audit,
                &[pr.iterations, pr.checksum, finished_ns],
            ),
            work: audit.delivered,
            checks: vec![
                check("ledger conserved", audit.conserved()),
                check("job finished", job.finished()),
                check("every iteration ran", pr.iterations == iterations),
                check(
                    "allreduce sums are right",
                    pr.checksum == iterations * (RANKS * (RANKS + 1) / 2) as u64,
                ),
                check(
                    "WAN pair holds 2 reservations",
                    get(&counts, "gara.granted") == 2.0,
                ),
            ],
            counts,
            facts: vec![
                ("iterations", pr.iterations),
                ("pkts_delivered", audit.delivered),
                ("finished_at_ns", finished_ns),
            ],
        };
        t.end(chk);
        rep
    }
}
