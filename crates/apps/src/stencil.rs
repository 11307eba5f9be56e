//! The paper's §3 motivating example: a finite-difference application
//! "partitioned across two 8-processor multiprocessors connected by a wide
//! area network. A simple calculation of the total data volume exchanged by
//! the application suggests that the application maintains an average data
//! rate of 1 Mb/s. Yet if we configure our network to support a premium
//! flow at this rate, we find that things do not perform as we expect. The
//! application immediately performs an MPI_Send involving a large buffer
//! (100 KB), depleting the token bucket and causing packets to be dropped.
//! TCP kicks into slow start mode... The result is an extremely low
//! communication rate and an underutilized network."
//!
//! [`StencilRank`] is a 1-D halo-exchange stencil: each iteration, every
//! rank exchanges halos with its line neighbors, then computes. The two
//! boundary ranks communicate across the WAN through a *two-party
//! intercommunicator* — the communicator shape MPICH-GQ attaches QoS
//! attributes to (§4.1).

use mpichgq_core::{QosAttribute, QosEnv};
use mpichgq_mpi::{CommId, Mpi, MpiProgram, Poll, ReqId};
use mpichgq_sim::{SimDelta, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const TAG_HALO: u32 = 0x57E;
const TIMER_COMPUTE: u32 = 3;

/// Stencil configuration (shared by every rank).
#[derive(Debug, Clone, Copy)]
pub struct StencilCfg {
    /// Total ranks; the site boundary is between `n/2 - 1` and `n/2`.
    pub ranks: usize,
    pub iterations: u32,
    /// Halo exchanged with each neighbor, per iteration, per direction.
    pub halo_bytes: u32,
    /// Wall-clock compute time per iteration (modeled as a timer; the §3
    /// example is communication-bound across the WAN).
    pub compute: SimDelta,
}

impl StencilCfg {
    pub(crate) fn boundary(&self) -> (usize, usize) {
        (self.ranks / 2 - 1, self.ranks / 2)
    }
}

/// Progress record: completion time of each iteration on rank 0.
pub(crate) type IterationLog = Rc<RefCell<Vec<SimTime>>>;

enum State {
    Init,
    Exchange,
    WaitExchange,
    Compute,
    Done,
}

/// One rank of the stencil.
pub struct StencilRank {
    cfg: StencilCfg,
    rank: usize,
    /// QoS attribute the *boundary* ranks put on their intercommunicator.
    qos: Option<(QosEnv, QosAttribute)>,
    log: IterationLog,
    state: State,
    iter: u32,
    inter: Option<CommId>,
    pending: Vec<ReqId>,
}

impl StencilRank {
    /// Build all rank programs plus the shared iteration log.
    pub fn job(
        cfg: StencilCfg,
        qos: Option<(QosEnv, QosAttribute)>,
    ) -> (Vec<StencilRank>, IterationLog) {
        assert!(
            cfg.ranks >= 2 && cfg.ranks.is_multiple_of(2),
            "even rank count ≥ 2"
        );
        let log: IterationLog = Rc::new(RefCell::new(Vec::new()));
        let ranks = (0..cfg.ranks)
            .map(|rank| StencilRank {
                cfg,
                rank,
                qos: qos.clone(),
                log: log.clone(),
                state: State::Init,
                iter: 0,
                inter: None,
                pending: Vec::new(),
            })
            .collect();
        (ranks, log)
    }

    fn neighbors(&self) -> Vec<usize> {
        let mut out = Vec::new();
        if self.rank > 0 {
            out.push(self.rank - 1);
        }
        if self.rank + 1 < self.cfg.ranks {
            out.push(self.rank + 1);
        }
        out
    }

    /// The communicator (and peer rank within it) used to reach `peer`.
    fn comm_for(&self, peer: usize, mpi: &Mpi) -> (CommId, usize) {
        let (lo, hi) = self.cfg.boundary();
        if (self.rank == lo && peer == hi) || (self.rank == hi && peer == lo) {
            // Across the WAN: the two-party intercommunicator; the remote
            // group has exactly one member.
            (self.inter.expect("intercomm created at init"), 0)
        } else {
            (mpi.comm_world(), peer)
        }
    }
}

impl MpiProgram for StencilRank {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        loop {
            match self.state {
                State::Init => {
                    let (lo, hi) = self.cfg.boundary();
                    if self.rank == lo || self.rank == hi {
                        let peer = if self.rank == lo { hi } else { lo };
                        let ic = mpi.intercomm_pair(peer);
                        self.inter = Some(ic);
                        if let Some((env, attr)) = self.qos.take() {
                            mpi.attr_put(ic, env.keyval(), Rc::new(attr));
                        }
                    }
                    self.state = State::Exchange;
                }
                State::Exchange => {
                    if self.iter == self.cfg.iterations {
                        self.state = State::Done;
                        continue;
                    }
                    for peer in self.neighbors() {
                        let (comm, peer_rank) = self.comm_for(peer, mpi);
                        self.pending
                            .push(mpi.irecv(comm, Some(peer_rank), Some(TAG_HALO)));
                        let s = mpi.isend(comm, peer_rank, TAG_HALO, self.cfg.halo_bytes);
                        self.pending.push(s);
                    }
                    self.state = State::WaitExchange;
                }
                State::WaitExchange => {
                    let mut i = 0;
                    while i < self.pending.len() {
                        if mpi.test(self.pending[i]).is_some() {
                            self.pending.swap_remove(i);
                        } else {
                            i += 1;
                        }
                    }
                    if !self.pending.is_empty() {
                        return Poll::Pending;
                    }
                    mpi.set_timer(self.cfg.compute, TIMER_COMPUTE);
                    self.state = State::Compute;
                }
                State::Compute => {
                    if !mpi.take_timer(TIMER_COMPUTE) {
                        return Poll::Pending;
                    }
                    self.iter += 1;
                    if self.rank == 0 {
                        self.log.borrow_mut().push(mpi.now());
                    }
                    self.state = State::Exchange;
                }
                State::Done => return Poll::Done,
            }
        }
    }
}

/// Iterations per second over the second half of the run (steady state).
pub fn steady_iteration_rate(log: &IterationLog) -> f64 {
    let log = log.borrow();
    if log.len() < 4 {
        return 0.0;
    }
    let mid = log.len() / 2;
    let span = log[log.len() - 1].since(log[mid]).as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    (log.len() - 1 - mid) as f64 / span
}
