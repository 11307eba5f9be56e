//! Job launch: placing ranks on hosts and wiring them up.
//!
//! Plays the role MPICH-G2's Globus device plays in the paper's
//! architecture: startup and process management. Ranks are placed one per
//! host (the experiments in §5 pair a sender and receiver host); each rank
//! listens on `base_port + rank` and the mesh is established eagerly at
//! launch.
//!
//! Ranks registered with [`JobBuilder::rank_restartable`] survive a
//! `HostRestart` fault: a stack respawn hook relaunches a fresh program
//! incarnation (from its factory) on the revived host, the shared job state
//! clears the rank's failure flag and bumps its epoch, and the new engine
//! re-dials every live peer. The program finds its last
//! [`crate::Mpi::checkpoint`] via [`crate::Mpi::restored`].

use crate::engine::{InitHook, MpiCfg, MpiProgram, RankEngine};
use crate::wire::JobShared;
use mpichgq_netsim::NodeId;
use mpichgq_tcp::Sim;
use std::cell::RefCell;
use std::rc::Rc;

/// Handle to a launched job.
pub struct JobHandle {
    shared: Rc<RefCell<JobShared>>,
}

impl JobHandle {
    /// True once every rank's program returned `Poll::Done`.
    pub fn finished(&self) -> bool {
        self.shared.borrow().all_finished()
    }

    /// True once every rank that is not currently failed has finished
    /// (dead, never-restarted ranks are excluded).
    pub fn surviving_finished(&self) -> bool {
        self.shared.borrow().all_surviving_finished()
    }

    /// True once rank `r`'s program finished.
    pub fn rank_finished(&self, r: usize) -> bool {
        self.shared.borrow().finished[r]
    }

    /// Whether rank `r` is currently failed (host down, not restarted).
    pub fn rank_failed(&self, r: usize) -> bool {
        self.shared.borrow().failed[r]
    }

    /// Whether any rank is currently failed (crashed and not respawned).
    pub fn any_failed(&self) -> bool {
        self.shared.borrow().failed.iter().any(|&f| f)
    }

    /// The peer-failure error rank `r` terminated with, if any.
    pub fn rank_error(&self, r: usize) -> Option<usize> {
        self.shared.borrow().errors[r]
    }

    /// Rank `r`'s incarnation number (0 = original launch).
    pub fn epoch_of(&self, r: usize) -> u32 {
        self.shared.borrow().epoch[r]
    }

    /// Whether a rank under the `Abort` error handler observed a failure.
    pub fn aborted(&self) -> bool {
        self.shared.borrow().aborted
    }
}

/// Factory producing a fresh program incarnation for a restartable rank.
pub type ProgramFactory = Rc<dyn Fn() -> Box<dyn MpiProgram>>;

/// Builds and launches an MPI job.
pub struct JobBuilder {
    hosts: Vec<NodeId>,
    programs: Vec<Box<dyn MpiProgram>>,
    factories: Vec<Option<ProgramFactory>>,
    base_port: u16,
    cfg: MpiCfg,
    init_hooks: Vec<InitHook>,
}

impl JobBuilder {
    pub fn new() -> JobBuilder {
        JobBuilder {
            hosts: Vec::new(),
            programs: Vec::new(),
            factories: Vec::new(),
            base_port: 10_000,
            cfg: MpiCfg::default(),
            init_hooks: Vec::new(),
        }
    }

    /// Add one rank: its host and its program. Ranks are numbered in the
    /// order added. One rank per host (loopback is not modeled).
    pub fn rank(mut self, host: NodeId, program: Box<dyn MpiProgram>) -> JobBuilder {
        assert!(
            !self.hosts.contains(&host),
            "one rank per host: {host} already used"
        );
        self.hosts.push(host);
        self.programs.push(program);
        self.factories.push(None);
        self
    }

    /// Add one *restartable* rank: the factory builds each incarnation's
    /// program (the first one too). After a `HostRestart` of its host, the
    /// rank is respawned automatically with a fresh program.
    pub fn rank_restartable(mut self, host: NodeId, factory: ProgramFactory) -> JobBuilder {
        assert!(
            !self.hosts.contains(&host),
            "one rank per host: {host} already used"
        );
        self.hosts.push(host);
        self.programs.push(factory());
        self.factories.push(Some(factory));
        self
    }

    pub fn base_port(mut self, p: u16) -> JobBuilder {
        self.base_port = p;
        self
    }

    pub fn cfg(mut self, cfg: MpiCfg) -> JobBuilder {
        self.cfg = cfg;
        self
    }

    /// Register a per-rank initialization hook, run once before the first
    /// program poll (e.g. `mpichgq-core`'s QoS keyval registration).
    pub fn init_hook(mut self, h: InitHook) -> JobBuilder {
        self.init_hooks.push(h);
        self
    }

    /// Spawn every rank's engine into the simulation.
    pub fn launch(self, sim: &mut Sim) -> JobHandle {
        assert!(!self.hosts.is_empty(), "job with zero ranks");
        let shared = Rc::new(RefCell::new(JobShared::new(
            self.hosts.clone(),
            self.base_port,
        )));
        let factories = self.factories;
        for (rank, program) in self.programs.into_iter().enumerate() {
            let engine = RankEngine::new(
                rank,
                shared.clone(),
                self.cfg.clone(),
                program,
                self.init_hooks.clone(),
            );
            sim.spawn_app(self.hosts[rank], Box::new(engine));
            if let Some(factory) = factories[rank].clone() {
                let host = self.hosts[rank];
                let shared = shared.clone();
                let cfg = self.cfg.clone();
                let init_hooks = self.init_hooks.clone();
                sim.stack.on_host_restart(Box::new(move |net, stack, h| {
                    if h != host {
                        return;
                    }
                    shared.borrow_mut().mark_restarted(rank);
                    let engine = RankEngine::new(
                        rank,
                        shared.clone(),
                        cfg.clone(),
                        factory(),
                        init_hooks.clone(),
                    );
                    stack.spawn_app(net, host, Box::new(engine));
                }));
            }
        }
        JobHandle { shared }
    }
}

impl Default for JobBuilder {
    fn default() -> Self {
        Self::new()
    }
}
