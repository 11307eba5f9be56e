//! The per-rank MPI progress engine and the `Mpi` API handle.
//!
//! Each rank of a job runs a [`RankEngine`] as an application on its host:
//! it performs startup/wireup (the Globus-device role in MPICH-G2 — §4:
//! "a Globus device provides low-level security, startup, and other
//! functions"), maintains TCP connections to its peers, frames MPI messages
//! onto the byte streams, performs envelope matching (posted-receive and
//! unexpected-message queues), and drives the user's [`MpiProgram`].
//!
//! User programs are explicit state machines: the engine calls
//! [`MpiProgram::poll`] whenever progress occurred (a request completed, a
//! timer fired, CPU work finished), and the program reacts through the
//! nonblocking [`Mpi`] API (`isend`/`irecv`/`test`), exactly the pattern an
//! event-driven MPI application would use with `MPI_Isend`/`MPI_Test`.

use crate::comm::{AttrValue, Comm, CommEndpoints, CommId, CommKind, Keyval, COMM_WORLD};
use crate::group::Group;
use crate::wire::{JobShared, WireKind, WireMsg};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, SockId, TcpCfg};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// MPI job configuration.
#[derive(Clone)]
pub struct MpiCfg {
    /// Messages at or below this size are sent eagerly; larger ones use the
    /// rendezvous protocol.
    pub eager_limit: u32,
    /// TCP socket configuration for inter-rank connections ("applications
    /// that use TCP and want high performance need careful tuning (such as
    /// socket buffer sizes)", §5.5).
    pub tcp: TcpCfg,
}

impl Default for MpiCfg {
    fn default() -> Self {
        MpiCfg {
            eager_limit: 64 * 1024,
            tcp: TcpCfg::default(),
        }
    }
}

/// A request handle (as from `MPI_Isend`/`MPI_Irecv`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub(crate) u32);

/// Completion information (the `MPI_Status` analog).
#[derive(Debug, Clone)]
pub struct MsgInfo {
    /// Source rank *within the communicator* (remote group for intercomms).
    pub src: usize,
    pub tag: u32,
    pub len: u32,
    /// Payload bytes for bytes-mode messages.
    pub payload: Option<Vec<u8>>,
}

enum ReqSlot {
    Free,
    /// Send whose bytes are being accepted by the socket.
    SendActive {
        comm: CommId,
        tag: u32,
        len: u32,
    },
    /// Rendezvous send waiting for the receiver's CTS.
    SendRndvWaitCts {
        comm: CommId,
        dest_world: usize,
        tag: u32,
        len: u32,
        payload: Option<Vec<u8>>,
    },
    /// Posted receive awaiting a match.
    RecvPosted {
        comm: CommId,
        ctx: u32,
        src_world: Option<usize>,
        tag: Option<u32>,
    },
    /// Receive matched an RTS; CTS sent; awaiting DATA from `src_world`.
    RecvRndvInflight {
        comm: CommId,
        src_world: usize,
    },
    /// The request can never complete: the peer rank it was bound to (or,
    /// for a wildcard receive, a rank it might have matched) failed.
    Failed {
        comm: CommId,
        src_world: usize,
    },
    Done(MsgInfo),
}

enum UnexBody {
    Eager { len: u32, payload: Option<Vec<u8>> },
    Rts { sender_req: u32, len: u32 },
}

struct Unexpected {
    ctx: u32,
    src_world: usize,
    tag: u32,
    body: UnexBody,
}

struct TxEntry {
    req: Option<ReqId>,
    remaining: u64,
}

struct Peer {
    sock: Option<SockId>,
    txq: VecDeque<TxEntry>,
    /// Received stream bytes not yet consumed by a complete record.
    rx_avail: u64,
    /// Whether this peer has been counted toward wireup (connection made,
    /// accepted, or written off because the peer failed).
    ready: bool,
}

/// Result of one program poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    Pending,
    Done,
    /// The program terminated because the given world rank failed.
    Failed(usize),
}

/// What the error of a peer failure does to the rank that observes it
/// through [`Mpi::test`] (`MPI_Errhandler`, per communicator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorHandler {
    /// `MPI_ERRORS_ARE_FATAL` (the MPI default): the observing rank stops
    /// and the whole job is flagged aborted.
    #[default]
    Abort,
    /// `MPI_ERRORS_RETURN`: failures surface through [`Mpi::test_result`]
    /// and the program decides what to do.
    Return,
}

/// A peer-failure error (`MPI_ERR_PROC_FAILED`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiError {
    /// World rank whose failure caused the error.
    pub failed_world: usize,
    /// Communicator the failing request was on.
    pub comm: CommId,
}

/// A user MPI program, written as an explicit state machine.
pub trait MpiProgram {
    /// Called at startup and after every progress event. Return
    /// [`Poll::Done`] when the program has finished.
    fn poll(&mut self, mpi: &mut Mpi) -> Poll;
}

/// Closures are programs: state lives in the captured environment.
impl<F: FnMut(&mut Mpi) -> Poll> MpiProgram for F {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        self(mpi)
    }
}

/// Hook invoked when `attr_put` stores a value under a hooked keyval.
pub(crate) type PutHook = Rc<RefCell<dyn FnMut(&mut Mpi, CommId, &AttrValue)>>;

/// Per-rank initialization hook (register keyvals, services, ...).
pub type InitHook = Rc<RefCell<dyn FnMut(&mut Mpi)>>;

const TOKEN_WIREUP: u32 = u32::MAX;

/// The engine driving one rank.
pub(crate) struct RankEngine {
    rank: usize,
    size: usize,
    cfg: MpiCfg,
    shared: Rc<RefCell<JobShared>>,
    peers: Vec<Peer>,
    comms: Vec<Comm>,
    next_ctx: u32,
    reqs: Vec<ReqSlot>,
    free_reqs: Vec<u32>,
    posted: Vec<ReqId>,
    unexpected: Vec<Unexpected>,
    hooks: Vec<(Keyval, PutHook)>,
    next_keyval: u32,
    init_hooks: Vec<InitHook>,
    fired_timers: Vec<u32>,
    cpu_completions: u32,
    program: Option<Box<dyn MpiProgram>>,
    started: bool,
    done: bool,
    conns_ready: usize,
    /// True for an incarnation spawned after a host restart: wireup then
    /// actively connects to *every* live peer (the survivors won't).
    restarted: bool,
    /// Set when `test` hit a failed request under the `Abort` handler; the
    /// engine stops the rank after the current poll returns.
    abort_on: Option<usize>,
}

impl RankEngine {
    pub(crate) fn new(
        rank: usize,
        shared: Rc<RefCell<JobShared>>,
        cfg: MpiCfg,
        program: Box<dyn MpiProgram>,
        init_hooks: Vec<InitHook>,
    ) -> RankEngine {
        let (size, restarted) = {
            let sh = shared.borrow();
            (sh.size(), sh.epoch[rank] > 0)
        };
        let world = Comm {
            ctx_pt2pt: 0,
            ctx_coll: 1,
            group: Group::world(size),
            my_rank: rank,
            kind: CommKind::Intra,
            attrs: Default::default(),
            errhandler: Default::default(),
        };
        RankEngine {
            rank,
            size,
            cfg,
            shared,
            peers: (0..size)
                .map(|_| Peer {
                    sock: None,
                    txq: VecDeque::new(),
                    rx_avail: 0,
                    ready: false,
                })
                .collect(),
            comms: vec![world],
            next_ctx: 2,
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            posted: Vec::new(),
            unexpected: Vec::new(),
            hooks: Vec::new(),
            next_keyval: 0,
            init_hooks,
            fired_timers: Vec::new(),
            cpu_completions: 0,
            program: Some(program),
            started: false,
            done: false,
            conns_ready: 0,
            restarted,
            abort_on: None,
        }
    }

    fn rank_of_sock(&self, sock: SockId) -> Option<usize> {
        self.peers.iter().position(|p| p.sock == Some(sock))
    }

    fn alloc_req(&mut self, slot: ReqSlot) -> ReqId {
        if let Some(i) = self.free_reqs.pop() {
            self.reqs[i as usize] = slot;
            ReqId(i)
        } else {
            self.reqs.push(slot);
            ReqId(self.reqs.len() as u32 - 1)
        }
    }

    fn maybe_start(&mut self, ctx: &mut Ctx) {
        if self.started || self.conns_ready < self.size - 1 {
            return;
        }
        self.started = true;
        let hooks = self.init_hooks.clone();
        for h in hooks {
            let mut mpi = Mpi { eng: self, ctx };
            (h.borrow_mut())(&mut mpi);
        }
        self.poll_program(ctx);
    }

    fn poll_program(&mut self, ctx: &mut Ctx) {
        if !self.started || self.done {
            return;
        }
        let Some(mut p) = self.program.take() else {
            return;
        };
        let result = {
            let mut mpi = Mpi { eng: self, ctx };
            p.poll(&mut mpi)
        };
        // A `test` under the Abort handler stops the rank no matter what
        // the program returned from this poll.
        let result = match self.abort_on.take() {
            Some(r) => Poll::Failed(r),
            None => result,
        };
        match result {
            Poll::Pending => self.program = Some(p),
            Poll::Done => {
                self.done = true;
                self.shared.borrow_mut().finished[self.rank] = true;
            }
            Poll::Failed(r) => {
                self.done = true;
                let mut sh = self.shared.borrow_mut();
                sh.finished[self.rank] = true;
                sh.errors[self.rank] = Some(r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Returns whether a request completed (so callers triggered by
    /// network events can poll the program).
    fn enqueue_wire(&mut self, to: usize, msg: WireMsg, req: Option<ReqId>, ctx: &mut Ctx) -> bool {
        if to == self.rank {
            // Self-send: records never touch the wire.
            let mut progressed = false;
            if let Some(rid) = req {
                self.complete_send(rid);
                progressed = true;
            }
            return self.handle_record(msg, ctx) || progressed;
        }
        let wire_len = self.shared.borrow_mut().push_record(self.rank, to, msg);
        self.peers[to].txq.push_back(TxEntry {
            req,
            remaining: wire_len,
        });
        self.pump_tx(to, ctx)
    }

    /// Push pending bytes into the peer socket; returns whether any send
    /// request completed.
    fn pump_tx(&mut self, to: usize, ctx: &mut Ctx) -> bool {
        let mut progressed = false;
        loop {
            let peer = &mut self.peers[to];
            let Some(sock) = peer.sock else { break };
            let Some(front) = peer.txq.front_mut() else {
                break;
            };
            let n = ctx.send(sock, front.remaining);
            front.remaining -= n;
            if front.remaining > 0 {
                break; // socket buffer full; resume on_writable
            }
            let entry = peer.txq.pop_front().unwrap();
            if let Some(rid) = entry.req {
                self.complete_send(rid);
                progressed = true;
            }
        }
        progressed
    }

    fn complete_send(&mut self, rid: ReqId) {
        let slot = std::mem::replace(&mut self.reqs[rid.0 as usize], ReqSlot::Free);
        let info = match slot {
            ReqSlot::SendActive { comm, tag, len } => {
                let c = &self.comms[comm.0 as usize];
                MsgInfo {
                    src: c.my_rank,
                    tag,
                    len,
                    payload: None,
                }
            }
            other => panic!("completing a non-send request: {}", slot_name(&other)),
        };
        self.reqs[rid.0 as usize] = ReqSlot::Done(info);
    }

    // ------------------------------------------------------------------
    // Reception
    // ------------------------------------------------------------------

    fn drain_rx(&mut self, from: usize, ctx: &mut Ctx) -> bool {
        let Some(sock) = self.peers[from].sock else {
            return false;
        };
        let n = ctx.recv(sock, u64::MAX);
        self.peers[from].rx_avail += n;
        let mut progressed = false;
        loop {
            let avail = self.peers[from].rx_avail;
            let record = self.shared.borrow_mut().pop_record(from, self.rank, avail);
            let Some(msg) = record else { break };
            self.peers[from].rx_avail -= msg.wire_len();
            if self.handle_record(msg, ctx) {
                progressed = true;
            }
        }
        progressed
    }

    /// Track the unexpected-queue depth as a gauge; its high-water mark is
    /// the figure of merit (a deep queue means receives were posted late).
    fn note_unexpected_depth(&mut self, ctx: &mut Ctx) {
        ctx.net
            .obs
            .metrics
            .set_gauge("mpi.unexpected.depth", self.unexpected.len() as f64);
    }

    /// Process one complete inbound record; returns whether a request
    /// completed (program should be polled).
    fn handle_record(&mut self, msg: WireMsg, ctx: &mut Ctx) -> bool {
        match msg.kind {
            WireKind::Eager => {
                if let Some(rid) = self.match_posted(msg.ctx, msg.src_world, msg.tag) {
                    self.complete_recv(rid, msg.src_world, msg.tag, msg.len, msg.payload);
                    true
                } else {
                    self.unexpected.push(Unexpected {
                        ctx: msg.ctx,
                        src_world: msg.src_world,
                        tag: msg.tag,
                        body: UnexBody::Eager {
                            len: msg.len,
                            payload: msg.payload,
                        },
                    });
                    self.note_unexpected_depth(ctx);
                    false
                }
            }
            WireKind::RndvRts => {
                if let Some(rid) = self.match_posted(msg.ctx, msg.src_world, msg.tag) {
                    self.send_cts(rid, &msg, ctx);
                    false
                } else {
                    self.unexpected.push(Unexpected {
                        ctx: msg.ctx,
                        src_world: msg.src_world,
                        tag: msg.tag,
                        body: UnexBody::Rts {
                            sender_req: msg.sender_req,
                            len: msg.len,
                        },
                    });
                    self.note_unexpected_depth(ctx);
                    false
                }
            }
            WireKind::RndvCts => {
                let rid = ReqId(msg.sender_req);
                let slot = std::mem::replace(&mut self.reqs[rid.0 as usize], ReqSlot::Free);
                let ReqSlot::SendRndvWaitCts {
                    comm,
                    dest_world,
                    tag,
                    len,
                    payload,
                } = slot
                else {
                    panic!("CTS for request not awaiting it");
                };
                self.reqs[rid.0 as usize] = ReqSlot::SendActive { comm, tag, len };
                let data = WireMsg {
                    kind: WireKind::RndvData,
                    ctx: 0, // matching already happened; routed by receiver_req
                    tag,
                    src_world: self.rank,
                    len,
                    sender_req: rid.0,
                    receiver_req: msg.receiver_req,
                    payload,
                };
                // If the socket buffers the whole payload immediately, the
                // send request completes right here — report the progress.
                self.enqueue_wire(dest_world, data, Some(rid), ctx)
            }
            WireKind::RndvData => {
                let rid = ReqId(msg.receiver_req);
                assert!(
                    matches!(self.reqs[rid.0 as usize], ReqSlot::RecvRndvInflight { .. }),
                    "DATA for request not awaiting it"
                );
                self.complete_recv(rid, msg.src_world, msg.tag, msg.len, msg.payload);
                true
            }
        }
    }

    /// Find (and unpost) the first matching posted receive.
    fn match_posted(&mut self, ctx: u32, src_world: usize, tag: u32) -> Option<ReqId> {
        let pos = self
            .posted
            .iter()
            .position(|&rid| match &self.reqs[rid.0 as usize] {
                ReqSlot::RecvPosted {
                    ctx: pctx,
                    src_world: psrc,
                    tag: ptag,
                    ..
                } => {
                    *pctx == ctx
                        && psrc.is_none_or(|s| s == src_world)
                        && ptag.is_none_or(|t| t == tag)
                }
                _ => false,
            })?;
        Some(self.posted.remove(pos))
    }

    fn complete_recv(
        &mut self,
        rid: ReqId,
        src_world: usize,
        tag: u32,
        len: u32,
        payload: Option<Vec<u8>>,
    ) {
        let comm = match &self.reqs[rid.0 as usize] {
            ReqSlot::RecvPosted { comm, .. } | ReqSlot::RecvRndvInflight { comm, .. } => *comm,
            other => panic!("completing non-recv request: {}", slot_name(other)),
        };
        let src = self.comms[comm.0 as usize]
            .rank_of_world(src_world)
            .expect("message from a rank outside the communicator");
        self.reqs[rid.0 as usize] = ReqSlot::Done(MsgInfo {
            src,
            tag,
            len,
            payload,
        });
    }

    fn send_cts(&mut self, rid: ReqId, rts: &WireMsg, ctx: &mut Ctx) {
        let comm = match &self.reqs[rid.0 as usize] {
            ReqSlot::RecvPosted { comm, .. } => *comm,
            other => panic!("CTS for non-posted request: {}", slot_name(other)),
        };
        self.reqs[rid.0 as usize] = ReqSlot::RecvRndvInflight {
            comm,
            src_world: rts.src_world,
        };
        let cts = WireMsg {
            kind: WireKind::RndvCts,
            ctx: rts.ctx,
            tag: rts.tag,
            src_world: self.rank,
            len: rts.len,
            sender_req: rts.sender_req,
            receiver_req: rid.0,
            payload: None,
        };
        let _ = self.enqueue_wire(rts.src_world, cts, None, ctx);
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// React to peer rank `r` failing: error every request bound to it
    /// (queued sends, rendezvous in either direction, posted receives from
    /// it, and *all* wildcard receives — any of them might have matched the
    /// dead rank), and drain its unexpected-queue entries, which would
    /// otherwise leak forever.
    fn fail_peer(&mut self, r: usize, ctx: &mut Ctx) {
        let peer = &mut self.peers[r];
        peer.sock = None;
        peer.rx_avail = 0;
        let txq = std::mem::take(&mut peer.txq);
        let mut victims: Vec<ReqId> = txq.into_iter().filter_map(|e| e.req).collect();
        for (i, slot) in self.reqs.iter().enumerate() {
            let rid = ReqId(i as u32);
            let hit = match slot {
                ReqSlot::SendRndvWaitCts { dest_world, .. } => *dest_world == r,
                ReqSlot::RecvPosted { src_world, .. } => src_world.is_none_or(|s| s == r),
                ReqSlot::RecvRndvInflight { src_world, .. } => *src_world == r,
                _ => false,
            };
            if hit && !victims.contains(&rid) {
                victims.push(rid);
            }
        }
        for rid in victims {
            let comm = match &self.reqs[rid.0 as usize] {
                ReqSlot::SendActive { comm, .. }
                | ReqSlot::SendRndvWaitCts { comm, .. }
                | ReqSlot::RecvPosted { comm, .. }
                | ReqSlot::RecvRndvInflight { comm, .. } => *comm,
                other => panic!("failing a request in state {}", slot_name(other)),
            };
            self.posted.retain(|&p| p != rid);
            self.reqs[rid.0 as usize] = ReqSlot::Failed { comm, src_world: r };
            ctx.net.obs.metrics.add("mpi.reqs_failed", 1);
        }
        let before = self.unexpected.len();
        self.unexpected.retain(|u| u.src_world != r);
        let dropped = before - self.unexpected.len();
        if dropped > 0 {
            ctx.net
                .obs
                .metrics
                .add("mpi.unexpected_dropped", dropped as u64);
        }
        self.note_unexpected_depth(ctx);
        // A crash during wireup: that connection will never arrive; count
        // it satisfied so the survivors still start.
        if !self.peers[r].ready {
            self.peers[r].ready = true;
            self.conns_ready += 1;
            self.maybe_start(ctx);
        }
    }
}

fn slot_name(s: &ReqSlot) -> &'static str {
    match s {
        ReqSlot::Free => "Free",
        ReqSlot::SendActive { .. } => "SendActive",
        ReqSlot::SendRndvWaitCts { .. } => "SendRndvWaitCts",
        ReqSlot::RecvPosted { .. } => "RecvPosted",
        ReqSlot::RecvRndvInflight { .. } => "RecvRndvInflight",
        ReqSlot::Failed { .. } => "Failed",
        ReqSlot::Done(_) => "Done",
    }
}

impl App for RankEngine {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let port = self.shared.borrow().port_of(self.rank);
        ctx.tcp_listen(port, self.cfg.tcp, DataMode::Counted);
        // Defer connecting until every rank's listener exists.
        ctx.set_timer(SimDelta::ZERO, TOKEN_WIREUP);
    }

    fn on_timer(&mut self, token: u32, ctx: &mut Ctx) {
        if token == TOKEN_WIREUP {
            // Full-mesh wireup: rank r actively connects to every lower
            // rank. A restarted incarnation connects to every live peer —
            // the survivors keep their listeners but never re-dial.
            // Currently-failed peers are written off as ready; if they
            // restart, their new incarnation dials us.
            let failed = self.shared.borrow().failed.clone();
            for (j, &down) in failed.iter().enumerate() {
                if j == self.rank || self.peers[j].ready {
                    continue;
                }
                if down {
                    self.peers[j].ready = true;
                    self.conns_ready += 1;
                    continue;
                }
                if !(self.restarted || j < self.rank) {
                    continue;
                }
                let (host, port) = {
                    let sh = self.shared.borrow();
                    (sh.hosts[j], sh.port_of(j))
                };
                let sock = ctx.tcp_connect(host, port, self.cfg.tcp, DataMode::Counted);
                self.peers[j].sock = Some(sock);
            }
            self.maybe_start(ctx); // size == 1 has no peers
            return;
        }
        self.fired_timers.push(token);
        self.poll_program(ctx);
    }

    fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {
        if let Some(j) = self.rank_of_sock(sock) {
            if !self.peers[j].ready {
                self.peers[j].ready = true;
                self.conns_ready += 1;
            }
        }
        self.maybe_start(ctx);
    }

    fn on_accept(&mut self, _listener: SockId, sock: SockId, ctx: &mut Ctx) {
        let (peer_host, _) = ctx.sock_peer(sock).expect("accepted socket without peer");
        let j = self
            .shared
            .borrow()
            .rank_of_host(peer_host)
            .expect("connection from a host that runs no rank");
        self.peers[j].sock = Some(sock);
        if !self.peers[j].ready {
            self.peers[j].ready = true;
            self.conns_ready += 1;
        }
        // Flush anything queued before the connection existed.
        self.pump_tx(j, ctx);
        self.maybe_start(ctx);
    }

    fn on_peer_failed(&mut self, host: mpichgq_netsim::NodeId, ctx: &mut Ctx) {
        let Some(r) = self.shared.borrow().rank_of_host(host) else {
            return; // not a member of this job
        };
        if r == self.rank {
            return;
        }
        // First engine notified flushes the shared streams; every engine
        // fails its own requests.
        self.shared.borrow_mut().mark_failed(r);
        self.fail_peer(r, ctx);
        self.poll_program(ctx);
    }

    fn on_peer_restarted(&mut self, host: mpichgq_netsim::NodeId, ctx: &mut Ctx) {
        let Some(r) = self.shared.borrow().rank_of_host(host) else {
            return;
        };
        if r == self.rank {
            return; // our own (re)spawn notification
        }
        // The new incarnation dials us; on_accept rewires the socket. Here
        // we only give the program a chance to make progress.
        self.poll_program(ctx);
    }

    fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
        let Some(from) = self.rank_of_sock(sock) else {
            return;
        };
        if self.drain_rx(from, ctx) {
            self.poll_program(ctx);
        }
    }

    fn on_writable(&mut self, sock: SockId, ctx: &mut Ctx) {
        let Some(to) = self.rank_of_sock(sock) else {
            return;
        };
        if self.pump_tx(to, ctx) {
            self.poll_program(ctx);
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx) {
        self.cpu_completions += 1;
        self.poll_program(ctx);
    }
}

/// The API handle a program uses inside [`MpiProgram::poll`].
pub struct Mpi<'a, 'n> {
    pub(crate) eng: &'a mut RankEngine,
    /// The underlying application context (host, services, recorder).
    pub ctx: &'a mut Ctx<'n>,
}

impl Mpi<'_, '_> {
    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.eng.rank
    }

    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    pub fn comm_world(&self) -> CommId {
        COMM_WORLD
    }

    pub fn comm(&self, id: CommId) -> &Comm {
        &self.eng.comms[id.0 as usize]
    }

    /// Nonblocking counted-byte send (`MPI_Isend`).
    pub fn isend(&mut self, comm: CommId, dest: usize, tag: u32, len: u32) -> ReqId {
        self.isend_inner(comm, dest, tag, len, None, false)
    }

    /// Nonblocking send of real bytes.
    pub fn isend_bytes(&mut self, comm: CommId, dest: usize, tag: u32, data: Vec<u8>) -> ReqId {
        let len = data.len() as u32;
        self.isend_inner(comm, dest, tag, len, Some(data), false)
    }

    pub(crate) fn isend_coll(
        &mut self,
        comm: CommId,
        dest: usize,
        tag: u32,
        len: u32,
        data: Option<Vec<u8>>,
    ) -> ReqId {
        self.isend_inner(comm, dest, tag, len, data, true)
    }

    fn isend_inner(
        &mut self,
        comm: CommId,
        dest: usize,
        tag: u32,
        len: u32,
        payload: Option<Vec<u8>>,
        coll: bool,
    ) -> ReqId {
        let c = &self.eng.comms[comm.0 as usize];
        let dest_world = c.peer_world_rank(dest);
        let wire_ctx = if coll { c.ctx_coll } else { c.ctx_pt2pt };
        if self.eng.shared.borrow().failed[dest_world] {
            // Sending to a dead rank errors immediately (MPI_ERR_PROC_FAILED).
            self.ctx.net.obs.metrics.add("mpi.reqs_failed", 1);
            return self.eng.alloc_req(ReqSlot::Failed {
                comm,
                src_world: dest_world,
            });
        }
        if len <= self.eng.cfg.eager_limit {
            self.ctx.net.obs.metrics.add("mpi.eager_sends", 1);
            self.ctx.net.obs.metrics.add("mpi.sent_bytes", len as u64);
            let rid = self.eng.alloc_req(ReqSlot::SendActive { comm, tag, len });
            let msg = WireMsg {
                kind: WireKind::Eager,
                ctx: wire_ctx,
                tag,
                src_world: self.eng.rank,
                len,
                sender_req: rid.0,
                receiver_req: 0,
                payload,
            };
            self.eng.enqueue_wire(dest_world, msg, Some(rid), self.ctx);
            rid
        } else {
            self.ctx.net.obs.metrics.add("mpi.rndv_sends", 1);
            self.ctx.net.obs.metrics.add("mpi.sent_bytes", len as u64);
            let rid = self.eng.alloc_req(ReqSlot::SendRndvWaitCts {
                comm,
                dest_world,
                tag,
                len,
                payload,
            });
            let rts = WireMsg {
                kind: WireKind::RndvRts,
                ctx: wire_ctx,
                tag,
                src_world: self.eng.rank,
                len,
                sender_req: rid.0,
                receiver_req: 0,
                payload: None,
            };
            self.eng.enqueue_wire(dest_world, rts, None, self.ctx);
            rid
        }
    }

    /// Nonblocking receive (`MPI_Irecv`); `None` source/tag are wildcards
    /// (`MPI_ANY_SOURCE`/`MPI_ANY_TAG`).
    pub fn irecv(&mut self, comm: CommId, src: Option<usize>, tag: Option<u32>) -> ReqId {
        self.irecv_inner(comm, src, tag, false)
    }

    pub(crate) fn irecv_coll(
        &mut self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> ReqId {
        self.irecv_inner(comm, src, tag, true)
    }

    fn irecv_inner(
        &mut self,
        comm: CommId,
        src: Option<usize>,
        tag: Option<u32>,
        coll: bool,
    ) -> ReqId {
        let c = &self.eng.comms[comm.0 as usize];
        let wire_ctx = if coll { c.ctx_coll } else { c.ctx_pt2pt };
        let src_world = src.map(|s| c.peer_world_rank(s));
        // First satisfy from the unexpected queue, in arrival order.
        let pos = self.eng.unexpected.iter().position(|u| {
            u.ctx == wire_ctx
                && src_world.is_none_or(|s| s == u.src_world)
                && tag.is_none_or(|t| t == u.tag)
        });
        if let Some(pos) = pos {
            let u = self.eng.unexpected.remove(pos);
            match u.body {
                UnexBody::Eager { len, payload } => {
                    let rid = self.eng.alloc_req(ReqSlot::RecvPosted {
                        comm,
                        ctx: wire_ctx,
                        src_world,
                        tag,
                    });
                    self.eng
                        .complete_recv(rid, u.src_world, u.tag, len, payload);
                    return rid;
                }
                UnexBody::Rts { sender_req, len } => {
                    let rid = self.eng.alloc_req(ReqSlot::RecvPosted {
                        comm,
                        ctx: wire_ctx,
                        src_world,
                        tag,
                    });
                    let rts = WireMsg {
                        kind: WireKind::RndvRts,
                        ctx: wire_ctx,
                        tag: u.tag,
                        src_world: u.src_world,
                        len,
                        sender_req,
                        receiver_req: 0,
                        payload: None,
                    };
                    self.eng.send_cts(rid, &rts, self.ctx);
                    return rid;
                }
            }
        }
        // A receive that names a dead source — or a wildcard while any
        // member is dead (MPI_ANY_SOURCE can no longer be disambiguated) —
        // fails immediately, mirroring what `fail_peer` does to receives
        // that were already posted when the rank died.
        let failed_src = {
            let sh = self.eng.shared.borrow();
            match src_world {
                Some(s) => sh.failed[s].then_some(s),
                None => self.eng.comms[comm.0 as usize]
                    .failed_members(&sh.failed)
                    .first()
                    .copied(),
            }
        };
        if let Some(s) = failed_src {
            let rid = self.eng.alloc_req(ReqSlot::Failed { comm, src_world: s });
            self.ctx.net.obs.metrics.add("mpi.reqs_failed", 1);
            return rid;
        }
        let rid = self.eng.alloc_req(ReqSlot::RecvPosted {
            comm,
            ctx: wire_ctx,
            src_world,
            tag,
        });
        self.eng.posted.push(rid);
        rid
    }

    /// Test a request for completion; consumes it when done (`MPI_Test`).
    ///
    /// If the request failed because a peer rank died, the communicator's
    /// [`ErrorHandler`] decides: `Abort` consumes the request, flags the
    /// whole job aborted, and stops this rank after the current poll;
    /// `Return` keeps returning `None` — observe and consume the failure
    /// with [`Mpi::test_result`].
    pub fn test(&mut self, req: ReqId) -> Option<MsgInfo> {
        if let ReqSlot::Failed { comm, src_world } = self.eng.reqs[req.0 as usize] {
            return match self.eng.comms[comm.0 as usize].errhandler {
                ErrorHandler::Abort => {
                    self.eng.reqs[req.0 as usize] = ReqSlot::Free;
                    self.eng.free_reqs.push(req.0);
                    self.eng.abort_on = Some(src_world);
                    self.eng.shared.borrow_mut().aborted = true;
                    self.ctx.net.obs.metrics.add("mpi.aborts", 1);
                    None
                }
                ErrorHandler::Return => None,
            };
        }
        self.test_result(req)
            .expect("non-failed request cannot error")
    }

    /// Test a request, surfacing peer failure as an error
    /// (`MPI_Test` + `MPI_ERRORS_RETURN`). Consumes the request when it is
    /// done *or* failed.
    pub fn test_result(&mut self, req: ReqId) -> Result<Option<MsgInfo>, MpiError> {
        match &self.eng.reqs[req.0 as usize] {
            ReqSlot::Done(_) => {
                let ReqSlot::Done(info) =
                    std::mem::replace(&mut self.eng.reqs[req.0 as usize], ReqSlot::Free)
                else {
                    unreachable!()
                };
                self.eng.free_reqs.push(req.0);
                Ok(Some(info))
            }
            ReqSlot::Failed { comm, src_world } => {
                let err = MpiError {
                    failed_world: *src_world,
                    comm: *comm,
                };
                self.eng.reqs[req.0 as usize] = ReqSlot::Free;
                self.eng.free_reqs.push(req.0);
                Err(err)
            }
            ReqSlot::Free => panic!("test on a freed request"),
            _ => Ok(None),
        }
    }

    /// Set the failure disposition for a communicator
    /// (`MPI_Errhandler_set`).
    pub fn set_errhandler(&mut self, comm: CommId, h: ErrorHandler) {
        self.eng.comms[comm.0 as usize].errhandler = h;
    }

    /// Lowest failed world rank in the communicator (local or remote
    /// group), if any.
    pub fn comm_failed(&self, comm: CommId) -> Option<usize> {
        let sh = self.eng.shared.borrow();
        self.eng.comms[comm.0 as usize]
            .failed_members(&sh.failed)
            .first()
            .copied()
    }

    /// The group of currently-failed members of the communicator (the
    /// `MPI_Comm_group_failed` analog from fault-tolerant MPI drafts).
    pub fn comm_group_failed(&self, comm: CommId) -> Group {
        let sh = self.eng.shared.borrow();
        Group::from_members(self.eng.comms[comm.0 as usize].failed_members(&sh.failed))
    }

    /// Publish a checkpoint of this rank's program state. Survives a host
    /// crash (the model of a checkpoint on stable storage off-host); the
    /// next incarnation reads it back with [`Mpi::restored`].
    pub fn checkpoint(&mut self, data: Vec<u8>) {
        let r = self.eng.rank;
        self.eng.shared.borrow_mut().checkpoints[r] = Some(data);
        self.ctx.net.obs.metrics.add("mpi.checkpoints", 1);
    }

    /// The checkpoint to resume from, if this incarnation follows a
    /// restart and one was published.
    pub fn restored(&self) -> Option<Vec<u8>> {
        let sh = self.eng.shared.borrow();
        if sh.epoch[self.eng.rank] > 0 {
            sh.checkpoints[self.eng.rank].clone()
        } else {
            None
        }
    }

    /// Create a two-party intercommunicator with `peer_world`. Both parties
    /// must call this in matching order (a collective-call requirement, as
    /// in MPI). This is the communicator shape MPICH-GQ attaches QoS
    /// attributes to (§4.1).
    pub fn intercomm_pair(&mut self, peer_world: usize) -> CommId {
        assert_ne!(peer_world, self.eng.rank, "intercommunicator with self");
        let new = Comm {
            ctx_pt2pt: self.eng.next_ctx,
            ctx_coll: self.eng.next_ctx + 1,
            group: Group::from_members(vec![self.eng.rank]),
            my_rank: 0,
            kind: CommKind::Inter {
                remote: Group::from_members(vec![peer_world]),
            },
            attrs: Default::default(),
            errhandler: self.eng.comms[COMM_WORLD.0 as usize].errhandler,
        };
        self.eng.next_ctx += 2;
        self.eng.comms.push(new);
        CommId(self.eng.comms.len() as u32 - 1)
    }

    /// Create a new attribute key (`MPI_Keyval_create`).
    pub fn keyval_create(&mut self) -> Keyval {
        let k = Keyval(self.eng.next_keyval);
        self.eng.next_keyval += 1;
        k
    }

    /// Create a keyval whose `attr_put` triggers `hook` — the MPICH-GQ
    /// mechanism ("the action of putting the attribute actually triggers
    /// the request", §4.1).
    pub fn keyval_create_with_hook(&mut self, hook: PutHook) -> Keyval {
        let k = self.keyval_create();
        self.eng.hooks.push((k, hook));
        k
    }

    /// Store an attribute (`MPI_Attr_put`), triggering any registered hook.
    pub fn attr_put(&mut self, comm: CommId, keyval: Keyval, value: AttrValue) {
        self.eng.comms[comm.0 as usize]
            .attrs
            .insert(keyval, value.clone());
        let hook = self
            .eng
            .hooks
            .iter()
            .find(|(k, _)| *k == keyval)
            .map(|(_, h)| h.clone());
        if let Some(h) = hook {
            (h.borrow_mut())(self, comm, &value);
        }
    }

    /// Fetch an attribute (`MPI_Attr_get`).
    pub fn attr_get(&self, comm: CommId, keyval: Keyval) -> Option<AttrValue> {
        self.eng.comms[comm.0 as usize].attrs.get(&keyval).cloned()
    }

    /// Endpoint extraction for external QoS management (§4.1).
    pub fn comm_endpoints(&self, comm: CommId) -> CommEndpoints {
        let sh = self.eng.shared.borrow();
        let c = &self.eng.comms[comm.0 as usize];
        let info = |w: usize| (w, sh.hosts[w], sh.port_of(w));
        CommEndpoints {
            local: c.group.members().iter().map(|&w| info(w)).collect(),
            remote: match &c.kind {
                CommKind::Intra => Vec::new(),
                CommKind::Inter { remote } => remote.members().iter().map(|&w| info(w)).collect(),
            },
        }
    }

    /// Arm a timer; check for it later with [`Mpi::take_timer`].
    pub fn set_timer(&mut self, after: SimDelta, token: u32) {
        assert_ne!(token, TOKEN_WIREUP, "reserved timer token");
        self.ctx.set_timer(after, token);
    }

    /// Consume a fired timer with this token, if any.
    pub fn take_timer(&mut self, token: u32) -> bool {
        if let Some(pos) = self.eng.fired_timers.iter().position(|&t| t == token) {
            self.eng.fired_timers.remove(pos);
            true
        } else {
            false
        }
    }

    /// Begin CPU work on this rank's host process (competes under DSRT).
    pub fn cpu_work(&mut self, cpu_time: SimDelta) {
        self.ctx.cpu_work(cpu_time);
    }

    /// Consume a CPU-work completion, if one occurred.
    pub fn take_cpu_done(&mut self) -> bool {
        if self.eng.cpu_completions > 0 {
            self.eng.cpu_completions -= 1;
            true
        } else {
            false
        }
    }

    /// The host this rank runs on.
    pub fn host(&self) -> mpichgq_netsim::NodeId {
        self.ctx.host
    }

    /// This rank's CPU process id (for GARA CPU reservations).
    pub fn cpu_proc(&self) -> mpichgq_dsrt::ProcId {
        self.ctx.cpu_proc()
    }

    /// Record the TCP data-segment sequence numbers of this rank's
    /// connection to `peer_world` into the named recorder series (the
    /// paper's Figure 7 traces).
    pub fn trace_peer_connection(&mut self, peer_world: usize, series: &str) {
        let sock = self.eng.peers[peer_world]
            .sock
            .expect("no connection to that peer yet");
        self.ctx.trace_seq(sock, series);
    }

    /// Register a delivery deadline (SLO) on this rank's connection to
    /// `peer_world` — the Figure 7/8 frame deadline, evaluated per packet
    /// at delivery by the network's conformance monitor. Enables
    /// packet-lifecycle tracing if it was off.
    pub fn set_peer_deadline(&mut self, peer_world: usize, deadline: mpichgq_sim::SimDelta) {
        let sock = self.eng.peers[peer_world]
            .sock
            .expect("no connection to that peer yet");
        self.ctx.set_flow_deadline(sock, deadline);
    }
}
