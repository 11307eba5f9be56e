//! The socket layer: demultiplexing, applications, and the glue between
//! sans-io TCP connections and the simulated network.
//!
//! A [`Stack`] owns every socket and application in the simulation and
//! implements [`NetHandler`]: packet arrivals are demuxed to TCP/UDP
//! sockets, connection outputs are applied to the network, and applications
//! are woken through the [`App`] trait with a [`Ctx`] capability handle
//! (sockets, timers, CPU work, services). This mirrors the role of the
//! hosts' kernels plus the globus-io library in the paper's architecture.

use crate::conn::{CcKind, Connection, Out, SegFlags, SegIn, SegOut, TcpCfg};
use mpichgq_dsrt::ProcId;
use mpichgq_netsim::{
    FlowSpec, MetricSink, Net, NetHandler, NodeId, Packet, Proto, TcpFlags, TcpHeader,
    TimelineSource, L4,
};
use mpichgq_sim::FxHashMap;
use mpichgq_sim::{SimDelta, SimTime};
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Identifies a socket in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub u32);

/// Identifies an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(pub(crate) u32);

/// What a TCP socket carries: byte counts, never payloads. A program that
/// needs message content keeps it beside the stream (MPI queues each
/// record and hands it over once its bytes have arrived). With one variant
/// the parameter of [`Ctx::tcp_connect`] and [`Ctx::tcp_listen`] that
/// takes it chooses nothing; it stays only because the performance ledger
/// under `benchmark/` names it, and goes with the ledger's next revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    Counted,
}

/// Application event interface. All methods have empty defaults; programs
/// are explicit state machines driven by these callbacks.
#[allow(unused_variables)]
pub trait App {
    fn on_start(&mut self, ctx: &mut Ctx) {}
    fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {}
    fn on_accept(&mut self, listener: SockId, sock: SockId, ctx: &mut Ctx) {}
    fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {}
    fn on_writable(&mut self, sock: SockId, ctx: &mut Ctx) {}
    fn on_remote_closed(&mut self, sock: SockId, ctx: &mut Ctx) {}
    fn on_closed(&mut self, sock: SockId, ctx: &mut Ctx) {}
    fn on_timer(&mut self, token: u32, ctx: &mut Ctx) {}
    fn on_udp(&mut self, sock: SockId, from: (NodeId, u16), len: u32, ctx: &mut Ctx) {}
    fn on_cpu_done(&mut self, ctx: &mut Ctx) {}
    /// Another host crashed (`HostCrash` fault). Broadcast to every app
    /// still alive, in `AppId` order — the simulator's stand-in for
    /// MPICH's instantaneous process-failure notification; a real runtime
    /// would learn this from connection teardown or a failure detector.
    fn on_peer_failed(&mut self, host: NodeId, ctx: &mut Ctx) {}
    /// A crashed host came back (`HostRestart` fault). Broadcast after
    /// the restart hooks have respawned whatever lives there.
    fn on_peer_restarted(&mut self, host: NodeId, ctx: &mut Ctx) {}
}

/// Scenario scripting hook: reservations made mid-run, contention starting
/// and stopping, etc. Fired by control events armed with
/// [`Stack::schedule_control`]. Several controllers can coexist (a scenario
/// script plus the GARA timer driver); each receives only its own events.
pub trait Controller {
    fn on_control(&mut self, payload: u64, net: &mut Net, stack: &mut Stack);
}

/// Identifies a registered [`Controller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerId(pub(crate) u8);

/// Compose a control token for [`mpichgq_netsim::Net::schedule_control`]
/// from a controller id and a 56-bit payload.
pub fn control_token(id: ControllerId, payload: u64) -> u64 {
    assert!(payload < (1 << 56), "control payload too large");
    ((id.0 as u64) << 56) | payload
}

enum SockKind {
    Tcp(Box<Connection>),
    Listener { cfg: TcpCfg },
    Udp,
}

/// A TCP socket's retransmission timer as the engine sees it. The
/// connection re-arms on almost every ACK; only the arm that can fire next
/// is an engine event.
#[derive(Debug, Clone, Copy, Default)]
struct TimerSlot {
    /// The latest arm: deadline, reserved engine seq, generation.
    want: Option<(SimTime, u64, u64)>,
    /// Key of the one engine event that will consult `want`. Never later
    /// than `want`'s key; an event that fires under any other key was
    /// superseded by an earlier deadline and is ignored.
    live: Option<(SimTime, u64)>,
}

struct Sock {
    host: NodeId,
    owner: AppId,
    kind: SockKind,
    lport: u16,
    peer: Option<(NodeId, u16)>,
    from_listener: Option<SockId>,
    /// Recorder series name for data-segment sequence traces (Figure 7).
    trace: Option<String>,
    /// Set when the owning host crashed: the socket keeps its final
    /// connection state (audits still sum its counters) but never
    /// produces or consumes anything again.
    dead: bool,
    /// The retransmission timer.
    timer: TimerSlot,
}

struct AppSlot {
    app: Option<Box<dyn App>>,
    host: NodeId,
    proc: ProcId,
}

// Timer token layout: [kind:8][index:24][payload:32]. A TCP token's payload
// is unused: the generation is a `u64` that outgrows 32 bits on a
// long-lived connection, so it stays in the socket's slot.
const KIND_TCP: u64 = 1;
const KIND_APP: u64 = 2;

fn encode_token(kind: u64, index: u32, payload: u32) -> u64 {
    (kind << 56) | ((index as u64 & 0xFF_FFFF) << 32) | payload as u64
}

fn decode_token(token: u64) -> (u64, u32, u32) {
    (
        (token >> 56) & 0xFF,
        ((token >> 32) & 0xFF_FFFF) as u32,
        token as u32,
    )
}

/// Monomorphized sample-tick trampoline for one sampled service type:
/// recovers `T` from the type-erased service box and forwards the tick.
fn probe_thunk<T: Any + TimelineSource>(b: &dyn Any, at: SimTime, sink: &mut dyn MetricSink) {
    if let Some(t) = b.downcast_ref::<T>() {
        t.timeline_sample(at, sink);
    }
}

/// A type-erased timeline probe: downcasts its service and lets it write
/// samples ([`Stack::insert_sampled_service`]).
type ProbeFn = fn(&dyn Any, SimTime, &mut dyn MetricSink);

/// The transport + application layer for the whole simulation.
pub struct Stack {
    socks: Vec<Sock>,
    apps: Vec<AppSlot>,
    // Demux maps are consulted per segment; the deterministic FxHash build
    // keeps those lookups off SipHash. `services` is cold and stays std.
    listeners: FxHashMap<(NodeId, u16), SockId>,
    conns: FxHashMap<(NodeId, u16, NodeId, u16), SockId>,
    udp_binds: FxHashMap<(NodeId, u16), SockId>,
    next_port: FxHashMap<NodeId, u16>,
    services: HashMap<TypeId, Box<dyn Any>>,
    /// Timeline probes of sampled services ([`Stack::insert_sampled_service`]):
    /// each entry re-finds its service by `TypeId` at every sample tick, so
    /// the take/put service discipline controllers use stays legal — a
    /// service that is checked out mid-control is simply not sampled (ticks
    /// never fire inside callbacks, so in practice it always is).
    probes: Vec<(TypeId, ProbeFn)>,
    controllers: Vec<Option<Box<dyn Controller>>>,
    /// Host-restart hooks ([`Stack::on_host_restart`]), run in
    /// registration order when a crashed host comes back — before the
    /// `on_peer_restarted` broadcast, so respawned state is visible to
    /// peers' callbacks.
    respawn_hooks: Vec<RespawnHook>,
    /// Host-crash hooks ([`Stack::on_host_crash`]), run in registration
    /// order after the host's sockets and apps die — before the
    /// `on_peer_failed` broadcast (e.g. a QoS agent releasing the dead
    /// host's reservations).
    crash_hooks: Vec<RespawnHook>,
    /// Emptied output buffers for [`Stack::drive`]. A list, not one scratch
    /// vector: applying outputs wakes applications, whose `Ctx` calls drive
    /// inputs of their own while the outer buffer is still draining. It is
    /// as long as that nesting was ever deep.
    spare_outs: Vec<Vec<Out>>,
}

/// A host-restart hook: `(net, stack, host)` — free to spawn apps, open
/// sockets, or touch services.
pub(crate) type RespawnHook = Box<dyn FnMut(&mut Net, &mut Stack, NodeId)>;

impl Default for Stack {
    fn default() -> Self {
        Self::new()
    }
}

impl Stack {
    pub fn new() -> Self {
        Stack {
            socks: Vec::new(),
            apps: Vec::new(),
            listeners: FxHashMap::default(),
            conns: FxHashMap::default(),
            udp_binds: FxHashMap::default(),
            next_port: FxHashMap::default(),
            services: HashMap::new(),
            probes: Vec::new(),
            controllers: Vec::new(),
            respawn_hooks: Vec::new(),
            crash_hooks: Vec::new(),
            spare_outs: Vec::new(),
        }
    }

    /// Register a hook to run whenever a crashed host restarts (e.g. an
    /// MPI job respawning the rank that lived there). Hooks run in
    /// registration order, before apps hear `on_peer_restarted`.
    pub fn on_host_restart(&mut self, hook: RespawnHook) {
        self.respawn_hooks.push(hook);
    }

    /// Register a hook to run whenever a host crashes (after its sockets
    /// and apps die, before peers hear `on_peer_failed`).
    pub fn on_host_crash(&mut self, hook: RespawnHook) {
        self.crash_hooks.push(hook);
    }

    /// Register an application on `host`, registering a CPU process for it,
    /// and deliver its `on_start`.
    pub fn spawn_app(&mut self, net: &mut Net, host: NodeId, app: Box<dyn App>) -> AppId {
        let proc = net.cpu_add_process(host);
        let id = AppId(self.apps.len() as u32);
        self.apps.push(AppSlot {
            app: Some(app),
            host,
            proc,
        });
        self.wake(net, id, |a, ctx| a.on_start(ctx));
        id
    }

    /// Register a controller; its id selects which control events it sees.
    pub fn add_controller(&mut self, c: Box<dyn Controller>) -> ControllerId {
        self.add_controller_with(|_| c)
    }

    /// Register a controller built from its own id (for controllers that
    /// schedule events to themselves).
    pub(crate) fn add_controller_with(
        &mut self,
        f: impl FnOnce(ControllerId) -> Box<dyn Controller>,
    ) -> ControllerId {
        let id = ControllerId(self.controllers.len() as u8);
        self.controllers.push(Some(f(id)));
        id
    }

    /// Arm a control point at `at` for controller `id` with `payload`.
    pub fn schedule_control(&mut self, net: &mut Net, id: ControllerId, at: SimTime, payload: u64) {
        net.schedule_control(at, control_token(id, payload));
    }

    // --- services (shared singletons like the GARA system) ---

    pub fn insert_service<T: Any>(&mut self, svc: T) {
        self.services.insert(TypeId::of::<T>(), Box::new(svc));
    }

    /// [`Stack::insert_service`] for a service that also records timeline
    /// series: when the network's sampler is armed, the service's
    /// [`TimelineSource::timeline_sample`] runs at every sample tick.
    /// Registering the same type again replaces the service but not the
    /// probe (probes are idempotent per type).
    pub fn insert_sampled_service<T: Any + TimelineSource>(&mut self, svc: T) {
        let tid = TypeId::of::<T>();
        if !self.probes.iter().any(|(t, _)| *t == tid) {
            self.probes.push((tid, probe_thunk::<T>));
        }
        self.services.insert(tid, Box::new(svc));
    }

    pub fn service_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.services
            .get_mut(&TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<T>())
    }

    pub fn take_service<T: Any>(&mut self) -> Option<Box<T>> {
        self.services
            .remove(&TypeId::of::<T>())
            .map(|b| b.downcast::<T>().expect("service type mismatch"))
    }

    pub fn put_service_box<T: Any>(&mut self, svc: Box<T>) {
        self.services.insert(TypeId::of::<T>(), svc);
    }

    /// Statistics of a TCP socket's connection.
    pub fn conn_stats(&self, sock: SockId) -> Option<crate::conn::ConnStats> {
        match &self.socks[sock.0 as usize].kind {
            SockKind::Tcp(c) => Some(c.stats),
            _ => None,
        }
    }

    /// All sockets that currently hold a TCP connection, for stack-wide
    /// audits (the qcheck invariant battery sums per-connection counters).
    pub fn tcp_sock_ids(&self) -> Vec<SockId> {
        self.socks
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SockKind::Tcp(_)))
            .map(|(i, _)| SockId(i as u32))
            .collect()
    }

    /// The local (host, port) of a socket — what the paper's communicator
    /// introspection function extracts for external QoS agents.
    pub(crate) fn sock_name(&self, sock: SockId) -> (NodeId, u16) {
        let s = &self.socks[sock.0 as usize];
        (s.host, s.lport)
    }

    pub(crate) fn sock_peer(&self, sock: SockId) -> Option<(NodeId, u16)> {
        self.socks[sock.0 as usize].peer
    }

    fn alloc_port(&mut self, host: NodeId) -> u16 {
        let p = self.next_port.entry(host).or_insert(49152);
        let port = *p;
        *p = p.checked_add(1).expect("ephemeral ports exhausted");
        port
    }

    /// Wake `app` with a freshly built context.
    fn wake(&mut self, net: &mut Net, app: AppId, f: impl FnOnce(&mut dyn App, &mut Ctx)) {
        let slot = &mut self.apps[app.0 as usize];
        let host = slot.host;
        let Some(mut a) = slot.app.take() else {
            // Re-entrant wake of an already-active app: by construction
            // connection outputs triggered by an app's own calls never wake
            // apps, so this indicates a bug.
            panic!("re-entrant application wake (app {})", app.0);
        };
        let mut ctx = Ctx {
            net,
            stack: self,
            app,
            host,
        };
        f(a.as_mut(), &mut ctx);
        self.apps[app.0 as usize].app = Some(a);
    }

    /// Feed `sock`'s connection one input: `f` appends the connection's
    /// outputs to an emptied buffer off the free list, they are applied,
    /// and the buffer goes back. `None` if `sock` is not a TCP socket.
    fn drive<R>(
        &mut self,
        net: &mut Net,
        sock: SockId,
        f: impl FnOnce(&mut Connection, &mut Vec<Out>) -> R,
    ) -> Option<R> {
        let SockKind::Tcp(c) = &mut self.socks[sock.0 as usize].kind else {
            return None;
        };
        let mut outs = self.spare_outs.pop().unwrap_or_default();
        let r = f(c, &mut outs);
        self.apply_outs(net, sock, &mut outs);
        self.spare_outs.push(outs);
        Some(r)
    }

    /// Apply (and drain) a batch of connection outputs for `sock`.
    fn apply_outs(&mut self, net: &mut Net, sock: SockId, outs: &mut Vec<Out>) {
        for out in outs.drain(..) {
            match out {
                Out::Seg(seg) => self.emit_segment(net, sock, seg),
                Out::ArmTimer { at, gen } => self.arm_tcp_timer(net, sock, at, gen),
                Out::Connected => {
                    let owner = self.socks[sock.0 as usize].owner;
                    self.wake(net, owner, |a, ctx| a.on_connected(sock, ctx));
                }
                Out::Accepted => {
                    let owner = self.socks[sock.0 as usize].owner;
                    let listener = self.socks[sock.0 as usize]
                        .from_listener
                        .expect("accepted socket without listener");
                    self.wake(net, owner, |a, ctx| a.on_accept(listener, sock, ctx));
                }
                Out::Readable => {
                    let owner = self.socks[sock.0 as usize].owner;
                    self.wake(net, owner, |a, ctx| a.on_readable(sock, ctx));
                }
                Out::Writable => {
                    let owner = self.socks[sock.0 as usize].owner;
                    self.wake(net, owner, |a, ctx| a.on_writable(sock, ctx));
                }
                Out::RemoteClosed => {
                    let owner = self.socks[sock.0 as usize].owner;
                    self.wake(net, owner, |a, ctx| a.on_remote_closed(sock, ctx));
                }
                Out::Closed => {
                    let owner = self.socks[sock.0 as usize].owner;
                    // Free the 4-tuple for reuse.
                    let s = &self.socks[sock.0 as usize];
                    if let Some((ph, pp)) = s.peer {
                        self.conns.remove(&(s.host, s.lport, ph, pp));
                    }
                    self.wake(net, owner, |a, ctx| a.on_closed(sock, ctx));
                }
                Out::Cc {
                    kind,
                    cwnd_bytes,
                    rto,
                } => {
                    let (counter, trace_kind) = match kind {
                        CcKind::Rto => ("tcp.rtos", "tcp.rto"),
                        CcKind::FastRetransmit => ("tcp.fast_retransmits", "tcp.fast_rtx"),
                        CcKind::SlowStartRestart => ("tcp.slow_start_restarts", "tcp.ss_restart"),
                    };
                    net.obs.metrics.add(counter, 1);
                    net.obs
                        .metrics
                        .set_gauge("tcp.last_rto_us", rto.as_nanos() as f64 / 1_000.0);
                    let now = net.now();
                    net.obs
                        .trace
                        .record(now, trace_kind, sock.0 as u64, cwnd_bytes as i64);
                }
            }
        }
    }

    /// `Out::ArmTimer`: reserve the engine key the arm would have been
    /// scheduled under and remember it; insert an event only if none is
    /// live or the deadline moved earlier. Out of line on purpose — inlined
    /// into `apply_outs` it measurably slowed the segment path.
    #[inline(never)]
    fn arm_tcp_timer(&mut self, net: &mut Net, sock: SockId, at: SimTime, gen: u64) {
        let s = &mut self.socks[sock.0 as usize];
        let slot = &mut s.timer;
        let seq = net.reserve_host_timer();
        // The arm this one replaces never became an event.
        if slot.want.is_some_and(|(a, s, _)| slot.live != Some((a, s))) {
            net.host_timer_elided();
        }
        slot.want = Some((at, seq, gen));
        if slot.live.is_none_or(|(live_at, _)| at < live_at) {
            slot.live = Some((at, seq));
            net.set_host_timer_keyed(s.host, at, seq, encode_token(KIND_TCP, sock.0, 0));
        }
    }

    /// A TCP timer event fired for `sock`. Returns the generation to hand
    /// to `Connection::on_timer` if the latest arm is due exactly now;
    /// otherwise re-inserts under the latest arm's key (deadline moved
    /// later) or ignores the event (superseded).
    #[inline(never)]
    fn tcp_timer_due(&mut self, net: &mut Net, sock: SockId) -> Option<u64> {
        let s = &mut self.socks[sock.0 as usize];
        let slot = &mut s.timer;
        let cur = net.cursor();
        if slot.live != Some(cur) {
            return None;
        }
        let (at, seq, gen) = slot.want.expect("live timer event without an arm");
        if (at, seq) > cur {
            slot.live = Some((at, seq));
            net.set_host_timer_keyed(s.host, at, seq, encode_token(KIND_TCP, sock.0, 0));
            return None;
        }
        *slot = TimerSlot::default();
        Some(gen)
    }

    fn emit_segment(&mut self, net: &mut Net, sock: SockId, seg: SegOut) {
        let s = &self.socks[sock.0 as usize];
        let (peer_host, peer_port) = s.peer.expect("segment without peer");
        if let Some(name) = &s.trace {
            if seg.len > 0 {
                net.recorder.add(name, net.now(), seg.seq as f64);
            }
        }
        let pkt = Packet {
            src: s.host,
            dst: peer_host,
            src_port: s.lport,
            dst_port: peer_port,
            dscp: Default::default(),
            l4: L4::Tcp(TcpHeader {
                seq: seg.seq,
                ack: seg.ack,
                flags: TcpFlags {
                    syn: seg.flags.syn,
                    ack: seg.flags.ack,
                    fin: seg.flags.fin,
                    rst: seg.flags.rst,
                },
                wnd: seg.wnd,
            }),
            payload_len: seg.len,
            id: 0,
            born: SimTime::ZERO, // stamped by send_ip
        };
        net.send_ip(pkt);
    }

    fn on_tcp_packet(&mut self, net: &mut Net, host: NodeId, pkt: Packet) {
        let h = *pkt.tcp().expect("tcp demux on non-tcp packet");
        let key = (host, pkt.dst_port, pkt.src, pkt.src_port);
        let seg = SegIn {
            seq: h.seq,
            ack: h.ack,
            wnd: h.wnd,
            len: pkt.payload_len,
            flags: SegFlags {
                syn: h.flags.syn,
                ack: h.flags.ack,
                fin: h.flags.fin,
                rst: h.flags.rst,
            },
        };
        if let Some(&sock) = self.conns.get(&key) {
            let now = net.now();
            self.drive(net, sock, |c, outs| c.on_segment_into(&seg, now, outs));
            return;
        }
        // No connection: a SYN for a listening port performs a passive open.
        if seg.flags.syn && !seg.flags.ack {
            if let Some(&listener) = self.listeners.get(&(host, pkt.dst_port)) {
                let (cfg, owner) = match &self.socks[listener.0 as usize].kind {
                    SockKind::Listener { cfg } => (*cfg, self.socks[listener.0 as usize].owner),
                    _ => unreachable!("listener map points at non-listener"),
                };
                let now = net.now();
                let (conn, mut outs) = Connection::accept(cfg, &seg, now);
                let sock = SockId(self.socks.len() as u32);
                self.socks.push(Sock {
                    host,
                    owner,
                    kind: SockKind::Tcp(Box::new(conn)),
                    lport: pkt.dst_port,
                    peer: Some((pkt.src, pkt.src_port)),
                    from_listener: Some(listener),
                    trace: None,
                    dead: false,
                    timer: TimerSlot::default(),
                });
                self.conns.insert(key, sock);
                self.apply_outs(net, sock, &mut outs);
            }
            // No listener: silently drop (a real stack would RST).
        }
    }
}

impl NetHandler for Stack {
    fn deliver(&mut self, net: &mut Net, host: NodeId, pkt: Packet) {
        match pkt.l4 {
            L4::Tcp(_) => self.on_tcp_packet(net, host, pkt),
            L4::Udp => {
                if let Some(&sock) = self.udp_binds.get(&(host, pkt.dst_port)) {
                    let owner = self.socks[sock.0 as usize].owner;
                    let from = (pkt.src, pkt.src_port);
                    let len = pkt.payload_len;
                    self.wake(net, owner, |a, ctx| a.on_udp(sock, from, len, ctx));
                }
            }
        }
    }

    fn host_timer(&mut self, net: &mut Net, _host: NodeId, token: u64) {
        let (kind, index, payload) = decode_token(token);
        match kind {
            KIND_TCP => {
                let sock = SockId(index);
                if self.socks[sock.0 as usize].dead {
                    // A timer armed before the host crashed; the socket is
                    // gone (timers for *down* hosts are suppressed in the
                    // net layer, but this one may fire after a restart).
                    return;
                }
                let Some(gen) = self.tcp_timer_due(net, sock) else {
                    return;
                };
                let now = net.now();
                self.drive(net, sock, |c, outs| c.on_timer_into(gen, now, outs));
            }
            KIND_APP => {
                let app = AppId(index);
                if self.apps[app.0 as usize].app.is_some() {
                    self.wake(net, app, |a, ctx| a.on_timer(payload, ctx));
                }
            }
            _ => panic!("unknown timer token kind {kind}"),
        }
    }

    fn cpu_done(&mut self, net: &mut Net, host: NodeId, proc: ProcId) {
        let found = self
            .apps
            .iter()
            .position(|s| s.host == host && s.proc == proc && s.app.is_some());
        if let Some(i) = found {
            self.wake(net, AppId(i as u32), |a, ctx| a.on_cpu_done(ctx));
        }
    }

    fn control(&mut self, net: &mut Net, token: u64) {
        let id = (token >> 56) as usize;
        let payload = token & ((1 << 56) - 1);
        let Some(slot) = self.controllers.get_mut(id) else {
            panic!("control event for unregistered controller {id}");
        };
        if let Some(mut c) = slot.take() {
            c.on_control(payload, net, self);
            self.controllers[id] = Some(c);
        }
    }

    fn timeline_sample(&mut self, _net: &Net, at: SimTime, sink: &mut dyn MetricSink) {
        for (tid, probe) in &self.probes {
            if let Some(b) = self.services.get(tid) {
                probe(b.as_ref(), at, sink);
            }
        }
    }

    fn host_crashed(&mut self, net: &mut Net, host: NodeId) {
        // Sockets die first: demux entries go away (a restarted host gets
        // fresh ports), but the socket slots stay so stack-wide audits keep
        // summing their final counters. Connections *to* the crashed host
        // die with it — the process-manager model of instant failure
        // knowledge — which also stops their retransmissions from reaching
        // a restarted incarnation's fresh listener.
        for i in 0..self.socks.len() {
            let s = &mut self.socks[i];
            let local = s.host == host;
            let to_dead_peer =
                matches!(s.kind, SockKind::Tcp(_)) && s.peer.is_some_and(|(ph, _)| ph == host);
            if s.dead || !(local || to_dead_peer) {
                continue;
            }
            s.dead = true;
            match &s.kind {
                SockKind::Tcp(_) => {
                    if let Some((ph, pp)) = s.peer {
                        self.conns.remove(&(s.host, s.lport, ph, pp));
                    }
                }
                SockKind::Listener { .. } => {
                    self.listeners.remove(&(s.host, s.lport));
                }
                SockKind::Udp => {
                    self.udp_binds.remove(&(s.host, s.lport));
                }
            }
        }
        // Applications die with the host; their CPU processes are removed
        // so reservations free up and queued work vanishes.
        for i in 0..self.apps.len() {
            let slot = &mut self.apps[i];
            if slot.host != host || slot.app.is_none() {
                continue;
            }
            slot.app = None;
            let proc = slot.proc;
            net.cpu_remove_process(host, proc);
        }
        // Crash hooks run while the failure is fresh, before the peer
        // broadcast (same take-vec discipline as restart hooks).
        let mut hooks = std::mem::take(&mut self.crash_hooks);
        for h in hooks.iter_mut() {
            h(net, self, host);
        }
        hooks.append(&mut self.crash_hooks);
        self.crash_hooks = hooks;
        // Failure notification is global and instantaneous (MPICH's
        // process-failure model): every surviving app hears it now, in
        // AppId order.
        for i in 0..self.apps.len() {
            let id = AppId(i as u32);
            if self.apps[i].app.is_some() {
                self.wake(net, id, |a, ctx| a.on_peer_failed(host, ctx));
            }
        }
    }

    fn host_restarted(&mut self, net: &mut Net, host: NodeId) {
        // Respawn hooks first (they re-create the host's processes), then
        // the broadcast — peers and the fresh processes all hear it.
        let mut hooks = std::mem::take(&mut self.respawn_hooks);
        for h in hooks.iter_mut() {
            h(net, self, host);
        }
        // A hook may itself have registered hooks; keep them, after the
        // originals.
        hooks.append(&mut self.respawn_hooks);
        self.respawn_hooks = hooks;
        for i in 0..self.apps.len() {
            let id = AppId(i as u32);
            if self.apps[i].app.is_some() {
                self.wake(net, id, |a, ctx| a.on_peer_restarted(host, ctx));
            }
        }
    }
}

/// Capability handle passed to application callbacks.
pub struct Ctx<'a> {
    pub net: &'a mut Net,
    stack: &'a mut Stack,
    pub app: AppId,
    pub host: NodeId,
}

impl Ctx<'_> {
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Open a TCP connection to (`dst`, `dport`).
    pub fn tcp_connect(&mut self, dst: NodeId, dport: u16, cfg: TcpCfg, _: DataMode) -> SockId {
        assert_ne!(self.host, dst, "loopback connections are not modeled");
        let lport = self.stack.alloc_port(self.host);
        let now = self.net.now();
        let (conn, mut outs) = Connection::connect(cfg, now);
        let sock = SockId(self.stack.socks.len() as u32);
        self.stack.socks.push(Sock {
            host: self.host,
            owner: self.app,
            kind: SockKind::Tcp(Box::new(conn)),
            lport,
            peer: Some((dst, dport)),
            from_listener: None,
            trace: None,
            dead: false,
            timer: TimerSlot::default(),
        });
        self.stack
            .conns
            .insert((self.host, lport, dst, dport), sock);
        self.stack.apply_outs(self.net, sock, &mut outs);
        sock
    }

    /// Listen for TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16, cfg: TcpCfg, _: DataMode) -> SockId {
        let sock = SockId(self.stack.socks.len() as u32);
        self.stack.socks.push(Sock {
            host: self.host,
            owner: self.app,
            kind: SockKind::Listener { cfg },
            lport: port,
            peer: None,
            from_listener: None,
            trace: None,
            dead: false,
            timer: TimerSlot::default(),
        });
        let prev = self.stack.listeners.insert((self.host, port), sock);
        assert!(
            prev.is_none(),
            "port {port} already listening on {}",
            self.host
        );
        sock
    }

    /// Write counted bytes; returns how many were accepted (send buffer).
    pub fn send(&mut self, sock: SockId, len: u64) -> u64 {
        if self.stack.socks[sock.0 as usize].dead {
            return 0;
        }
        let now = self.net.now();
        self.stack
            .drive(self.net, sock, |c, outs| c.write_into(len, now, outs))
            .expect("send on non-TCP socket")
    }

    /// Read up to `max` counted bytes.
    pub fn recv(&mut self, sock: SockId, max: u64) -> u64 {
        if self.stack.socks[sock.0 as usize].dead {
            return 0;
        }
        self.stack
            .drive(self.net, sock, |c, outs| c.read_into(max, outs))
            .expect("recv on non-TCP socket")
    }

    /// True when the peer has closed and all data has been drained.
    pub fn at_eof(&self, sock: SockId) -> bool {
        match &self.stack.socks[sock.0 as usize].kind {
            SockKind::Tcp(c) => c.at_eof(),
            _ => false,
        }
    }

    /// Close the sending direction.
    pub fn close(&mut self, sock: SockId) {
        if self.stack.socks[sock.0 as usize].dead {
            return;
        }
        let now = self.net.now();
        let mut outs = match &mut self.stack.socks[sock.0 as usize].kind {
            SockKind::Tcp(c) => c.close(now),
            _ => Vec::new(),
        };
        self.stack.apply_outs(self.net, sock, &mut outs);
    }

    /// Record this socket's data-segment sequence numbers into the given
    /// recorder series (Figure 7 traces).
    pub fn trace_seq(&mut self, sock: SockId, series: &str) {
        self.stack.socks[sock.0 as usize].trace = Some(series.to_owned());
    }

    /// The 5-tuple spec of this socket's outgoing data direction — what
    /// the QoS agent extracts from a communicator ("basically port and
    /// machine names"). Unconnected sockets wildcard the peer side.
    pub(crate) fn flow_spec(&self, sock: SockId) -> FlowSpec {
        let s = &self.stack.socks[sock.0 as usize];
        let proto = match s.kind {
            SockKind::Tcp(_) => Proto::Tcp,
            _ => Proto::Udp,
        };
        match s.peer {
            Some((peer_host, peer_port)) => {
                FlowSpec::exact(s.host, peer_host, proto, s.lport, peer_port)
            }
            None => FlowSpec {
                src: Some(s.host),
                proto: Some(proto),
                src_port: Some(s.lport),
                ..FlowSpec::default()
            },
        }
    }

    /// Register a delivery deadline (SLO) for this socket's outgoing flow:
    /// packets delivered more than `deadline` after entering the network
    /// count as misses in the network's conformance monitor (enables
    /// packet-lifecycle tracing if it was off). See
    /// [`mpichgq_netsim::Net::set_deadline_matching`].
    pub fn set_flow_deadline(&mut self, sock: SockId, deadline: SimDelta) {
        let spec = self.flow_spec(sock);
        self.net.set_deadline_matching(spec, deadline);
    }

    /// Arm an application timer; `token` comes back in `on_timer`.
    pub fn set_timer(&mut self, after: SimDelta, token: u32) {
        let at = self.net.now() + after;
        self.net
            .set_host_timer(self.host, at, encode_token(KIND_APP, self.app.0, token));
    }

    /// Begin `cpu_time` of CPU work; `on_cpu_done` fires when it completes
    /// under the host's (possibly contended, possibly reserved) schedule.
    pub fn cpu_work(&mut self, cpu_time: SimDelta) {
        let proc = self.stack.apps[self.app.0 as usize].proc;
        self.net.cpu_start_work(self.host, proc, cpu_time);
    }

    /// This app's CPU process id (for making CPU reservations).
    pub fn cpu_proc(&self) -> ProcId {
        self.stack.apps[self.app.0 as usize].proc
    }

    /// Bind a UDP socket on `port`.
    pub fn udp_bind(&mut self, port: u16) -> SockId {
        let sock = SockId(self.stack.socks.len() as u32);
        self.stack.socks.push(Sock {
            host: self.host,
            owner: self.app,
            kind: SockKind::Udp,
            lport: port,
            peer: None,
            from_listener: None,
            trace: None,
            dead: false,
            timer: TimerSlot::default(),
        });
        let prev = self.stack.udp_binds.insert((self.host, port), sock);
        assert!(
            prev.is_none(),
            "udp port {port} already bound on {}",
            self.host
        );
        sock
    }

    /// Send one UDP datagram (counted payload).
    pub fn udp_send(&mut self, sock: SockId, dst: NodeId, dport: u16, payload_len: u32) {
        let s = &self.stack.socks[sock.0 as usize];
        assert!(
            matches!(s.kind, SockKind::Udp),
            "udp_send on non-UDP socket"
        );
        let pkt = Packet {
            src: s.host,
            dst,
            src_port: s.lport,
            dst_port: dport,
            dscp: Default::default(),
            l4: L4::Udp,
            payload_len,
            id: 0,
            born: SimTime::ZERO, // stamped by send_ip
        };
        self.net.send_ip(pkt);
    }

    /// Connection statistics of a TCP socket.
    pub fn conn_stats(&self, sock: SockId) -> Option<crate::conn::ConnStats> {
        self.stack.conn_stats(sock)
    }

    /// Run `f` with exclusive access to the service `T` and a re-borrowed
    /// context (take-out pattern: the service is absent from the registry
    /// for the duration of `f`).
    pub fn with_service<T: Any, R>(&mut self, f: impl FnOnce(&mut T, &mut Ctx) -> R) -> Option<R> {
        let mut b = self.stack.services.remove(&TypeId::of::<T>())?;
        let r = f(
            b.downcast_mut::<T>().expect("service type mismatch"),
            &mut Ctx {
                net: self.net,
                stack: self.stack,
                app: self.app,
                host: self.host,
            },
        );
        self.stack.services.insert(TypeId::of::<T>(), b);
        Some(r)
    }

    /// Local (host, port) of a socket.
    pub fn sock_name(&self, sock: SockId) -> (NodeId, u16) {
        self.stack.sock_name(sock)
    }

    /// Remote (host, port) of a connected socket.
    pub fn sock_peer(&self, sock: SockId) -> Option<(NodeId, u16)> {
        self.stack.sock_peer(sock)
    }
}

/// Convenience bundle: a network plus its stack, with a run loop.
pub struct Sim {
    pub net: Net,
    pub stack: Stack,
}

impl Sim {
    pub fn new(net: Net) -> Sim {
        Sim {
            net,
            stack: Stack::new(),
        }
    }

    pub fn spawn_app(&mut self, host: NodeId, app: Box<dyn App>) -> AppId {
        self.stack.spawn_app(&mut self.net, host, app)
    }

    pub fn run_until(&mut self, t: SimTime) {
        self.net.run_until(&mut self.stack, t);
    }

    pub fn now(&self) -> SimTime {
        self.net.now()
    }
}

#[cfg(test)]
#[path = "stack_timer_tests.rs"]
mod timer_tests;
