//! Minimal deterministic workload applications the fuzzer composes into
//! scenarios.
//!
//! These deliberately live here rather than reusing `mpichgq-apps`: the
//! `qcheck` binary ships inside the apps crate, so this crate must sit
//! below it in the dependency graph. The implementations mirror the apps
//! crate's idioms (backlog pumping, timer-paced CBR) but are stripped to
//! the behaviors the invariant battery needs to exercise: connection
//! setup/teardown, loss-driven retransmission, sustained queue pressure,
//! and MPI's rendezvous traffic over reserved paths.

use mpichgq_mpi::{Mpi, MpiProgram, Poll, ReqId};
use mpichgq_netsim::NodeId;
use mpichgq_sim::SimDelta;
use mpichgq_tcp::{App, Ctx, DataMode, SockId, TcpCfg};

/// Sends `total` counted bytes to `dst:dport`, starting after `start`.
pub(crate) struct QcTcpSender {
    pub dst: NodeId,
    pub dport: u16,
    pub cfg: TcpCfg,
    pub start: SimDelta,
    pub total: u64,
    /// Close the sending direction once everything is accepted (exercises
    /// FIN paths; left open half the time so teardown mid-transfer and
    /// run-end truncation both occur).
    pub close_when_done: bool,
    sock: Option<SockId>,
    sent: u64,
    closed: bool,
}

impl QcTcpSender {
    pub(crate) fn new(
        dst: NodeId,
        dport: u16,
        cfg: TcpCfg,
        start: SimDelta,
        total: u64,
        close_when_done: bool,
    ) -> QcTcpSender {
        QcTcpSender {
            dst,
            dport,
            cfg,
            start,
            total,
            close_when_done,
            sock: None,
            sent: 0,
            closed: false,
        }
    }

    fn pump(&mut self, sock: SockId, ctx: &mut Ctx) {
        while self.sent < self.total {
            let chunk = (self.total - self.sent).min(16 * 1024);
            let n = ctx.send(sock, chunk);
            if n == 0 {
                return;
            }
            self.sent += n;
        }
        if self.close_when_done && !self.closed {
            self.closed = true;
            ctx.close(sock);
        }
    }
}

impl App for QcTcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.start, 0);
    }
    fn on_timer(&mut self, _token: u32, ctx: &mut Ctx) {
        if self.sock.is_none() {
            self.sock = Some(ctx.tcp_connect(self.dst, self.dport, self.cfg, DataMode::Counted));
        }
    }
    fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {
        self.pump(sock, ctx);
    }
    fn on_writable(&mut self, sock: SockId, ctx: &mut Ctx) {
        self.pump(sock, ctx);
    }
}

/// Accepts connections on `port` and drains whatever arrives.
pub(crate) struct QcTcpSink {
    pub port: u16,
    pub cfg: TcpCfg,
}

impl App for QcTcpSink {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(self.port, self.cfg, DataMode::Counted);
    }
    fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
        loop {
            let n = ctx.recv(sock, 1 << 30);
            if n == 0 {
                break;
            }
        }
    }
}

/// Timer-paced constant-bit-rate UDP source: `count` datagrams of
/// `payload` bytes every `interval`, starting after `start`.
pub(crate) struct QcUdpPulse {
    pub dst: NodeId,
    pub dport: u16,
    pub sport: u16,
    pub payload: u32,
    pub interval: SimDelta,
    pub start: SimDelta,
    pub count: u64,
    sock: Option<SockId>,
    sent: u64,
}

impl QcUdpPulse {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        dst: NodeId,
        dport: u16,
        sport: u16,
        payload: u32,
        interval: SimDelta,
        start: SimDelta,
        count: u64,
    ) -> QcUdpPulse {
        QcUdpPulse {
            dst,
            dport,
            sport,
            payload,
            interval,
            start,
            count,
            sock: None,
            sent: 0,
        }
    }
}

impl App for QcUdpPulse {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sock = Some(ctx.udp_bind(self.sport));
        ctx.set_timer(self.start, 0);
    }
    fn on_timer(&mut self, _token: u32, ctx: &mut Ctx) {
        if self.sent >= self.count {
            return;
        }
        let sock = self.sock.expect("pulse timer before bind");
        ctx.udp_send(sock, self.dst, self.dport, self.payload);
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, 0);
        }
    }
}

/// Binds `port` and absorbs datagrams (delivery is what the ledger needs;
/// the payload is not interpreted).
pub(crate) struct QcUdpSink {
    pub port: u16,
}

impl App for QcUdpSink {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.udp_bind(self.port);
    }
}

enum PpState {
    Idle,
    Sending(ReqId),
    Receiving(ReqId),
}

/// Two-rank ping-pong: rank 0 sends then receives, rank 1 mirrors. The
/// job is not required to finish within the scenario window — a run cut
/// off mid-rendezvous is exactly the kind of state the conservation audit
/// must still balance.
pub(crate) struct QcPingPong {
    pub iters: u32,
    pub len: u32,
    done: u32,
    state: PpState,
}

impl QcPingPong {
    pub(crate) fn new(iters: u32, len: u32) -> QcPingPong {
        QcPingPong {
            iters,
            len,
            done: 0,
            state: PpState::Idle,
        }
    }
}

const PP_TAG: u32 = 77;

impl MpiProgram for QcPingPong {
    fn poll(&mut self, mpi: &mut Mpi) -> Poll {
        let w = mpi.comm_world();
        let peer = 1 - mpi.rank();
        let leader = mpi.rank() == 0;
        while self.done < self.iters {
            match self.state {
                PpState::Idle => {
                    self.state = if leader {
                        PpState::Sending(mpi.isend(w, peer, PP_TAG, self.len))
                    } else {
                        PpState::Receiving(mpi.irecv(w, Some(peer), Some(PP_TAG)))
                    };
                }
                PpState::Sending(req) => {
                    if mpi.test(req).is_none() {
                        return Poll::Pending;
                    }
                    if leader {
                        self.state = PpState::Receiving(mpi.irecv(w, Some(peer), Some(PP_TAG)));
                    } else {
                        self.done += 1;
                        self.state = PpState::Idle;
                    }
                }
                PpState::Receiving(req) => {
                    if mpi.test(req).is_none() {
                        return Poll::Pending;
                    }
                    if leader {
                        self.done += 1;
                        self.state = PpState::Idle;
                    } else {
                        self.state = PpState::Sending(mpi.isend(w, peer, PP_TAG, self.len));
                    }
                }
            }
        }
        Poll::Done
    }
}
