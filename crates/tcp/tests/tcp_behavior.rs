//! End-to-end behavioral tests for the TCP implementation over the
//! simulated network: handshake, reliable delivery, congestion response,
//! flow control, and teardown.

use mpichgq_netsim::{topology::Dumbbell, Dscp, FlowSpec, PolicingAction, Proto, TokenBucket};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, Sim, SockId, TcpCfg};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct Shared {
    received: u64,
    eof: bool,
    closed_count: u32,
    finish_time: Option<SimTime>,
    fast_rtx: u64,
    rtos: u64,
}

struct Sender {
    dst: mpichgq_netsim::NodeId,
    port: u16,
    total: u64,
    sent: u64,
    cfg: TcpCfg,
    sock: Option<SockId>,
    shared: Rc<RefCell<Shared>>,
    close_when_done: bool,
}

impl Sender {
    fn pump(&mut self, ctx: &mut Ctx) {
        let sock = self.sock.unwrap();
        while self.sent < self.total {
            let want = (self.total - self.sent).min(16 * 1024);
            let n = ctx.send(sock, want);
            self.sent += n;
            if n < want {
                break; // buffer full; wait for on_writable
            }
        }
        if self.sent == self.total && self.close_when_done {
            ctx.close(sock);
            self.close_when_done = false;
        }
    }
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sock = Some(ctx.tcp_connect(self.dst, self.port, self.cfg, DataMode::Counted));
    }
    fn on_connected(&mut self, _sock: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
    fn on_writable(&mut self, _sock: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
    fn on_closed(&mut self, sock: SockId, ctx: &mut Ctx) {
        let mut sh = self.shared.borrow_mut();
        sh.closed_count += 1;
        if let Some(st) = ctx.conn_stats(sock) {
            sh.fast_rtx += st.fast_retransmits;
            sh.rtos += st.rtos;
        }
    }
}

struct Receiver {
    port: u16,
    cfg: TcpCfg,
    shared: Rc<RefCell<Shared>>,
    /// If set, don't read anything until this timer fires (flow-control test).
    hold_reads_until: Option<SimDelta>,
    holding: bool,
    sock: Option<SockId>,
}

impl Receiver {
    fn drain(&mut self, sock: SockId, ctx: &mut Ctx) {
        loop {
            let n = ctx.recv(sock, 64 * 1024);
            if n == 0 {
                break;
            }
            self.shared.borrow_mut().received += n;
        }
        if ctx.at_eof(sock) {
            let mut sh = self.shared.borrow_mut();
            if !sh.eof {
                sh.eof = true;
                sh.finish_time = Some(ctx.now());
            }
        }
    }
}

impl App for Receiver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(self.port, self.cfg, DataMode::Counted);
        if let Some(d) = self.hold_reads_until {
            self.holding = true;
            ctx.set_timer(d, 1);
        }
    }
    fn on_accept(&mut self, _l: SockId, sock: SockId, _ctx: &mut Ctx) {
        self.sock = Some(sock);
    }
    fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
        if !self.holding {
            self.drain(sock, ctx);
        }
    }
    fn on_remote_closed(&mut self, sock: SockId, ctx: &mut Ctx) {
        if !self.holding {
            self.drain(sock, ctx);
            ctx.close(sock);
        }
    }
    fn on_timer(&mut self, _token: u32, ctx: &mut Ctx) {
        self.holding = false;
        if let Some(sock) = self.sock {
            self.drain(sock, ctx);
            if ctx.at_eof(sock) {
                ctx.close(sock);
            }
        }
    }
    fn on_closed(&mut self, _sock: SockId, _ctx: &mut Ctx) {
        self.shared.borrow_mut().closed_count += 1;
    }
}

struct Setup {
    sim: Sim,
    shared: Rc<RefCell<Shared>>,
}

fn transfer_setup(
    bottleneck_bps: u64,
    delay_ms: u64,
    total: u64,
    cfg: TcpCfg,
    hold: Option<SimDelta>,
) -> Setup {
    let d = Dumbbell::build(bottleneck_bps, SimDelta::from_millis(delay_ms), 42);
    let (src, dst) = (d.src, d.dst);
    let mut sim = Sim::new(d.net);
    let shared = Rc::new(RefCell::new(Shared::default()));
    sim.spawn_app(
        dst,
        Box::new(Receiver {
            port: 5000,
            cfg,
            shared: shared.clone(),
            hold_reads_until: hold,
            holding: false,
            sock: None,
        }),
    );
    sim.spawn_app(
        src,
        Box::new(Sender {
            dst,
            port: 5000,
            total,
            sent: 0,
            cfg,
            sock: None,
            shared: shared.clone(),
            close_when_done: true,
        }),
    );
    Setup { sim, shared }
}

#[test]
fn counted_transfer_delivers_everything_and_closes() {
    let total = 300_000;
    let mut s = transfer_setup(10_000_000, 2, total, TcpCfg::default(), None);
    s.sim.run_until(SimTime::from_secs(30));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total);
    assert!(sh.eof, "receiver saw EOF");
    assert_eq!(sh.closed_count, 2, "both endpoints reached Closed");
}

#[test]
fn clean_link_throughput_approaches_bottleneck() {
    // 10 Mb/s bottleneck, 2 ms one-way core delay, 4 MB transfer. The
    // default 64 KB windows stay below the 150 KB bottleneck queue, so the
    // flow is genuinely lossless.
    let total = 4_000_000u64;
    let mut s = transfer_setup(10_000_000, 2, total, TcpCfg::default(), None);
    s.sim.run_until(SimTime::from_secs(60));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total);
    let secs = sh.finish_time.unwrap().as_secs_f64();
    let goodput = total as f64 * 8.0 / secs;
    // Expect at least 80% of the bottleneck (headers + slow start cost).
    assert!(
        goodput > 8_000_000.0,
        "goodput only {:.0} b/s in {:.2}s",
        goodput,
        secs
    );
    assert_eq!(sh.rtos, 0, "clean link should see no RTOs");
}

#[test]
fn small_socket_buffers_limit_throughput() {
    // The paper's §5.5 story: 8 KB socket buffers cap throughput at
    // window/RTT regardless of link capacity.
    let total = 400_000u64;
    let cfg = TcpCfg {
        send_buf: 8 * 1024,
        recv_buf: 8 * 1024,
        ..TcpCfg::default()
    };
    let mut s = transfer_setup(100_000_000, 10, total, cfg, None);
    s.sim.run_until(SimTime::from_secs(60));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total);
    let secs = sh.finish_time.unwrap().as_secs_f64();
    let goodput = total as f64 * 8.0 / secs;
    // Window/RTT = 8 KB / ~20 ms ~= 3.2 Mb/s; allow slack but it must be far
    // below the 100 Mb/s link.
    assert!(
        goodput < 6_000_000.0,
        "window-limited flow too fast: {goodput:.0} b/s"
    );
}

#[test]
fn congestion_losses_recover_via_fast_retransmit() {
    // Slow start overshoots a small bottleneck queue: drops are inevitable,
    // but the transfer must complete and mostly recover without RTOs.
    let total = 2_000_000u64;
    let cfg = TcpCfg {
        send_buf: 512 * 1024,
        recv_buf: 512 * 1024,
        ..TcpCfg::default()
    };
    let mut s = transfer_setup(5_000_000, 5, total, cfg, None);
    s.sim.run_until(SimTime::from_secs(120));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total, "reliability under loss");
    assert!(
        sh.fast_rtx > 0,
        "expected at least one fast retransmit (got rtos={})",
        sh.rtos
    );
}

#[test]
fn policed_flow_collapses_but_remains_reliable() {
    // Police the flow at 400 Kb/s with a shallow bucket at the edge; Reno
    // keeps probing past the profile and pays with drops. Everything still
    // arrives, far more slowly than an unpoliced flow would.
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(2), 7);
    let (src, dst, r1) = (d.src, d.dst, d.r1);
    let mut net = d.net;
    net.node_mut(r1).classifier.install(
        FlowSpec::host_pair(src, dst, Proto::Tcp),
        Dscp::Ef,
        Some(TokenBucket::new(400_000, 10_000)),
        PolicingAction::Drop,
    );
    let mut sim = Sim::new(net);
    let shared = Rc::new(RefCell::new(Shared::default()));
    let total = 250_000u64;
    sim.spawn_app(
        dst,
        Box::new(Receiver {
            port: 5000,
            cfg: TcpCfg::default(),
            shared: shared.clone(),
            hold_reads_until: None,
            holding: false,
            sock: None,
        }),
    );
    sim.spawn_app(
        src,
        Box::new(Sender {
            dst,
            port: 5000,
            total,
            sent: 0,
            cfg: TcpCfg::default(),
            sock: None,
            shared: shared.clone(),
            close_when_done: true,
        }),
    );
    sim.run_until(SimTime::from_secs(120));
    let sh = shared.borrow();
    assert_eq!(sh.received, total, "policing must not break reliability");
    let secs = sh.finish_time.unwrap().as_secs_f64();
    let goodput = total as f64 * 8.0 / secs;
    // The profile is 400 Kb/s; TCP under drop-policing achieves well below
    // the profile (the paper's Figure 1/6 effect).
    assert!(
        goodput < 400_000.0,
        "goodput {goodput:.0} should be below the policed rate"
    );
    assert!(
        sim.net.drops.policed > 0,
        "policer must have dropped packets"
    );
}

#[test]
fn zero_window_stalls_then_resumes() {
    // Receiver reads nothing for 2 s: the 64 KB receive buffer fills, the
    // sender stalls on a zero window, then everything drains.
    let total = 300_000u64;
    let mut s = transfer_setup(
        10_000_000,
        2,
        total,
        TcpCfg::default(),
        Some(SimDelta::from_secs(2)),
    );
    s.sim.run_until(SimTime::from_secs(60));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total);
    assert!(sh.eof);
    // Delivery cannot have finished before the receiver started reading.
    assert!(sh.finish_time.unwrap() >= SimTime::from_secs(2));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut s = transfer_setup(5_000_000, 5, 1_000_000, TcpCfg::default(), None);
        s.sim.run_until(SimTime::from_secs(60));
        let t = s.shared.borrow().finish_time;
        (t, s.sim.net.events_processed())
    };
    assert_eq!(run(), run());
}

#[test]
fn era_rto_min_still_delivers() {
    // The experiments' era profile (a 500 ms RTO floor: the paper's hosts
    // ran coarse retransmission timers) changes timing, never correctness.
    let total = 500_000u64;
    let cfg = TcpCfg {
        rto_min: SimDelta::from_millis(500),
        ..TcpCfg::default()
    };
    let mut s = transfer_setup(10_000_000, 2, total, cfg, None);
    s.sim.run_until(SimTime::from_secs(60));
    let sh = s.shared.borrow();
    assert_eq!(sh.received, total);
    assert!(sh.eof);
}
