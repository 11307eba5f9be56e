//! The TCP timer slot: one live engine event per socket, however often the
//! connection re-arms. A child module of `stack` so it can drive the two
//! out-of-line slot methods directly and see what reaches `on_timer`.

use super::*;
use mpichgq_netsim::{topology::Dumbbell, FaultAction, FaultPlan};
use std::cell::Cell;
use std::rc::Rc;

/// Routes TCP timer events into [`Stack::tcp_timer_due`] and records the
/// verdict instead of running the connection: `(now, generation handed to
/// on_timer)`.
struct Probe {
    stack: Stack,
    fired: Vec<(SimTime, Option<u64>)>,
}

impl NetHandler for Probe {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, net: &mut Net, _host: NodeId, token: u64) {
        let (kind, index, _) = decode_token(token);
        assert_eq!(kind, KIND_TCP);
        let due = self.stack.tcp_timer_due(net, SockId(index));
        self.fired.push((net.now(), due));
    }
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

struct Listen;
impl App for Listen {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(80, TcpCfg::default(), DataMode::Counted);
    }
}

/// A net plus a stack holding one (listener) socket, `SockId(0)`: the slot
/// exists on every socket and its logic never looks at the socket's kind.
fn probe() -> (Net, Probe) {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 1);
    let mut net = d.net;
    let mut stack = Stack::new();
    stack.spawn_app(&mut net, d.src, Box::new(Listen));
    let fired = Vec::new();
    (net, Probe { stack, fired })
}

const SOCK: SockId = SockId(0);

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn elided(net: &mut Net) -> u64 {
    net.publish_metrics();
    net.obs
        .metrics
        .counter_value("engine.events_elided.timer")
        .unwrap()
}

#[test]
fn deadline_moving_later_keeps_one_event() {
    let (mut net, mut p) = probe();
    for (k, at) in [10, 20, 30, 40].into_iter().enumerate() {
        p.stack.arm_tcp_timer(&mut net, SOCK, ms(at), k as u64 + 1);
        assert_eq!(net.pending_events(), 1, "arm {k} inserted an event");
    }
    net.run_to_quiescence(&mut p);
    // The first arm's event looks at the latest deadline and moves there;
    // the two arms in between never became events at all.
    assert_eq!(p.fired, vec![(ms(10), None), (ms(40), Some(4))]);
    assert_eq!(net.events_processed(), 2);
    assert_eq!(elided(&mut net), 2);
}

#[test]
fn deadline_moving_earlier_supersedes_the_live_event() {
    let (mut net, mut p) = probe();
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(30), 1);
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(10), 2);
    assert_eq!(net.pending_events(), 2);
    net.run_to_quiescence(&mut p);
    assert_eq!(p.fired, vec![(ms(10), Some(2)), (ms(30), None)]);
    assert_eq!(elided(&mut net), 0);
}

#[test]
fn superseded_event_is_ignored_even_after_a_later_rearm() {
    let (mut net, mut p) = probe();
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(30), 1);
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(10), 2);
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(50), 3);
    net.run_to_quiescence(&mut p);
    // 10 ms: live, moves to 50 ms. 30 ms: the superseded first event must
    // not be mistaken for the live one. 50 ms: due.
    assert_eq!(
        p.fired,
        vec![(ms(10), None), (ms(30), None), (ms(50), Some(3))]
    );
}

#[test]
fn a_consumed_or_cancelled_timer_rearms_cleanly() {
    let (mut net, mut p) = probe();
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(10), 1);
    net.run_until(&mut p, ms(15));
    assert_eq!(p.fired, vec![(ms(10), Some(1))]);
    // The connection cancels by bumping its generation and telling nobody;
    // its next arm carries the newer generation, and that is the one a
    // fire must deliver.
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(20), 3);
    assert_eq!(net.pending_events(), 1);
    // Cancel again (gen 4, silent), re-arm before the event fires.
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(35), 5);
    assert_eq!(net.pending_events(), 1);
    net.run_to_quiescence(&mut p);
    assert_eq!(p.fired[1..], [(ms(20), None), (ms(35), Some(5))]);
}

/// Generations grow by one per arm or cancel and used to be truncated to
/// `u32` in the timer token: past 2^32 of them `on_timer` was handed a
/// generation the connection no longer recognised (a lost RTO), and a
/// stale event could alias a live one. The token now names the socket only.
#[test]
fn generations_beyond_u32_survive_and_stale_fires_stay_out() {
    let (mut net, mut p) = probe();
    let big = u32::MAX as u64 + 1;
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(20), big + 2);
    p.stack.arm_tcp_timer(&mut net, SOCK, ms(10), 2 * big + 2);
    net.run_to_quiescence(&mut p);
    assert_eq!(
        p.fired,
        vec![(ms(10), Some(2 * big + 2)), (ms(20), None)],
        "the live fire carries all 64 bits; the stale one (same low 32 \
         bits) must not reach on_timer"
    );
}

/// Greedy one-shot sender / counting receiver for the crash test.
struct Tx {
    dst: NodeId,
    bytes: u64,
}
impl App for Tx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_connect(self.dst, 80, TcpCfg::default(), DataMode::Counted);
    }
    fn on_connected(&mut self, s: SockId, ctx: &mut Ctx) {
        self.bytes -= ctx.send(s, self.bytes);
    }
    fn on_writable(&mut self, s: SockId, ctx: &mut Ctx) {
        self.bytes -= ctx.send(s, self.bytes);
    }
}
struct Rx(Rc<Cell<u64>>);
impl App for Rx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(80, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, s: SockId, ctx: &mut Ctx) {
        self.0.set(self.0.get() + ctx.recv(s, u64::MAX));
    }
}

#[test]
fn live_event_swallowed_by_a_host_crash_does_not_wedge_a_respawned_socket() {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 1);
    let (src, dst, r1) = (d.src, d.dst, d.r1);
    let mut sim = Sim::new(d.net);
    let got = Rc::new(Cell::new(0));
    sim.spawn_app(dst, Box::new(Rx(got.clone())));
    sim.spawn_app(
        src,
        Box::new(Tx {
            dst,
            bytes: 5_000_000,
        }),
    );
    // The sender dies mid-transfer with its RTO event live; the network
    // swallows that event while the host is down. Right after the restart
    // the access link eats everything for 100 ms, so the respawned
    // sender's SYN is lost and only its own RTO (1 s) can connect it.
    let up = sim.net.route(src, r1).unwrap();
    sim.net.install_fault_plan(
        FaultPlan::new(9)
            .at(ms(300), FaultAction::HostCrash { host: src })
            .at(ms(400), FaultAction::HostRestart { host: src })
            .at(
                ms(400),
                FaultAction::LossBurst {
                    chan: up,
                    per_mille: 1000,
                    duration: SimDelta::from_millis(100),
                },
            ),
    );
    sim.stack.on_host_restart(Box::new(move |net, stack, host| {
        stack.spawn_app(net, host, Box::new(Tx { dst, bytes: 40_000 }));
    }));
    sim.run_until(ms(390));
    let before = got.get();
    assert!(before > 0 && before < 5_000_000, "crash must cut the flow");
    sim.run_until(ms(1_300));
    assert_eq!(got.get(), before, "nothing connects before the SYN RTO");
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(got.get(), before + 40_000);
    let rtos: u64 = sim
        .stack
        .tcp_sock_ids()
        .into_iter()
        .map(|s| sim.stack.conn_stats(s).unwrap().rtx_segs)
        .sum();
    assert!(rtos >= 1, "the respawned SYN was never retransmitted");
}
