//! Socket-layer behavior: demultiplexing, port allocation, the service
//! registry, and multi-controller dispatch.

use mpichgq_netsim::{topology::Dumbbell, Net, NodeId};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Controller, Ctx, DataMode, Sim, SockId, Stack, TcpCfg};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Per server socket: the port it was accepted on and the bytes it read.
type PortData = Rc<RefCell<BTreeMap<u32, (u16, u64)>>>;

/// A distinct byte count per destination port (several segments each), so
/// a segment handed to the wrong socket shows up as a wrong total.
fn bytes_for(port: u16) -> u64 {
    (port as u64 - 5000) * 10_000 + 7
}

fn sim2() -> (Sim, NodeId, NodeId) {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 33);
    let (a, b) = (d.src, d.dst);
    (Sim::new(d.net), a, b)
}

#[test]
fn concurrent_connections_between_same_hosts_demux_correctly() {
    // Three sockets between one host pair, each carrying a distinct byte
    // count; each server socket must read exactly its own.
    let (mut sim, a, b) = sim2();
    let results: PortData = Rc::new(RefCell::new(BTreeMap::new()));

    struct Server {
        results: PortData,
    }
    impl App for Server {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for port in [5001, 5002, 5003] {
                ctx.tcp_listen(port, TcpCfg::default(), DataMode::Counted);
            }
        }
        fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
            let n = ctx.recv(sock, u64::MAX);
            let (_, port) = ctx.sock_name(sock);
            let mut r = self.results.borrow_mut();
            let entry = r.entry(sock.0).or_insert((port, 0));
            assert_eq!(entry.0, port);
            entry.1 += n;
        }
    }
    struct Client {
        dst: NodeId,
        socks: Vec<SockId>,
    }
    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for port in [5001, 5002, 5003] {
                let s = ctx.tcp_connect(self.dst, port, TcpCfg::default(), DataMode::Counted);
                self.socks.push(s);
            }
        }
        fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {
            let (_, dport) = ctx.sock_peer(sock).unwrap();
            let want = bytes_for(dport);
            assert_eq!(ctx.send(sock, want), want);
        }
    }
    sim.spawn_app(
        b,
        Box::new(Server {
            results: results.clone(),
        }),
    );
    sim.spawn_app(
        a,
        Box::new(Client {
            dst: b,
            socks: Vec::new(),
        }),
    );
    sim.run_until(SimTime::from_secs(5));
    let mut got: Vec<(u16, u64)> = results.borrow().values().copied().collect();
    got.sort();
    let expect: Vec<(u16, u64)> = [5001u16, 5002, 5003]
        .iter()
        .map(|&p| (p, bytes_for(p)))
        .collect();
    assert_eq!(
        got, expect,
        "one server socket per port, each with its own bytes"
    );
}

#[test]
fn ephemeral_ports_are_unique_per_host() {
    let (mut sim, a, b) = sim2();
    struct Server;
    impl App for Server {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.tcp_listen(7000, TcpCfg::default(), DataMode::Counted);
        }
    }
    struct Client {
        dst: NodeId,
        ports: Rc<RefCell<Vec<u16>>>,
    }
    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for _ in 0..10 {
                let s = ctx.tcp_connect(self.dst, 7000, TcpCfg::default(), DataMode::Counted);
                let (_, port) = ctx.sock_name(s);
                self.ports.borrow_mut().push(port);
            }
        }
    }
    let ports = Rc::new(RefCell::new(Vec::new()));
    sim.spawn_app(b, Box::new(Server));
    sim.spawn_app(
        a,
        Box::new(Client {
            dst: b,
            ports: ports.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    let mut p = ports.borrow().clone();
    assert_eq!(p.len(), 10);
    p.sort();
    p.dedup();
    assert_eq!(p.len(), 10, "ephemeral ports must be unique");
}

#[test]
#[should_panic(expected = "already listening")]
fn double_listen_panics() {
    let (mut sim, a, _b) = sim2();
    struct Bad;
    impl App for Bad {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.tcp_listen(8000, TcpCfg::default(), DataMode::Counted);
            ctx.tcp_listen(8000, TcpCfg::default(), DataMode::Counted);
        }
    }
    sim.spawn_app(a, Box::new(Bad));
}

#[test]
fn service_registry_roundtrip() {
    struct MyService {
        hits: u32,
    }
    let mut stack = Stack::new();
    stack.insert_service(MyService { hits: 0 });
    stack.service_mut::<MyService>().unwrap().hits += 1;
    let boxed = stack.take_service::<MyService>().unwrap();
    assert_eq!(boxed.hits, 1);
    assert!(stack.service_mut::<MyService>().is_none());
    stack.put_service_box(boxed);
    assert_eq!(stack.service_mut::<MyService>().unwrap().hits, 1);
}

#[test]
fn controllers_receive_only_their_own_events() {
    let (mut sim, _a, _b) = sim2();
    struct C(Rc<RefCell<Vec<(u8, u64)>>>, u8);
    impl Controller for C {
        fn on_control(&mut self, payload: u64, _net: &mut Net, _stack: &mut Stack) {
            self.0.borrow_mut().push((self.1, payload));
        }
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let c1 = sim.stack.add_controller(Box::new(C(log.clone(), 1)));
    let c2 = sim.stack.add_controller(Box::new(C(log.clone(), 2)));
    sim.stack
        .schedule_control(&mut sim.net, c1, SimTime::from_secs(1), 11);
    sim.stack
        .schedule_control(&mut sim.net, c2, SimTime::from_secs(2), 22);
    sim.stack
        .schedule_control(&mut sim.net, c1, SimTime::from_secs(3), 33);
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(*log.borrow(), vec![(1, 11), (2, 22), (1, 33)]);
}

#[test]
fn udp_to_unbound_port_is_dropped_quietly() {
    let (mut sim, a, b) = sim2();
    struct Spray {
        dst: NodeId,
    }
    impl App for Spray {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let s = ctx.udp_bind(1234);
            ctx.udp_send(s, self.dst, 4321, 100); // nobody listens on 4321
        }
    }
    sim.spawn_app(a, Box::new(Spray { dst: b }));
    sim.run_until(SimTime::from_secs(1)); // must not panic
    assert_eq!(sim.net.drops.misrouted, 0);
}

#[test]
fn host_crash_kills_apps_and_restart_respawns_via_hook() {
    // A server on `b` crashes mid-conversation; the surviving client hears
    // `on_peer_failed`, the respawn hook relaunches the server on restart,
    // and a fresh connection moves data again.
    use mpichgq_netsim::faults::{FaultAction, FaultPlan};
    let (mut sim, a, b) = sim2();
    sim.net.install_fault_plan(
        FaultPlan::new(7)
            .at(SimTime::from_secs(1), FaultAction::HostCrash { host: b })
            .at(SimTime::from_secs(2), FaultAction::HostRestart { host: b }),
    );
    let log: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

    struct Server {
        log: Rc<RefCell<Vec<String>>>,
        tag: &'static str,
    }
    impl App for Server {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.tcp_listen(7000, TcpCfg::default(), DataMode::Counted);
        }
        fn on_readable(&mut self, sock: SockId, ctx: &mut Ctx) {
            let n = ctx.recv(sock, 1024);
            self.log.borrow_mut().push(format!("{} got {n}", self.tag));
        }
    }
    struct Client {
        dst: NodeId,
        log: Rc<RefCell<Vec<String>>>,
    }
    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.tcp_connect(self.dst, 7000, TcpCfg::default(), DataMode::Counted);
        }
        fn on_connected(&mut self, sock: SockId, ctx: &mut Ctx) {
            assert_eq!(ctx.send(sock, 4), 4);
        }
        fn on_peer_failed(&mut self, host: NodeId, _ctx: &mut Ctx) {
            self.log
                .borrow_mut()
                .push(format!("peer {} failed", host.0));
        }
        fn on_peer_restarted(&mut self, host: NodeId, ctx: &mut Ctx) {
            self.log
                .borrow_mut()
                .push(format!("peer {} restarted", host.0));
            // Reconnect: the respawn hook has already relaunched the server.
            ctx.tcp_connect(self.dst, 7000, TcpCfg::default(), DataMode::Counted);
        }
    }

    sim.spawn_app(
        b,
        Box::new(Server {
            log: log.clone(),
            tag: "server1",
        }),
    );
    sim.spawn_app(
        a,
        Box::new(Client {
            dst: b,
            log: log.clone(),
        }),
    );
    let hook_log = log.clone();
    sim.stack.on_host_restart(Box::new(move |net, stack, host| {
        stack.spawn_app(
            net,
            host,
            Box::new(Server {
                log: hook_log.clone(),
                tag: "server2",
            }),
        );
    }));
    sim.run_until(SimTime::from_secs(5));

    let got = log.borrow().clone();
    assert_eq!(
        got,
        vec![
            "server1 got 4".to_string(),
            format!("peer {} failed", b.0),
            format!("peer {} restarted", b.0),
            "server2 got 4".to_string(),
        ]
    );
    let fs = sim.net.fault_stats().unwrap();
    assert_eq!(fs.host_crashes, 1);
    assert_eq!(fs.host_restarts, 1);
    assert_eq!(fs.dead_deliveries, 0);
}
