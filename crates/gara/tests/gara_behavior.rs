//! Behavioral tests for GARA: admission control, advance reservations,
//! co-reservation atomicity, and end-to-end enforcement on the simulated
//! network and CPUs.

use mpichgq_gara::{
    install, CpuRequest, Gara, NetworkRequest, Request, ReserveError, ResvId, StartSpec, Status,
    StorageRequest,
};
use mpichgq_netsim::{topology::Dumbbell, ChanId, DepthRule, NodeId, PolicingAction, Proto};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, Sim, SockId};
use std::cell::RefCell;
use std::rc::Rc;

fn net_request(src: NodeId, dst: NodeId, rate_bps: u64) -> Request {
    net_request_port(src, dst, rate_bps, None)
}

fn net_request_port(src: NodeId, dst: NodeId, rate_bps: u64, dst_port: Option<u16>) -> Request {
    Request::Network(NetworkRequest {
        src,
        dst,
        proto: Proto::Udp,
        src_port: None,
        dst_port,
        rate_bps,
        depth: DepthRule::Normal,
        action: PolicingAction::Drop,
        shape_at_source: false,
    })
}

/// A constant-bit-rate UDP source.
struct UdpCbr {
    dst: NodeId,
    dport: u16,
    payload: u32,
    interval: SimDelta,
    sock: Option<SockId>,
}

impl App for UdpCbr {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sock = Some(ctx.udp_bind(9999));
        ctx.set_timer(self.interval, 0);
    }
    fn on_timer(&mut self, _t: u32, ctx: &mut Ctx) {
        ctx.udp_send(self.sock.unwrap(), self.dst, self.dport, self.payload);
        ctx.set_timer(self.interval, 0);
    }
}

/// Counts received UDP payload bytes.
struct UdpSink {
    port: u16,
    got: Rc<RefCell<u64>>,
}

impl App for UdpSink {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.udp_bind(self.port);
    }
    fn on_udp(&mut self, _s: SockId, _from: (NodeId, u16), len: u32, _ctx: &mut Ctx) {
        *self.got.borrow_mut() += len as u64;
    }
}

fn dumbbell_sim() -> (Sim, NodeId, NodeId) {
    let d = Dumbbell::build(10_000_000, SimDelta::from_millis(1), 11);
    let (src, dst) = (d.src, d.dst);
    let mut sim = Sim::new(d.net);
    let mut gara = Gara::new();
    gara.manage_core_links(&sim.net, 0.5); // 5 Mb/s reservable on the trunk
    install(&mut sim.stack, gara);
    (sim, src, dst)
}

fn with_gara<R>(sim: &mut Sim, f: impl FnOnce(&mut Gara, &mut mpichgq_netsim::Net) -> R) -> R {
    let mut g = sim.stack.take_service::<Gara>().expect("gara installed");
    let r = f(&mut g, &mut sim.net);
    sim.stack.put_service_box(g);
    r
}

#[test]
fn admission_is_limited_to_reservable_fraction() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        assert_eq!(g.managed_chan_count(), 2); // both trunk directions
        g.reserve(net, net_request(src, dst, 3_000_000), StartSpec::Now, None)
            .unwrap();
        // 2 Mb/s left of the 5 Mb/s reservable.
        let err = g
            .reserve(net, net_request(src, dst, 2_500_000), StartSpec::Now, None)
            .unwrap_err();
        match err {
            ReserveError::Admission(r) => assert_eq!(r.available, 2_000_000),
            other => panic!("unexpected error {other}"),
        }
        g.reserve(net, net_request(src, dst, 2_000_000), StartSpec::Now, None)
            .unwrap();
    });
}

#[test]
fn cancel_releases_capacity_and_enforcement() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        let id = g
            .reserve(net, net_request(src, dst, 5_000_000), StartSpec::Now, None)
            .unwrap();
        assert_eq!(g.status(id), Some(Status::Active));
        assert!(g
            .reserve(net, net_request(src, dst, 1_000_000), StartSpec::Now, None)
            .is_err());
        g.cancel(net, id);
        assert_eq!(g.status(id), Some(Status::Cancelled));
        g.reserve(net, net_request(src, dst, 5_000_000), StartSpec::Now, None)
            .unwrap();
        // The classifier rule of the cancelled reservation is gone; exactly
        // one rule (the new reservation's) remains on the edge router.
        let r1 = NodeId(1);
        assert_eq!(net.node(r1).classifier.len(), 1);
    });
}

#[test]
fn reservation_protects_flow_from_congestion() {
    // Blast 12 Mb/s of best-effort UDP over the 10 Mb/s trunk alongside a
    // 2 Mb/s premium flow. Without a reservation the premium flow loses
    // proportionally; with one it gets everything through.
    let run = |reserve: bool| {
        let (mut sim, src, dst) = dumbbell_sim();
        if reserve {
            with_gara(&mut sim, |g, net| {
                g.reserve(
                    net,
                    net_request_port(src, dst, 2_500_000, Some(7000)),
                    StartSpec::Now,
                    None,
                )
                .unwrap();
            });
        }
        let got = Rc::new(RefCell::new(0u64));
        sim.spawn_app(
            dst,
            Box::new(UdpSink {
                port: 7000,
                got: got.clone(),
            }),
        );
        // Premium flow: 1000-byte payloads every 4 ms = 2 Mb/s.
        sim.spawn_app(
            src,
            Box::new(UdpCbr {
                dst,
                dport: 7000,
                payload: 1000,
                interval: SimDelta::from_millis(4),
                sock: None,
            }),
        );
        // Contention: a second sink port and a ~30 Mb/s blaster that keeps
        // the best-effort queue persistently full.
        let waste = Rc::new(RefCell::new(0u64));
        sim.spawn_app(
            dst,
            Box::new(UdpSink {
                port: 7001,
                got: waste.clone(),
            }),
        );
        let mut blaster = UdpCbr {
            dst,
            dport: 7001,
            payload: 1500,
            interval: SimDelta::from_micros(400),
            sock: None,
        };
        blaster.sock = None;
        struct Blaster2(UdpCbr);
        impl App for Blaster2 {
            fn on_start(&mut self, ctx: &mut Ctx) {
                self.0.sock = Some(ctx.udp_bind(9998));
                ctx.set_timer(self.0.interval, 0);
            }
            fn on_timer(&mut self, _t: u32, ctx: &mut Ctx) {
                ctx.udp_send(
                    self.0.sock.unwrap(),
                    self.0.dst,
                    self.0.dport,
                    self.0.payload,
                );
                ctx.set_timer(self.0.interval, 0);
            }
        }
        sim.spawn_app(src, Box::new(Blaster2(blaster)));
        sim.run_until(SimTime::from_secs(10));
        let delivered = *got.borrow();
        delivered
    };
    let with_resv = run(true);
    let without = run(false);
    let offered = 2_000_000 / 8 * 10; // bytes the premium source offered
    assert!(
        with_resv as f64 > 0.99 * offered as f64,
        "reserved flow delivered {with_resv} of {offered}"
    );
    assert!(
        (without as f64) < 0.9 * offered as f64,
        "unreserved flow should suffer under congestion: {without} of {offered}"
    );
}

#[test]
fn advance_reservation_activates_and_expires_on_schedule() {
    let (mut sim, src, dst) = dumbbell_sim();
    let id = with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            net_request(src, dst, 1_000_000),
            StartSpec::At(SimTime::from_secs(5)),
            Some(SimDelta::from_secs(3)),
        )
        .unwrap()
    });
    let r1 = NodeId(1);
    assert_eq!(
        with_gara(&mut sim, |g, _| g.status(id)),
        Some(Status::Pending)
    );
    assert_eq!(sim.net.node(r1).classifier.len(), 0);

    sim.run_until(SimTime::from_secs(6));
    assert_eq!(
        with_gara(&mut sim, |g, _| g.status(id)),
        Some(Status::Active)
    );
    assert_eq!(
        sim.net.node(r1).classifier.len(),
        1,
        "policer installed at start"
    );

    sim.run_until(SimTime::from_secs(9));
    assert_eq!(
        with_gara(&mut sim, |g, _| g.status(id)),
        Some(Status::Expired)
    );
    assert_eq!(
        sim.net.node(r1).classifier.len(),
        0,
        "policer removed at end"
    );
}

#[test]
fn advance_co_reservation_activates_and_expires_on_schedule() {
    // Regression: `co_reserve` created its pending records without queueing
    // their start deadlines, so an advance co-reservation stayed `Pending`
    // for ever (and `examples/advance_coreservation.rs` panicked).
    let (mut sim, src, dst) = dumbbell_sim();
    let proc = sim.net.cpu_add_process(src);
    let window = (
        StartSpec::At(SimTime::from_secs(5)),
        Some(SimDelta::from_secs(3)),
    );
    let cpu = Request::Cpu(CpuRequest {
        host: src,
        proc,
        fraction: 0.5,
    });
    let ids = with_gara(&mut sim, |g, net| {
        let set = vec![
            (net_request(src, dst, 1_000_000), window.0, window.1),
            (cpu, window.0, window.1),
        ];
        let ids = g.co_reserve(net, set).unwrap();
        assert_eq!(g.next_deadline(), Some(SimTime::from_secs(5)));
        ids
    });
    let statuses = |sim: &mut Sim| -> Vec<Option<Status>> {
        with_gara(sim, |g, _| ids.iter().map(|&i| g.status(i)).collect())
    };
    let both = |st| vec![Some(st); 2];
    assert_eq!(statuses(&mut sim), both(Status::Pending));
    sim.run_until(SimTime::from_secs(6));
    assert_eq!(statuses(&mut sim), both(Status::Active));
    assert_eq!(sim.net.node(NodeId(1)).classifier.len(), 1);
    sim.run_until(SimTime::from_secs(9));
    assert_eq!(statuses(&mut sim), both(Status::Expired));
    assert_eq!(sim.net.node(NodeId(1)).classifier.len(), 0);
    with_gara(&mut sim, |g, _| assert_eq!(g.next_deadline(), None));
}

#[test]
fn failed_activation_retires_the_record_and_releases_its_slots() {
    let (mut sim, src, _dst) = dumbbell_sim();
    let (hog, proc) = (sim.net.cpu_add_process(src), sim.net.cpu_add_process(src));
    // A DSRT reservation made behind the broker's back: GARA's CPU table
    // admits the request below, the scheduler then refuses to enforce it.
    sim.net.cpu_set_reservation(src, hog, Some(0.9)).unwrap();
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = log.clone();
    with_gara(&mut sim, |g, net| {
        g.subscribe(Box::new(move |id, st| log2.borrow_mut().push((id, st))));
        let cpu = Request::Cpu(CpuRequest {
            host: src,
            proc,
            fraction: 0.5,
        });
        let refused = g.reserve(net, cpu, StartSpec::Now, None).unwrap();
        // No first hop from a host to itself: the other `Failed` arm.
        let looped = g
            .reserve(net, net_request(src, src, 1_000_000), StartSpec::Now, None)
            .unwrap();
        assert_eq!(
            log.take(),
            vec![(refused, Status::Failed), (looped, Status::Failed)]
        );
        // Nothing stays committed on behalf of a failed reservation ...
        assert_eq!(g.cpu_tables().map(|(_, t)| t.len()).sum::<usize>(), 0);
        assert!(g.slot_tables().all(|(_, t)| t.is_empty()));
        assert_eq!(net.node(NodeId(1)).classifier.len(), 0);
        // ... and its handle is as dead as a cancelled one's.
        for id in [refused, looped] {
            assert_eq!(g.status(id), Some(Status::Failed));
            g.cancel(net, id);
            g.revoke(net, id);
            assert_eq!(g.status(id), Some(Status::Failed));
        }
        assert!(matches!(
            g.modify_cpu_fraction(net, refused, 0.1),
            Err(ReserveError::Invalid("no such modifiable reservation"))
        ));
        assert!(log.borrow().is_empty());
        assert_eq!(net.obs.metrics.counter_value("gara.cancels"), None);
        assert_eq!(net.obs.metrics.counter_value("gara.revocations"), None);
    });
}

#[test]
fn overlapping_advance_reservations_respect_capacity() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            net_request(src, dst, 4_000_000),
            StartSpec::At(SimTime::from_secs(10)),
            Some(SimDelta::from_secs(10)),
        )
        .unwrap();
        // Overlaps the future window: only 1 Mb/s free there.
        assert!(g
            .reserve(net, net_request(src, dst, 2_000_000), StartSpec::Now, None)
            .is_err());
        // Fits before the window ends... no: open-ended overlaps. A bounded
        // one that ends before 10 s works.
        g.reserve(
            net,
            net_request(src, dst, 2_000_000),
            StartSpec::Now,
            Some(SimDelta::from_secs(10)),
        )
        .unwrap();
    });
}

#[test]
fn co_reservation_is_atomic() {
    let (mut sim, src, dst) = dumbbell_sim();
    let proc = sim.net.cpu_add_process(src);
    with_gara(&mut sim, |g, net| {
        // Second request oversubscribes the network: everything rolls back.
        let result = g.co_reserve(
            net,
            vec![
                (
                    Request::Cpu(CpuRequest {
                        host: src,
                        proc,
                        fraction: 0.9,
                    }),
                    StartSpec::Now,
                    None,
                ),
                (net_request(src, dst, 100_000_000), StartSpec::Now, None),
            ],
        );
        assert!(result.is_err());
        // The CPU reservation must have been rolled back.
        let ok = g.co_reserve(
            net,
            vec![
                (
                    Request::Cpu(CpuRequest {
                        host: src,
                        proc,
                        fraction: 0.9,
                    }),
                    StartSpec::Now,
                    None,
                ),
                (net_request(src, dst, 1_000_000), StartSpec::Now, None),
            ],
        );
        assert_eq!(ok.unwrap().len(), 2);
    });
}

#[test]
fn cpu_reservation_is_enforced_end_to_end() {
    let (mut sim, src, _dst) = dumbbell_sim();
    let proc = sim.net.cpu_add_process(src);
    sim.net.cpu_spawn_hog(src);
    // Fair share 50%.
    assert!((sim.net.cpu_share_of(src, proc) - 0.0).abs() < 1e-9); // not runnable yet
    with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            Request::Cpu(CpuRequest {
                host: src,
                proc,
                fraction: 0.8,
            }),
            StartSpec::Now,
            Some(SimDelta::from_secs(5)),
        )
        .unwrap();
    });
    let wid = sim.net.cpu_start_work(src, proc, SimDelta::from_secs(30));
    let _ = wid;
    assert!((sim.net.cpu_share_of(src, proc) - 0.8).abs() < 1e-9);
    // After expiry the share reverts to fair (50% with one hog).
    sim.run_until(SimTime::from_secs(6));
    assert!(
        (sim.net.cpu_share_of(src, proc) - 0.5).abs() < 1e-9,
        "share after expiry: {}",
        sim.net.cpu_share_of(src, proc)
    );
}

#[test]
fn storage_reservations_account_bandwidth() {
    let (mut sim, _src, _dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        g.manage_storage("dpss-1", 100_000_000);
        let a = g
            .reserve(
                net,
                Request::Storage(StorageRequest {
                    server: "dpss-1".into(),
                    bytes_per_sec: 80_000_000,
                }),
                StartSpec::Now,
                None,
            )
            .unwrap();
        assert!(g
            .reserve(
                net,
                Request::Storage(StorageRequest {
                    server: "dpss-1".into(),
                    bytes_per_sec: 30_000_000,
                }),
                StartSpec::Now,
                None,
            )
            .is_err());
        g.cancel(net, a);
        assert!(g
            .reserve(
                net,
                Request::Storage(StorageRequest {
                    server: "dpss-1".into(),
                    bytes_per_sec: 30_000_000,
                }),
                StartSpec::Now,
                None,
            )
            .is_ok());
        // Unknown server is a distinct error.
        assert!(matches!(
            g.reserve(
                net,
                Request::Storage(StorageRequest {
                    server: "nope".into(),
                    bytes_per_sec: 1
                }),
                StartSpec::Now,
                None,
            ),
            Err(ReserveError::UnknownServer(_))
        ));
    });
}

#[test]
fn modify_network_rate_live() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        let id = g
            .reserve(net, net_request(src, dst, 2_000_000), StartSpec::Now, None)
            .unwrap();
        // Grow within capacity.
        g.modify_network_rate(net, id, 4_000_000).unwrap();
        // Too big.
        assert!(g.modify_network_rate(net, id, 6_000_000).is_err());
        // The failed modify must not have leaked capacity: 1 Mb/s fits.
        g.reserve(net, net_request(src, dst, 1_000_000), StartSpec::Now, None)
            .unwrap();
    });
}

#[test]
fn status_events_and_callbacks_fire() {
    let (mut sim, src, dst) = dumbbell_sim();
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = log.clone();
    with_gara(&mut sim, |g, _| {
        g.subscribe(Box::new(move |id, st| log2.borrow_mut().push((id, st))));
    });
    let id = with_gara(&mut sim, |g, net| {
        g.reserve(
            net,
            net_request(src, dst, 1_000_000),
            StartSpec::At(SimTime::from_secs(2)),
            Some(SimDelta::from_secs(2)),
        )
        .unwrap()
    });
    sim.run_until(SimTime::from_secs(5));
    let log = log.borrow();
    assert_eq!(
        *log,
        vec![
            (id, Status::Pending),
            (id, Status::Active),
            (id, Status::Expired)
        ]
    );
    // The polling interface answers for the finished id, and for no id the
    // broker never issued (`id` is the only one, so the next is id + 1).
    with_gara(&mut sim, |g, _| {
        assert_eq!(g.status(id), Some(Status::Expired));
        assert_eq!(g.status(ResvId(id.0 + 1 + 7)), None);
        assert_eq!(g.status(ResvId(u64::MAX)), None);
    });
}

#[test]
fn revoke_tears_down_and_frees_capacity() {
    let (mut sim, src, dst) = dumbbell_sim();
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = log.clone();
    with_gara(&mut sim, |g, net| {
        g.subscribe(Box::new(move |id, st| log2.borrow_mut().push((id, st))));
        let id = g
            .reserve(net, net_request(src, dst, 5_000_000), StartSpec::Now, None)
            .unwrap();
        assert_eq!(g.status(id), Some(Status::Active));
        assert_eq!(log.take(), vec![(id, Status::Active)]);
        g.revoke(net, id);
        assert_eq!(g.status(id), Some(Status::Revoked));
        assert_eq!(log.take(), vec![(id, Status::Revoked)]);
        // Enforcement gone, capacity back.
        assert_eq!(net.node(NodeId(1)).classifier.len(), 0);
        g.reserve(net, net_request(src, dst, 5_000_000), StartSpec::Now, None)
            .unwrap();
        // Revoking a non-live reservation is a no-op.
        g.revoke(net, id);
        assert_eq!(g.status(id), Some(Status::Revoked));
        assert_eq!(net.obs.metrics.counter_value("gara.revocations"), Some(1));
    });
}

#[test]
fn injected_rejections_fail_then_clear() {
    let (mut sim, src, dst) = dumbbell_sim();
    with_gara(&mut sim, |g, net| {
        g.inject_rejections(2);
        for _ in 0..2 {
            assert!(matches!(
                g.reserve(net, net_request(src, dst, 1_000_000), StartSpec::Now, None),
                Err(ReserveError::Injected)
            ));
        }
        // Third attempt succeeds; the injections consumed no capacity.
        g.reserve(net, net_request(src, dst, 5_000_000), StartSpec::Now, None)
            .unwrap();
        assert_eq!(
            net.obs.metrics.counter_value("gara.injected_rejections"),
            Some(2)
        );
    });
}

#[test]
fn cpu_reservation_can_be_modified_live() {
    let (mut sim, src, _dst) = dumbbell_sim();
    let proc = sim.net.cpu_add_process(src);
    sim.net.cpu_spawn_hog(src);
    sim.net.cpu_start_work(src, proc, SimDelta::from_secs(100));
    with_gara(&mut sim, |g, net| {
        let id = g
            .reserve(
                net,
                Request::Cpu(CpuRequest {
                    host: src,
                    proc,
                    fraction: 0.5,
                }),
                StartSpec::Now,
                None,
            )
            .unwrap();
        assert!((net.cpu_share_of(src, proc) - 0.5).abs() < 1e-9);
        // Grow the reservation in place.
        g.modify_cpu_fraction(net, id, 0.9).unwrap();
        assert!((net.cpu_share_of(src, proc) - 0.9).abs() < 1e-9);
        // Growing past the admission cap fails and leaves 0.9 in force.
        assert!(g.modify_cpu_fraction(net, id, 0.96).is_err());
        assert!((net.cpu_share_of(src, proc) - 0.9).abs() < 1e-9);
        // Shrinking frees capacity for another process.
        g.modify_cpu_fraction(net, id, 0.2).unwrap();
        let p2 = net.cpu_add_process(src);
        g.reserve(
            net,
            Request::Cpu(CpuRequest {
                host: src,
                proc: p2,
                fraction: 0.7,
            }),
            StartSpec::Now,
            None,
        )
        .unwrap();
    });
}

#[test]
fn failed_multi_link_modify_rolls_back_infallibly() {
    // A reservation path crossing two managed trunks with different
    // reservable capacities: growing the rate succeeds on the roomier
    // first trunk and is refused on the tighter second. The refusal must
    // restore the first trunk's slot to the old rate — without panicking
    // (regression: the rollback chained `try_resize(..).unwrap()` /
    // `get_mut(..).unwrap()` and aborted the process on any wrinkle).
    use mpichgq_netsim::{LinkCfg, QueueCfg, TopoBuilder};
    let mut b = TopoBuilder::new(77);
    let h1 = b.host("h1");
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let r3 = b.router("r3");
    let h2 = b.host("h2");
    let edge = LinkCfg::fast_ethernet(SimDelta::from_micros(50));
    let trunk = LinkCfg::atm_vc(10_000_000, SimDelta::from_millis(2));
    b.link(h1, r1, edge, QueueCfg::droptail_default());
    let (t12, _) = b.link(r1, r2, trunk, QueueCfg::priority_default());
    let (t23, _) = b.link(r2, r3, trunk, QueueCfg::priority_default());
    b.link(r3, h2, edge, QueueCfg::droptail_default());
    let mut sim = Sim::new(b.build());
    let mut gara = Gara::new();
    gara.manage_chan(t12, 8_000_000);
    gara.manage_chan(t23, 5_000_000);
    install(&mut sim.stack, gara);

    with_gara(&mut sim, |g, net| {
        let id = g
            .reserve(net, net_request(h1, h2, 4_000_000), StartSpec::Now, None)
            .unwrap();
        let horizon = SimTime::from_secs(1000);
        assert_eq!(g.available_on(t12, SimTime::ZERO, horizon), Some(4_000_000));
        assert_eq!(g.available_on(t23, SimTime::ZERO, horizon), Some(1_000_000));

        // 6 Mb/s fits trunk 1 (8 reservable) but not trunk 2 (5 reservable).
        let err = g.modify_network_rate(net, id, 6_000_000).unwrap_err();
        match err {
            ReserveError::Admission(r) => {
                assert_eq!(r.requested, 6_000_000);
                assert_eq!(r.available, 5_000_000);
            }
            other => panic!("unexpected error {other}"),
        }
        // Prior state restored on BOTH trunks: the old rate is still
        // admitted, and the freed capacity adds up exactly.
        assert_eq!(g.status(id), Some(Status::Active));
        assert_eq!(g.available_on(t12, SimTime::ZERO, horizon), Some(4_000_000));
        assert_eq!(g.available_on(t23, SimTime::ZERO, horizon), Some(1_000_000));

        // A feasible modify still works after the refused one.
        g.modify_network_rate(net, id, 5_000_000).unwrap();
        assert_eq!(g.available_on(t12, SimTime::ZERO, horizon), Some(3_000_000));
        assert_eq!(g.available_on(t23, SimTime::ZERO, horizon), Some(0));
    });
}

#[test]
fn modify_rollback_survives_capacity_lowering_reconfiguration() {
    // Broker lowers a trunk's reservable capacity below the committed peak
    // *after* admission. A later refused modify must still roll back
    // cleanly — `restore` bypasses admission, so the old (now formally
    // overcommitted) amount is reinstated instead of the process dying.
    use mpichgq_netsim::{LinkCfg, QueueCfg, TopoBuilder};
    let mut b = TopoBuilder::new(78);
    let h1 = b.host("h1");
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let r3 = b.router("r3");
    let h2 = b.host("h2");
    let edge = LinkCfg::fast_ethernet(SimDelta::from_micros(50));
    let trunk = LinkCfg::atm_vc(10_000_000, SimDelta::from_millis(2));
    b.link(h1, r1, edge, QueueCfg::droptail_default());
    let (t12, _) = b.link(r1, r2, trunk, QueueCfg::priority_default());
    let (t23, _) = b.link(r2, r3, trunk, QueueCfg::priority_default());
    b.link(r3, h2, edge, QueueCfg::droptail_default());
    let mut sim = Sim::new(b.build());
    let mut gara = Gara::new();
    gara.manage_chan(t12, 8_000_000);
    gara.manage_chan(t23, 8_000_000);
    install(&mut sim.stack, gara);

    with_gara(&mut sim, |g, net| {
        let id = g
            .reserve(net, net_request(h1, h2, 6_000_000), StartSpec::Now, None)
            .unwrap();
        // Reconfiguration squeezes the first trunk under the committed 6.
        assert!(g.set_chan_capacity(t12, 4_000_000));
        let over: Vec<_> = g
            .slot_tables()
            .filter(|(_, t)| t.max_overcommit() > 0)
            .map(|(c, t)| (c, t.max_overcommit()))
            .collect();
        assert_eq!(over, vec![(t12, 2_000_000)]);

        // Any modify is now refused at trunk 1 (over capacity), and the
        // rollback leaves the original 6 Mb/s in force everywhere.
        assert!(g.modify_network_rate(net, id, 7_000_000).is_err());
        assert_eq!(g.status(id), Some(Status::Active));
        for (_, t) in g.slot_tables() {
            assert_eq!(t.len(), 1);
        }
        let horizon = SimTime::from_secs(1000);
        assert_eq!(g.available_on(t23, SimTime::ZERO, horizon), Some(2_000_000));
        assert_eq!(g.available_on(t12, SimTime::ZERO, horizon), Some(0));
    });
}

#[test]
fn empty_interval_is_refused_not_a_panic() {
    // Regression: a zero duration (or a co_reserve item whose window ends
    // where it starts) on a path with a managed link used to reach the
    // slot table's `assert!(start < end)` and abort the process.
    let (mut sim, src, dst) = dumbbell_sim();
    let proc = sim.net.cpu_add_process(src);
    with_gara(&mut sim, |g, net| {
        let zero = Some(SimDelta::ZERO);
        let err = g
            .reserve(net, net_request(src, dst, 1_000_000), StartSpec::Now, zero)
            .unwrap_err();
        assert!(
            matches!(err, ReserveError::Invalid("empty interval")),
            "{err}"
        );
        // An advance reservation pinned to the end of time has no room either.
        let err = g
            .reserve(
                net,
                net_request(src, dst, 1_000_000),
                StartSpec::At(SimTime::MAX),
                None,
            )
            .unwrap_err();
        assert!(
            matches!(err, ReserveError::Invalid("empty interval")),
            "{err}"
        );

        // One empty item refuses the whole co-reservation; its well-formed
        // mate must not be left holding a slot.
        let cpu = Request::Cpu(CpuRequest {
            host: src,
            proc,
            fraction: 0.5,
        });
        let err = g
            .co_reserve(
                net,
                vec![
                    (cpu, StartSpec::Now, None),
                    (net_request(src, dst, 1_000_000), StartSpec::Now, zero),
                ],
            )
            .unwrap_err();
        assert!(
            matches!(err, ReserveError::Invalid("empty interval")),
            "{err}"
        );
        assert_eq!(g.cpu_tables().map(|(_, t)| t.len()).sum::<usize>(), 0);
        for (_, t) in g.slot_tables() {
            assert!(t.is_empty());
        }

        let count = |net: &mpichgq_netsim::Net, name: &str| net.obs.metrics.counter_value(name);
        assert_eq!(count(net, "gara.rejects.invalid"), Some(3));
        assert_eq!(count(net, "gara.reservations_rejected"), Some(3));
        // Counters are interned on first bump: nothing was granted, so the
        // grant counter does not exist yet.
        assert_eq!(count(net, "gara.reservations_granted"), None);
        g.reserve(net, net_request(src, dst, 1_000_000), StartSpec::Now, None)
            .unwrap();
        assert_eq!(count(net, "gara.reservations_granted"), Some(1));
    });
}

#[test]
fn identical_brokers_list_their_links_in_the_same_order() {
    // `slot_tables()` exposes the link map's iteration order. Under std's
    // per-instance `RandomState` two maps holding the same 12 keys almost
    // never agree on it (this failed on every run before the maps moved to
    // the deterministic FxHash), so one process could not replay itself.
    let build = || {
        let mut g = Gara::new();
        for i in 0..12u32 {
            g.manage_chan(ChanId(i * 7 % 12), 1_000_000 * (i as u64 + 1));
        }
        g.set_chan_capacity(ChanId(3), 5);
        g
    };
    let order = |g: &Gara| g.slot_tables().map(|(c, _)| c).collect::<Vec<_>>();
    let (a, b) = (build(), build());
    assert_eq!(order(&a).len(), 12);
    assert_eq!(order(&a), order(&b));
}
