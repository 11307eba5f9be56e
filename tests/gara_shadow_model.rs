//! The broker against a shadow model: what a holder can observe of GARA —
//! status by polling, status by callback, the next deadline, the slots its
//! reservations occupy, the counters — agrees with a model that remembers
//! every reservation ever granted, however little the broker itself keeps
//! of the finished ones.

use mpichgq::dsrt::ProcId;
use mpichgq::gara::{Gara, NetworkRequest, Request, ReserveError, ResvId, StartSpec, Status};
use mpichgq::netsim::{
    ChanId, DepthRule, LinkCfg, Net, NetHandler, NodeId, Packet, PolicingAction, QueueCfg,
    TopoBuilder,
};
use mpichgq::qcheck::{draw_gara_op, GaraOp};
use mpichgq::sim::{SimDelta, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

struct Idle;

impl NetHandler for Idle {
    fn deliver(&mut self, _n: &mut Net, _h: NodeId, _p: Packet) {}
    fn host_timer(&mut self, _n: &mut Net, _h: NodeId, _t: u64) {}
    fn cpu_done(&mut self, _n: &mut Net, _h: NodeId, _p: ProcId) {}
    fn control(&mut self, _n: &mut Net, _t: u64) {}
}

/// What the model keeps of a granted reservation, for ever.
struct Granted {
    id: ResvId,
    path: Vec<ChanId>,
    start: SimTime,
    end: SimTime,
}

fn live(s: Status) -> bool {
    matches!(s, Status::Pending | Status::Active)
}

fn gara_counters(net: &Net) -> BTreeMap<String, u64> {
    let all = net.obs.metrics.counters();
    all.filter(|(name, _)| name.starts_with("gara."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

/// Polling, the deadline query and every managed table against the model,
/// whose only source of status is the `subscribe` callback.
fn check(gara: &Gara, granted: &[Granted], last: &[Status]) {
    assert_eq!(last.len(), granted.len(), "one callback trail per grant");
    for g in granted {
        assert_eq!(gara.status(g.id), Some(last[g.id.0 as usize]), "{:?}", g.id);
    }
    assert_eq!(gara.status(ResvId(granted.len() as u64)), None);
    let deadline = granted.iter().filter_map(|g| match last[g.id.0 as usize] {
        Status::Pending => Some(g.start),
        Status::Active if g.end != SimTime::MAX => Some(g.end),
        _ => None,
    });
    assert_eq!(gara.next_deadline(), deadline.min());
    let mut slots: BTreeMap<u32, usize> = BTreeMap::new();
    for g in granted.iter().filter(|g| live(last[g.id.0 as usize])) {
        for &chan in &g.path {
            *slots.entry(chan.0).or_default() += 1;
        }
    }
    for (chan, table) in gara.slot_tables() {
        let want = slots.get(&chan.0).copied().unwrap_or(0);
        assert_eq!(table.len(), want, "slots on {chan:?}");
    }
}

#[test]
fn fifty_thousand_ops_agree_with_a_model_that_forgets_nothing() {
    // Four routers in a line, two hosts on each, 28 Mb/s reservable per
    // trunk against 1–14 Mb/s requests: admission refuses often.
    let mut b = TopoBuilder::new(0x5AD0);
    let routers: Vec<NodeId> = (0..4).map(|i| b.router(&format!("r{i}"))).collect();
    let trunk = LinkCfg::atm_vc(40_000_000, SimDelta::from_millis(1));
    for pair in routers.windows(2) {
        b.link(pair[0], pair[1], trunk, QueueCfg::priority_default());
    }
    let hosts: Vec<NodeId> = (0..8)
        .map(|i| {
            let h = b.host(&format!("h{i}"));
            let edge = LinkCfg::fast_ethernet(SimDelta::from_micros(50));
            b.link(h, routers[i % 4], edge, QueueCfg::priority_default());
            h
        })
        .collect();
    let mut net = b.build();
    let mut gara = Gara::new();
    gara.manage_core_links(&net, 0.7);
    let managed: Vec<ChanId> = gara.slot_tables().map(|(c, _)| c).collect();

    // The callback interface: the last status seen for each id.
    let last: Rc<RefCell<Vec<Status>>> = Rc::default();
    let sink = last.clone();
    gara.subscribe(Box::new(move |id, st| {
        let mut last = sink.borrow_mut();
        match id.0 as usize {
            i if i < last.len() => last[i] = st,
            i => {
                assert_eq!(i, last.len(), "ids are issued densely");
                last.push(st);
            }
        }
    }));

    let mut rng = SimRng::new(0x5AD0_0DE1);
    let mut granted: Vec<Granted> = Vec::new();
    let pick = |granted: &[Granted], victim: u64| granted[victim as usize % granted.len()].id;
    for i in 0..50_000u64 {
        match draw_gara_op(&mut rng, &hosts, 1_000) {
            GaraOp::Reserve {
                src,
                dst,
                proto,
                rate_bps,
                duration_ms,
                shape,
            } => {
                let req = NetworkRequest {
                    src,
                    dst,
                    proto,
                    src_port: None,
                    dst_port: None,
                    rate_bps,
                    depth: DepthRule::Normal,
                    action: PolicingAction::Drop,
                    shape_at_source: shape,
                };
                // A quarter are booked 30 ms ahead and wait `Pending`.
                let now = net.now();
                let (spec, start) = match rate_bps / 1_000_000 % 4 {
                    0 => {
                        let at = now + SimDelta::from_millis(30);
                        (StartSpec::At(at), at)
                    }
                    _ => (StartSpec::Now, now),
                };
                let lifetime = duration_ms.map(SimDelta::from_millis);
                if let Ok(id) = gara.reserve(&mut net, Request::Network(req), spec, lifetime) {
                    let mut path = net.path_chans(src, dst).expect("admitted");
                    path.retain(|c| managed.contains(c));
                    granted.push(Granted {
                        id,
                        path,
                        start,
                        end: lifetime.map_or(SimTime::MAX, |d| start + d),
                    });
                }
            }
            GaraOp::Modify { victim, rate_bps } if !granted.is_empty() => {
                let _ = gara.modify_network_rate(&mut net, pick(&granted, victim), rate_bps);
            }
            GaraOp::Cancel { victim } if !granted.is_empty() => {
                gara.cancel(&mut net, pick(&granted, victim));
            }
            GaraOp::Revoke { victim } if !granted.is_empty() => {
                gara.revoke(&mut net, pick(&granted, victim));
            }
            _ => {}
        }
        if i % 16 == 15 {
            let t = net.now() + SimDelta::from_millis(5);
            net.run_until(&mut Idle, t);
            gara.advance(&mut net);
        }
        if i % 5_000 == 4_999 {
            check(&gara, &granted, &last.borrow());
        }
    }

    let finals = last.borrow().clone();
    let count = |s: Status| finals.iter().filter(|&&l| l == s).count();
    let terminal: Vec<ResvId> = granted
        .iter()
        .map(|g| g.id)
        .filter(|id| !live(finals[id.0 as usize]))
        .collect();
    assert!(
        [Status::Expired, Status::Cancelled, Status::Revoked]
            .iter()
            .all(|&s| count(s) > 500)
            && count(Status::Pending) + count(Status::Active) > 0,
        "every lifecycle state is populated: {} granted, {} still live",
        granted.len(),
        granted.len() - terminal.len()
    );

    // A finished handle is dead: cancelling, revoking or modifying it again
    // changes nothing a holder can see, and counts only as a refused modify.
    let before = gara_counters(&net);
    for &id in &terminal {
        gara.cancel(&mut net, id);
        gara.revoke(&mut net, id);
        let refused = gara.modify_network_rate(&mut net, id, 2_000_000);
        assert!(
            matches!(
                refused,
                Err(ReserveError::Invalid("no such modifiable reservation"))
            ),
            "{id:?}: {refused:?}"
        );
    }
    let mut want = before;
    for name in ["gara.modifies_rejected", "gara.rejects.invalid"] {
        *want.entry(name.to_owned()).or_default() += terminal.len() as u64;
    }
    assert_eq!(gara_counters(&net), want);
    assert_eq!(*last.borrow(), finals, "no callback fired");
    check(&gara, &granted, &finals);
}
