//! End-to-end MPI behavior: point-to-point semantics, matching, context
//! isolation, rendezvous, attributes, and collectives — all over the
//! simulated network.

use mpichgq_mpi::{Bcast, CollState, CommId, JobBuilder, Mpi, MpiCfg, Poll, Reduce};
use mpichgq_netsim::{Framing, LinkCfg, NodeId, QueueCfg, TopoBuilder};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::Sim;
use std::cell::RefCell;
use std::rc::Rc;

/// A star of `n` hosts around one router: 100 Mb/s, 100 µs links.
fn star(n: usize) -> (Sim, Vec<NodeId>) {
    let mut b = TopoBuilder::new(3);
    let hosts: Vec<NodeId> = (0..n).map(|i| b.host(&format!("h{i}"))).collect();
    let r = b.router("r");
    let cfg = LinkCfg {
        bandwidth_bps: 100_000_000,
        delay: SimDelta::from_micros(100),
        framing: Framing::Ethernet,
    };
    for &h in &hosts {
        b.link(h, r, cfg, QueueCfg::priority_default());
    }
    (Sim::new(b.build()), hosts)
}

fn run(sim: &mut Sim, secs: u64) {
    sim.run_until(SimTime::from_secs(secs));
}

#[test]
fn two_rank_counted_ping_pong() {
    let (mut sim, hosts) = star(2);
    let rounds = 50u32;
    let finished = Rc::new(RefCell::new([false; 2]));

    let f0 = finished.clone();
    let pinger = move |mpi: &mut Mpi| {
        // State machine stored in captured locals.
        f0.borrow_mut()[0] = true;
        let _ = mpi;
        Poll::Done
    };
    let _ = pinger; // replaced below by the real state machine

    // Real ping side.
    struct Ping {
        rounds: u32,
        round: u32,
        state: u8, // 0 = need send, 1 = waiting recv
        req: Option<mpichgq_mpi::ReqId>,
        done_flag: Rc<RefCell<[bool; 2]>>,
    }
    impl mpichgq_mpi::MpiProgram for Ping {
        fn poll(&mut self, mpi: &mut Mpi) -> Poll {
            let w = mpi.comm_world();
            loop {
                match self.state {
                    0 => {
                        if self.round == self.rounds {
                            self.done_flag.borrow_mut()[0] = true;
                            return Poll::Done;
                        }
                        let _s = mpi.isend(w, 1, 7, 1000);
                        self.req = Some(mpi.irecv(w, Some(1), Some(7)));
                        self.state = 1;
                    }
                    1 => match mpi.test(self.req.unwrap()) {
                        Some(info) => {
                            assert_eq!(info.src, 1);
                            assert_eq!(info.len, 1000);
                            self.round += 1;
                            self.state = 0;
                        }
                        None => return Poll::Pending,
                    },
                    _ => unreachable!(),
                }
            }
        }
    }
    struct Pong {
        rounds: u32,
        round: u32,
        req: Option<mpichgq_mpi::ReqId>,
        done_flag: Rc<RefCell<[bool; 2]>>,
    }
    impl mpichgq_mpi::MpiProgram for Pong {
        fn poll(&mut self, mpi: &mut Mpi) -> Poll {
            let w = mpi.comm_world();
            loop {
                if self.round == self.rounds {
                    self.done_flag.borrow_mut()[1] = true;
                    return Poll::Done;
                }
                if self.req.is_none() {
                    self.req = Some(mpi.irecv(w, Some(0), Some(7)));
                }
                match mpi.test(self.req.unwrap()) {
                    Some(_) => {
                        self.req = None;
                        mpi.isend(w, 0, 7, 1000);
                        self.round += 1;
                    }
                    None => return Poll::Pending,
                }
            }
        }
    }

    let job = JobBuilder::new()
        .rank(
            hosts[0],
            Box::new(Ping {
                rounds,
                round: 0,
                state: 0,
                req: None,
                done_flag: finished.clone(),
            }),
        )
        .rank(
            hosts[1],
            Box::new(Pong {
                rounds,
                round: 0,
                req: None,
                done_flag: finished.clone(),
            }),
        )
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished(), "both ranks finished");
    assert_eq!(*finished.borrow(), [true, true]);
}

#[test]
fn rendezvous_preserves_large_payload() {
    let (mut sim, hosts) = star(2);
    // 200 KB >> 64 KB eager limit -> rendezvous path.
    let n = 200_000usize;
    let payload: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
    let expect = payload.clone();
    let got = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();

    let mut payload_opt = Some(payload);
    let sender = move |mpi: &mut Mpi| {
        if let Some(p) = payload_opt.take() {
            mpi.isend_bytes(mpi.comm_world(), 1, 5, p);
        }
        Poll::Done
    };
    let mut req = None;
    let receiver = move |mpi: &mut Mpi| {
        if req.is_none() {
            req = Some(mpi.irecv(mpi.comm_world(), Some(0), Some(5)));
        }
        match mpi.test(req.unwrap()) {
            Some(info) => {
                *got2.borrow_mut() = info.payload.expect("payload");
                Poll::Done
            }
            None => Poll::Pending,
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(hosts[1], Box::new(receiver))
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    assert_eq!(*got.borrow(), expect, "rendezvous payload corrupted");
}

#[test]
fn message_ordering_and_tag_matching() {
    let (mut sim, hosts) = star(2);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen2 = seen.clone();

    let mut sent = false;
    let sender = move |mpi: &mut Mpi| {
        if !sent {
            sent = true;
            let w = mpi.comm_world();
            // Three messages, two tags. Non-overtaking per (pair, tag).
            mpi.isend_bytes(w, 1, 1, vec![1]);
            mpi.isend_bytes(w, 1, 2, vec![2]);
            mpi.isend_bytes(w, 1, 1, vec![3]);
        }
        Poll::Done
    };
    struct Recv {
        reqs: Vec<mpichgq_mpi::ReqId>,
        posted: bool,
        seen: Rc<RefCell<Vec<(u32, u8)>>>,
    }
    impl mpichgq_mpi::MpiProgram for Recv {
        fn poll(&mut self, mpi: &mut Mpi) -> Poll {
            let w = mpi.comm_world();
            if !self.posted {
                self.posted = true;
                // Tag-2 receive first, then two tag-1 receives: the tag-2
                // message must bypass the queued tag-1 messages.
                self.reqs.push(mpi.irecv(w, Some(0), Some(2)));
                self.reqs.push(mpi.irecv(w, Some(0), Some(1)));
                self.reqs.push(mpi.irecv(w, Some(0), Some(1)));
            }
            let mut i = 0;
            while i < self.reqs.len() {
                if let Some(info) = mpi.test(self.reqs[i]) {
                    self.seen
                        .borrow_mut()
                        .push((info.tag, info.payload.unwrap()[0]));
                    self.reqs.remove(i);
                } else {
                    i += 1;
                }
            }
            if self.reqs.is_empty() {
                Poll::Done
            } else {
                Poll::Pending
            }
        }
    }
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(
            hosts[1],
            Box::new(Recv {
                reqs: Vec::new(),
                posted: false,
                seen: seen2,
            }),
        )
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    let seen = seen.borrow();
    // Tag-1 messages arrive in order 1 then 3; tag 2 delivers payload 2.
    let tag1: Vec<u8> = seen
        .iter()
        .filter(|(t, _)| *t == 1)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(tag1, vec![1, 3], "non-overtaking violated: {seen:?}");
    assert!(seen.contains(&(2, 2)));
}

#[test]
fn wildcard_source_and_tag() {
    let (mut sim, hosts) = star(3);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen2 = seen.clone();

    let make_sender = |val: u8| {
        let mut sent = false;
        move |mpi: &mut Mpi| {
            if !sent {
                sent = true;
                mpi.isend_bytes(mpi.comm_world(), 0, val as u32, vec![val]);
            }
            Poll::Done
        }
    };
    let mut reqs: Vec<mpichgq_mpi::ReqId> = Vec::new();
    let mut posted = false;
    let receiver = move |mpi: &mut Mpi| {
        let w = mpi.comm_world();
        if !posted {
            posted = true;
            reqs.push(mpi.irecv(w, None, None));
            reqs.push(mpi.irecv(w, None, None));
        }
        let mut i = 0;
        while i < reqs.len() {
            if let Some(info) = mpi.test(reqs[i]) {
                seen2.borrow_mut().push((info.src, info.tag));
                reqs.remove(i);
            } else {
                i += 1;
            }
        }
        if reqs.is_empty() {
            Poll::Done
        } else {
            Poll::Pending
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(receiver))
        .rank(hosts[1], Box::new(make_sender(1)))
        .rank(hosts[2], Box::new(make_sender(2)))
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    let mut seen = seen.borrow().clone();
    seen.sort();
    assert_eq!(seen, vec![(1, 1), (2, 2)]);
}

#[test]
fn intercomm_pair_isolates_contexts() {
    let (mut sim, hosts) = star(2);
    let order = Rc::new(RefCell::new(Vec::new()));
    let order2 = order.clone();

    // Sender: message on WORLD first, then on the intercommunicator.
    let mut state = 0;
    let sender = move |mpi: &mut Mpi| {
        if state == 0 {
            state = 1;
            let ic = mpi.intercomm_pair(1);
            mpi.isend_bytes(mpi.comm_world(), 1, 9, vec![b'w']);
            // Remote-group rank 0 is world rank 1.
            mpi.isend_bytes(ic, 0, 9, vec![b'i']);
        }
        Poll::Done
    };
    // Receiver: posts the intercommunicator receive FIRST; it must get the
    // intercommunicator's message, not the world message, though both come
    // from rank 0 of their communicator with tag 9.
    let mut posted = false;
    let mut ri: Option<mpichgq_mpi::ReqId> = None;
    let mut rw: Option<mpichgq_mpi::ReqId> = None;
    let receiver = move |mpi: &mut Mpi| {
        if !posted {
            posted = true;
            let ic = mpi.intercomm_pair(0);
            ri = Some(mpi.irecv(ic, Some(0), Some(9)));
            rw = Some(mpi.irecv(mpi.comm_world(), Some(0), Some(9)));
        }
        if let Some(r) = ri {
            if let Some(info) = mpi.test(r) {
                order2.borrow_mut().push(('i', info.payload.unwrap()[0]));
                ri = None;
            }
        }
        if let Some(r) = rw {
            if let Some(info) = mpi.test(r) {
                order2.borrow_mut().push(('w', info.payload.unwrap()[0]));
                rw = None;
            }
        }
        if ri.is_none() && rw.is_none() {
            Poll::Done
        } else {
            Poll::Pending
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(hosts[1], Box::new(receiver))
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    let order = order.borrow();
    assert!(order.contains(&('i', b'i')), "intercomm recv got {order:?}");
    assert!(order.contains(&('w', b'w')), "world recv got {order:?}");
}

#[test]
fn intercommunicator_pair_messaging() {
    let (mut sim, hosts) = star(2);
    let got = Rc::new(RefCell::new(None));
    let got2 = got.clone();

    let mut sent = false;
    let a = move |mpi: &mut Mpi| {
        if !sent {
            sent = true;
            let ic = mpi.intercomm_pair(1);
            // In an intercomm, dest 0 = first member of the REMOTE group.
            mpi.isend_bytes(ic, 0, 3, vec![42]);
        }
        Poll::Done
    };
    let mut req = None;
    let b = move |mpi: &mut Mpi| {
        if req.is_none() {
            let ic = mpi.intercomm_pair(0);
            req = Some(mpi.irecv(ic, Some(0), Some(3)));
        }
        match mpi.test(req.unwrap()) {
            Some(info) => {
                assert_eq!(info.src, 0, "source is remote-group rank");
                *got2.borrow_mut() = Some(info.payload.unwrap()[0]);
                Poll::Done
            }
            None => Poll::Pending,
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(a))
        .rank(hosts[1], Box::new(b))
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    assert_eq!(*got.borrow(), Some(42));
}

#[test]
fn bcast_reduce_roundtrip() {
    let (mut sim, hosts) = star(4);
    let results = Rc::new(RefCell::new(Vec::new()));

    let mut job = JobBuilder::new();
    #[allow(clippy::needless_range_loop)]
    for r in 0..4usize {
        let results = results.clone();
        let mut phase = 0u8;
        let mut bcast: Option<Bcast> = None;
        let mut reduce: Option<Reduce> = None;
        let prog = move |mpi: &mut Mpi| {
            let w = mpi.comm_world();
            loop {
                match phase {
                    0 => {
                        let data = if mpi.rank() == 0 {
                            Some(Some(vec![10, 20, 30]))
                        } else {
                            None
                        };
                        bcast = Some(Bcast::new(mpi, w, 0, 3, data));
                        phase = 1;
                    }
                    1 => match bcast.as_mut().unwrap().poll(mpi) {
                        CollState::Ready => {
                            let data = bcast.as_mut().unwrap().take_data().unwrap();
                            assert_eq!(data, vec![10, 20, 30]);
                            // Sum-reduce 8-byte little-endian integers to 0.
                            let mine = (mpi.rank() as u64 + 1).to_le_bytes().to_vec();
                            reduce = Some(Reduce::new(mpi, w, 0, mine, |a, b| {
                                let x = u64::from_le_bytes(a.try_into().unwrap());
                                let y = u64::from_le_bytes(b.try_into().unwrap());
                                (x + y).to_le_bytes().to_vec()
                            }));
                            phase = 2;
                        }
                        CollState::Pending => return Poll::Pending,
                        CollState::Failed(r) => panic!("unexpected rank failure: {r}"),
                    },
                    2 => match reduce.as_mut().unwrap().poll(mpi) {
                        CollState::Ready => {
                            if mpi.rank() == 0 {
                                let out = reduce.as_mut().unwrap().take_result().unwrap();
                                let sum = u64::from_le_bytes(out.try_into().unwrap());
                                results.borrow_mut().push(sum);
                            }
                            return Poll::Done;
                        }
                        CollState::Pending => return Poll::Pending,
                        CollState::Failed(r) => panic!("unexpected rank failure: {r}"),
                    },
                    _ => unreachable!(),
                }
            }
        };
        job = job.rank(hosts[r], Box::new(prog));
    }
    let handle = job.launch(&mut sim);
    run(&mut sim, 30);
    assert!(handle.finished());
    assert_eq!(*results.borrow(), vec![1 + 2 + 3 + 4]);
}

#[test]
fn attribute_hook_triggers_on_put() {
    let (mut sim, hosts) = star(2);
    let hook_calls = Rc::new(RefCell::new(Vec::new()));
    let hook_calls2 = hook_calls.clone();

    // The init hook registers a keyval whose put triggers an action —
    // exactly MPICH-GQ's mechanism. Keyvals created in init hooks get the
    // same id on every rank; stash it in a shared cell.
    let keyval = Rc::new(RefCell::new(None));
    let kv2 = keyval.clone();
    let init: mpichgq_mpi::InitHook = Rc::new(RefCell::new(move |mpi: &mut Mpi| {
        let calls = hook_calls2.clone();
        let k = mpi.keyval_create_with_hook(Rc::new(RefCell::new(
            move |mpi: &mut Mpi, comm: CommId, value: &mpichgq_mpi::AttrValue| {
                let v = *value.downcast_ref::<u32>().unwrap();
                calls.borrow_mut().push((mpi.rank(), comm, v));
            },
        )));
        *kv2.borrow_mut() = Some(k);
    }));

    let kv = keyval.clone();
    let mut done = false;
    let prog0 = move |mpi: &mut Mpi| {
        if !done {
            done = true;
            let k = kv.borrow().unwrap();
            let w = mpi.comm_world();
            mpi.attr_put(w, k, Rc::new(777u32));
            // attr_get sees the stored value.
            let v = mpi.attr_get(w, k).unwrap();
            assert_eq!(*v.downcast_ref::<u32>().unwrap(), 777);
            // Unset attribute elsewhere.
            assert!(mpi.attr_get(w, mpichgq_mpi::Keyval(99)).is_none());
        }
        Poll::Done
    };
    let prog1 = |_mpi: &mut Mpi| Poll::Done;

    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(prog0))
        .rank(hosts[1], Box::new(prog1))
        .init_hook(init)
        .launch(&mut sim);
    run(&mut sim, 10);
    assert!(job.finished());
    let calls = hook_calls.borrow();
    assert_eq!(calls.len(), 1, "hook fired exactly once: {calls:?}");
    assert_eq!(calls[0].0, 0);
    assert_eq!(calls[0].2, 777);
}

#[test]
fn unexpected_messages_match_later_receives() {
    let (mut sim, hosts) = star(2);
    let ok = Rc::new(RefCell::new(false));
    let ok2 = ok.clone();

    let mut sent = false;
    let sender = move |mpi: &mut Mpi| {
        if !sent {
            sent = true;
            mpi.isend_bytes(mpi.comm_world(), 1, 4, vec![9]);
        }
        Poll::Done
    };
    // Receiver waits 1 s before posting: the message sits in the
    // unexpected queue.
    let mut state = 0;
    let mut req = None;
    let receiver = move |mpi: &mut Mpi| {
        match state {
            0 => {
                state = 1;
                mpi.set_timer(SimDelta::from_secs(1), 1);
                Poll::Pending
            }
            1 => {
                if !mpi.take_timer(1) {
                    return Poll::Pending;
                }
                req = Some(mpi.irecv(mpi.comm_world(), Some(0), Some(4)));
                state = 2;
                // The unexpected match completes synchronously.
                match mpi.test(req.unwrap()) {
                    Some(info) => {
                        assert_eq!(info.payload.unwrap(), vec![9]);
                        *ok2.borrow_mut() = true;
                        Poll::Done
                    }
                    None => Poll::Pending,
                }
            }
            2 => match mpi.test(req.unwrap()) {
                Some(_) => {
                    *ok2.borrow_mut() = true;
                    Poll::Done
                }
                None => Poll::Pending,
            },
            _ => unreachable!(),
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(hosts[1], Box::new(receiver))
        .launch(&mut sim);
    run(&mut sim, 10);
    assert!(job.finished());
    assert!(*ok.borrow());
}

#[test]
fn comm_endpoints_extraction() {
    let (mut sim, hosts) = star(2);
    let eps = Rc::new(RefCell::new(None));
    let eps2 = eps.clone();
    let h1 = hosts[1];

    let prog0 = move |mpi: &mut Mpi| {
        let ic = mpi.intercomm_pair(1);
        let e = mpi.comm_endpoints(ic);
        *eps2.borrow_mut() = Some(e);
        Poll::Done
    };
    let prog1 = move |mpi: &mut Mpi| {
        let _ = mpi.intercomm_pair(0);
        Poll::Done
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(prog0))
        .rank(hosts[1], Box::new(prog1))
        .base_port(12000)
        .launch(&mut sim);
    run(&mut sim, 10);
    assert!(job.finished());
    let eps = eps.borrow();
    let e = eps.as_ref().unwrap();
    assert_eq!(e.local.len(), 1);
    assert_eq!(e.remote, vec![(1, h1, 12001)]);
}

#[test]
fn eager_limit_boundary_uses_both_protocols() {
    // Send exactly eager_limit and eager_limit + 1 bytes; both arrive
    // intact (one eager, one rendezvous).
    let (mut sim, hosts) = star(2);
    let limit = 8 * 1024u32;
    let cfg = MpiCfg {
        eager_limit: limit,
        ..MpiCfg::default()
    };
    let got = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();

    let mut sent = false;
    let sender = move |mpi: &mut Mpi| {
        if !sent {
            sent = true;
            let w = mpi.comm_world();
            mpi.isend_bytes(w, 1, 1, vec![0xAA; limit as usize]);
            mpi.isend_bytes(w, 1, 2, vec![0xBB; limit as usize + 1]);
        }
        Poll::Done
    };
    let mut reqs = Vec::new();
    let mut posted = false;
    let receiver = move |mpi: &mut Mpi| {
        let w = mpi.comm_world();
        if !posted {
            posted = true;
            reqs.push(mpi.irecv(w, Some(0), Some(1)));
            reqs.push(mpi.irecv(w, Some(0), Some(2)));
        }
        let mut i = 0;
        while i < reqs.len() {
            if let Some(info) = mpi.test(reqs[i]) {
                got2.borrow_mut().push((info.tag, info.payload.unwrap()));
                reqs.remove(i);
            } else {
                i += 1;
            }
        }
        if reqs.is_empty() {
            Poll::Done
        } else {
            Poll::Pending
        }
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(hosts[1], Box::new(receiver))
        .cfg(cfg)
        .launch(&mut sim);
    run(&mut sim, 30);
    assert!(job.finished());
    let got = got.borrow();
    let by_tag = |t: u32| got.iter().find(|(tag, _)| *tag == t).unwrap().1.clone();
    assert_eq!(by_tag(1), vec![0xAA; limit as usize]);
    assert_eq!(by_tag(2), vec![0xBB; limit as usize + 1]);
}

#[test]
fn unexpected_message_and_self_send() {
    let (mut sim, hosts) = star(2);

    let mut sent = false;
    let sender = move |mpi: &mut Mpi| {
        if !sent {
            sent = true;
            mpi.isend_bytes(mpi.comm_world(), 1, 6, vec![1, 2, 3]);
        }
        Poll::Done
    };
    let mut waited = false;
    let receiver = move |mpi: &mut Mpi| {
        let w = mpi.comm_world();
        if !waited {
            // Nothing posted: wait for the message to land unexpected.
            waited = true;
            mpi.set_timer(SimDelta::from_secs(1), 1);
            return Poll::Pending;
        }
        if !mpi.take_timer(1) {
            return Poll::Pending;
        }
        // Self-send: completes without touching the network, and does not
        // match the unexpected message from rank 0.
        let sreq = mpi.isend_bytes(w, 1, 42, vec![9]);
        let rreq = mpi.irecv(w, Some(1), Some(42));
        assert!(mpi.test(sreq).is_some(), "self-send completes at once");
        let info = mpi.test(rreq).expect("self-recv completes at once");
        assert_eq!(info.payload.unwrap(), vec![9]);
        // The queued message matches a receive posted after it arrived.
        let req = mpi.irecv(w, Some(0), Some(6));
        let info = mpi.test(req).expect("unexpected message matches at once");
        assert_eq!(info.payload.unwrap(), vec![1, 2, 3]);
        Poll::Done
    };
    let job = JobBuilder::new()
        .rank(hosts[0], Box::new(sender))
        .rank(hosts[1], Box::new(receiver))
        .launch(&mut sim);
    run(&mut sim, 10);
    assert!(job.finished());
}

#[test]
#[should_panic(expected = "one rank per host")]
fn duplicate_host_rejected_at_build() {
    let (mut sim, hosts) = star(2);
    let _ = &mut sim;
    let _job = JobBuilder::new()
        .rank(hosts[0], Box::new(|_: &mut Mpi| Poll::Done))
        .rank(hosts[0], Box::new(|_: &mut Mpi| Poll::Done));
}
