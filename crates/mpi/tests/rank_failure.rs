//! Rank-failure semantics: collectives terminate with `CollState::Failed`,
//! point-to-point requests error under `ErrorHandler::Return`, the default
//! `Abort` handler flags the job, unexpected-queue entries from a dead
//! sender drain, and a restartable rank resumes from its checkpoint.

use mpichgq_mpi::{
    Allreduce, CollState, ErrorHandler, JobBuilder, JobHandle, Mpi, MpiProgram, Poll, Reduce,
    COMM_WORLD,
};
use mpichgq_netsim::faults::{FaultAction, FaultPlan};
use mpichgq_netsim::{Framing, LinkCfg, NodeId, QueueCfg, TopoBuilder};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::Sim;
use std::cell::RefCell;
use std::rc::Rc;

fn star(n: usize) -> (Sim, Vec<NodeId>) {
    let mut b = TopoBuilder::new(17);
    let hosts: Vec<NodeId> = (0..n).map(|i| b.host(&format!("h{i}"))).collect();
    let r = b.router("r");
    let cfg = LinkCfg {
        bandwidth_bps: 100_000_000,
        delay: SimDelta::from_micros(200),
        framing: Framing::Ethernet,
    };
    for &h in &hosts {
        b.link(h, r, cfg, QueueCfg::priority_default());
    }
    (Sim::new(b.build()), hosts)
}

/// A rank that never participates: it simply waits to be crashed.
fn idle() -> Box<dyn MpiProgram> {
    Box::new(|_mpi: &mut Mpi| Poll::Pending)
}

/// Launch `n` ranks, crash `dead`'s host at 500 ms, run 60 s.
fn crash_star(
    n: usize,
    dead: usize,
    mk: impl Fn(usize) -> Box<dyn MpiProgram>,
) -> (Sim, JobHandle) {
    let (mut sim, hosts) = star(n);
    sim.net.install_fault_plan(FaultPlan::new(11).at(
        SimTime::from_millis(500),
        FaultAction::HostCrash { host: hosts[dead] },
    ));
    let mut job = JobBuilder::new();
    for (r, &h) in hosts.iter().enumerate() {
        job = job.rank(h, mk(r));
    }
    let handle = job.launch(&mut sim);
    sim.run_until(SimTime::from_secs(60));
    (sim, handle)
}

/// Shared scaffolding for the per-collective regression tests: the dead
/// rank idles, every survivor drives the collective built by `mk_poll`.
/// Ranks whose local part can complete before the crash may legitimately
/// finish `Ready` (a reduce leaf's send, say), but no survivor may hang,
/// every rank in `must_fail` must observe `CollState::Failed(dead)`, and
/// any reported failure must name the dead rank.
fn collective_failure_case(
    n: usize,
    dead: usize,
    must_fail: &[usize],
    mk_poll: impl Fn(usize) -> Box<dyn FnMut(&mut Mpi) -> CollState>,
) {
    let failures: Rc<RefCell<Vec<(usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    let failures_outer = failures.clone();
    let (_sim, handle) = crash_star(n, dead, |r| {
        if r == dead {
            return idle();
        }
        let failures = failures.clone();
        let mut poll = mk_poll(r);
        Box::new(move |mpi: &mut Mpi| match poll(mpi) {
            CollState::Ready => Poll::Done,
            CollState::Pending => Poll::Pending,
            CollState::Failed(f) => {
                failures.borrow_mut().push((r, f));
                Poll::Failed(f)
            }
        })
    });
    assert!(
        handle.surviving_finished(),
        "survivors hung after rank {dead} crashed"
    );
    assert!(!handle.finished(), "dead rank cannot have finished");
    assert!(handle.rank_failed(dead));
    let got = failures_outer.borrow().clone();
    assert!(
        got.iter().all(|&(_, f)| f == dead),
        "failures must name the dead rank: {got:?}"
    );
    for &r in must_fail {
        assert!(
            got.contains(&(r, dead)),
            "rank {r} must see CollState::Failed({dead}), saw {got:?}"
        );
        assert_eq!(handle.rank_error(r), Some(dead), "rank {r} error");
    }
}

fn sum_op(a: &[u8], b: &[u8]) -> Vec<u8> {
    let x = u64::from_le_bytes(a.try_into().unwrap());
    let y = u64::from_le_bytes(b.try_into().unwrap());
    (x + y).to_le_bytes().to_vec()
}

#[test]
fn reduce_fails_when_rank_dies() {
    collective_failure_case(4, 2, &[0], |r| {
        let mut red: Option<Reduce> = None;
        Box::new(move |mpi: &mut Mpi| {
            if red.is_none() {
                let mine = ((r + 1) as u64).to_le_bytes().to_vec();
                red = Some(Reduce::new(mpi, mpi.comm_world(), 0, mine, sum_op));
            }
            red.as_mut().unwrap().poll(mpi)
        })
    });
}

#[test]
fn allreduce_fails_when_rank_dies() {
    collective_failure_case(4, 0, &[1, 2, 3], |r| {
        let mut ar: Option<Allreduce> = None;
        Box::new(move |mpi: &mut Mpi| {
            if ar.is_none() {
                let mine = ((r + 1) as u64).to_le_bytes().to_vec();
                ar = Some(Allreduce::new(mpi, mpi.comm_world(), mine, sum_op));
            }
            ar.as_mut().unwrap().poll(mpi)
        })
    });
}

#[test]
fn pt2pt_requests_error_under_return_handler() {
    // Rank 0 (ERRORS_RETURN) has a recv posted to rank 1 when it dies; the
    // recv errors, and a subsequent send to the dead rank errors too.
    let errs: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let errs_outer = errs.clone();
    let groups: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let groups_outer = groups.clone();
    let (_sim, handle) = crash_star(2, 1, |r| {
        if r == 1 {
            return idle();
        }
        let errs = errs.clone();
        let groups = groups.clone();
        let mut recv = None;
        let mut send = None;
        Box::new(move |mpi: &mut Mpi| {
            if recv.is_none() && send.is_none() {
                mpi.set_errhandler(COMM_WORLD, ErrorHandler::Return);
                recv = Some(mpi.irecv(COMM_WORLD, Some(1), Some(5)));
            }
            if let Some(rq) = recv {
                match mpi.test_result(rq) {
                    Ok(Some(_)) => panic!("recv from a rank that never sends completed"),
                    Ok(None) => return Poll::Pending,
                    Err(e) => {
                        errs.borrow_mut().push(e.failed_world);
                        recv = None;
                        *groups.borrow_mut() = mpi.comm_group_failed(COMM_WORLD).members().to_vec();
                        // A fresh send to the dead rank must fail immediately.
                        send = Some(mpi.isend_bytes(COMM_WORLD, 1, 9, vec![1, 2, 3]));
                    }
                }
            }
            match mpi.test_result(send.unwrap()) {
                Ok(Some(_)) => panic!("send to a dead rank completed"),
                Ok(None) => Poll::Pending,
                Err(e) => {
                    errs.borrow_mut().push(e.failed_world);
                    Poll::Done
                }
            }
        })
    });
    assert!(handle.surviving_finished());
    assert!(handle.rank_finished(0));
    assert_eq!(handle.rank_error(0), None, "Return handler: clean finish");
    assert_eq!(*errs_outer.borrow(), vec![1, 1]);
    assert_eq!(*groups_outer.borrow(), vec![1]);
}

#[test]
fn wildcard_recv_fails_when_any_peer_dies() {
    // MPI_ANY_SOURCE cannot be satisfied once any potential matcher is
    // gone; rank 2's death must error rank 0's wildcard receive.
    let errs: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let errs_outer = errs.clone();
    let (_sim, handle) = crash_star(3, 2, |r| {
        if r != 0 {
            return idle();
        }
        let errs = errs.clone();
        let mut recv = None;
        Box::new(move |mpi: &mut Mpi| {
            if recv.is_none() {
                mpi.set_errhandler(COMM_WORLD, ErrorHandler::Return);
                recv = Some(mpi.irecv(COMM_WORLD, None, None));
            }
            match mpi.test_result(recv.unwrap()) {
                Ok(Some(_)) => panic!("wildcard recv completed with no sender"),
                Ok(None) => Poll::Pending,
                Err(e) => {
                    errs.borrow_mut().push(e.failed_world);
                    Poll::Done
                }
            }
        })
    });
    assert!(handle.rank_finished(0));
    assert_eq!(*errs_outer.borrow(), vec![2]);
}

#[test]
fn abort_handler_terminates_rank_and_flags_job() {
    // Default MPICH disposition: MPI_ERRORS_ARE_FATAL. Testing a failed
    // request under it terminates the program with Poll::Failed.
    let (sim, handle) = crash_star(2, 1, |r| {
        if r == 1 {
            return idle();
        }
        let mut recv = None;
        Box::new(move |mpi: &mut Mpi| {
            if recv.is_none() {
                recv = Some(mpi.irecv(COMM_WORLD, Some(1), Some(5)));
            }
            match mpi.test(recv.unwrap()) {
                Some(_) => panic!("recv from a rank that never sends completed"),
                None => Poll::Pending,
            }
        })
    });
    assert!(handle.surviving_finished());
    assert!(handle.aborted(), "Abort handler must flag the job");
    assert_eq!(handle.rank_error(0), Some(1));
    assert_eq!(sim.net.obs.metrics.counter_value("mpi.aborts"), Some(1));
}

#[test]
fn unexpected_queue_drains_when_sender_dies() {
    // Rank 0 parks three eager messages in rank 1's unexpected queue and
    // dies; the entries must drain so the queue cannot leak (gauge back
    // to zero) and the survivor sees the failure.
    let (sim, handle) = crash_star(2, 0, |r| {
        if r == 0 {
            let mut sent = false;
            return Box::new(move |mpi: &mut Mpi| {
                if !sent {
                    sent = true;
                    for tag in 0..3u32 {
                        mpi.isend_bytes(COMM_WORLD, 1, tag, vec![tag as u8; 16]);
                    }
                }
                Poll::Pending
            });
        }
        let _ = r;
        Box::new(move |mpi: &mut Mpi| {
            // Never posts a matching recv; finishes once it learns of the
            // sender's death.
            if mpi.comm_failed(COMM_WORLD) == Some(0) {
                Poll::Done
            } else {
                Poll::Pending
            }
        })
    });
    assert!(handle.rank_finished(1));
    assert_eq!(
        sim.net.obs.metrics.gauge_value("mpi.unexpected.depth"),
        Some(0.0),
        "unexpected queue must drain when its source dies"
    );
    assert_eq!(
        sim.net.obs.metrics.counter_value("mpi.unexpected_dropped"),
        Some(3)
    );
}

#[test]
fn checkpoint_restart_resumes_stream() {
    // Restartable sender streams TOTAL sequence numbers to a surviving
    // receiver with stop-and-wait acks, checkpointing after each ack. A
    // mid-stream crash + restart must resume from the checkpoint and the
    // receiver must observe every number exactly once, in order.
    const TOTAL: u64 = 6;
    const TAG_DATA: u32 = 7;
    const TAG_ACK: u32 = 8;
    let (mut sim, hosts) = star(2);
    sim.net.install_fault_plan(
        FaultPlan::new(23)
            .at(
                SimTime::from_millis(400),
                FaultAction::HostCrash { host: hosts[1] },
            )
            .at(
                SimTime::from_millis(800),
                FaultAction::HostRestart { host: hosts[1] },
            ),
    );

    let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let restored_from: Rc<RefCell<Vec<Option<u64>>>> = Rc::new(RefCell::new(Vec::new()));

    let receiver = {
        let seen = seen.clone();
        let mut expected: u64 = 0;
        let mut recv = None;
        let mut acks: Vec<mpichgq_mpi::ReqId> = Vec::new();
        Box::new(move |mpi: &mut Mpi| {
            mpi.set_errhandler(COMM_WORLD, ErrorHandler::Return);
            acks.retain(|&a| matches!(mpi.test_result(a), Ok(None)));
            loop {
                if expected == TOTAL {
                    return Poll::Done;
                }
                if recv.is_none() {
                    recv = Some(mpi.irecv(COMM_WORLD, Some(1), Some(TAG_DATA)));
                }
                match mpi.test_result(recv.unwrap()) {
                    Ok(Some(info)) => {
                        recv = None;
                        let s = u64::from_le_bytes(info.payload.unwrap().try_into().unwrap());
                        if s == expected {
                            seen.borrow_mut().push(s);
                            expected += 1;
                        }
                        // Ack even duplicates so a resent message unsticks
                        // the sender.
                        acks.push(mpi.isend_bytes(
                            COMM_WORLD,
                            1,
                            TAG_ACK,
                            s.to_le_bytes().to_vec(),
                        ));
                    }
                    Ok(None) => return Poll::Pending,
                    Err(e) => {
                        assert_eq!(e.failed_world, 1);
                        recv = None;
                        return Poll::Pending;
                    }
                }
            }
        })
    };

    let sender_factory: mpichgq_mpi::ProgramFactory = {
        let restored_from = restored_from.clone();
        Rc::new(move || {
            let restored_from = restored_from.clone();
            let mut next: Option<u64> = None;
            let mut send = None;
            let mut ack = None;
            let mut waiting_timer = false;
            Box::new(move |mpi: &mut Mpi| {
                if next.is_none() {
                    let from = mpi
                        .restored()
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()));
                    restored_from.borrow_mut().push(from);
                    next = Some(from.unwrap_or(0));
                }
                loop {
                    let cur = next.unwrap();
                    if cur == TOTAL {
                        return Poll::Done;
                    }
                    if waiting_timer {
                        if !mpi.take_timer(1) {
                            return Poll::Pending;
                        }
                        waiting_timer = false;
                    }
                    if send.is_none() && ack.is_none() {
                        send = Some(mpi.isend_bytes(
                            COMM_WORLD,
                            0,
                            TAG_DATA,
                            cur.to_le_bytes().to_vec(),
                        ));
                        ack = Some(mpi.irecv(COMM_WORLD, Some(0), Some(TAG_ACK)));
                    }
                    if let Some(s) = send {
                        if mpi.test(s).is_some() {
                            send = None;
                        }
                    }
                    match mpi.test(ack.unwrap()) {
                        Some(info) => {
                            ack = None;
                            let acked =
                                u64::from_le_bytes(info.payload.unwrap().try_into().unwrap());
                            assert_eq!(acked, cur);
                            next = Some(cur + 1);
                            mpi.checkpoint((cur + 1).to_le_bytes().to_vec());
                            mpi.set_timer(SimDelta::from_millis(150), 1);
                            waiting_timer = true;
                        }
                        None => return Poll::Pending,
                    }
                }
            }) as Box<dyn MpiProgram>
        })
    };

    let handle = JobBuilder::new()
        .rank(hosts[0], receiver)
        .rank_restartable(hosts[1], sender_factory)
        .launch(&mut sim);
    sim.run_until(SimTime::from_secs(60));

    assert!(handle.finished(), "job must complete after restart");
    assert_eq!(handle.epoch_of(1), 1, "sender ran two incarnations");
    assert_eq!(handle.epoch_of(0), 0);
    let seen = seen.borrow();
    assert_eq!(*seen, (0..TOTAL).collect::<Vec<u64>>());
    let restored = restored_from.borrow();
    assert_eq!(restored.len(), 2, "factory ran twice");
    assert_eq!(restored[0], None, "first incarnation starts fresh");
    let resumed = restored[1].expect("second incarnation finds a checkpoint");
    assert!(
        (1..TOTAL).contains(&resumed),
        "restart resumed mid-stream at {resumed}"
    );
    assert!(
        sim.net
            .obs
            .metrics
            .counter_value("mpi.checkpoints")
            .unwrap()
            >= TOTAL
    );
    let fs = sim.net.fault_stats().unwrap();
    assert_eq!((fs.host_crashes, fs.host_restarts), (1, 1));
    assert_eq!(fs.dead_deliveries, 0);
}

#[test]
fn crash_without_restart_leaves_surviving_finished() {
    // A crashed rank that never comes back must not block job teardown
    // accounting: `finished()` stays false, `surviving_finished()` flips.
    let (_sim, handle) = crash_star(3, 1, |r| {
        if r == 1 {
            return idle();
        }
        Box::new(move |mpi: &mut Mpi| {
            if mpi.comm_failed(COMM_WORLD).is_some() {
                Poll::Done
            } else {
                Poll::Pending
            }
        })
    });
    assert!(!handle.finished());
    assert!(handle.surviving_finished());
    assert!(handle.rank_failed(1));
    assert!(handle.rank_finished(0) && handle.rank_finished(2));
}
