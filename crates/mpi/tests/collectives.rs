//! Collective-operation correctness across rank counts, including
//! non-powers of two.

use mpichgq_mpi::{Allreduce, Bcast, CollState, JobBuilder, Mpi, Poll, Reduce};
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

fn sum_op(a: &[u8], b: &[u8]) -> Vec<u8> {
    let x = u64::from_le_bytes(a.try_into().unwrap());
    let y = u64::from_le_bytes(b.try_into().unwrap());
    (x + y).to_le_bytes().to_vec()
}

/// Run one collective program on every rank; panics if it does not finish.
fn run_all(n: usize, mk: impl Fn(usize) -> Box<dyn mpichgq_mpi::MpiProgram>) {
    let (mut sim, hosts) = star(n);
    let mut job = JobBuilder::new();
    for (r, &h) in hosts.iter().enumerate() {
        job = job.rank(h, mk(r));
    }
    let handle = job.launch(&mut sim);
    sim.run_until(SimTime::from_secs(60));
    assert!(handle.finished(), "collective deadlocked with {n} ranks");
}

#[test]
fn allreduce_sums_on_every_rank() {
    for n in [2usize, 3, 7] {
        let sums = Rc::new(RefCell::new(Vec::new()));
        let sums_outer = sums.clone();
        run_all(n, |r| {
            let sums = sums.clone();
            let mut ar: Option<Allreduce> = None;
            Box::new(move |mpi: &mut Mpi| {
                if ar.is_none() {
                    let mine = ((r + 1) as u64).to_le_bytes().to_vec();
                    ar = Some(Allreduce::new(mpi, mpi.comm_world(), mine, sum_op));
                }
                match ar.as_mut().unwrap().poll(mpi) {
                    CollState::Ready => {
                        let out = ar.as_mut().unwrap().take_result().unwrap();
                        sums.borrow_mut()
                            .push(u64::from_le_bytes(out.try_into().unwrap()));
                        Poll::Done
                    }
                    CollState::Pending => Poll::Pending,
                    CollState::Failed(r) => panic!("unexpected rank failure: {r}"),
                }
            })
        });
        let expect = (n as u64) * (n as u64 + 1) / 2;
        let sums = sums_outer.borrow();
        assert_eq!(sums.len(), n);
        assert!(sums.iter().all(|&s| s == expect), "n={n}: {sums:?}");
    }
}

#[test]
fn reduce_non_power_of_two() {
    for n in [3usize, 5, 6] {
        let out = Rc::new(RefCell::new(None));
        let out_outer = out.clone();
        run_all(n, |r| {
            let out = out.clone();
            let mut red: Option<Reduce> = None;
            Box::new(move |mpi: &mut Mpi| {
                if red.is_none() {
                    let mine = ((r + 1) as u64).to_le_bytes().to_vec();
                    // Root 1 exercises the rotated tree.
                    red = Some(Reduce::new(mpi, mpi.comm_world(), 1, mine, sum_op));
                }
                match red.as_mut().unwrap().poll(mpi) {
                    CollState::Ready => {
                        if mpi.rank() == 1 {
                            let v = red.as_mut().unwrap().take_result().unwrap();
                            *out.borrow_mut() = Some(u64::from_le_bytes(v.try_into().unwrap()));
                        }
                        Poll::Done
                    }
                    CollState::Pending => Poll::Pending,
                    CollState::Failed(r) => panic!("unexpected rank failure: {r}"),
                }
            })
        });
        assert_eq!(
            *out_outer.borrow(),
            Some((n as u64) * (n as u64 + 1) / 2),
            "n={n}"
        );
    }
}

#[test]
fn bcast_from_nonzero_root_five_ranks() {
    let n = 5;
    let got = Rc::new(RefCell::new(0usize));
    let got_outer = got.clone();
    run_all(n, |r| {
        let got = got.clone();
        let mut bc: Option<Bcast> = None;
        Box::new(move |mpi: &mut Mpi| {
            if bc.is_none() {
                let data = (r == 3).then(|| Some(vec![9, 9, 9]));
                bc = Some(Bcast::new(mpi, mpi.comm_world(), 3, 3, data));
            }
            match bc.as_mut().unwrap().poll(mpi) {
                CollState::Ready => {
                    assert_eq!(bc.as_mut().unwrap().take_data().unwrap(), vec![9, 9, 9]);
                    *got.borrow_mut() += 1;
                    Poll::Done
                }
                CollState::Pending => Poll::Pending,
                CollState::Failed(r) => panic!("unexpected rank failure: {r}"),
            }
        })
    });
    assert_eq!(*got_outer.borrow(), n);
}
