//! Collective operations, built on the nonblocking point-to-point layer.
//!
//! Each collective is a poll-able state machine owned by the user program
//! (the nonblocking-collectives style). They communicate on the
//! communicator's *collective context*, so they can never match user
//! receives. The algorithms are the binomial-tree broadcast and reduce of
//! the MPICH lineage, and allreduce as a reduce to rank 0 followed by a
//! broadcast. The trees are flat over rank order; the topology-aware
//! collectives the paper builds on ("constructing topology-aware
//! collective operations", §1) would rebuild these two trees per site.
//!
//! Only one collective may be outstanding per communicator at a time, in
//! the same call order on every member — the MPI standard's own rule.

use crate::comm::CommId;
use crate::engine::{Mpi, ReqId};

const TAG_BCAST: u32 = 0x4100_0000;
const TAG_REDUCE: u32 = 0x4300_0000;

/// Completion state of a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollState {
    Pending,
    Ready,
    /// Terminal: the given world rank failed while the collective was
    /// outstanding. The operation can never complete (MPI_ERR_PROC_FAILED
    /// on a collective); polling again keeps returning this.
    Failed(usize),
}

/// Sticky failure check shared by every collective: once any member of the
/// communicator has failed, the collective is dead — even if the rank later
/// restarts (its new incarnation never joins an in-flight operation).
fn check_failed(mpi: &Mpi, comm: CommId, sticky: &mut Option<usize>) -> Option<usize> {
    if sticky.is_none() {
        *sticky = mpi.comm_failed(comm);
    }
    *sticky
}

/// Binomial-tree broadcast from `root`. The payload ends up in
/// [`Bcast::take_data`] on every rank (counted messages carry `None`).
pub struct Bcast {
    comm: CommId,
    root: usize,
    len: u32,
    data: Option<Option<Vec<u8>>>,
    recv: Option<ReqId>,
    sends: Vec<ReqId>,
    phase: BcastPhase,
    failed: Option<usize>,
}

#[derive(PartialEq)]
enum BcastPhase {
    WaitData,
    Sending,
    Done,
}

impl Bcast {
    /// On the root, `data` is `Some(payload)` (use `Some(None)` for counted
    /// messages of length `len`); on other ranks pass `None`.
    pub fn new(
        mpi: &Mpi,
        comm: CommId,
        root: usize,
        len: u32,
        data: Option<Option<Vec<u8>>>,
    ) -> Bcast {
        let me = mpi.comm(comm).my_rank;
        let phase = if me == root {
            BcastPhase::Sending
        } else {
            BcastPhase::WaitData
        };
        Bcast {
            comm,
            root,
            len,
            data,
            recv: None,
            sends: Vec::new(),
            phase,
            failed: None,
        }
    }

    /// Virtual rank: rotate so the root is 0.
    fn vrank(&self, mpi: &Mpi, r: usize) -> usize {
        let n = mpi.comm(self.comm).size();
        (r + n - self.root) % n
    }

    fn real_rank(&self, mpi: &Mpi, v: usize) -> usize {
        let n = mpi.comm(self.comm).size();
        (v + self.root) % n
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if let Some(r) = check_failed(mpi, self.comm, &mut self.failed) {
            return CollState::Failed(r);
        }
        let n = mpi.comm(self.comm).size();
        let me = mpi.comm(self.comm).my_rank;
        let vme = self.vrank(mpi, me);
        if self.phase == BcastPhase::WaitData {
            if self.recv.is_none() {
                self.recv = Some(mpi.irecv_coll(self.comm, None, Some(TAG_BCAST)));
            }
            match mpi.test(self.recv.unwrap()) {
                Some(info) => {
                    self.len = info.len;
                    self.data = Some(info.payload);
                    self.phase = BcastPhase::Sending;
                }
                None => return CollState::Pending,
            }
        }
        if self.phase == BcastPhase::Sending {
            if self.sends.is_empty() {
                // Children in the binomial tree: vme + 2^k for each k with
                // 2^k > vme, while in range.
                let mut mask = 1usize;
                while mask < n {
                    if vme & mask != 0 {
                        break;
                    }
                    let child = vme | mask;
                    if child < n {
                        let dest = self.real_rank(mpi, child);
                        let payload = self.data.as_ref().and_then(|d| d.clone());
                        let req = match payload {
                            Some(bytes) => mpi.isend_coll(
                                self.comm,
                                dest,
                                TAG_BCAST,
                                bytes.len() as u32,
                                Some(bytes),
                            ),
                            None => mpi.isend_coll(self.comm, dest, TAG_BCAST, self.len, None),
                        };
                        self.sends.push(req);
                    }
                    mask <<= 1;
                }
            }
            self.sends.retain(|&r| {
                // test() consumes on completion
                false_on_done(mpi, r)
            });
            if self.sends.is_empty() {
                self.phase = BcastPhase::Done;
            } else {
                return CollState::Pending;
            }
        }
        CollState::Ready
    }

    /// The broadcast payload (valid once `poll` returned `Ready`).
    pub fn take_data(&mut self) -> Option<Vec<u8>> {
        self.data.take().flatten()
    }
}

fn false_on_done(mpi: &mut Mpi, r: ReqId) -> bool {
    mpi.test(r).is_none()
}

/// Binary element-wise reduction operator.
pub(crate) type ReduceOp = fn(&[u8], &[u8]) -> Vec<u8>;

/// Binomial-tree reduce to `root`.
pub struct Reduce {
    comm: CommId,
    root: usize,
    acc: Option<Vec<u8>>,
    op: ReduceOp,
    mask: usize,
    recv: Option<ReqId>,
    send: Option<ReqId>,
    done: bool,
    failed: Option<usize>,
}

impl Reduce {
    pub fn new(_mpi: &Mpi, comm: CommId, root: usize, my_data: Vec<u8>, op: ReduceOp) -> Reduce {
        Reduce {
            comm,
            root,
            acc: Some(my_data),
            op,
            mask: 1,
            recv: None,
            send: None,
            done: false,
            failed: None,
        }
    }

    fn vrank(&self, mpi: &Mpi) -> usize {
        let n = mpi.comm(self.comm).size();
        let me = mpi.comm(self.comm).my_rank;
        (me + n - self.root) % n
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if let Some(r) = check_failed(mpi, self.comm, &mut self.failed) {
            return CollState::Failed(r);
        }
        if self.done {
            return CollState::Ready;
        }
        let n = mpi.comm(self.comm).size();
        let vme = self.vrank(mpi);
        loop {
            if let Some(s) = self.send {
                match mpi.test(s) {
                    Some(_) => {
                        self.send = None;
                        self.done = true;
                        return CollState::Ready;
                    }
                    None => return CollState::Pending,
                }
            }
            if self.mask >= n {
                // Root of the tree: reduction complete.
                self.done = true;
                return CollState::Ready;
            }
            if vme & self.mask == 0 {
                let vchild = vme | self.mask;
                if vchild < n {
                    // Receive and fold the child's contribution.
                    if self.recv.is_none() {
                        let child = (vchild + self.root) % n;
                        self.recv = Some(mpi.irecv_coll(
                            self.comm,
                            Some(child),
                            Some(TAG_REDUCE + self.mask as u32),
                        ));
                    }
                    match mpi.test(self.recv.unwrap()) {
                        Some(info) => {
                            self.recv = None;
                            let theirs = info.payload.expect("reduce payload");
                            let mine = self.acc.take().unwrap();
                            self.acc = Some((self.op)(&mine, &theirs));
                            self.mask <<= 1;
                        }
                        None => return CollState::Pending,
                    }
                } else {
                    self.mask <<= 1;
                }
            } else {
                // Send my accumulator to the parent and finish.
                let vparent = vme & !self.mask;
                let parent = (vparent + self.root) % n;
                let data = self.acc.clone().unwrap();
                self.send = Some(mpi.isend_coll(
                    self.comm,
                    parent,
                    TAG_REDUCE + self.mask as u32,
                    data.len() as u32,
                    Some(data),
                ));
            }
        }
    }

    /// The reduced value (meaningful on the root; valid once `Ready`).
    pub fn take_result(&mut self) -> Option<Vec<u8>> {
        self.acc.take()
    }
}

/// Allreduce = binomial reduce to rank 0 + binomial broadcast.
pub struct Allreduce {
    reduce: Reduce,
    bcast: Option<Bcast>,
    result: Option<Vec<u8>>,
}

impl Allreduce {
    pub fn new(mpi: &Mpi, comm: CommId, my_data: Vec<u8>, op: ReduceOp) -> Allreduce {
        Allreduce {
            reduce: Reduce::new(mpi, comm, 0, my_data, op),
            bcast: None,
            result: None,
        }
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if self.result.is_some() {
            return CollState::Ready;
        }
        if self.bcast.is_none() {
            match self.reduce.poll(mpi) {
                CollState::Pending => return CollState::Pending,
                CollState::Failed(r) => return CollState::Failed(r),
                CollState::Ready => {}
            }
            let comm = self.reduce.comm;
            let me = mpi.comm(comm).my_rank;
            let data = if me == 0 {
                Some(Some(self.reduce.take_result().expect("reduce result")))
            } else {
                None
            };
            self.bcast = Some(Bcast::new(mpi, comm, 0, 0, data));
        }
        let b = self.bcast.as_mut().unwrap();
        match b.poll(mpi) {
            CollState::Ready => {
                // The root's payload was moved into the bcast; it comes
                // back out of take_data on every rank including the root.
                self.result = Some(b.take_data().unwrap_or_default());
                CollState::Ready
            }
            CollState::Pending => CollState::Pending,
            CollState::Failed(r) => CollState::Failed(r),
        }
    }

    pub fn take_result(&mut self) -> Option<Vec<u8>> {
        self.result.take()
    }
}
