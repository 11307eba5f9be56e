//! Collective operations, built on the nonblocking point-to-point layer.
//!
//! Each collective is a poll-able state machine owned by the user program
//! (the nonblocking-collectives style). They communicate on the
//! communicator's *collective context*, so they can never match user
//! receives. Algorithms are the classic ones from the MPICH lineage the
//! paper's collective work builds on ("constructing topology-aware
//! collective operations", §1): dissemination barrier, binomial-tree
//! broadcast and reduce, linear gather.
//!
//! Only one collective may be outstanding per communicator at a time, in
//! the same call order on every member — the MPI standard's own rule.

use crate::comm::CommId;
use crate::engine::{Mpi, ReqId};

const TAG_BARRIER: u32 = 0x4000_0000;
const TAG_BCAST: u32 = 0x4100_0000;
const TAG_GATHER: u32 = 0x4200_0000;
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

/// Dissemination barrier.
pub struct Barrier {
    comm: CommId,
    round: u32,
    rounds: u32,
    send: Option<ReqId>,
    recv: Option<ReqId>,
    send_done: bool,
    recv_done: bool,
    posted: bool,
    done: bool,
    failed: Option<usize>,
}

impl Barrier {
    pub fn new(mpi: &Mpi, comm: CommId) -> Barrier {
        let n = mpi.comm(comm).size();
        let rounds = usize::BITS - (n - 1).max(1).leading_zeros();
        Barrier {
            comm,
            round: 0,
            rounds,
            send: None,
            recv: None,
            send_done: false,
            recv_done: false,
            posted: false,
            done: n <= 1,
            failed: None,
        }
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if let Some(r) = check_failed(mpi, self.comm, &mut self.failed) {
            return CollState::Failed(r);
        }
        if self.done {
            return CollState::Ready;
        }
        loop {
            if self.round == self.rounds {
                self.done = true;
                return CollState::Ready;
            }
            if !self.posted {
                let n = mpi.comm(self.comm).size();
                let me = mpi.comm(self.comm).my_rank;
                let dist = 1usize << self.round;
                let to = (me + dist) % n;
                let from = (me + n - dist % n) % n;
                let tag = TAG_BARRIER + self.round;
                self.send = Some(mpi.isend_coll(self.comm, to, tag, 1, None));
                self.recv = Some(mpi.irecv_coll(self.comm, Some(from), Some(tag)));
                self.posted = true;
                self.send_done = false;
                self.recv_done = false;
            }
            if let Some(r) = self.send {
                if mpi.test(r).is_some() {
                    self.send_done = true;
                    self.send = None;
                }
            }
            if let Some(r) = self.recv {
                if mpi.test(r).is_some() {
                    self.recv_done = true;
                    self.recv = None;
                }
            }
            if self.send_done && self.recv_done {
                self.round += 1;
                self.posted = false;
            } else {
                return CollState::Pending;
            }
        }
    }
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

/// Linear gather to `root`: every rank contributes a payload; the root
/// collects them in rank order.
pub struct Gather {
    comm: CommId,
    root: usize,
    my_data: Option<Vec<u8>>,
    send: Option<ReqId>,
    recvs: Vec<(usize, ReqId)>,
    collected: Vec<Option<Vec<u8>>>,
    started: bool,
    done: bool,
    failed: Option<usize>,
}

impl Gather {
    pub fn new(mpi: &Mpi, comm: CommId, root: usize, my_data: Vec<u8>) -> Gather {
        let n = mpi.comm(comm).size();
        Gather {
            comm,
            root,
            my_data: Some(my_data),
            send: None,
            recvs: Vec::new(),
            collected: (0..n).map(|_| None).collect(),
            started: false,
            done: false,
            failed: None,
        }
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if let Some(r) = check_failed(mpi, self.comm, &mut self.failed) {
            return CollState::Failed(r);
        }
        if self.done {
            return CollState::Ready;
        }
        let me = mpi.comm(self.comm).my_rank;
        let n = mpi.comm(self.comm).size();
        if !self.started {
            self.started = true;
            if me == self.root {
                self.collected[me] = self.my_data.take();
                for r in 0..n {
                    if r != me {
                        let req = mpi.irecv_coll(self.comm, Some(r), Some(TAG_GATHER));
                        self.recvs.push((r, req));
                    }
                }
            } else {
                let data = self.my_data.take().unwrap();
                self.send = Some(mpi.isend_coll(
                    self.comm,
                    self.root,
                    TAG_GATHER,
                    data.len() as u32,
                    Some(data),
                ));
            }
        }
        if me == self.root {
            self.recvs.retain(|&(r, req)| match mpi.test(req) {
                Some(info) => {
                    self.collected[r] = Some(info.payload.expect("gather payload"));
                    false
                }
                None => true,
            });
            if self.recvs.is_empty() {
                self.done = true;
            }
        } else if let Some(s) = self.send {
            if mpi.test(s).is_some() {
                self.send = None;
                self.done = true;
            }
        }
        if self.done {
            CollState::Ready
        } else {
            CollState::Pending
        }
    }

    /// Rank-ordered contributions (root only; valid once `Ready`).
    pub fn take_collected(&mut self) -> Vec<Vec<u8>> {
        self.collected
            .iter_mut()
            .map(|c| c.take().unwrap_or_default())
            .collect()
    }
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

const TAG_ALLGATHER: u32 = 0x4400_0000;

/// Ring allgather: after `n-1` rounds every rank holds every rank's
/// contribution, in rank order.
pub struct Allgather {
    comm: CommId,
    slots: Vec<Option<Vec<u8>>>,
    round: usize,
    send: Option<ReqId>,
    recv: Option<ReqId>,
    posted: bool,
    done: bool,
    failed: Option<usize>,
}

impl Allgather {
    pub fn new(mpi: &Mpi, comm: CommId, my_data: Vec<u8>) -> Allgather {
        let n = mpi.comm(comm).size();
        let me = mpi.comm(comm).my_rank;
        let mut slots: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
        slots[me] = Some(my_data);
        Allgather {
            comm,
            slots,
            round: 0,
            send: None,
            recv: None,
            posted: false,
            done: n <= 1,
            failed: None,
        }
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if let Some(r) = check_failed(mpi, self.comm, &mut self.failed) {
            return CollState::Failed(r);
        }
        if self.done {
            return CollState::Ready;
        }
        let n = mpi.comm(self.comm).size();
        let me = mpi.comm(self.comm).my_rank;
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        loop {
            if self.round == n - 1 {
                self.done = true;
                return CollState::Ready;
            }
            if !self.posted {
                // Round k: pass along the block that originated k hops
                // upstream of us.
                let send_block = (me + n - self.round) % n;
                let data = self.slots[send_block]
                    .clone()
                    .expect("block not yet received");
                self.send = Some(mpi.isend_coll(
                    self.comm,
                    right,
                    TAG_ALLGATHER + self.round as u32,
                    data.len() as u32,
                    Some(data),
                ));
                self.recv = Some(mpi.irecv_coll(
                    self.comm,
                    Some(left),
                    Some(TAG_ALLGATHER + self.round as u32),
                ));
                self.posted = true;
            }
            if let Some(r) = self.send {
                if mpi.test(r).is_some() {
                    self.send = None;
                }
            }
            if let Some(r) = self.recv {
                if let Some(info) = mpi.test(r) {
                    let block = (left + n - self.round) % n;
                    self.slots[block] = Some(info.payload.expect("allgather payload"));
                    self.recv = None;
                }
            }
            if self.send.is_none() && self.recv.is_none() {
                self.round += 1;
                self.posted = false;
            } else {
                return CollState::Pending;
            }
        }
    }

    /// All contributions in rank order (valid once `Ready`).
    pub fn take_all(&mut self) -> Vec<Vec<u8>> {
        self.slots
            .iter_mut()
            .map(|s| s.take().expect("allgather incomplete"))
            .collect()
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
                let me = mpi.comm(self.reduce.comm).my_rank;
                // The root's payload was moved into the bcast; it comes
                // back out of take_data on every rank including the root.
                self.result = Some(match b.take_data() {
                    Some(d) => d,
                    None if me == 0 => Vec::new(),
                    None => Vec::new(),
                });
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

/// `MPI_Comm_split`: allgather every member's `(color, key)`, then build
/// the sub-communicator of ranks sharing this rank's color, ordered by
/// `(key, parent rank)`. Every member of the parent must participate with
/// the same call ordering; members with the same color must create the
/// same number of communicators beforehand (MPI's usual requirement for
/// our deterministic context allocation).
pub struct CommSplit {
    parent: CommId,
    color: i32,
    key: i32,
    gather: Allgather,
    result: Option<CommId>,
}

impl CommSplit {
    pub fn new(mpi: &Mpi, parent: CommId, color: i32, key: i32) -> CommSplit {
        let mut payload = Vec::with_capacity(8);
        payload.extend_from_slice(&color.to_le_bytes());
        payload.extend_from_slice(&key.to_le_bytes());
        CommSplit {
            parent,
            color,
            key,
            gather: Allgather::new(mpi, parent, payload),
            result: None,
        }
    }

    pub fn poll(&mut self, mpi: &mut Mpi) -> CollState {
        if self.result.is_some() {
            return CollState::Ready;
        }
        match self.gather.poll(mpi) {
            CollState::Pending => return CollState::Pending,
            CollState::Failed(r) => return CollState::Failed(r),
            CollState::Ready => {}
        }
        let all = self.gather.take_all();
        let parent_group = mpi.comm(self.parent).group.clone();
        // Members of my color, sorted by (key, parent rank).
        let mut members: Vec<(i32, usize)> = all
            .iter()
            .enumerate()
            .filter_map(|(r, bytes)| {
                let color = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
                let key = i32::from_le_bytes(bytes[4..8].try_into().unwrap());
                (color == self.color).then_some((key, r))
            })
            .collect();
        members.sort();
        let world_members: Vec<usize> = members
            .iter()
            .map(|&(_, r)| parent_group.world_rank(r))
            .collect();
        let _ = self.key;
        self.result = Some(mpi.comm_create(world_members));
        CollState::Ready
    }

    /// The new communicator (valid once `Ready`).
    pub fn take_comm(&mut self) -> CommId {
        self.result.expect("split not complete")
    }
}
