//! The MPICH "channel" wire protocol: message framing over TCP streams.
//!
//! Every MPI message becomes one or more framed records on the TCP stream
//! between two ranks: an *eager* record carries the envelope and payload in
//! one piece; larger messages use the *rendezvous* protocol (RTS → CTS →
//! DATA) so the receiver controls when the bulk data flows — this is the
//! mechanism behind the paper's observation that "a single application-level
//! message may result in many low-level communications" (§3).
//!
//! Bytes on the wire are *counted* through the TCP simulation; record
//! metadata (and real payloads, when present) travel through a shared
//! per-direction FIFO that both endpoints' engines can see. Because TCP
//! delivers in order, the receiver reconstructs record boundaries exactly by
//! counting delivered bytes.

use mpichgq_netsim::NodeId;
use mpichgq_sim::FxHashMap;
use std::collections::VecDeque;

/// Fixed per-record framing overhead (envelope: context, tag, source, kind,
/// lengths, request ids) — modeled after MPICH's 32-byte packet header.
pub const HEADER_BYTES: u64 = 32;

/// Record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireKind {
    /// Envelope + full payload.
    Eager,
    /// Request-to-send: envelope only; payload follows after CTS.
    RndvRts,
    /// Clear-to-send: receiver matched, go ahead.
    RndvCts,
    /// The rendezvous payload.
    RndvData,
}

/// One framed record.
#[derive(Debug, Clone)]
pub(crate) struct WireMsg {
    pub kind: WireKind,
    pub ctx: u32,
    pub tag: u32,
    /// Sender's world rank.
    pub src_world: usize,
    /// Message payload length in bytes.
    pub len: u32,
    /// Sender-side request id (rendezvous bookkeeping).
    pub sender_req: u32,
    /// Receiver-side request id (carried by CTS and DATA).
    pub(crate) receiver_req: u32,
    /// Real payload bytes, if the message carries them.
    pub payload: Option<Vec<u8>>,
}

impl WireMsg {
    /// Bytes this record occupies on the TCP stream.
    pub(crate) fn wire_len(&self) -> u64 {
        HEADER_BYTES
            + match self.kind {
                WireKind::Eager | WireKind::RndvData => self.len as u64,
                WireKind::RndvRts | WireKind::RndvCts => 0,
            }
    }
}

/// State shared by all ranks of one MPI job.
pub(crate) struct JobShared {
    /// `hosts[world_rank]` — the node each rank runs on.
    pub hosts: Vec<NodeId>,
    /// Rank r listens on `base_port + r`.
    pub base_port: u16,
    /// In-flight record metadata per directed rank pair, in stream order.
    /// Only ever probed or `retain`ed, so the map's order reaches nothing.
    pub streams: FxHashMap<(usize, usize), VecDeque<WireMsg>>,
    /// Which ranks' programs have finished.
    pub finished: Vec<bool>,
    /// Ranks currently failed (host crashed, not yet restarted). The
    /// process-manager view: failure knowledge is global and instantaneous,
    /// the strongest form of MPICH-G2's startup/monitoring service.
    pub failed: Vec<bool>,
    /// Incarnation counter per rank; bumped on each restart.
    pub epoch: Vec<u32>,
    /// Last checkpoint each rank published ([`crate::Mpi::checkpoint`]).
    /// Survives the rank's host crashing — the paper-era model of a
    /// checkpoint written to stable storage off-host.
    pub checkpoints: Vec<Option<Vec<u8>>>,
    /// The peer-failure error each rank terminated with, if any.
    pub errors: Vec<Option<usize>>,
    /// Set when a rank with the `Abort` error handler observed a failure
    /// (`MPI_ERRORS_ARE_FATAL`): the whole job is considered aborted.
    pub aborted: bool,
}

impl JobShared {
    pub(crate) fn new(hosts: Vec<NodeId>, base_port: u16) -> JobShared {
        let n = hosts.len();
        JobShared {
            hosts,
            base_port,
            streams: FxHashMap::default(),
            finished: vec![false; n],
            failed: vec![false; n],
            epoch: vec![0; n],
            checkpoints: vec![None; n],
            errors: vec![None; n],
            aborted: false,
        }
    }

    /// Record `rank` as failed and flush every stream touching it: bytes to
    /// or from a dead process will never move, and leaving the record
    /// metadata queued would leak it across a restart (the restarted
    /// incarnation starts from an empty stream).
    pub(crate) fn mark_failed(&mut self, rank: usize) -> bool {
        if self.failed[rank] {
            return false;
        }
        self.failed[rank] = true;
        self.streams.retain(|&(f, t), _| f != rank && t != rank);
        true
    }

    /// Reset rank state for a fresh incarnation (respawn hook).
    pub(crate) fn mark_restarted(&mut self, rank: usize) {
        self.failed[rank] = false;
        self.finished[rank] = false;
        self.errors[rank] = None;
        self.epoch[rank] += 1;
    }

    /// True once every rank that is not currently failed has finished.
    pub(crate) fn all_surviving_finished(&self) -> bool {
        self.finished
            .iter()
            .zip(&self.failed)
            .all(|(&fin, &fail)| fin || fail)
    }

    pub(crate) fn size(&self) -> usize {
        self.hosts.len()
    }

    pub(crate) fn rank_of_host(&self, host: NodeId) -> Option<usize> {
        self.hosts.iter().position(|&h| h == host)
    }

    pub(crate) fn port_of(&self, rank: usize) -> u16 {
        self.base_port + rank as u16
    }

    pub(crate) fn all_finished(&self) -> bool {
        self.finished.iter().all(|&f| f)
    }

    /// Append a record to the (from → to) stream; returns its wire length.
    pub(crate) fn push_record(&mut self, from: usize, to: usize, msg: WireMsg) -> u64 {
        let len = msg.wire_len();
        self.streams.entry((from, to)).or_default().push_back(msg);
        len
    }

    /// Pop the head record of (from → to) if `available_bytes` covers it.
    pub(crate) fn pop_record(
        &mut self,
        from: usize,
        to: usize,
        available_bytes: u64,
    ) -> Option<WireMsg> {
        let q = self.streams.get_mut(&(from, to))?;
        let head_len = q.front()?.wire_len();
        if available_bytes >= head_len {
            q.pop_front()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(kind: WireKind, len: u32) -> WireMsg {
        WireMsg {
            kind,
            ctx: 0,
            tag: 0,
            src_world: 0,
            len,
            sender_req: 0,
            receiver_req: 0,
            payload: None,
        }
    }

    #[test]
    fn wire_lengths() {
        assert_eq!(msg(WireKind::Eager, 100).wire_len(), 132);
        assert_eq!(msg(WireKind::RndvRts, 100_000).wire_len(), 32);
        assert_eq!(msg(WireKind::RndvCts, 100_000).wire_len(), 32);
        assert_eq!(msg(WireKind::RndvData, 100_000).wire_len(), 100_032);
    }

    #[test]
    fn records_pop_only_when_fully_delivered() {
        let mut js = JobShared::new(vec![NodeId(0), NodeId(1)], 9000);
        js.push_record(0, 1, msg(WireKind::Eager, 100)); // 132 bytes
        js.push_record(0, 1, msg(WireKind::RndvRts, 5)); // 32 bytes
        assert!(js.pop_record(0, 1, 131).is_none());
        let m = js.pop_record(0, 1, 132).unwrap();
        assert_eq!(m.kind, WireKind::Eager);
        assert!(js.pop_record(0, 1, 31).is_none());
        assert!(js.pop_record(0, 1, 32).is_some());
        assert!(js.pop_record(0, 1, 1_000_000).is_none());
    }

    #[test]
    fn failure_flushes_streams_and_restart_resets() {
        let mut js = JobShared::new(vec![NodeId(0), NodeId(1), NodeId(2)], 9000);
        js.push_record(0, 1, msg(WireKind::Eager, 10));
        js.push_record(1, 2, msg(WireKind::Eager, 10));
        js.push_record(2, 0, msg(WireKind::Eager, 10));
        assert!(js.mark_failed(1));
        assert!(!js.mark_failed(1), "second report is a no-op");
        // Streams touching rank 1 are gone; the 2 -> 0 stream survives.
        assert!(js.pop_record(0, 1, u64::MAX).is_none());
        assert!(js.pop_record(1, 2, u64::MAX).is_none());
        assert!(js.pop_record(2, 0, u64::MAX).is_some());
        js.finished = vec![true, false, true];
        assert!(js.all_surviving_finished());
        js.mark_restarted(1);
        assert!(!js.failed[1]);
        assert_eq!(js.epoch[1], 1);
        assert!(!js.all_surviving_finished());
    }

    #[test]
    fn host_rank_mapping() {
        let js = JobShared::new(vec![NodeId(5), NodeId(9)], 9000);
        assert_eq!(js.rank_of_host(NodeId(9)), Some(1));
        assert_eq!(js.rank_of_host(NodeId(4)), None);
        assert_eq!(js.port_of(1), 9001);
    }
}
