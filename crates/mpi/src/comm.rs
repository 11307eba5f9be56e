//! Communicators and the attribute mechanism.
//!
//! Attributes are the paper's key extension point: "MPICH-GQ exploits this
//! attribute mechanism to exchange information between the user's
//! application and the MPI implementation, using MPI_Attr_put to specify
//! required QoS and MPI_Attr_get to see whether the requested QoS is
//! available. ... the action of putting the attribute actually triggers the
//! request, which is slightly different than the normal usage of
//! attributes." (§4.1)
//!
//! A [`Keyval`] may therefore carry a *put hook* that the engine invokes
//! when `attr_put` stores a value — this is how the MPI QoS Agent in
//! `mpichgq-core` gets control without any nonstandard `MPI_Set_qos` call.

use crate::group::Group;
use std::any::Any;
use std::collections::HashMap;
use std::rc::Rc;

/// Identifies a communicator within one rank's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommId(pub(crate) u32);

/// `MPI_COMM_WORLD`.
pub const COMM_WORLD: CommId = CommId(0);

/// Attribute key, as from `MPI_Keyval_create`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Keyval(pub u32);

/// Attribute values are shared opaque objects (the C API stores `void*`).
pub type AttrValue = Rc<dyn Any>;

/// Communicator flavor.
#[derive(Debug, Clone)]
pub enum CommKind {
    /// An ordinary intracommunicator.
    Intra,
    /// A two-group intercommunicator; sends address the remote group.
    /// (MPICH-GQ "focuses initially on QoS attributes that are applied to
    /// two-party intercommunicators", §4.1.)
    Inter { remote: Group },
}

/// One communicator as seen by one rank.
pub struct Comm {
    /// Context id for point-to-point traffic.
    pub ctx_pt2pt: u32,
    /// Separate context for collective traffic (so collectives never match
    /// user receives).
    pub ctx_coll: u32,
    /// The (local) group.
    pub group: Group,
    /// This process's rank within `group`.
    pub my_rank: usize,
    pub kind: CommKind,
    pub attrs: HashMap<Keyval, AttrValue>,
    /// What a peer-failure error does when observed on this communicator
    /// (`MPI_Errhandler_set`). Defaults to
    /// [`ErrorHandler::Abort`](crate::engine::ErrorHandler::Abort)
    /// (`MPI_ERRORS_ARE_FATAL`), as MPI does.
    pub errhandler: crate::engine::ErrorHandler,
}

impl Comm {
    pub(crate) fn size(&self) -> usize {
        self.group.size()
    }

    /// World rank that peer-rank `r` of this communicator denotes.
    pub(crate) fn peer_world_rank(&self, r: usize) -> usize {
        match &self.kind {
            CommKind::Intra => self.group.world_rank(r),
            CommKind::Inter { remote } => remote.world_rank(r),
        }
    }

    /// Communicator rank a world-rank peer appears as (for incoming
    /// envelope translation).
    pub(crate) fn rank_of_world(&self, world: usize) -> Option<usize> {
        match &self.kind {
            CommKind::Intra => self.group.rank_of(world),
            CommKind::Inter { remote } => remote.rank_of(world),
        }
    }

    /// World ranks of members (local and, for intercommunicators, remote)
    /// that are currently failed, ascending. `failed[world_rank]` is the
    /// job's failure vector.
    pub(crate) fn failed_members(&self, failed: &[bool]) -> Vec<usize> {
        let remote: &[usize] = match &self.kind {
            CommKind::Intra => &[],
            CommKind::Inter { remote } => remote.members(),
        };
        let mut out: Vec<usize> = self
            .group
            .members()
            .iter()
            .chain(remote.iter())
            .copied()
            .filter(|&w| failed.get(w).copied().unwrap_or(false))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The information MPICH-GQ's external-management hook extracts from a
/// communicator: "a function that can extract the necessary information
/// (basically port and machine names) from a communicator" (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEndpoints {
    /// (world_rank, host, port) of each member of the communicator's group.
    pub local: Vec<(usize, mpichgq_netsim::NodeId, u16)>,
    /// Members of the remote group for an intercommunicator.
    pub remote: Vec<(usize, mpichgq_netsim::NodeId, u16)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(kind: CommKind) -> Comm {
        Comm {
            ctx_pt2pt: 2,
            ctx_coll: 3,
            group: Group::from_members(vec![4, 7]),
            my_rank: 0,
            kind,
            attrs: HashMap::new(),
            errhandler: Default::default(),
        }
    }

    #[test]
    fn intra_addressing() {
        let c = comm(CommKind::Intra);
        assert_eq!(c.size(), 2);
        assert_eq!(c.peer_world_rank(1), 7);
        assert_eq!(c.rank_of_world(4), Some(0));
        assert_eq!(c.rank_of_world(5), None);
    }

    #[test]
    fn inter_addressing_uses_remote_group() {
        let c = comm(CommKind::Inter {
            remote: Group::from_members(vec![9]),
        });
        assert_eq!(c.peer_world_rank(0), 9);
        assert_eq!(c.rank_of_world(9), Some(0));
        assert_eq!(c.rank_of_world(4), None);
    }

    #[test]
    fn failed_members_cover_both_groups() {
        let c = comm(CommKind::Inter {
            remote: Group::from_members(vec![9]),
        });
        let mut failed = vec![false; 10];
        assert!(c.failed_members(&failed).is_empty());
        failed[7] = true;
        failed[9] = true;
        failed[5] = true; // not a member
        assert_eq!(c.failed_members(&failed), vec![7, 9]);
    }

    #[test]
    fn attributes_store_and_overwrite() {
        let mut c = comm(CommKind::Intra);
        let k = Keyval(1);
        c.attrs.insert(k, Rc::new(42u32));
        let v = c.attrs.get(&k).unwrap().downcast_ref::<u32>().unwrap();
        assert_eq!(*v, 42);
        c.attrs.insert(k, Rc::new(43u32));
        let v = c.attrs.get(&k).unwrap().downcast_ref::<u32>().unwrap();
        assert_eq!(*v, 43);
    }
}
