//! Process groups.
//!
//! "In the MPI programming model, all communication takes place within a
//! communicator. A communicator is simply a group of processes, with an
//! additional, unique communication context..." (§4.1)
//!
//! A [`Group`] is an ordered set of world ranks; communicators pair a group
//! with a context id. Group operations mirror the MPI standard's
//! `MPI_Group_*` calls.

/// An ordered set of world ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// `members[group_rank] = world_rank`.
    members: Vec<usize>,
}

impl Group {
    /// The group of all `n` world ranks, in rank order.
    pub(crate) fn world(n: usize) -> Group {
        Group {
            members: (0..n).collect(),
        }
    }

    /// Build from an explicit member list. Panics on duplicates.
    pub(crate) fn from_members(members: Vec<usize>) -> Group {
        let mut seen = std::collections::HashSet::new();
        for &m in &members {
            assert!(seen.insert(m), "duplicate world rank {m} in group");
        }
        Group { members }
    }

    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank of group member `i` (MPI_Group_translate_ranks, outward).
    pub(crate) fn world_rank(&self, group_rank: usize) -> usize {
        self.members[group_rank]
    }

    /// Group rank of a world rank, if a member (inward translation).
    pub(crate) fn rank_of(&self, world_rank: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == world_rank)
    }

    pub fn members(&self) -> &[usize] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_is_identity() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        for r in 0..4 {
            assert_eq!(g.world_rank(r), r);
            assert_eq!(g.rank_of(r), Some(r));
        }
        assert_eq!(g.rank_of(4), None);
    }

    #[test]
    #[should_panic(expected = "duplicate world rank")]
    fn duplicates_rejected() {
        Group::from_members(vec![1, 1]);
    }
}
