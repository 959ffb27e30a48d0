//! Actor groups: `grpnew` and broadcast bookkeeping (§2.2, §6.4).
//!
//! `grpnew` creates a group of actors with the same behavior template and
//! returns a group id. Members are distributed over the partition by a
//! deterministic **block mapping**, so any node can compute a member's
//! *home node* locally (the member count travels inside the
//! [`GroupId`]). Broadcasts fan out over the node-level spanning tree and
//! each node delivers to all of its local members consecutively — the
//! paper's *collective scheduling*, which exploits the temporal locality
//! of same-behavior actors like TAM quanta.
//!
//! A node can receive traffic for a group before the `grpnew` fan-out
//! reaches it (different senders use different spanning trees, so
//! inter-node FIFO does not order them). Such traffic parks in a pending
//! buffer and replays once the group materializes.

use crate::addr::{GroupId, MailAddr, Mapping};
use crate::message::Msg;
use hal_am::NodeId;
use hal_des::Map;
use std::iter::StepBy;
use std::ops::Range;

/// Compute the home node of member `index` of a `count`-member group on a
/// `p`-node partition under `mapping`.
#[inline]
pub fn home_node(index: u32, count: u32, p: usize, mapping: Mapping) -> NodeId {
    debug_assert!(index < count, "member index out of range");
    match mapping {
        Mapping::Block => ((index as u64 * p as u64) / count as u64) as NodeId,
        Mapping::Cyclic => (index as usize % p) as NodeId,
    }
}

/// The member indices that live on `node` (inverse of [`home_node`]),
/// ascending: a block is a range walked in steps of one, a cyclic share
/// one walked in steps of `p`.
pub fn members_on(node: NodeId, count: u32, p: usize, mapping: Mapping) -> StepBy<Range<u32>> {
    match mapping {
        Mapping::Block => {
            let p = p as u64;
            let n = node as u64;
            let count = count as u64;
            // Smallest i with i*p/count == n  is ceil(n*count / p).
            let lo = (n * count).div_ceil(p) as u32;
            let hi = (((n + 1) * count).div_ceil(p) as u32).min(count as u32);
            (lo..hi).step_by(1)
        }
        Mapping::Cyclic => (node as u32..count).step_by(p),
    }
}

/// Where [`GroupTable`] keeps a known group; see [`GroupTable::slot`].
pub type GroupSlot = usize;

/// The per-node group table.
#[derive(Default)]
pub struct GroupTable {
    /// Per known group, the members homed on this node as (group index,
    /// mail address), ascending by index. Addresses (not actor ids) so
    /// that a member that migrates away stays reachable — delivery goes
    /// through the normal locality-descriptor path, FIR chasing included.
    local: Vec<Vec<(u32, MailAddr)>>,
    /// Group id → position in `local`: a broadcast hashes once to find
    /// its group and then walks the members by position.
    slots: Map<GroupId, GroupSlot>,
    /// Traffic for groups whose `grpnew` has not reached this node yet:
    /// per group, parked (member index or broadcast) deliveries.
    pending_member: Map<GroupId, Vec<(u32, Msg)>>,
    pending_bcast: Map<GroupId, Vec<Msg>>,
    next_counter: u16,
}

impl GroupTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a fresh group id on the creating node.
    pub fn mint(&mut self, creator: NodeId, count: u32, mapping: Mapping) -> GroupId {
        let c = self.next_counter;
        self.next_counter = self.next_counter.wrapping_add(1);
        GroupId::new(creator, c, count, mapping)
    }

    /// Materialize a group locally with its local members. Returns any
    /// traffic that was parked waiting for it.
    pub fn install(
        &mut self,
        group: GroupId,
        members: impl IntoIterator<Item = (u32, MailAddr)>,
    ) -> (Vec<(u32, Msg)>, Vec<Msg>) {
        let slot = *self.slots.entry(group).or_insert_with(|| {
            self.local.push(Vec::new());
            self.local.len() - 1
        });
        let local = &mut self.local[slot];
        local.extend(members);
        local.sort_unstable_by_key(|&(idx, _)| idx);
        if let Some(pair) = local.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            panic!("group member {} installed twice", pair[0].0);
        }
        (
            self.pending_member.remove(&group).unwrap_or_default(),
            self.pending_bcast.remove(&group).unwrap_or_default(),
        )
    }

    /// Where the group is kept, if it is known on this node.
    pub fn slot(&self, group: GroupId) -> Option<GroupSlot> {
        self.slots.get(&group).copied()
    }

    /// Is the group known on this node?
    pub fn known(&self, group: GroupId) -> bool {
        self.slots.contains_key(&group)
    }

    /// Look up a member homed on this node.
    pub fn member(&self, group: GroupId, index: u32) -> Option<MailAddr> {
        let local = self.local_members(self.slot(group)?);
        let at = local.binary_search_by_key(&index, |&(idx, _)| idx).ok()?;
        Some(local[at].1)
    }

    /// All local members of the group at `slot` in index order
    /// (collective scheduling delivers to them consecutively).
    pub fn local_members(&self, slot: GroupSlot) -> &[(u32, MailAddr)] {
        &self.local[slot]
    }

    /// Park a member-addressed message for a not-yet-installed group.
    pub fn park_member(&mut self, group: GroupId, index: u32, msg: Msg) {
        self.pending_member.entry(group).or_default().push((index, msg));
    }

    /// Park a broadcast for a not-yet-installed group.
    pub fn park_bcast(&mut self, group: GroupId, msg: Msg) {
        self.pending_bcast.entry(group).or_default().push(msg);
    }

    /// Number of groups known locally.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// True if no groups are known.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_mappings_partition_members() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            for &(count, p) in &[(16u32, 4usize), (10, 4), (3, 8), (100, 7), (1, 1), (64, 64)] {
                let mut seen = vec![0u32; count as usize];
                for node in 0..p {
                    for i in members_on(node as NodeId, count, p, mapping) {
                        assert_eq!(
                            home_node(i, count, p, mapping),
                            node as NodeId,
                            "member {i} count={count} p={p} {mapping:?}"
                        );
                        seen[i as usize] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s == 1),
                    "every member on exactly one node (count={count}, p={p}, {mapping:?}): {seen:?}"
                );
            }
        }
    }

    #[test]
    fn cyclic_mapping_is_round_robin() {
        assert_eq!(home_node(0, 8, 4, Mapping::Cyclic), 0);
        assert_eq!(home_node(1, 8, 4, Mapping::Cyclic), 1);
        assert_eq!(home_node(5, 8, 4, Mapping::Cyclic), 1);
        let on1: Vec<u32> = members_on(1, 10, 4, Mapping::Cyclic).collect();
        assert_eq!(on1, vec![1, 5, 9]);
    }

    #[test]
    fn block_mapping_is_contiguous_and_balanced() {
        let count = 100u32;
        let p = 8usize;
        let mut sizes = Vec::new();
        for node in 0..p {
            let r: Vec<u32> = members_on(node as NodeId, count, p, Mapping::Block).collect();
            sizes.push(r.len());
        }
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "balanced to within one: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn install_returns_parked_traffic() {
        let mut t = GroupTable::new();
        let g = GroupId::new(0, 0, 8, Mapping::Block);
        t.park_member(g, 3, Msg::new(1, vec![]));
        t.park_bcast(g, Msg::new(2, vec![]));
        assert!(!t.known(g));
        let a3 = MailAddr::ordinary(0, crate::addr::DescriptorId(0));
        let (members, bcasts) = t.install(g, vec![(3, a3)]);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].0, 3);
        assert_eq!(bcasts.len(), 1);
        assert!(t.known(g));
        assert_eq!(t.member(g, 3), Some(a3));
        assert_eq!(t.member(g, 4), None);
    }

    #[test]
    fn local_members_sorted_by_index() {
        let mut t = GroupTable::new();
        let g = GroupId::new(0, 0, 8, Mapping::Block);
        let a = |i| MailAddr::ordinary(0, crate::addr::DescriptorId(i));
        t.install(g, vec![(5, a(2)), (1, a(0)), (3, a(1))]);
        let m = t.local_members(t.slot(g).unwrap());
        assert_eq!(m, vec![(1, a(0)), (3, a(1)), (5, a(2))]);
    }

    #[test]
    fn member_lookup_agrees_with_the_sorted_list_after_two_installs() {
        let mut t = GroupTable::new();
        let other = GroupId::new(0, 0, 8, Mapping::Cyclic);
        let g = GroupId::new(0, 1, 8, Mapping::Cyclic);
        let a = |i| MailAddr::ordinary(0, crate::addr::DescriptorId(i));
        t.install(g, vec![(6, a(6)), (2, a(2))]);
        t.install(other, vec![(1, a(10))]);
        t.install(g, vec![(4, a(4)), (0, a(0))]);
        assert_eq!(t.len(), 2);
        let sorted = t.local_members(t.slot(g).unwrap()).to_vec();
        assert_eq!(sorted, vec![(0, a(0)), (2, a(2)), (4, a(4)), (6, a(6))]);
        for idx in 0..8 {
            let listed = sorted.iter().find(|&&(i, _)| i == idx).map(|&(_, addr)| addr);
            assert_eq!(t.member(g, idx), listed, "member {idx}");
        }
        assert_eq!(t.member(other, 1), Some(a(10)));
        assert_eq!(t.member(other, 2), None);
    }

    #[test]
    fn minted_ids_are_unique_and_carry_count() {
        let mut t = GroupTable::new();
        let a = t.mint(3, 10, Mapping::Block);
        let b = t.mint(3, 10, Mapping::Block);
        assert_ne!(a, b);
        assert_eq!(a.creator(), 3);
        assert_eq!(a.count(), 10);
        let c = t.mint(3, 10, Mapping::Cyclic);
        assert_eq!(c.mapping(), Mapping::Cyclic);
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn duplicate_member_install_panics() {
        let mut t = GroupTable::new();
        let g = GroupId::new(0, 0, 4, Mapping::Block);
        let a = |i| MailAddr::ordinary(0, crate::addr::DescriptorId(i));
        t.install(g, vec![(0, a(0))]);
        t.install(g, vec![(0, a(1))]);
    }
}
