//! Distributed actor garbage collection — the paper's future work.
//!
//! §9: "The use of locality descriptors to support location transparency
//! has the advantage of supporting an efficient garbage collection
//! scheme" (citing Venkatasubramaniam, Agha & Talcott's distributed
//! scheme for actor systems). This module realizes that direction as a
//! coordinator-driven, synchronous-round distributed **mark & sweep**
//! over the name-server descriptors:
//!
//! 1. **Begin** — the coordinator broadcasts `GcBegin` down the spanning
//!    tree. Every node computes its local *roots*: pinned actors (the
//!    application's externally held addresses), actors with queued or
//!    pending messages, and group members (reachable by `(group, index)`
//!    from anyone holding the group id).
//! 2. **Mark rounds** — each node traces reachability locally to a
//!    fixpoint using the behaviors' declared *acquaintances* (the HAL
//!    compiler generated this tracing information; here behaviors
//!    implement [`crate::actor::Behavior::acquaintances`]). References
//!    to non-local actors are batched into `GcMark` messages routed by
//!    the same best-guess descriptors as ordinary sends. A round ends
//!    when every node has reported to the coordinator its activity and
//!    its running totals of `GcMark` keys sent and received. Rounds
//!    repeat until one produces no new marks anywhere **and** the two
//!    totals, summed over the nodes, are equal: a batch still in flight
//!    (a large one travels the three-phase bulk protocol and can lose
//!    the race to the next round's `GcRoundGo`) holds the sweep off.
//!    Termination is guaranteed because the mark set only grows and
//!    every batch in flight eventually lands.
//! 3. **Sweep** — the coordinator broadcasts `GcSweep`; every node frees
//!    unmarked actors, their descriptors, and their name-table entries,
//!    and reports the count.
//!
//! The collection runs over the ordinary message layer (it costs
//! network packets and virtual time like everything else) and requires
//! the machine to be quiescent — the classic "idle-time" collection
//! point. Sending to a collected actor is a use-after-free program
//! error and fails loudly.

use crate::addr::{ActorId, AddrKey};
use hal_am::NodeId;
use hal_des::Set;
use std::collections::BTreeMap;

/// Per-node garbage-collection state.
#[derive(Default)]
pub struct GcState {
    /// A collection is in progress.
    pub active: bool,
    /// Locally marked (reachable) actors.
    pub marked: Set<ActorId>,
    /// Keys received from other nodes, to be traced next round. A batch
    /// may land before this node's `GcBegin` does; it waits here for the
    /// first round.
    pub incoming: Vec<AddrKey>,
    /// Actors pinned by the application (roots across collections).
    pub pinned: Set<ActorId>,
    /// `GcMark` keys this node has sent, over every collection.
    pub marks_sent: u64,
    /// `GcMark` keys this node has received, over every collection.
    pub marks_received: u64,
    /// Coordinator bookkeeping (only used on the coordinating node).
    pub coord: Option<CoordState>,
}

/// Coordinator-side bookkeeping for one collection.
#[derive(Default)]
pub struct CoordState {
    /// Nodes yet to report in the current phase.
    pub awaiting: usize,
    /// Marks produced anywhere in the current round.
    pub round_activity: u64,
    /// Sum of the nodes' reported `marks_sent` this round.
    pub round_sent: u64,
    /// Sum of the nodes' reported `marks_received` this round.
    pub round_received: u64,
    /// Completed mark rounds.
    pub rounds: u32,
    /// Total actors freed (filled during sweep).
    pub freed: u64,
}

impl GcState {
    /// Reset for a fresh collection. `incoming` is kept: it is empty
    /// after every completed sweep, so whatever it holds now was sent in
    /// this collection by a node that began first.
    pub fn begin(&mut self) {
        self.active = true;
        self.marked.clear();
        self.coord = None;
    }

    /// A `GcMark` batch arrived.
    pub fn receive(&mut self, keys: Vec<AddrKey>) {
        self.marks_received += keys.len() as u64;
        self.incoming.extend(keys);
    }

    /// Mark an actor; returns true if newly marked.
    pub fn mark(&mut self, aid: ActorId) -> bool {
        self.marked.insert(aid)
    }
}

/// Batch outgoing remote references by owner node.
#[derive(Default)]
pub struct MarkBatches {
    batches: BTreeMap<NodeId, Vec<AddrKey>>,
}

impl MarkBatches {
    /// Add a key owned by `node`.
    pub fn push(&mut self, node: NodeId, key: AddrKey) {
        self.batches.entry(node).or_default().push(key);
    }

    /// Drain the batches in ascending node order, so the `GcMark`s leave
    /// in an order the code states.
    pub fn drain(self) -> impl Iterator<Item = (NodeId, Vec<AddrKey>)> {
        self.batches.into_iter()
    }

    /// Number of keys batched in total.
    pub fn len(&self) -> usize {
        self.batches.values().map(Vec::len).sum()
    }

    /// True if nothing is batched.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// Result of one full collection, reported by
/// [`crate::machine::SimMachine::collect_garbage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Actors freed across all nodes.
    pub freed: u64,
    /// Mark rounds the collection took.
    pub rounds: u32,
    /// Actors still live after the sweep.
    pub live: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_is_idempotent() {
        let mut gc = GcState::default();
        assert!(gc.mark(ActorId(1)));
        assert!(!gc.mark(ActorId(1)));
        assert!(gc.mark(ActorId(2)));
        assert_eq!(gc.marked.len(), 2);
    }

    #[test]
    fn begin_resets_marks_but_keeps_pins_and_early_batches() {
        let mut gc = GcState::default();
        gc.pinned.insert(ActorId(7));
        gc.mark(ActorId(1));
        let k = AddrKey {
            birthplace: 1,
            index: crate::addr::DescriptorId(3),
        };
        gc.receive(vec![k]);
        gc.begin();
        assert!(gc.marked.is_empty());
        assert!(gc.active);
        assert!(gc.pinned.contains(&ActorId(7)), "pins survive collections");
        assert_eq!(gc.incoming, vec![k], "a batch that beat GcBegin is kept");
        assert_eq!(gc.marks_received, 1);
    }

    #[test]
    fn batches_group_by_owner() {
        let mut b = MarkBatches::default();
        let k = |n, i| AddrKey {
            birthplace: n,
            index: crate::addr::DescriptorId(i),
        };
        b.push(2, k(2, 0));
        b.push(1, k(1, 0));
        b.push(1, k(1, 1));
        assert_eq!(b.len(), 3);
        let drained: Vec<_> = b.drain().collect();
        let ascending = vec![(1, vec![k(1, 0), k(1, 1)]), (2, vec![k(2, 0)])];
        assert_eq!(drained, ascending);
    }
}
