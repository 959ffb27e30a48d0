//! Forwarding-information-request (FIR) bookkeeping (§4.3, Fig. 3).
//!
//! When a message reaches a node the receiver has migrated away from,
//! the node manager does **not** forward the whole message. It buffers
//! it, sends a small FIR down the forward chain, and releases the
//! buffered messages directly to the actor's actual location once the
//! FIR reply propagates back. Two rules from the paper:
//!
//! * "When a node manager receives a request to deliver a message to an
//!   actor, it may have already sent an FIR message to locate the actor.
//!   It is unnecessary for the node manager to send another FIR message;
//!   thus, it puts off the message delivery until the receiver's location
//!   is known." — **duplicate suppression**: at most one FIR per actor
//!   is outstanding per node.
//! * "All node managers in the forward chain update their name table with
//!   the new information." — the reply retraces the chain, so each node
//!   records who asked it ([`FirPending::askers`]).

use crate::addr::AddrKey;
use crate::message::Msg;
use hal_am::NodeId;
use hal_des::Map;
use std::collections::hash_map::Entry;

/// Per-actor state while an FIR is outstanding on this node.
#[derive(Default, Debug)]
pub struct FirPending {
    /// Nodes that relayed an FIR for this actor through us and are owed
    /// the reply (reverse edges of the forward chain).
    pub askers: Vec<NodeId>,
    /// Messages we tried to deliver locally and parked until the actor's
    /// location is known.
    pub buffered: Vec<Msg>,
}

/// The node's FIR table.
#[derive(Default)]
pub struct FirTable {
    pending: Map<AddrKey, FirPending>,
}

impl FirTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note that we need the location of `key`. Returns `true` exactly
    /// when the caller should send an FIR now (none outstanding yet);
    /// `false` means one is already in flight (suppressed duplicate).
    pub fn need_location(&mut self, key: AddrKey) -> bool {
        match self.pending.entry(key) {
            Entry::Vacant(v) => {
                v.insert(FirPending::default());
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// True if an FIR for `key` is outstanding on this node.
    pub fn is_pending(&self, key: AddrKey) -> bool {
        self.pending.contains_key(&key)
    }

    /// Park a message until `key`'s location is known. Must follow a
    /// `need_location` call for the same key.
    pub fn buffer(&mut self, key: AddrKey, msg: Msg) {
        self.pending
            .get_mut(&key)
            .expect("buffering without an outstanding FIR")
            .buffered
            .push(msg);
    }

    /// Record that `asker` relayed an FIR for `key` through us and must
    /// receive the reply.
    pub fn add_asker(&mut self, key: AddrKey, asker: NodeId) {
        self.pending
            .get_mut(&key)
            .expect("asker without an outstanding FIR")
            .askers
            .push(asker);
    }

    /// The FIR reply arrived (or the actor showed up locally): take the
    /// parked state for flushing.
    pub fn complete(&mut self, key: AddrKey) -> Option<FirPending> {
        self.pending.remove(&key)
    }

    /// Outstanding FIRs on this node.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DescriptorId;
    use crate::message::Msg;

    fn key(n: NodeId, i: u32) -> AddrKey {
        AddrKey {
            birthplace: n,
            index: DescriptorId(i),
        }
    }

    #[test]
    fn first_need_sends_subsequent_suppressed() {
        let mut t = FirTable::new();
        let k = key(1, 0);
        assert!(t.need_location(k), "first request sends an FIR");
        assert!(!t.need_location(k), "second is suppressed");
        assert!(!t.need_location(k));
        assert_eq!(t.outstanding(), 1, "one chase, however many asked");
    }

    #[test]
    fn distinct_actors_tracked_independently() {
        let mut t = FirTable::new();
        assert!(t.need_location(key(1, 0)));
        assert!(t.need_location(key(1, 1)));
        assert!(t.need_location(key(2, 0)));
        assert_eq!(t.outstanding(), 3);
    }

    #[test]
    fn buffered_messages_and_askers_come_back_on_complete() {
        let mut t = FirTable::new();
        let k = key(3, 7);
        t.need_location(k);
        t.buffer(k, Msg::new(1, vec![]));
        t.buffer(k, Msg::new(2, vec![]));
        t.add_asker(k, 5);
        t.add_asker(k, 9);
        let p = t.complete(k).unwrap();
        assert_eq!(p.buffered.len(), 2);
        assert_eq!(p.buffered[0].selector, 1, "buffered order preserved");
        assert_eq!(p.askers, vec![5, 9]);
        assert!(!t.is_pending(k));
        assert!(t.complete(k).is_none(), "complete is idempotent via None");
    }

    #[test]
    #[should_panic(expected = "without an outstanding FIR")]
    fn buffer_without_need_panics() {
        let mut t = FirTable::new();
        t.buffer(key(0, 0), Msg::new(1, vec![]));
    }
}
