//! The dispatcher: per-node ready queue (§3).
//!
//! "The dispatcher provides the data structures that are necessary for
//! scheduling actors; the responsibility to actually schedule actors is
//! delegated to individual actors. When an actor completes its execution,
//! it obtains another actor from the dispatcher and yields control to it.
//! This allows the scheduling to be performed without context switching."
//!
//! The ready queue holds plain actor ids; the kernel's step function pops
//! one and runs it to (quantum) completion on the same stack. Collective
//! scheduling of broadcasts (§6.4) works by enqueueing all local group
//! members consecutively so they run back-to-back.

use crate::addr::ActorId;
use std::collections::VecDeque;

/// Per-node ready queue.
#[derive(Default)]
pub struct Dispatcher {
    ready: VecDeque<ActorId>,
}

impl Dispatcher {
    /// Empty dispatcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an actor to the ready queue. Callers must maintain the
    /// "scheduled at most once" invariant via the actor record's
    /// `scheduled` flag.
    #[inline]
    pub fn push(&mut self, id: ActorId) {
        self.ready.push_back(id);
    }

    /// Push an actor to the *front* of the queue — used by collective
    /// scheduling to keep a broadcast quantum contiguous even if other
    /// work was already queued.
    #[inline]
    pub fn push_front(&mut self, id: ActorId) {
        self.ready.push_front(id);
    }

    /// Next actor to run.
    #[inline]
    pub fn pop(&mut self) -> Option<ActorId> {
        self.ready.pop_front()
    }

    /// Take up to half the ready queue (capped) from the tail — the
    /// work-splitting rule of receiver-initiated random polling (Kumar,
    /// Grama & Rao): a loaded victim donates half its pending work. The
    /// tail is the coldest work, most likely a large untouched subtree.
    pub fn steal_half(&mut self, cap: usize) -> Vec<ActorId> {
        let take = (self.ready.len() / 2).min(cap);
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(id) = self.ready.pop_back() {
                out.push(id);
            }
        }
        out
    }

    /// Number of ready actors.
    #[inline]
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// True when nothing is ready.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut d = Dispatcher::new();
        d.push(ActorId(1));
        d.push(ActorId(2));
        d.push(ActorId(3));
        assert_eq!(d.pop(), Some(ActorId(1)));
        assert_eq!(d.pop(), Some(ActorId(2)));
        assert_eq!(d.pop(), Some(ActorId(3)));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn steal_takes_from_the_tail() {
        let mut d = Dispatcher::new();
        d.push(ActorId(1));
        d.push(ActorId(2));
        d.push(ActorId(3));
        d.push(ActorId(4));
        d.push(ActorId(5));
        assert_eq!(d.steal_half(8), [ActorId(5), ActorId(4)]);
        assert_eq!(d.steal_half(1), [ActorId(3)], "capped");
        assert_eq!(d.pop(), Some(ActorId(1)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn push_front_jumps_the_queue() {
        let mut d = Dispatcher::new();
        d.push(ActorId(1));
        d.push_front(ActorId(2));
        assert_eq!(d.pop(), Some(ActorId(2)));
        assert_eq!(d.pop(), Some(ActorId(1)));
    }

    #[test]
    fn empty_dispatcher_reports_empty() {
        let mut d = Dispatcher::new();
        assert!(d.is_empty());
        assert!(d.steal_half(8).is_empty());
        d.push(ActorId(0));
        assert!(d.steal_half(8).is_empty(), "half of one is none");
        assert!(!d.is_empty());
    }
}
