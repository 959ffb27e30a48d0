//! Minimal flow control for bulk transfers (paper §6.5).
//!
//! "A node manager controls sending the acknowledgment for a bulk data
//! transfer request to the requesting node so that only one such transfer
//! is active at a time. The support for flow control reduces packet
//! back-up in the network, improving network performance as well as
//! processor efficiency."
//!
//! [`FlowControl`] is the receiver-side state machine: at most one bulk
//! transfer is granted at any moment; further requests queue FIFO and are
//! granted as transfers complete. It is pure — it returns the grant the
//! caller must turn into a `BulkAck` packet — so its invariants are
//! directly testable.

use crate::packet::{BulkTag, NodeId};
use std::collections::VecDeque;

/// A grant to be conveyed to a requesting sender as a `BulkAck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The node whose request is being granted.
    pub to: NodeId,
    /// The transfer tag from that node's request.
    pub tag: BulkTag,
}

/// Receiver-side bulk-transfer flow control: one active grant at a time.
#[derive(Debug, Default)]
pub struct FlowControl {
    active: Option<Grant>,
    waiting: VecDeque<Grant>,
}

impl FlowControl {
    /// Fresh controller with no active transfer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `BulkRequest` arrived from `src` with `tag`. Returns the grant to
    /// send back immediately, or `None` if another transfer is active (the
    /// request is queued and will be granted later).
    pub fn on_request(&mut self, src: NodeId, tag: BulkTag) -> Option<Grant> {
        let g = Grant { to: src, tag };
        if self.active.is_none() {
            self.active = Some(g);
            Some(g)
        } else {
            self.waiting.push_back(g);
            None
        }
    }

    /// The `BulkData` for the active transfer has fully arrived. Returns
    /// the next grant to issue, if any request is waiting.
    ///
    /// # Panics
    /// Panics if the completion does not match the active grant — that
    /// would mean a sender transmitted data without (or with a stale)
    /// grant, violating the protocol.
    pub fn on_data_complete(&mut self, src: NodeId, tag: BulkTag) -> Option<Grant> {
        let active = self
            .active
            .take()
            .expect("bulk data completed with no active grant");
        assert_eq!(
            active,
            Grant { to: src, tag },
            "bulk data does not match the active grant"
        );
        self.active = self.waiting.pop_front();
        self.active
    }

    /// The currently active grant, if any.
    pub fn active(&self) -> Option<Grant> {
        self.active
    }

    /// Number of requests waiting for a grant.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_granted_immediately() {
        let mut fc = FlowControl::new();
        let g = fc.on_request(3, 100).unwrap();
        assert_eq!(g, Grant { to: 3, tag: 100 });
        assert_eq!(fc.active(), Some(g));
        assert_eq!(fc.queued(), 0);
    }

    #[test]
    fn concurrent_requests_queue_fifo() {
        let mut fc = FlowControl::new();
        assert!(fc.on_request(1, 10).is_some());
        assert!(fc.on_request(2, 20).is_none());
        assert!(fc.on_request(3, 30).is_none());
        assert_eq!(fc.queued(), 2);

        let g2 = fc.on_data_complete(1, 10).unwrap();
        assert_eq!(g2, Grant { to: 2, tag: 20 });
        let g3 = fc.on_data_complete(2, 20).unwrap();
        assert_eq!(g3, Grant { to: 3, tag: 30 });
        assert!(fc.on_data_complete(3, 30).is_none());
        assert_eq!((fc.active(), fc.queued()), (None, 0));
    }

    #[test]
    #[should_panic(expected = "does not match the active grant")]
    fn mismatched_completion_panics() {
        let mut fc = FlowControl::new();
        fc.on_request(1, 10);
        fc.on_data_complete(1, 99);
    }

    #[test]
    #[should_panic(expected = "no active grant")]
    fn completion_without_grant_panics() {
        let mut fc = FlowControl::new();
        fc.on_data_complete(0, 0);
    }

    #[test]
    fn never_more_than_one_active_under_random_traffic() {
        // Drive the controller with an arbitrary interleaving and check the
        // single-active invariant throughout.
        let mut fc = FlowControl::new();
        let mut rng = hal_des_rng();
        let mut outstanding: Vec<Grant> = Vec::new();
        let mut next_tag = 0u64;
        for _ in 0..10_000 {
            let do_request = outstanding.is_empty() || rng_next(&mut rng).is_multiple_of(2);
            if do_request {
                let src = (rng_next(&mut rng) % 8) as NodeId;
                next_tag += 1;
                if let Some(g) = fc.on_request(src, next_tag) {
                    outstanding.push(g);
                }
            } else if let Some(active) = fc.active() {
                if let Some(g) = fc.on_data_complete(active.to, active.tag) {
                    outstanding.push(g);
                }
                outstanding.retain(|g| *g != active);
            }
            // Invariant: grants handed out but not completed == active one.
            assert!(outstanding.len() <= 1);
            assert_eq!(outstanding.first().copied(), fc.active());
        }
    }

    // Tiny local RNG to avoid a dev-dependency cycle.
    fn hal_des_rng() -> u64 {
        0x9E3779B97F4A7C15
    }
    fn rng_next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }
}
