//! Dynamic load balancing: receiver-initiated random polling (§7.2).
//!
//! "Receiver-initiated random polling scheme [Kumar, Grama & Rao] is used
//! for dynamic load balancing." An **idle** node picks a random victim
//! and asks it for work; a loaded victim migrates a ready actor (with its
//! queued messages) to the thief — which is only possible because
//! location transparency + migration make actors mobile mid-computation.
//!
//! This module holds the per-node policy state; the kernel performs the
//! actual migration. At most one poll is outstanding per node, and a
//! failed poll backs off by the cost model's poll interval so idle nodes
//! do not saturate the network.

use hal_des::{Pcg32, VirtualTime};
use hal_am::NodeId;

/// Per-node load-balancer state.
pub struct Balancer {
    /// Whether load balancing is enabled at all (Table 4 compares both).
    pub enabled: bool,
    /// A steal request is in flight; do not send another.
    polling: bool,
    /// Earliest virtual time the next poll may be sent.
    next_poll_at: VirtualTime,
    rng: Pcg32,
    polls_sent: u64,
    polls_failed: u64,
    steals_received: u64,
}

impl Balancer {
    /// Balancer for one node. `seed`/`node` select an independent RNG
    /// stream per node so victim choices are deterministic per machine
    /// seed.
    pub fn new(enabled: bool, seed: u64, node: NodeId) -> Self {
        Balancer {
            enabled,
            polling: false,
            next_poll_at: VirtualTime::ZERO,
            rng: Pcg32::new(seed, 0x10_000 + node as u64),
            polls_sent: 0,
            polls_failed: 0,
            steals_received: 0,
        }
    }

    /// Should this idle node poll now? True only if enabled, no poll is
    /// outstanding, and the backoff window has passed.
    pub fn may_poll(&self, now: VirtualTime) -> bool {
        self.enabled && !self.polling && now >= self.next_poll_at
    }

    /// The earliest time a poll could be sent (for the simulator's event
    /// scheduling). `None` if polling is impossible right now.
    pub fn poll_ready_at(&self) -> Option<VirtualTime> {
        if self.enabled && !self.polling {
            Some(self.next_poll_at)
        } else {
            None
        }
    }

    /// Choose a random victim ≠ `me` among `p` nodes and mark the poll
    /// outstanding.
    ///
    /// # Panics
    /// Panics if `p < 2` — a single-node partition has nobody to poll.
    pub fn start_poll(&mut self, me: NodeId, p: usize) -> NodeId {
        assert!(p >= 2, "random polling needs at least two nodes");
        debug_assert!(self.may_poll(self.next_poll_at.max(VirtualTime::ZERO)) || !self.polling);
        // Draw from 0..p-1 and skip over `me`: uniform over the others.
        let mut v = self.rng.next_below(p as u32 - 1) as NodeId;
        if v >= me {
            v += 1;
        }
        self.polling = true;
        self.polls_sent += 1;
        v
    }

    /// Stolen work arrived: clear the outstanding poll. Idempotent — a
    /// victim may donate several actors per poll, and each arrival calls
    /// this.
    pub fn poll_succeeded(&mut self) {
        if self.polling {
            self.polling = false;
            self.steals_received += 1;
        }
    }

    /// A steal reply arrived empty-handed: back off until `now + backoff`.
    /// Tolerant of an already-cleared poll: a victim donating several
    /// actors can satisfy a *subsequent* poll early, so its empty-handed
    /// answer may land after the slot was reused — pacing state, not a
    /// protocol invariant.
    pub fn poll_failed(&mut self, now: VirtualTime, backoff: hal_des::VirtualDuration) {
        if self.polling {
            self.polling = false;
            self.polls_failed += 1;
        }
        self.next_poll_at = now + backoff;
    }

    /// Polls sent (diagnostics, Table 4 instrumentation).
    pub fn polls_sent(&self) -> u64 {
        self.polls_sent
    }

    /// Polls answered without work.
    pub fn polls_failed(&self) -> u64 {
        self.polls_failed
    }

    /// Actors received by stealing.
    pub fn steals_received(&self) -> u64 {
        self.steals_received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_des::VirtualDuration;

    #[test]
    fn disabled_balancer_never_polls() {
        let b = Balancer::new(false, 1, 0);
        assert!(!b.may_poll(VirtualTime::from_nanos(1_000_000)));
        assert_eq!(b.poll_ready_at(), None);
    }

    #[test]
    fn victim_is_never_self_and_covers_all_others() {
        let mut b = Balancer::new(true, 7, 3);
        let p = 8;
        let mut seen = [false; 8];
        for _ in 0..500 {
            let v = b.start_poll(3, p);
            assert_ne!(v, 3);
            assert!((v as usize) < p);
            seen[v as usize] = true;
            b.poll_failed(VirtualTime::ZERO, VirtualDuration::ZERO);
        }
        for (i, s) in seen.iter().enumerate() {
            if i != 3 {
                assert!(s, "victim {i} never chosen");
            }
        }
        assert!(!seen[3]);
    }

    #[test]
    fn only_one_poll_outstanding() {
        let mut b = Balancer::new(true, 1, 0);
        assert!(b.may_poll(VirtualTime::ZERO));
        b.start_poll(0, 4);
        assert!(!b.may_poll(VirtualTime::ZERO), "poll outstanding");
        b.poll_succeeded();
        assert!(b.may_poll(VirtualTime::ZERO));
    }

    #[test]
    fn failed_poll_backs_off() {
        let mut b = Balancer::new(true, 1, 0);
        b.start_poll(0, 2);
        b.poll_failed(VirtualTime::from_nanos(100), VirtualDuration::from_nanos(50));
        assert!(!b.may_poll(VirtualTime::from_nanos(120)));
        assert!(b.may_poll(VirtualTime::from_nanos(150)));
        assert_eq!(b.poll_ready_at(), Some(VirtualTime::from_nanos(150)));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Balancer::new(true, 42, 1);
        let mut b = Balancer::new(true, 42, 1);
        for _ in 0..50 {
            let va = a.start_poll(1, 16);
            let vb = b.start_poll(1, 16);
            assert_eq!(va, vb);
            a.poll_failed(VirtualTime::ZERO, VirtualDuration::ZERO);
            b.poll_failed(VirtualTime::ZERO, VirtualDuration::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_poll_panics() {
        let mut b = Balancer::new(true, 1, 0);
        b.start_poll(0, 1);
    }
}
