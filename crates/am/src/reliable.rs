//! Reliable, in-order, exactly-once delivery over faulty links.
//!
//! When a [`FaultPlan`](crate::fault::FaultPlan) enables link
//! faults, the kernel wraps every outbound envelope in
//! [`Rel`](crate::packet::AmEnvelope::Rel) envelopes and runs the
//! classic positive-ack protocol implemented here:
//!
//! * **Sender** ([`RelSender`]): per-peer sequence numbers starting at
//!   1, an unacked buffer, and a single retransmit timer per peer with
//!   exponential backoff. Acks are cumulative, so one ack can retire a
//!   whole prefix.
//! * **Receiver** ([`RelReceiver`]): per-peer cumulative counter plus a
//!   holdback buffer. Out-of-order arrivals are buffered and released
//!   in sequence order, preserving the per-link FIFO property the
//!   kernel's migration protocol relies on; duplicates (retransmits
//!   that raced an ack, or fabric-duplicated packets) are dropped.
//!
//! Both sides are pure state machines: they never touch the network or
//! the clock. The kernel drives them and turns their decisions into
//! injections and timer events, which keeps every decision on the
//! simulator's one execution path — the determinism requirement of the
//! chaos subsystem.

use crate::packet::{AmEnvelope, NodeId, RelPayload};
use hal_des::Map;
use std::collections::BTreeMap;

/// Max packets re-sent per retransmit-timer firing. Bounding the batch
/// keeps a long unacked queue from flooding the link in one instant;
/// the still-armed timer picks up the rest.
pub const RETX_BATCH: usize = 16;

/// One peer's transmit state.
struct PeerTx<P> {
    /// Next sequence number to assign (first packet is seq 1).
    next_seq: u64,
    /// Sent but not yet cumulatively acked: seq → (payload, wire bytes
    /// of the inner envelope).
    unacked: BTreeMap<u64, (RelPayload<P>, usize)>,
    /// Whether a retransmit timer is in flight for this peer. Invariant:
    /// `armed` ⇔ at least one timer event for this peer exists in the
    /// simulator, so stale timers must be reported via
    /// [`RelSender::expire`] to keep it true.
    armed: bool,
    /// Consecutive retransmit rounds without ack progress; indexes the
    /// exponential backoff.
    backoff: u32,
}

impl<P> Default for PeerTx<P> {
    fn default() -> Self {
        PeerTx {
            next_seq: 1,
            unacked: BTreeMap::new(),
            armed: false,
            backoff: 0,
        }
    }
}

/// A freshly registered reliable send: what the kernel must inject.
pub struct SendTicket<P> {
    /// Sequence number assigned to this packet.
    pub seq: u64,
    /// Shared claim ticket for the wrapped envelope — the copy to put
    /// on the wire (the sender keeps a clone for retransmission).
    pub payload: RelPayload<P>,
    /// True when the kernel must schedule a retransmit timer for this
    /// peer (no timer was in flight before this send).
    pub arm_timer: bool,
}

/// What to do when a retransmit timer fires.
pub enum RetxDecision<P> {
    /// Everything was acked before the timer fired — the timer is
    /// stale, nothing to re-send, and the sender has disarmed itself
    /// (the kernel must not reschedule).
    Stale,
    /// Re-send these copies and reschedule the timer after the backoff
    /// delay indexed by `attempt`.
    Retransmit {
        /// Up to [`RETX_BATCH`] lowest unacked packets: (seq, payload,
        /// inner wire bytes).
        copies: Vec<(u64, RelPayload<P>, usize)>,
        /// Backoff index for the *next* interval (0 on the first
        /// retransmit round, then 1, 2, … until ack progress resets it).
        attempt: u32,
    },
}

/// Sender half of the reliable-delivery protocol (one per kernel,
/// tracking every peer it has sent to).
pub struct RelSender<P> {
    peers: Map<NodeId, PeerTx<P>>,
}

impl<P> Default for RelSender<P> {
    fn default() -> Self {
        RelSender {
            peers: Map::default(),
        }
    }
}

impl<P> RelSender<P> {
    /// New sender with no peer state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an outbound envelope for reliable delivery to `dst`.
    /// `bytes` is the wire size of the inner envelope (header
    /// included). Returns the ticket describing what to inject.
    pub fn register(&mut self, dst: NodeId, env: AmEnvelope<P>, bytes: usize) -> SendTicket<P> {
        let peer = self.peers.entry(dst).or_default();
        let seq = peer.next_seq;
        peer.next_seq += 1;
        let payload = RelPayload::new(env);
        peer.unacked.insert(seq, (payload.clone(), bytes));
        let arm_timer = !peer.armed;
        peer.armed = true;
        SendTicket {
            seq,
            payload,
            arm_timer,
        }
    }

    /// Process a cumulative ack from `peer`: retire every packet with
    /// seq ≤ `cum`. Returns true when the ack made progress (at least
    /// one packet retired), which also resets the backoff.
    pub fn on_ack(&mut self, peer: NodeId, cum: u64) -> bool {
        let Some(tx) = self.peers.get_mut(&peer) else {
            return false;
        };
        let before = tx.unacked.len();
        tx.unacked = tx.unacked.split_off(&(cum + 1));
        let progressed = tx.unacked.len() < before;
        if progressed {
            tx.backoff = 0;
        }
        progressed
    }

    /// A retransmit timer for `peer` fired: decide whether to re-send.
    /// On [`RetxDecision::Stale`] the peer is disarmed internally; on
    /// [`RetxDecision::Retransmit`] it stays armed and the kernel must
    /// reschedule the timer.
    pub fn timer_fired(&mut self, peer: NodeId) -> RetxDecision<P> {
        let Some(tx) = self.peers.get_mut(&peer) else {
            return RetxDecision::Stale;
        };
        if tx.unacked.is_empty() {
            tx.armed = false;
            tx.backoff = 0;
            return RetxDecision::Stale;
        }
        let copies: Vec<(u64, RelPayload<P>, usize)> = tx
            .unacked
            .iter()
            .take(RETX_BATCH)
            .map(|(&seq, (p, b))| (seq, p.clone(), *b))
            .collect();
        let attempt = tx.backoff;
        tx.backoff += 1;
        RetxDecision::Retransmit { copies, attempt }
    }

    /// True when `peer` has unacked packets outstanding.
    pub fn has_unacked(&self, peer: NodeId) -> bool {
        self.peers
            .get(&peer)
            .map(|tx| !tx.unacked.is_empty())
            .unwrap_or(false)
    }

    /// The kernel consumed a timer for `peer` without calling
    /// [`RelSender::timer_fired`] (it was short-circuited as stale at
    /// the machine layer): disarm so the next send re-arms.
    pub fn expire(&mut self, peer: NodeId) {
        if let Some(tx) = self.peers.get_mut(&peer) {
            tx.armed = false;
            tx.backoff = 0;
        }
    }
}

/// One peer's receive state.
struct PeerRx<P> {
    /// Highest sequence delivered in order; everything ≤ `cum` is done.
    cum: u64,
    /// Out-of-order arrivals held back until the gap below them fills:
    /// seq → (payload, inner wire bytes).
    buffered: BTreeMap<u64, (RelPayload<P>, usize)>,
}

impl<P> Default for PeerRx<P> {
    fn default() -> Self {
        PeerRx {
            cum: 0,
            buffered: BTreeMap::new(),
        }
    }
}

/// What happened to an inbound reliable packet.
pub enum RxOutcome<P> {
    /// Already delivered (or already buffered) — drop it. The kernel
    /// still acks, since the ack that would have retired it may itself
    /// have been lost.
    Duplicate,
    /// Accepted. The vec holds every envelope now deliverable in
    /// sequence order (empty when the packet was buffered out of
    /// order).
    Deliver(Vec<AmEnvelope<P>>),
}

/// Receiver half of the reliable-delivery protocol.
pub struct RelReceiver<P> {
    peers: Map<NodeId, PeerRx<P>>,
}

impl<P> Default for RelReceiver<P> {
    fn default() -> Self {
        RelReceiver {
            peers: Map::default(),
        }
    }
}

impl<P> RelReceiver<P> {
    /// New receiver with no peer state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process a reliable data packet from `src`. Dedups, holds back
    /// out-of-order arrivals, and releases in-order runs.
    pub fn on_data(
        &mut self,
        src: NodeId,
        seq: u64,
        payload: RelPayload<P>,
        bytes: usize,
    ) -> RxOutcome<P> {
        let rx = self.peers.entry(src).or_default();
        if seq <= rx.cum || rx.buffered.contains_key(&seq) {
            return RxOutcome::Duplicate;
        }
        rx.buffered.insert(seq, (payload, bytes));
        let mut out = Vec::new();
        while let Some(entry) = rx.buffered.remove(&(rx.cum + 1)) {
            rx.cum += 1;
            if let Some(env) = entry.0.take() {
                out.push(env);
            }
        }
        RxOutcome::Deliver(out)
    }

    /// Current cumulative ack value for `src` (what to send back).
    pub fn cum(&self, src: NodeId) -> u64 {
        self.peers.get(&src).map(|rx| rx.cum).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::AmEnvelope;

    fn env(n: u32) -> AmEnvelope<u32> {
        AmEnvelope::Small(n)
    }

    #[test]
    fn sender_assigns_sequences_and_arms_once() {
        let mut tx = RelSender::new();
        let t1 = tx.register(1, env(10), 8);
        let t2 = tx.register(1, env(11), 8);
        let t3 = tx.register(2, env(12), 8);
        assert_eq!((t1.seq, t2.seq, t3.seq), (1, 2, 1));
        assert!(t1.arm_timer, "first send arms the peer timer");
        assert!(!t2.arm_timer, "timer already in flight");
        assert!(t3.arm_timer, "per-peer timers");
    }

    #[test]
    fn cumulative_ack_retires_prefix_and_resets_backoff() {
        let mut tx = RelSender::new();
        for i in 0..4 {
            tx.register(1, env(i), 8);
        }
        // Force a couple of backoff rounds.
        assert!(matches!(
            tx.timer_fired(1),
            RetxDecision::Retransmit { attempt: 0, .. }
        ));
        assert!(matches!(
            tx.timer_fired(1),
            RetxDecision::Retransmit { attempt: 1, .. }
        ));
        assert!(tx.on_ack(1, 3), "acking 1..=3 makes progress");
        assert!(tx.has_unacked(1), "seq 4 still outstanding");
        assert!(!tx.on_ack(1, 2), "stale ack is a no-op");
        assert!(matches!(
            tx.timer_fired(1),
            RetxDecision::Retransmit { attempt: 0, .. }
        ));
        assert!(tx.on_ack(1, 4));
        assert!(!tx.has_unacked(1));
    }

    #[test]
    fn stale_timer_disarms_so_next_send_rearms() {
        let mut tx = RelSender::new();
        tx.register(1, env(1), 8);
        tx.on_ack(1, 1);
        assert!(matches!(tx.timer_fired(1), RetxDecision::Stale));
        let t = tx.register(1, env(2), 8);
        assert!(t.arm_timer, "disarmed peer re-arms on next send");
    }

    #[test]
    fn retransmit_batch_is_bounded() {
        let mut tx = RelSender::new();
        for i in 0..(RETX_BATCH as u32 + 9) {
            tx.register(1, env(i), 8);
        }
        match tx.timer_fired(1) {
            RetxDecision::Retransmit { copies, .. } => {
                assert_eq!(copies.len(), RETX_BATCH);
                assert_eq!(copies[0].0, 1, "lowest unacked first");
            }
            RetxDecision::Stale => panic!("expected a retransmit"),
        }
    }

    #[test]
    fn receiver_dedups_and_releases_in_order() {
        let mut rx = RelReceiver::new();
        // seq 2 arrives first: held back.
        match rx.on_data(0, 2, RelPayload::new(env(2)), 8) {
            RxOutcome::Deliver(v) => assert!(v.is_empty()),
            RxOutcome::Duplicate => panic!("not a duplicate"),
        }
        assert_eq!(rx.cum(0), 0);
        // A copy of seq 2: duplicate.
        assert!(matches!(
            rx.on_data(0, 2, RelPayload::new(env(2)), 8),
            RxOutcome::Duplicate
        ));
        // seq 1 fills the gap: both release, in order.
        match rx.on_data(0, 1, RelPayload::new(env(1)), 8) {
            RxOutcome::Deliver(v) => assert_eq!(v, vec![env(1), env(2)]),
            RxOutcome::Duplicate => panic!("not a duplicate"),
        }
        assert_eq!(rx.cum(0), 2);
        // A late retransmit of seq 1: duplicate.
        assert!(matches!(
            rx.on_data(0, 1, RelPayload::new(env(1)), 8),
            RxOutcome::Duplicate
        ));
    }

    #[test]
    fn end_to_end_over_a_lossy_link() {
        // Simulate: sender pushes 5 packets, the fabric loses #2 and
        // #4, a retransmit round recovers them, acks retire everything.
        let mut tx = RelSender::new();
        let mut rx = RelReceiver::new();
        let mut delivered = Vec::new();
        for i in 1..=5u32 {
            let t = tx.register(7, env(i), 8);
            if i == 2 || i == 4 {
                continue; // lost in the fabric
            }
            if let RxOutcome::Deliver(v) = rx.on_data(7, t.seq, t.payload, 8) {
                delivered.extend(v);
            }
        }
        assert_eq!(delivered, vec![env(1)], "2 blocks 3..=5 in holdback");
        tx.on_ack(7, rx.cum(7));
        match tx.timer_fired(7) {
            RetxDecision::Retransmit { copies, .. } => {
                assert_eq!(copies.iter().map(|c| c.0).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
                for (seq, p, b) in copies {
                    if let RxOutcome::Deliver(v) = rx.on_data(7, seq, p, b) {
                        delivered.extend(v);
                    }
                }
            }
            RetxDecision::Stale => panic!("unacked packets outstanding"),
        }
        assert_eq!(delivered, (1..=5).map(env).collect::<Vec<_>>());
        assert!(tx.on_ack(7, rx.cum(7)));
        assert!(!tx.has_unacked(7));
        assert!(matches!(tx.timer_fired(7), RetxDecision::Stale));
    }
}
