//! Reliable, in-order, exactly-once delivery over faulty links.
//!
//! When a [`FaultPlan`] enables link faults, the kernel wraps every
//! outbound envelope in [`Rel`](crate::packet::AmEnvelope::Rel)
//! envelopes and runs the positive-ack protocol implemented here:
//!
//! * **Sender** ([`RelSender`]): per-peer sequence numbers starting at
//!   1 and a ring of unacked packets, each with its send time and a
//!   re-sent flag. Acks are cumulative, so one ack can retire a whole
//!   prefix. Retransmission follows measured round trips (RFC 6298):
//!   each peer keeps SRTT and RTTVAR (gains 1/8 and 1/4), its RTO is
//!   `SRTT + 4·RTTVAR` clamped to [`FaultPlan::rto`],
//!   [`FaultPlan::rto_max`], a re-sent sequence number gives no sample
//!   (Karn's rule), and each timeout doubles the RTO until an ack
//!   retires packets. Every such ack moves the peer's deadline to now +
//!   RTO; a timer
//!   that fires before the deadline re-arms for the time left. A
//!   timeout re-sends only packets out for at least one RTO, and the
//!   [`DUP_ACK_THRESHOLD`]th duplicate ack re-sends the lowest unacked
//!   packet at once (fast retransmit).
//! * **Receiver** ([`RelReceiver`]): per-peer cumulative counter plus a
//!   ring of holdback slots indexed by sequence number. Out-of-order
//!   arrivals are held and released in sequence order, preserving the
//!   per-link FIFO property the kernel's migration protocol relies on;
//!   duplicates (retransmits that raced an ack, or fabric-duplicated
//!   packets) are dropped.
//!
//! Both sides are pure state machines: they never touch the network,
//! and the sender reads the clock only as the kernel hands it in
//! ([`RelSender::at`]). The kernel turns their decisions into
//! injections and timer events, which keeps every decision on the
//! simulator's one execution path — the determinism requirement of the
//! chaos subsystem.

use crate::fault::FaultPlan;
use crate::packet::{AmEnvelope, NodeId, RelPayload};
use hal_des::{Map, VirtualDuration, VirtualTime};
use std::collections::VecDeque;

/// Max packets re-sent per retransmit timeout. Bounding the batch
/// keeps a long unacked queue from flooding the link in one instant;
/// the re-armed timer picks up the rest.
pub const RETX_BATCH: usize = 16;

/// Duplicate cumulative acks that trigger a fast retransmit of the
/// lowest unacked packet. Every reliable arrival is acked at once, so a
/// lost packet shows up as one duplicate ack per later packet; a
/// fabric-duplicated or reordered packet accounts for one more.
pub const DUP_ACK_THRESHOLD: u32 = 2;

/// One sent, not yet acked packet.
struct InFlight<P> {
    payload: RelPayload<P>,
    /// Wire bytes of the inner envelope.
    bytes: usize,
    /// When the latest copy left.
    sent_at: VirtualTime,
    /// Whether any copy was re-sent: its ack then gives no RTT sample.
    resent: bool,
}

/// One peer's transmit state.
struct PeerTx<P> {
    /// Sequence number of `window[0]`; everything below it is acked.
    base: u64,
    /// Unacked packets, `base`, `base + 1`, … in order.
    window: VecDeque<InFlight<P>>,
    /// Smoothed round trip in ns; 0 until the first sample.
    srtt: u64,
    /// Round-trip variation in ns.
    rttvar: u64,
    /// Current retransmit timeout, backoff included.
    rto: VirtualDuration,
    /// When the timer next looks for late packets: now + RTO as of the
    /// last send into an empty window, ack progress or timeout.
    deadline: VirtualTime,
    /// Whether a retransmit timer is in flight for this peer. Invariant:
    /// `armed` ⇔ a timer event for this peer exists in the simulator,
    /// so stale timers must be reported via [`RelSender::expire`].
    armed: bool,
    /// Acks in a row that retired nothing while packets were out.
    dup_acks: u32,
}

impl<P> PeerTx<P> {
    fn new(rto: VirtualDuration) -> Self {
        PeerTx {
            base: 1,
            window: VecDeque::new(),
            srtt: 0,
            rttvar: 0,
            rto,
            deadline: VirtualTime::ZERO,
            armed: false,
            dup_acks: 0,
        }
    }
}

/// A packet to put on the wire again.
pub struct Resend<P> {
    /// Its sequence number.
    pub seq: u64,
    /// Another claim ticket for the one inner envelope.
    pub payload: RelPayload<P>,
    /// Wire bytes of the inner envelope.
    pub bytes: usize,
}

/// A freshly registered reliable send: what the kernel must inject.
pub struct SendTicket<P> {
    /// Sequence number assigned to this packet.
    pub seq: u64,
    /// Shared claim ticket for the wrapped envelope — the copy to put
    /// on the wire (the sender keeps a clone for retransmission).
    pub payload: RelPayload<P>,
    /// When no timer was in flight for this peer: schedule one this
    /// long from now.
    pub arm_timer: Option<VirtualDuration>,
}

/// What to do when a retransmit timer fires.
pub enum RetxDecision<P> {
    /// Everything was acked before the timer fired — nothing to re-send,
    /// and the sender has disarmed itself (the kernel must not re-arm).
    Stale,
    /// Re-send `copies` (none when the timer fired before the peer's
    /// deadline) and arm the timer again `after` from now.
    Rearm {
        /// Up to [`RETX_BATCH`] late packets, lowest sequence first.
        copies: Vec<Resend<P>>,
        /// Delay until the peer's next deadline.
        after: VirtualDuration,
    },
}

/// Sender half of the reliable-delivery protocol (one per kernel,
/// tracking every peer it has sent to).
pub struct RelSender<P> {
    peers: Map<NodeId, PeerTx<P>>,
    /// The clock as of the kernel's last [`RelSender::at`].
    now: VirtualTime,
    /// Initial RTO and its floor.
    rto_min: VirtualDuration,
    /// Cap on the RTO, backoff included.
    rto_max: VirtualDuration,
}

impl<P> Default for RelSender<P> {
    fn default() -> Self {
        Self::for_plan(&FaultPlan::default())
    }
}

impl<P> RelSender<P> {
    /// New sender with no peer state and the default plan's RTO bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// New sender whose RTO starts at `plan.rto` and stays within
    /// [`plan.rto`, `plan.rto_max`] (a cap below the floor caps at the
    /// floor).
    pub fn for_plan(plan: &FaultPlan) -> Self {
        RelSender {
            peers: Map::default(),
            now: VirtualTime::ZERO,
            rto_min: plan.rto,
            rto_max: plan.rto_max.max(plan.rto),
        }
    }

    /// Set the clock the next calls act at. Time never runs backwards
    /// for the sender.
    #[inline]
    pub fn at(&mut self, now: VirtualTime) {
        self.now = self.now.max(now);
    }

    /// Register an outbound envelope for reliable delivery to `dst`.
    /// `bytes` is the wire size of the inner envelope (header
    /// included). Returns the ticket describing what to inject.
    pub fn register(&mut self, dst: NodeId, env: AmEnvelope<P>, bytes: usize) -> SendTicket<P> {
        let (now, rto_min) = (self.now, self.rto_min);
        let peer = self
            .peers
            .entry(dst)
            .or_insert_with(|| PeerTx::new(rto_min));
        let seq = peer.base + peer.window.len() as u64;
        let payload = RelPayload::new(env);
        if peer.window.is_empty() {
            peer.deadline = now + peer.rto;
        }
        peer.window.push_back(InFlight {
            payload: payload.clone(),
            bytes,
            sent_at: now,
            resent: false,
        });
        let arm_timer = (!peer.armed).then_some(peer.rto);
        peer.armed = true;
        SendTicket {
            seq,
            payload,
            arm_timer,
        }
    }

    /// Process a cumulative ack from `peer`: retire every packet with
    /// seq ≤ `cum`, take an RTT sample and restart the peer's deadline.
    /// An ack that retires nothing while packets are out is a duplicate;
    /// the [`DUP_ACK_THRESHOLD`]th in a row returns the lowest unacked
    /// packet to re-send now.
    pub fn on_ack(&mut self, peer: NodeId, cum: u64) -> Option<Resend<P>> {
        let now = self.now;
        let (rto_min, rto_max) = (self.rto_min, self.rto_max);
        let tx = self.peers.get_mut(&peer)?;
        if cum < tx.base {
            if cum + 1 == tx.base && !tx.window.is_empty() {
                tx.dup_acks += 1;
                if tx.dup_acks == DUP_ACK_THRESHOLD {
                    let head = &mut tx.window[0];
                    head.sent_at = now;
                    head.resent = true;
                    return Some(Resend {
                        seq: tx.base,
                        payload: head.payload.clone(),
                        bytes: head.bytes,
                    });
                }
            }
            return None;
        }
        let retired = ((cum + 1 - tx.base) as usize).min(tx.window.len());
        let mut sample = None;
        let mut karn = false;
        for f in tx.window.drain(..retired) {
            karn |= f.resent;
            sample = Some(now.since(f.sent_at));
        }
        tx.base += retired as u64;
        tx.dup_acks = 0;
        // Karn: an ack that retires any re-sent packet is ambiguous
        // about which copy it answers, so it gives no sample.
        if let Some(r) = sample.filter(|_| !karn) {
            let r = r.as_nanos();
            if tx.srtt == 0 {
                tx.srtt = r.max(1);
                tx.rttvar = r / 2;
            } else {
                tx.rttvar = (3 * tx.rttvar + tx.srtt.abs_diff(r)) / 4;
                tx.srtt = (7 * tx.srtt + r) / 8;
            }
        }
        // Progress ends any backoff.
        let rto = VirtualDuration::from_nanos(tx.srtt.saturating_add(4 * tx.rttvar));
        tx.rto = rto.clamp(rto_min, rto_max);
        tx.deadline = now + tx.rto;
        None
    }

    /// A retransmit timer for `peer` fired. On [`RetxDecision::Stale`]
    /// the peer is disarmed internally; on [`RetxDecision::Rearm`] it
    /// stays armed and the kernel must schedule the timer again.
    pub fn timer_fired(&mut self, peer: NodeId) -> RetxDecision<P> {
        let now = self.now;
        let rto_max = self.rto_max;
        let Some(tx) = self.peers.get_mut(&peer) else {
            return RetxDecision::Stale;
        };
        if tx.window.is_empty() {
            tx.armed = false;
            return RetxDecision::Stale;
        }
        let mut copies = Vec::new();
        if now >= tx.deadline {
            let late = tx.rto;
            for (seq, f) in (tx.base..).zip(tx.window.iter_mut()) {
                if copies.len() == RETX_BATCH {
                    break;
                }
                if now.since(f.sent_at) >= late {
                    f.sent_at = now;
                    f.resent = true;
                    copies.push(Resend {
                        seq,
                        payload: f.payload.clone(),
                        bytes: f.bytes,
                    });
                }
            }
            if copies.is_empty() {
                // Fast retransmit re-sent the head since the deadline
                // was set: wait one RTO from its copy.
                let oldest = tx
                    .window
                    .iter()
                    .map(|f| f.sent_at)
                    .min()
                    .expect("non-empty");
                tx.deadline = oldest + late;
            } else {
                tx.rto = (tx.rto + tx.rto).min(rto_max);
                tx.deadline = now + tx.rto;
            }
        }
        RetxDecision::Rearm {
            copies,
            after: tx.deadline.since(now),
        }
    }

    /// True when `peer` has unacked packets outstanding.
    pub fn has_unacked(&self, peer: NodeId) -> bool {
        self.peers
            .get(&peer)
            .is_some_and(|tx| !tx.window.is_empty())
    }

    /// The kernel consumed a timer for `peer` without calling
    /// [`RelSender::timer_fired`] (it was short-circuited as stale at
    /// the machine layer): disarm so the next send re-arms.
    pub fn expire(&mut self, peer: NodeId) {
        if let Some(tx) = self.peers.get_mut(&peer) {
            tx.armed = false;
        }
    }
}

/// One peer's receive state.
struct PeerRx<P> {
    /// Highest sequence delivered in order; everything ≤ `cum` is done.
    cum: u64,
    /// Holdback slots for `cum + 1`, `cum + 2`, …: an out-of-order
    /// arrival waits in its slot until the gap below it fills. The
    /// first slot is always empty between calls.
    held: VecDeque<Option<RelPayload<P>>>,
}

impl<P> Default for PeerRx<P> {
    fn default() -> Self {
        PeerRx {
            cum: 0,
            held: VecDeque::new(),
        }
    }
}

/// What happened to an inbound reliable packet.
pub enum RxOutcome<P> {
    /// Already delivered (or already held back) — drop it. The kernel
    /// still acks, since the ack that would have retired it may itself
    /// have been lost.
    Duplicate,
    /// Accepted. The vec holds every envelope now deliverable in
    /// sequence order (empty when the packet was held back).
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
    /// out-of-order arrivals, and releases in-order runs. The holdback
    /// keeps only the claim ticket, so the packet's wire size (`_bytes`)
    /// is not needed here.
    pub fn on_data(
        &mut self,
        src: NodeId,
        seq: u64,
        payload: RelPayload<P>,
        _bytes: usize,
    ) -> RxOutcome<P> {
        let rx = self.peers.entry(src).or_default();
        if seq <= rx.cum {
            return RxOutcome::Duplicate;
        }
        let slot = (seq - rx.cum - 1) as usize;
        if slot >= rx.held.len() {
            rx.held.resize_with(slot + 1, || None);
        } else if rx.held[slot].is_some() {
            return RxOutcome::Duplicate;
        }
        rx.held[slot] = Some(payload);
        let mut out = Vec::new();
        while let Some(Some(payload)) = rx.held.front_mut().map(Option::take) {
            rx.held.pop_front();
            rx.cum += 1;
            if let Some(env) = payload.take() {
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

    fn us(n: u64) -> VirtualDuration {
        VirtualDuration::from_nanos(n * 1_000)
    }

    fn t(us_: u64) -> VirtualTime {
        VirtualTime::ZERO + us(us_)
    }

    /// A sender with RTO bounds [100 µs, 3.2 ms] (the default plan's).
    fn sender() -> RelSender<u32> {
        RelSender::new()
    }

    fn fire(tx: &mut RelSender<u32>, at: u64) -> (Vec<u64>, VirtualDuration) {
        tx.at(t(at));
        match tx.timer_fired(1) {
            RetxDecision::Rearm { copies, after } => {
                (copies.iter().map(|c| c.seq).collect(), after)
            }
            RetxDecision::Stale => panic!("packets are outstanding"),
        }
    }

    #[test]
    fn first_send_arms_the_peer_timer_and_sequences_are_per_peer() {
        let mut tx = sender();
        let t1 = tx.register(1, env(10), 8);
        let t2 = tx.register(1, env(11), 8);
        let t3 = tx.register(2, env(12), 8);
        assert_eq!((t1.seq, t2.seq, t3.seq), (1, 2, 1));
        assert_eq!(t1.arm_timer, Some(us(100)), "the initial RTO");
        assert_eq!(t2.arm_timer, None, "timer already in flight");
        assert_eq!(t3.arm_timer, Some(us(100)), "per-peer timers");
        tx.on_ack(1, 2);
        assert!(!tx.has_unacked(1));
        assert!(matches!(tx.timer_fired(1), RetxDecision::Stale));
        assert!(
            tx.register(1, env(13), 8).arm_timer.is_some(),
            "disarmed peer re-arms"
        );
    }

    #[test]
    fn karn_a_resent_sequence_number_gives_no_sample() {
        let mut tx = sender();
        tx.register(1, env(1), 8);
        assert_eq!(
            fire(&mut tx, 100),
            (vec![1], us(200)),
            "timeout doubles the RTO"
        );
        // Acked 250 µs after the first copy, 150 µs after the second:
        // either could be the RTT, so neither is taken.
        tx.at(t(250));
        tx.on_ack(1, 1);
        let peer = &tx.peers[&1];
        assert_eq!((peer.srtt, peer.rttvar), (0, 0), "no sample");
        assert_eq!(peer.rto, us(100), "progress ends the backoff");
        // A clean packet's ack does give a sample: SRTT = r, RTTVAR =
        // r/2, RTO = clamp(r + 2r) = 3 × 150 µs.
        tx.register(1, env(2), 8);
        tx.at(t(400));
        tx.on_ack(1, 2);
        let peer = &tx.peers[&1];
        assert_eq!(
            (peer.srtt, peer.rttvar, peer.rto),
            (150_000, 75_000, us(450))
        );
    }

    #[test]
    fn a_timer_that_fires_before_the_deadline_rearms_and_resends_nothing() {
        let mut tx = sender();
        tx.register(1, env(1), 8);
        tx.at(t(60));
        tx.register(1, env(2), 8);
        // Sample of 80 µs: RTO = clamp(80 + 4·40) = 240 µs, deadline
        // restarted to 80 + 240.
        tx.at(t(80));
        assert!(tx.on_ack(1, 1).is_none());
        assert_eq!(
            fire(&mut tx, 100),
            (vec![], us(220)),
            "re-arm for the time left"
        );
        assert_eq!(tx.peers[&1].rto, us(240), "no backoff without a timeout");
        assert!(!tx.peers[&1].window[0].resent);
        assert_eq!(fire(&mut tx, 320), (vec![2], us(480)), "then it times out");
    }

    #[test]
    fn a_timeout_resends_only_packets_out_for_at_least_one_rto() {
        let mut tx = sender();
        for at in [0, 10, 50, 99] {
            tx.at(t(at));
            tx.register(1, env(at as u32), 8);
        }
        tx.at(t(120));
        tx.register(1, env(5), 8);
        // At 150 µs: seqs 1–3 were sent ≥ 100 µs ago, 4 and 5 were not.
        let (seqs, after) = fire(&mut tx, 150);
        assert_eq!((seqs, after), (vec![1, 2, 3], us(200)));
        // The batch is bounded; the rest wait for the next timeout.
        let mut tx = sender();
        for i in 0..(RETX_BATCH as u32 + 9) {
            tx.register(1, env(i), 8);
        }
        let (seqs, _) = fire(&mut tx, 100);
        assert_eq!(seqs, (1..=RETX_BATCH as u64).collect::<Vec<_>>());
    }

    #[test]
    fn fast_retransmit_fires_on_the_threshold_duplicate_ack_only() {
        let mut tx = sender();
        for i in 1..=6 {
            tx.register(1, env(i), 8);
        }
        tx.at(t(20));
        assert!(tx.on_ack(1, 1).is_none(), "progress is not a duplicate");
        tx.at(t(30));
        for n in 1..DUP_ACK_THRESHOLD {
            assert!(
                tx.on_ack(1, 1).is_none(),
                "duplicate {n} is below the threshold"
            );
        }
        let copy = tx.on_ack(1, 1).expect("the threshold duplicate re-sends");
        assert_eq!(copy.seq, 2, "the lowest unacked packet");
        assert!(tx.on_ack(1, 1).is_none(), "once per loss");
        assert!(tx.on_ack(1, 0).is_none(), "an older ack is not a duplicate");
        assert!(
            tx.peers[&1].window[0].resent,
            "Karn applies to the fast copy"
        );
        // At the deadline (20 + 100 µs) the head's fast copy is younger
        // than an RTO: it is not re-sent, the older packets are.
        tx.at(t(40));
        tx.register(1, env(7), 8);
        let (seqs, after) = fire(&mut tx, 120);
        assert_eq!((seqs, after), (vec![3, 4, 5, 6], us(200)));
    }

    #[test]
    fn the_rto_stays_within_its_floor_and_cap() {
        let (floor, cap) = (us(100), us(3_200));
        let mut tx = sender();
        // Timeouts double up to the cap and no further.
        tx.register(1, env(0), 8);
        let mut now = 0;
        for _ in 0..10 {
            now += tx.peers[&1].rto.as_nanos() / 1_000;
            let (_, after) = fire(&mut tx, now);
            assert!(after <= cap);
        }
        assert_eq!(tx.peers[&1].rto, cap);
        // Tiny clean samples pull it to the floor, not below.
        for i in 1..40u32 {
            tx.at(t(now));
            tx.register(1, env(i), 8);
            now += 1;
            tx.at(t(now));
            tx.on_ack(1, u64::from(i) + 1);
            let rto = tx.peers[&1].rto;
            assert!(rto >= floor && rto <= cap, "{rto:?}");
        }
        assert_eq!(tx.peers[&1].rto, floor);
        // Huge samples saturate at the cap.
        tx.at(t(now));
        tx.register(1, env(99), 8);
        now += 50_000;
        tx.at(t(now));
        tx.on_ack(1, 41);
        assert_eq!(tx.peers[&1].rto, cap);
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
        // The sender pushes 5 packets 1 µs apart and the fabric loses #2
        // and #4. Acks of 1 come back for 1, 3 and 5: the second
        // duplicate fast-retransmits 2, and the timeout re-sends 4.
        let mut tx = RelSender::new();
        let mut rx = RelReceiver::new();
        let mut delivered = Vec::new();
        let mut resent = Vec::new();
        for i in 1..=5u32 {
            tx.at(t(u64::from(i)));
            let ticket = tx.register(7, env(i), 8);
            if i == 2 || i == 4 {
                continue; // lost in the fabric
            }
            if let RxOutcome::Deliver(v) = rx.on_data(7, ticket.seq, ticket.payload, 8) {
                delivered.extend(v);
            }
            tx.at(t(u64::from(i) + 10));
            resent.extend(tx.on_ack(7, rx.cum(7)));
        }
        assert_eq!(delivered, vec![env(1)], "2 blocks 3..=5 in holdback");
        assert_eq!(resent.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![2]);
        for c in resent {
            if let RxOutcome::Deliver(v) = rx.on_data(7, c.seq, c.payload, c.bytes) {
                delivered.extend(v);
            }
        }
        assert_eq!(rx.cum(7), 3);
        tx.at(t(20));
        tx.on_ack(7, rx.cum(7));
        tx.at(t(200));
        match tx.timer_fired(7) {
            RetxDecision::Rearm { copies, .. } => {
                assert_eq!(copies.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![4, 5]);
                for c in copies {
                    if let RxOutcome::Deliver(v) = rx.on_data(7, c.seq, c.payload, c.bytes) {
                        delivered.extend(v);
                    }
                }
            }
            RetxDecision::Stale => panic!("unacked packets outstanding"),
        }
        assert_eq!(delivered, (1..=5).map(env).collect::<Vec<_>>());
        tx.on_ack(7, rx.cum(7));
        assert!(!tx.has_unacked(7));
        assert!(matches!(tx.timer_fired(7), RetxDecision::Stale));
    }
}
