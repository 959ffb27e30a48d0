//! The simulated network: packet delivery through the discrete-event queue.
//!
//! This is the benchmark substrate standing in for the CM-5's fat-tree.
//! The model is deliberately simple and deterministic:
//!
//! * each packet pays a fixed **wire latency** plus a **per-byte** cost
//!   (bandwidth term), calibrated against CMAM measurements;
//! * each ordered node pair `(src, dst)` is a FIFO *link*: a packet may
//!   not arrive before an earlier packet on the same link (CMAM/fat-tree
//!   routes preserve per-pair ordering for our purposes, and the kernel's
//!   protocols rely on it the same way the paper's implementation does);
//! * each source serializes injection: the network interface can inject
//!   one packet at a time, so back-to-back sends queue at the NI. This is
//!   what makes the *no-flow-control* Cholesky ablation congest, as the
//!   paper observed (§6.5).
//!
//! Contention inside the fabric is **not** modeled beyond these two
//! serialization points; the paper's claims we reproduce do not depend on
//! fabric hot-spots.

use crate::fault::{FaultPlan, FaultState, RawFate};
use crate::packet::{AmEnvelope, NodeId, Packet};
use hal_des::{EventQueue, Map, StatSet, VirtualDuration, VirtualTime};

hal_des::counters! {
    /// What [`LinkState`] counts, one slot each in its counter array.
    pub enum NetCounter {
        Packets => "net.packets",
        Bytes => "net.bytes",
        BackpressureStalls => "net.backpressure_stalls",
        FaultReordered => "net.fault_reordered",
        FaultDropped => "net.fault_dropped",
        FaultDuplicated => "net.fault_duplicated",
    }
}

/// Timing parameters of the simulated interconnect.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// One-way wire latency for any packet (time of flight + routing).
    pub latency: VirtualDuration,
    /// Transmission time per payload byte (1/bandwidth).
    pub per_byte: VirtualDuration,
    /// Time the sending NI is busy injecting a packet (serializes
    /// back-to-back sends from one node).
    pub inject_overhead: VirtualDuration,
    /// Virtual-time depth of buffering the fabric tolerates toward one
    /// receiver before back-pressure stalls senders (wormhole routing
    /// has almost no elasticity; the CM-5 NI buffers a few packets).
    /// When a receiver's ejection backlog exceeds this window, further
    /// injections toward it block the *sender's* NI until the backlog
    /// drains — the "packet back-up in the network" of §6.5.
    pub backpressure_window: VirtualDuration,
}

impl LinkModel {
    /// CM-5 / CMAM-calibrated defaults.
    ///
    /// CMAM reports ~1.6 µs send overhead, a few µs one-way latency for a
    /// small message, and ~10 MB/s effective per-link bandwidth for bulk
    /// transfers (≈ 100 ns/byte). The paper's own remote-creation numbers
    /// (5.83 µs apparent vs 20.83 µs actual, §5) bound the one-way
    /// request latency at a few microseconds.
    pub fn cm5() -> Self {
        LinkModel {
            latency: VirtualDuration::from_nanos(3_000),
            per_byte: VirtualDuration::from_nanos(100),
            inject_overhead: VirtualDuration::from_nanos(600),
            // ~4 KB of in-fabric elasticity toward one receiver.
            backpressure_window: VirtualDuration::from_nanos(400_000),
        }
    }

    /// A network-of-workstations cluster (§9's future direction): the
    /// fast-interconnect NOW of Anderson/Culler/Patterson — ATM-class
    /// links with ~20x the CM-5's latency and a third of its per-link
    /// bandwidth, and far more elasticity (switched network with real
    /// buffers rather than a wormhole fabric).
    pub fn now_cluster() -> Self {
        LinkModel {
            latency: VirtualDuration::from_nanos(60_000),
            per_byte: VirtualDuration::from_nanos(300),
            inject_overhead: VirtualDuration::from_nanos(5_000),
            backpressure_window: VirtualDuration::from_millis(4),
        }
    }

    /// An idealized zero-cost network (unit tests of protocol logic).
    pub fn instant() -> Self {
        LinkModel {
            latency: VirtualDuration::ZERO,
            per_byte: VirtualDuration::ZERO,
            inject_overhead: VirtualDuration::ZERO,
            backpressure_window: VirtualDuration::from_millis(1_000_000),
        }
    }
}

/// One admitted injection: where the resource arithmetic placed it.
#[derive(Clone, Copy, Debug)]
pub struct Admitted {
    /// Scheduled arrival time at the destination's ejection port.
    pub arrival: VirtualTime,
    /// Global admission sequence number — the deterministic tie-breaker
    /// for packets arriving at the same virtual time.
    pub seq: u64,
    /// Time the sender's NI frees up (callers may charge it to the node
    /// clock).
    pub ni_free: VirtualTime,
    /// What the fault layer decided ([`Fate::Deliver`] when no fault
    /// plan is installed). The caller enqueues zero, one, or two copies
    /// accordingly.
    pub fate: Fate,
}

/// Delivery verdict of one admission, as seen by the enqueueing caller.
#[derive(Clone, Copy, Debug)]
pub enum Fate {
    /// Enqueue the packet at [`Admitted::arrival`] (a reordered packet
    /// also lands here — its arrival already includes the extra delay).
    Deliver,
    /// The fabric lost the packet: enqueue nothing. Sender-side costs
    /// ([`Admitted::ni_free`]) still apply.
    Dropped,
    /// The fabric duplicated the packet: enqueue the original at
    /// [`Admitted::arrival`] and, if the envelope is clonable
    /// ([`AmEnvelope::try_clone`]), a copy at the embedded arrival/seq;
    /// any other envelope is enqueued once.
    Duplicated {
        /// Arrival time of the duplicate copy.
        arrival: VirtualTime,
        /// Admission sequence number of the duplicate copy.
        seq: u64,
    },
}

/// The network's resource state machine, separate from the event queue
/// so admission arithmetic can be exercised (and timed) on its own:
/// per-(src,dst) FIFO links, per-source NI serialization,
/// per-destination ejection ports, and wormhole back-pressure.
///
/// Injections may arrive **out of virtual-time order**: a node executing
/// a long actor method injects its sends at the method's completion
/// time, while interrupting node-manager handlers (§3's "steals the
/// processor") inject at packet-arrival times that can be earlier. Each
/// resource therefore remembers the virtual time of the injection that
/// set it, and only constrains injections that are *not before* it — an
/// earlier-time injection sees the resource as idle (which it truly was
/// at that moment).
pub struct LinkState {
    model: LinkModel,
    /// Per-(src, dst) link: (inject time that set it, last scheduled
    /// arrival) — enforces FIFO forward in time.
    link_last: Map<(NodeId, NodeId), (VirtualTime, VirtualTime)>,
    /// Per-source NI: (inject time that set it, time the NI frees up).
    ni_free: Vec<(VirtualTime, VirtualTime)>,
    /// Per-destination ejection port: (inject time that set it, time the
    /// port frees up). A hot receiver queues arrivals and, past the
    /// back-pressure window, stalls senders.
    eject_busy: Vec<(VirtualTime, VirtualTime)>,
    /// Next admission sequence number.
    seq: u64,
    /// Indexed by [`NetCounter`].
    counts: [u64; NetCounter::COUNT],
    /// Fault machinery; `None` (the default) keeps the exact legacy
    /// admission path — zero RNG draws, byte-identical behavior.
    faults: Option<FaultState>,
}

impl LinkState {
    /// Resource state for `nodes` nodes under `model`.
    pub fn new(nodes: usize, model: LinkModel) -> Self {
        LinkState {
            model,
            link_last: Map::default(),
            ni_free: vec![(VirtualTime::ZERO, VirtualTime::ZERO); nodes],
            eject_busy: vec![(VirtualTime::ZERO, VirtualTime::ZERO); nodes],
            seq: 0,
            counts: [0; NetCounter::COUNT],
            faults: None,
        }
    }

    /// Install a fault plan, seeding its RNG stream from the machine's
    /// master seed. A plan without link-level faults installs nothing,
    /// keeping the zero-overhead legacy path.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, seed: u64) {
        if plan.link_faults() {
            self.faults = Some(FaultState::new(plan.clone(), seed));
        }
    }

    /// Number of nodes attached.
    pub fn nodes(&self) -> usize {
        self.ni_free.len()
    }

    /// The link model in force.
    pub fn model(&self) -> LinkModel {
        self.model
    }

    /// The nonzero counters, by name (a report's network share).
    pub fn stats(&self) -> StatSet {
        let mut stats = StatSet::new();
        stats.add_nonzero(NetCounter::ALL.iter().map(|c| c.name()).zip(self.counts));
        stats
    }

    #[inline]
    fn count(&mut self, c: NetCounter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Admit one injection at virtual time `now`: run the full resource
    /// arithmetic (NI serialization, per-link FIFO, ejection port,
    /// back-pressure), commit the resource state, and return the
    /// scheduled arrival. The caller is responsible for enqueueing the
    /// packet at `Admitted::arrival` with `Admitted::seq` as the
    /// tie-breaker.
    ///
    /// Admission order is the order that matters for determinism: two
    /// runs that admit the same injections in the same order produce
    /// identical arrivals and sequence numbers.
    pub fn admit(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    ) -> Admitted {
        assert!(
            (src as usize) < self.ni_free.len() && (dst as usize) < self.ni_free.len(),
            "inject: node id out of range"
        );
        // Fault fate first: the decision consumes a fixed number of RNG
        // draws per admission (none when no plan is installed), so the
        // stream position depends only on the canonical admission order.
        let raw = match self.faults.as_mut() {
            Some(f) => f.decide(now, src, dst),
            None => RawFate::Deliver,
        };
        let dropped = matches!(raw, RawFate::Drop);
        let delayed = matches!(raw, RawFate::Delay(_));
        let xmit = self.model.per_byte.scaled(wire_bytes as u64);

        // NI injection serialization: a send cannot begin until the
        // previous one from this node has left the NI — unless this
        // injection is *earlier in virtual time* than the one that set
        // the state (an interrupt handler's send), in which case the NI
        // really was idle at `now`.
        let (ni_set_at, ni_busy) = self.ni_free[src as usize];
        let in_order = now >= ni_set_at;
        let begin = if in_order { now.max(ni_busy) } else { now };
        let mut ni_free = begin + self.model.inject_overhead + xmit;

        // Earliest possible arrival given wire latency…
        let mut arrival = ni_free + self.model.latency;
        // …but never before an earlier packet on the same (src,dst)
        // link (FIFO, applied forward in time) — unless the fault layer
        // reorders this packet, which is exactly a FIFO violation…
        if !delayed {
            if let Some(&(l_set, l_arr)) = self.link_last.get(&(src, dst)) {
                if now >= l_set {
                    arrival = arrival.max(l_arr);
                }
            }
        }
        // …and never before the receiver's ejection port frees up: a hot
        // receiver queues arrivals.
        let (e_set, e_busy) = self.eject_busy[dst as usize];
        if now >= e_set {
            arrival = arrival.max(e_busy);
        }
        if let RawFate::Delay(extra) = raw {
            arrival += extra;
        }
        // The ejection port is then busy draining this packet.
        let eject_done = arrival + self.model.per_byte.scaled(wire_bytes as u64);

        // Wormhole back-pressure: if the receiver's backlog exceeds the
        // elasticity window, the sender's NI blocks until it drains
        // (§6.5's "packet back-up in the network" reaching the sender).
        let backlog_release = VirtualTime::from_nanos(
            eject_done
                .as_nanos()
                .saturating_sub(self.model.backpressure_window.as_nanos()),
        );
        if backlog_release > ni_free {
            self.count(NetCounter::BackpressureStalls, 1);
            ni_free = backlog_release;
        }

        // Commit resource state, never backward in virtual time. A
        // dropped packet spends the sender's NI but never reaches the
        // link or the ejection port; a reordered one bypasses the FIFO
        // state in both directions.
        if now >= ni_set_at {
            self.ni_free[src as usize] = (now, ni_free);
        }
        if !dropped && !delayed {
            let link = self.link_last.entry((src, dst)).or_insert((now, arrival));
            if now >= link.0 {
                *link = (now, arrival.max(link.1));
            }
        }
        if !dropped && now >= e_set {
            self.eject_busy[dst as usize] = (now, eject_done.max(e_busy));
        }

        self.count(NetCounter::Packets, 1);
        self.count(NetCounter::Bytes, wire_bytes as u64);
        let seq = self.seq;
        self.seq += 1;
        let fate = match raw {
            RawFate::Deliver => Fate::Deliver,
            RawFate::Delay(_) => {
                self.count(NetCounter::FaultReordered, 1);
                Fate::Deliver
            }
            RawFate::Drop => {
                self.count(NetCounter::FaultDropped, 1);
                Fate::Dropped
            }
            RawFate::Dup(extra) => {
                self.count(NetCounter::FaultDuplicated, 1);
                let seq2 = self.seq;
                self.seq += 1;
                Fate::Duplicated {
                    arrival: arrival + extra,
                    seq: seq2,
                }
            }
        };
        Admitted {
            arrival,
            seq,
            ni_free,
            fate,
        }
    }

    /// Allocate a sequence number for a scheduler-level event (a timer)
    /// that bypasses the admission arithmetic entirely: no resources,
    /// no faults, no packet stats — just a deterministic tie-breaker
    /// from the same counter the admissions use.
    pub fn next_event_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

/// The simulated network: a [`LinkState`] resource model plus the event
/// queue of in-flight packets — what the simulator loop drives.
pub struct SimNetwork<P> {
    queue: EventQueue<Packet<P>>,
    link: LinkState,
}

impl<P> SimNetwork<P> {
    /// A network connecting `nodes` nodes under `model`.
    pub fn new(nodes: usize, model: LinkModel) -> Self {
        Self::with_capacity(nodes, model, 1024)
    }

    /// A network with the event queue pre-sized for `cap` in-flight
    /// packets.
    pub fn with_capacity(nodes: usize, model: LinkModel, cap: usize) -> Self {
        SimNetwork {
            queue: EventQueue::with_capacity(cap),
            link: LinkState::new(nodes, model),
        }
    }

    /// Number of nodes attached.
    pub fn nodes(&self) -> usize {
        self.link.nodes()
    }

    /// The link model in force.
    pub fn model(&self) -> LinkModel {
        self.link.model()
    }

    /// Inject a packet at virtual time `now`. Returns the time the sender's
    /// NI becomes free again (callers may charge that to the node clock).
    ///
    /// `wire_bytes` is the envelope's size on the wire; callers compute it
    /// via [`AmEnvelope::wire_bytes`] so the cost model sees serialized
    /// sizes, not in-memory ones.
    pub fn inject(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        body: AmEnvelope<P>,
        wire_bytes: usize,
    ) -> VirtualTime {
        let adm = self.link.admit(now, src, dst, wire_bytes);
        match adm.fate {
            Fate::Dropped => {}
            Fate::Deliver => {
                self.queue
                    .push_at(adm.arrival, adm.seq, Packet { src, dst, body });
            }
            Fate::Duplicated { arrival, seq } => {
                if let Some(copy) = body.try_clone() {
                    self.queue.push_at(arrival, seq, Packet { src, dst, body: copy });
                }
                self.queue
                    .push_at(adm.arrival, adm.seq, Packet { src, dst, body });
            }
        }
        adm.ni_free
    }

    /// Install a fault plan on the link state (see
    /// [`LinkState::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: &crate::fault::FaultPlan, seed: u64) {
        self.link.set_fault_plan(plan, seed);
    }

    /// Schedule a self-addressed timer event to fire at `fire_at` on
    /// `node`. Timers go straight into the event queue — they consume
    /// no network resources and are immune to faults (a retransmit
    /// timer that could itself be dropped would defeat its purpose).
    pub fn schedule(&mut self, fire_at: VirtualTime, node: NodeId, body: AmEnvelope<P>) {
        let seq = self.link.next_event_seq();
        self.queue.push_at(
            fire_at,
            seq,
            Packet {
                src: node,
                dst: node,
                body,
            },
        );
    }

    /// Remove and return the next packet to arrive anywhere, if any.
    pub fn pop(&mut self) -> Option<(VirtualTime, Packet<P>)> {
        self.queue.pop()
    }

    /// Remove the next packet together with its admission sequence number.
    pub fn pop_seq(&mut self) -> Option<(VirtualTime, u64, Packet<P>)> {
        self.queue.pop_seq()
    }

    /// Arrival time of the next pending packet.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.queue.peek_time()
    }

    /// Number of packets in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The nonzero network counters, by name ([`LinkState::stats`]).
    pub fn stats(&self) -> StatSet {
        self.link.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(v: u32) -> AmEnvelope<u32> {
        AmEnvelope::Small(v)
    }

    #[test]
    fn delivery_pays_latency_and_bandwidth() {
        let model = LinkModel {
            latency: VirtualDuration::from_nanos(1_000),
            per_byte: VirtualDuration::from_nanos(10),
            inject_overhead: VirtualDuration::from_nanos(100),
            backpressure_window: VirtualDuration::from_millis(1_000),
        };
        let mut net = SimNetwork::new(2, model);
        net.inject(VirtualTime::ZERO, 0, 1, small(7), 20);
        let (t, p) = net.pop().unwrap();
        // inject 100 + 20*10 bytes = 300 NI time, + 1000 latency
        assert_eq!(t.as_nanos(), 100 + 200 + 1_000);
        assert_eq!(p.dst, 1);
        assert_eq!(p.body, small(7));
    }

    #[test]
    fn per_link_fifo_holds_even_with_size_inversion() {
        // A huge packet followed by a tiny one on the same link: the tiny
        // one must not overtake.
        let model = LinkModel {
            latency: VirtualDuration::from_nanos(1_000),
            per_byte: VirtualDuration::from_nanos(100),
            inject_overhead: VirtualDuration::ZERO,
            backpressure_window: VirtualDuration::from_millis(1_000),
        };
        let mut net = SimNetwork::new(2, model);
        net.inject(VirtualTime::ZERO, 0, 1, small(1), 10_000);
        net.inject(VirtualTime::ZERO, 0, 1, small(2), 1);
        let (t1, p1) = net.pop().unwrap();
        let (t2, p2) = net.pop().unwrap();
        assert_eq!(p1.body, small(1));
        assert_eq!(p2.body, small(2));
        assert!(t1 <= t2, "FIFO violated: {t1:?} > {t2:?}");
    }

    #[test]
    fn injection_serializes_at_the_source() {
        let model = LinkModel {
            latency: VirtualDuration::ZERO,
            per_byte: VirtualDuration::from_nanos(10),
            inject_overhead: VirtualDuration::ZERO,
            backpressure_window: VirtualDuration::from_millis(1_000),
        };
        let mut net = SimNetwork::new(3, model);
        // Two sends to *different* destinations still queue at the NI.
        let free1 = net.inject(VirtualTime::ZERO, 0, 1, small(1), 100);
        let free2 = net.inject(VirtualTime::ZERO, 0, 2, small(2), 100);
        assert_eq!(free1.as_nanos(), 1_000);
        assert_eq!(free2.as_nanos(), 2_000);
    }

    #[test]
    fn different_sources_do_not_interfere() {
        let mut net = SimNetwork::new(3, LinkModel::cm5());
        let f0 = net.inject(VirtualTime::ZERO, 0, 2, small(1), 8);
        let f1 = net.inject(VirtualTime::ZERO, 1, 2, small(2), 8);
        assert_eq!(f0, f1, "independent NIs should be symmetric");
    }

    #[test]
    fn stats_count_packets_and_bytes() {
        let mut net = SimNetwork::new(2, LinkModel::instant());
        net.inject(VirtualTime::ZERO, 0, 1, small(1), 30);
        net.inject(VirtualTime::ZERO, 1, 0, small(2), 12);
        assert_eq!(net.link.counts[NetCounter::Packets as usize], 2);
        assert_eq!(net.link.counts[NetCounter::Bytes as usize], 42);
        assert_eq!(net.in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_checks_node_ids() {
        let mut net = SimNetwork::new(2, LinkModel::instant());
        net.inject(VirtualTime::ZERO, 0, 5, small(1), 1);
    }

    #[test]
    fn drop_fault_loses_packets_but_charges_the_sender() {
        let mut net = SimNetwork::new(2, LinkModel::cm5());
        net.set_fault_plan(&crate::fault::FaultPlan::none().with_drop(1.0), 1);
        let free = net.inject(VirtualTime::ZERO, 0, 1, small(1), 8);
        assert!(free > VirtualTime::ZERO, "NI time still spent");
        assert_eq!(net.in_flight(), 0, "the packet was lost");
        assert_eq!(net.link.counts[NetCounter::FaultDropped as usize], 1);
    }

    #[test]
    fn duplicate_fault_copies_only_reliable_packets() {
        let plan = crate::fault::FaultPlan::none().with_duplicate(1.0);
        let mut net = SimNetwork::new(2, LinkModel::cm5());
        net.set_fault_plan(&plan, 1);
        // An opaque Small payload cannot be copied: only the original
        // is enqueued…
        net.inject(VirtualTime::ZERO, 0, 1, small(1), 8);
        assert_eq!(net.in_flight(), 1);
        // …but a Rel packet can.
        let rel = AmEnvelope::Rel {
            seq: 1,
            body: crate::packet::RelPayload::new(small(2)),
            bytes: 8,
        };
        net.inject(VirtualTime::ZERO, 0, 1, rel, 16);
        assert_eq!(net.in_flight(), 3, "original + duplicate");
        assert_eq!(net.link.counts[NetCounter::FaultDuplicated as usize], 2);
    }

    #[test]
    fn reorder_fault_lets_later_packets_overtake() {
        let model = LinkModel {
            latency: VirtualDuration::from_nanos(1_000),
            per_byte: VirtualDuration::from_nanos(100),
            inject_overhead: VirtualDuration::ZERO,
            backpressure_window: VirtualDuration::from_millis(1_000),
        };
        let mut plan = crate::fault::FaultPlan::none().with_reorder(1.0);
        plan.reorder_window = VirtualDuration::from_nanos(1_000_000);
        let mut net = SimNetwork::new(2, model);
        net.set_fault_plan(&plan, 3);
        // Without faults the FIFO clamp forces arrival order 1 then 2
        // (see per_link_fifo_holds_even_with_size_inversion); with
        // every packet reordered by a random extra delay, overtaking
        // becomes possible — assert both are still delivered.
        net.inject(VirtualTime::ZERO, 0, 1, small(1), 10_000);
        net.inject(VirtualTime::ZERO, 0, 1, small(2), 1);
        assert_eq!(net.in_flight(), 2);
        assert_eq!(net.link.counts[NetCounter::FaultReordered as usize], 2);
    }

    #[test]
    fn fault_decisions_replay_identically() {
        let plan = crate::fault::FaultPlan::chaos(0.4);
        let run = || {
            let mut net = SimNetwork::new(4, LinkModel::cm5());
            net.set_fault_plan(&plan, 99);
            for i in 0..50u64 {
                let rel = AmEnvelope::Rel {
                    seq: i,
                    body: crate::packet::RelPayload::new(small(i as u32)),
                    bytes: 8,
                };
                net.inject(
                    VirtualTime::from_nanos(i * 700),
                    (i % 4) as NodeId,
                    ((i + 1) % 4) as NodeId,
                    rel,
                    24,
                );
            }
            let mut order = Vec::new();
            while let Some((t, seq, p)) = net.pop_seq() {
                order.push((t, seq, p.src, p.dst));
            }
            order
        };
        assert_eq!(run(), run(), "same seed, same admissions, same fates");
    }

    #[test]
    fn scheduled_timers_bypass_admission() {
        let mut net = SimNetwork::new(2, LinkModel::cm5());
        net.schedule(VirtualTime::from_nanos(500), 1, AmEnvelope::<u32>::RetxTimer { peer: 0 });
        assert_eq!(net.link.counts[NetCounter::Packets as usize], 0, "no admission stats");
        let (t, p) = net.pop().unwrap();
        assert_eq!(t.as_nanos(), 500);
        assert_eq!(p.src, 1);
        assert_eq!(p.dst, 1);
        assert_eq!(p.body, AmEnvelope::RetxTimer { peer: 0 });
    }
}
