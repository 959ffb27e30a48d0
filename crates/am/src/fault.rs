//! Deterministic fault injection for the simulated network.
//!
//! The paper's delivery algorithm (§4.3, Fig. 3) is argued to survive
//! migration races, but the simulator's links are perfect: nothing is
//! ever dropped, duplicated, or reordered, so robustness is asserted
//! rather than demonstrated. A [`FaultPlan`] turns the perfect fabric
//! into a hostile one — per-link drop/duplicate/reorder probabilities,
//! timed link outages, and node pause windows — while keeping every run
//! **reproducible from the master seed**:
//!
//! * fault decisions are made inside [`crate::LinkState::admit`], the
//!   single point every injection passes through, in the simulator's
//!   one execution order;
//! * the fault RNG is a dedicated [`Pcg32`] stream derived from the
//!   machine seed, and every admission consumes a **fixed number of
//!   draws** regardless of outcome, so the stream position is a pure
//!   function of the admission sequence;
//! * timed faults (outages, pauses) are pure functions of virtual time.
//!
//! The plan carries the reliable layer's retransmit timeout bounds too,
//! so one value configures the whole chaos subsystem through
//! `MachineConfig`. Under link faults every kernel packet travels under
//! that layer ([`crate::reliable`]), the one thing that recovers a lost
//! packet.

use crate::packet::NodeId;
use hal_des::{Pcg32, VirtualDuration, VirtualTime};

/// A scheduled window during which every packet admitted on one
/// directed link is lost (a timed one-shot fault).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkOutage {
    /// Sending side of the dead link.
    pub src: NodeId,
    /// Receiving side of the dead link.
    pub dst: NodeId,
    /// Start of the outage (inclusive, injection time).
    pub from: VirtualTime,
    /// End of the outage (exclusive).
    pub until: VirtualTime,
}

/// A scheduled window during which one node freezes: packet handling
/// and dispatcher steps that would begin inside the window slip to its
/// end (the node "pauses", then "resumes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePause {
    /// The paused node.
    pub node: NodeId,
    /// Start of the pause (inclusive).
    pub from: VirtualTime,
    /// End of the pause (exclusive).
    pub until: VirtualTime,
}

/// The full fault-injection + reliable-delivery configuration.
///
/// The default plan is *no faults*: [`FaultPlan::enabled`] returns
/// `false` and the simulator's behavior (costs, stats, reports) is
/// byte-identical to a build without the chaos subsystem.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that an admitted packet is lost in the
    /// fabric (sender-side costs are still paid).
    pub drop: f64,
    /// Probability in `[0, 1]` that the fabric delivers a second copy
    /// of an admitted packet, after an extra random delay. Only
    /// reliable-layer packets can be copied ([`crate::AmEnvelope::try_clone`]);
    /// any other envelope is delivered once.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that an admitted packet skips the
    /// per-link FIFO clamp and takes an extra random delay, letting
    /// later packets overtake it.
    pub reorder: f64,
    /// Upper bound of the extra delay a duplicated or reordered packet
    /// suffers (drawn uniformly from `[0, reorder_window)`).
    pub reorder_window: VirtualDuration,
    /// Timed windows during which one directed link drops everything.
    pub link_outages: Vec<LinkOutage>,
    /// Timed windows during which one node freezes.
    pub node_pauses: Vec<NodePause>,
    /// Retransmit timeout before a link's first round-trip sample, and
    /// the floor of the measured one (`SRTT + 4·RTTVAR`): an unacked
    /// reliable packet is re-sent once it has been out this long and
    /// the link has made no progress for as long.
    pub rto: VirtualDuration,
    /// Cap on the retransmit timeout, measured or doubled by timeouts.
    pub rto_max: VirtualDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: VirtualDuration::from_nanos(20_000),
            link_outages: Vec::new(),
            node_pauses: Vec::new(),
            rto: VirtualDuration::from_nanos(100_000),
            rto_max: VirtualDuration::from_nanos(3_200_000),
        }
    }
}

impl FaultPlan {
    /// The no-fault plan (same as [`FaultPlan::default`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan dropping, duplicating and reordering packets at `rate`
    /// (duplication at half `rate`) — the standard chaos mix used by
    /// the `chaos_delivery` bench.
    pub fn chaos(rate: f64) -> Self {
        FaultPlan {
            drop: rate,
            duplicate: rate / 2.0,
            reorder: rate,
            ..Self::default()
        }
    }

    /// Set the drop probability (builder style).
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the duplicate probability (builder style).
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the reorder probability (builder style).
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Add a timed link outage (builder style).
    pub fn with_outage(mut self, outage: LinkOutage) -> Self {
        self.link_outages.push(outage);
        self
    }

    /// Add a timed node pause (builder style).
    pub fn with_pause(mut self, pause: NodePause) -> Self {
        self.node_pauses.push(pause);
        self
    }

    /// True when any fault is configured — the chaos subsystem (fault
    /// decisions, pause windows, and reliable delivery under link
    /// faults) engages only then,
    /// so a fault-free run is byte-identical to one without the
    /// subsystem.
    pub fn enabled(&self) -> bool {
        self.link_faults() || !self.node_pauses.is_empty()
    }

    /// True when link-level faults are configured (the part that lives
    /// inside [`crate::LinkState::admit`]).
    pub fn link_faults(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0 || !self.link_outages.is_empty()
    }

    /// Pause windows for one node, sorted by start time (the kernel
    /// applies them in order, so cascading windows compose).
    pub fn pauses_for(&self, node: NodeId) -> Vec<(VirtualTime, VirtualTime)> {
        let mut v: Vec<(VirtualTime, VirtualTime)> = self
            .node_pauses
            .iter()
            .filter(|p| p.node == node)
            .map(|p| (p.from, p.until))
            .collect();
        v.sort_unstable();
        v
    }
}

/// What the fault layer decided for one admitted packet.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RawFate {
    /// Deliver normally.
    Deliver,
    /// Lose the packet in the fabric.
    Drop,
    /// Deliver, plus a second copy delayed by the given extra time.
    Dup(VirtualDuration),
    /// Deliver late (skip the FIFO clamp, add the given extra delay).
    Delay(VirtualDuration),
}

/// Per-[`crate::LinkState`] fault machinery: the plan plus its dedicated
/// RNG stream.
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: Pcg32,
}

/// Stream selector for the fault RNG — keeps fault draws disjoint from
/// every other consumer of the machine seed.
const FAULT_STREAM: u64 = 0xFA17;

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultState {
            plan,
            rng: Pcg32::new(seed, FAULT_STREAM),
        }
    }

    /// Decide the fate of one admission. Consumes exactly four RNG
    /// draws on every call, so the stream position depends only on the
    /// admission sequence.
    pub(crate) fn decide(&mut self, now: VirtualTime, src: NodeId, dst: NodeId) -> RawFate {
        let r_drop = self.rng.next_f64();
        let r_dup = self.rng.next_f64();
        let r_reorder = self.rng.next_f64();
        let r_extra = self.rng.next_f64();
        for o in &self.plan.link_outages {
            if o.src == src && o.dst == dst && now >= o.from && now < o.until {
                return RawFate::Drop;
            }
        }
        let extra = VirtualDuration::from_nanos(
            (self.plan.reorder_window.as_nanos() as f64 * r_extra) as u64,
        );
        if r_drop < self.plan.drop {
            RawFate::Drop
        } else if r_dup < self.plan.duplicate {
            RawFate::Dup(extra)
        } else if r_reorder < self.plan.reorder {
            RawFate::Delay(extra)
        } else {
            RawFate::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled() {
        let p = FaultPlan::default();
        assert!(!p.enabled());
        assert!(!p.link_faults());
    }

    #[test]
    fn chaos_plan_is_enabled() {
        assert!(FaultPlan::chaos(0.1).enabled());
        assert!(FaultPlan::none().with_drop(0.2).link_faults());
        assert!(
            FaultPlan::none()
                .with_pause(NodePause {
                    node: 1,
                    from: VirtualTime::ZERO,
                    until: VirtualTime::from_nanos(10),
                })
                .enabled()
        );
    }

    #[test]
    fn decide_is_deterministic_per_seed() {
        let plan = FaultPlan::chaos(0.3);
        let mut a = FaultState::new(plan.clone(), 42);
        let mut b = FaultState::new(plan, 42);
        for i in 0..100u64 {
            let t = VirtualTime::from_nanos(i * 17);
            let fa = format!("{:?}", a.decide(t, 0, 1));
            let fb = format!("{:?}", b.decide(t, 0, 1));
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn outage_drops_regardless_of_probabilities() {
        let plan = FaultPlan::none().with_outage(LinkOutage {
            src: 0,
            dst: 1,
            from: VirtualTime::from_nanos(100),
            until: VirtualTime::from_nanos(200),
        });
        let mut f = FaultState::new(plan, 7);
        assert!(matches!(
            f.decide(VirtualTime::from_nanos(150), 0, 1),
            RawFate::Drop
        ));
        assert!(matches!(
            f.decide(VirtualTime::from_nanos(150), 1, 0),
            RawFate::Deliver
        ));
        assert!(matches!(
            f.decide(VirtualTime::from_nanos(200), 0, 1),
            RawFate::Deliver
        ));
    }

    #[test]
    fn pauses_for_filters_and_sorts() {
        let plan = FaultPlan::none()
            .with_pause(NodePause {
                node: 2,
                from: VirtualTime::from_nanos(500),
                until: VirtualTime::from_nanos(600),
            })
            .with_pause(NodePause {
                node: 2,
                from: VirtualTime::from_nanos(100),
                until: VirtualTime::from_nanos(200),
            })
            .with_pause(NodePause {
                node: 3,
                from: VirtualTime::ZERO,
                until: VirtualTime::from_nanos(50),
            });
        let w = plan.pauses_for(2);
        assert_eq!(w.len(), 2);
        assert!(w[0].0 < w[1].0);
        assert!(plan.pauses_for(0).is_empty());
    }
}
