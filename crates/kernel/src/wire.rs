//! Kernel-level wire messages — everything node managers say to each
//! other.
//!
//! Each variant corresponds to a handler the kernel registers with the
//! active-message layer (§3: requests to a node manager "are delivered in
//! the form of a message: upon receiving a request, it steals the
//! processor from the actor that is currently executing, processes the
//! request using that actor's stack frame and subsequently resumes the
//! actor's execution").

use crate::actor::Behavior;
use crate::addr::{AddrKey, BehaviorId, DescriptorId, GroupId, JcId};
use crate::message::{Msg, Target, Value};
use hal_am::NodeId;

/// A migrating actor's transferable image: behavior plus queues and
/// identity. Moves by value between kernels — nodes never share memory.
pub struct ActorImage {
    /// The behavior object (moved, not copied — the actor exists exactly
    /// once at any time).
    pub behavior: Box<dyn Behavior>,
    /// Unprocessed mail queue, carried along (§4.3 delivers in-flight
    /// messages via FIR instead, but messages already queued at the old
    /// node travel with the actor).
    pub mailq: Vec<Msg>,
    /// Pending (constraint-disabled) messages.
    pub pendq: Vec<Msg>,
    /// All keys naming this actor (ordinary address + alias).
    pub keys: Vec<AddrKey>,
    /// Group membership, if any.
    pub group: Option<(GroupId, u32)>,
    /// Migration hop count *after* this move (the location epoch of the
    /// arrival).
    pub hops: u32,
}

impl ActorImage {
    /// Approximate wire size: behaviors serialize to a few hundred bytes
    /// of state in practice; queued messages dominate. We charge a fixed
    /// behavior-image size plus the exact message sizes — enough for the
    /// cost model to route migrations through the bulk path.
    pub fn wire_bytes(&self) -> usize {
        const BEHAVIOR_IMAGE: usize = 256;
        BEHAVIOR_IMAGE
            + self.mailq.iter().map(Msg::wire_bytes).sum::<usize>()
            + self.pendq.iter().map(Msg::wire_bytes).sum::<usize>()
            + self.keys.len() * 16
    }
}

/// Kernel wire protocol.
pub enum KMsg {
    /// Deliver an actor message (Fig. 3 generic send).
    Deliver {
        /// Addressed target (mail address key or group member).
        target: Target,
        /// The message.
        msg: Msg,
    },
    /// Location caching: "actor `key` has descriptor `index` on `node`"
    /// (§4.1's reply of the locality descriptor's memory address, and
    /// §4.3's birthplace/old-node updates after migration).
    NameInfo {
        /// The actor's key.
        key: AddrKey,
        /// Node the actor currently lives on.
        node: NodeId,
        /// Descriptor index on that node.
        index: DescriptorId,
        /// Location epoch of this information (migration hop count).
        epoch: u32,
    },
    /// Remote creation request (§5): the requester already continues,
    /// holding the alias.
    Create {
        /// Alias minted on the requesting node.
        alias: AddrKey,
        /// Behavior template to instantiate.
        behavior: BehaviorId,
        /// Constructor arguments.
        init: Vec<Value>,
        /// Requesting node (for the NameInfo cache reply).
        requester: NodeId,
        /// Lifecycle span of this creation (diagnostic only, like
        /// [`crate::trace::TraceTag`]: excluded from `wire_bytes`).
        span: u64,
    },
    /// Forwarding-information request (§4.3). The asker is the packet's
    /// source; each relay records it for the reply path.
    Fir {
        /// The actor being located.
        key: AddrKey,
        /// The chase episode's span, shared by every hop (diagnostic
        /// only: excluded from `wire_bytes`).
        span: u64,
    },
    /// FIR reply propagating back along the forward chain.
    FirFound {
        /// The actor.
        key: AddrKey,
        /// Where it actually lives.
        node: NodeId,
        /// Its descriptor index there.
        index: DescriptorId,
        /// Location epoch of this information.
        epoch: u32,
    },
    /// A reply filling one join-continuation slot (§6.2).
    Reply {
        /// Continuation on the destination node.
        jc: JcId,
        /// Slot to fill.
        slot: u16,
        /// The reply value.
        value: Value,
        /// Span of the replying message's handler, adopted by sends the
        /// fired continuation issues (diagnostic only: excluded from
        /// `wire_bytes`).
        span: u64,
    },
    /// An actor arriving by migration (or by work stealing).
    MigrateArrive {
        /// The actor image.
        image: ActorImage,
        /// The node it left (gets a NameInfo so its forward pointer
        /// becomes a one-hop guess).
        from: NodeId,
        /// True when this migration answers a steal poll (§7.2): the
        /// thief clears its outstanding-poll state on arrival.
        stolen: bool,
    },
    /// Idle node asking a random victim for work (§7.2).
    StealRequest {
        /// The idle (requesting) node.
        thief: NodeId,
    },
    /// Victim's empty-handed answer (work, when found, arrives as
    /// [`KMsg::MigrateArrive`]).
    StealNone,
    /// `grpnew` fan-out along the node spanning tree (§2.2).
    GrpCreate {
        /// The group being created (member count is inside the id).
        group: GroupId,
        /// Behavior template for every member.
        behavior: BehaviorId,
        /// Shared constructor arguments (each member also receives its
        /// index and the member count, appended by the kernel).
        init: Vec<Value>,
        /// Root of this fan-out tree.
        root: NodeId,
    },
    /// Broadcast to a group, relayed along the spanning tree (§6.4).
    GrpBcast {
        /// The group.
        group: GroupId,
        /// Message delivered to every member.
        msg: Msg,
        /// Root of this fan-out tree.
        root: NodeId,
    },
    /// Garbage collection (§9 future work): begin a collection —
    /// compute roots, trace locally, report to the coordinator.
    GcBegin {
        /// Coordinating node (collector of reports).
        coordinator: NodeId,
        /// Spanning-tree root of this relay (== coordinator).
        root: NodeId,
    },
    /// Start the next synchronous mark round.
    GcRoundGo {
        /// Spanning-tree root of this relay.
        root: NodeId,
    },
    /// Remote reachability: "these actors are reachable" (batched keys).
    GcMark {
        /// Keys owned (believed owned) by the destination node.
        keys: Vec<AddrKey>,
    },
    /// A node's end-of-round report to the coordinator.
    GcRoundDone {
        /// New marks plus forwarded keys this round (0 = quiesced).
        activity: u64,
        /// `GcMark` keys this node has sent, over every collection.
        marks_sent: u64,
        /// `GcMark` keys this node has received, over every collection.
        marks_received: u64,
    },
    /// Sweep command: free everything unmarked.
    GcSweepCmd {
        /// Spanning-tree root of this relay.
        root: NodeId,
    },
    /// A node's sweep report.
    GcSwept {
        /// Actors freed on the node.
        freed: u64,
        /// Actors still live on the node.
        live: u64,
    },
    /// Stop the machine (how a live machine shuts down; also honored by
    /// the simulator).
    Halt,
}

impl KMsg {
    /// Wire size for the cost model and the small/bulk split.
    pub fn wire_bytes(&self) -> usize {
        const KEY: usize = 16;
        match self {
            KMsg::Deliver { msg, .. } => KEY + 8 + msg.wire_bytes(),
            KMsg::NameInfo { .. } => KEY + 8,
            KMsg::Create { init, .. } => {
                KEY + 8 + init.iter().map(Value::wire_bytes).sum::<usize>()
            }
            KMsg::Fir { .. } => KEY,
            KMsg::FirFound { .. } => KEY + 8,
            KMsg::Reply { value, .. } => 8 + value.wire_bytes(),
            KMsg::MigrateArrive { image, .. } => image.wire_bytes(),
            KMsg::StealRequest { .. } | KMsg::StealNone | KMsg::Halt => 4,
            KMsg::GrpCreate { init, .. } => {
                KEY + 8 + init.iter().map(Value::wire_bytes).sum::<usize>()
            }
            KMsg::GrpBcast { msg, .. } => KEY + msg.wire_bytes(),
            KMsg::GcBegin { .. } | KMsg::GcRoundGo { .. } | KMsg::GcSweepCmd { .. } => 8,
            KMsg::GcMark { keys } => 4 + keys.len() * 16,
            KMsg::GcRoundDone { .. } => 4 + 3 * 8,
            KMsg::GcSwept { .. } => 12,
        }
    }
}

impl std::fmt::Debug for KMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KMsg::Deliver { target, msg } => {
                write!(f, "Deliver({target:?}, sel={})", msg.selector)
            }
            KMsg::NameInfo { key, node, .. } => write!(f, "NameInfo({key:?} on {node})"),
            KMsg::Create { alias, .. } => write!(f, "Create(alias {alias:?})"),
            KMsg::Fir { key, .. } => write!(f, "Fir({key:?})"),
            KMsg::FirFound { key, node, .. } => write!(f, "FirFound({key:?} on {node})"),
            KMsg::Reply { jc, slot, .. } => write!(f, "Reply(jc{} slot{slot})", jc.0),
            KMsg::MigrateArrive { from, stolen, .. } => {
                write!(f, "MigrateArrive(from {from}, stolen={stolen})")
            }
            KMsg::StealRequest { thief } => write!(f, "StealRequest({thief})"),
            KMsg::StealNone => write!(f, "StealNone"),
            KMsg::GrpCreate { group, .. } => write!(f, "GrpCreate({group:?})"),
            KMsg::GrpBcast { group, .. } => write!(f, "GrpBcast({group:?})"),
            KMsg::Halt => write!(f, "Halt"),
            KMsg::GcBegin { coordinator, .. } => write!(f, "GcBegin(coord {coordinator})"),
            KMsg::GcRoundGo { .. } => write!(f, "GcRoundGo"),
            KMsg::GcMark { keys } => write!(f, "GcMark({} keys)", keys.len()),
            KMsg::GcRoundDone {
                activity,
                marks_sent,
                marks_received,
            } => write!(f, "GcRoundDone({activity}, marks {marks_sent}/{marks_received})"),
            KMsg::GcSweepCmd { .. } => write!(f, "GcSweepCmd"),
            KMsg::GcSwept { freed, live } => write!(f, "GcSwept(freed {freed}, live {live})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Msg;

    struct Nop;
    impl Behavior for Nop {
        fn dispatch(&mut self, _ctx: &mut crate::kernel::Ctx<'_>, _msg: Msg) {}
    }

    #[test]
    fn control_messages_are_small() {
        assert!(KMsg::StealNone.wire_bytes() <= hal_am::MAX_SMALL_BYTES);
        assert!(KMsg::Halt.wire_bytes() <= hal_am::MAX_SMALL_BYTES);
        assert!(
            KMsg::Fir {
                key: AddrKey {
                    birthplace: 0,
                    index: DescriptorId(0)
                },
                span: 0
            }
            .wire_bytes()
                <= hal_am::MAX_SMALL_BYTES
        );
    }

    #[test]
    fn migration_image_is_bulk_sized() {
        let image = ActorImage {
            behavior: Box::new(Nop),
            mailq: vec![],
            pendq: vec![],
            keys: vec![],
            group: None,
            hops: 1,
        };
        let k = KMsg::MigrateArrive { image, from: 0, stolen: false };
        assert!(k.wire_bytes() > hal_am::MAX_SMALL_BYTES);
    }

    #[test]
    fn deliver_size_scales_with_payload() {
        let small = KMsg::Deliver {
            target: Target::Member { group: GroupId::new(0, 0, 1, crate::addr::Mapping::Block), index: 0 },
            msg: Msg::new(0, vec![]),
        };
        let big = KMsg::Deliver {
            target: Target::Member { group: GroupId::new(0, 0, 1, crate::addr::Mapping::Block), index: 0 },
            msg: Msg::new(0, vec![Value::Bytes(hal_am::Bytes::from(vec![0u8; 1024]))]),
        };
        assert!(big.wire_bytes() > small.wire_bytes() + 1000);
    }
}
