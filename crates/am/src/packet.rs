//! Wire-level packet types for the active-message layer.
//!
//! CMAM (the CM-5 active-message layer the paper builds on) distinguishes
//! *small* active messages — a handler plus a few words, injected directly
//! into the network with no receiver-side buffering — from *bulk* data
//! transfers, which require a three-phase protocol precisely because
//! active messages are unbuffered (paper §6.5). We keep that distinction:
//! the AM layer is generic over the kernel's payload type `P`, but wraps
//! it in an [`AmEnvelope`] that makes the small/bulk split and the
//! three-phase protocol explicit.

use core::fmt;
use std::sync::{Arc, Mutex};

/// Identifier of a node (processing element) in the partition.
///
/// The CM-5 scales to 16 K processors; `u16` covers that exactly.
pub type NodeId = u16;

/// Maximum payload size (bytes) that may travel as a *small* active
/// message. Larger payloads must use the three-phase bulk protocol.
///
/// CMAM small messages carry a handler word plus four argument words; we
/// allow a somewhat larger eager limit (one cache line of arguments) since
/// our envelope also carries kernel headers, but the principle — bulk data
/// cannot be eagerly injected — is preserved and enforced.
pub const MAX_SMALL_BYTES: usize = 64;

/// A transfer tag correlating the three phases of one bulk transfer.
pub type BulkTag = u64;

/// Extra wire bytes a reliable-delivery header costs (sequence number).
pub const REL_HEADER: usize = 8;

/// The payload of a reliable-delivery packet: a *claim ticket* shared
/// between the sender's retransmit buffer and every in-flight copy.
///
/// Kernel payloads are not `Clone` (a migrating actor's behavior moves
/// by value), so retransmission cannot copy the envelope. Instead all
/// copies of one sequence number share ownership of the single inner
/// envelope; the receiver's accept path [`RelPayload::take`]s it
/// exactly once — per-link sequence-number dedup guarantees at most one
/// accept, and every other copy is suppressed *before* claiming.
pub struct RelPayload<P>(Arc<Mutex<Option<AmEnvelope<P>>>>);

impl<P> RelPayload<P> {
    /// Wrap one envelope in a fresh claim ticket.
    pub fn new(env: AmEnvelope<P>) -> Self {
        RelPayload(Arc::new(Mutex::new(Some(env))))
    }

    /// Claim the inner envelope. Returns `None` if another copy of this
    /// sequence number was already accepted (the dedup layer should
    /// have suppressed this copy first, so a well-formed receiver never
    /// sees `None`).
    pub fn take(&self) -> Option<AmEnvelope<P>> {
        self.0.lock().expect("reliable payload lock poisoned").take()
    }

    /// True when both tickets refer to the same inner envelope.
    pub fn same_as(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<P> Clone for RelPayload<P> {
    fn clone(&self) -> Self {
        RelPayload(Arc::clone(&self.0))
    }
}

impl<P> fmt::Debug for RelPayload<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never block a debug print on the payload lock.
        match self.0.try_lock() {
            Ok(inner) if inner.is_some() => write!(f, "RelPayload(pending)"),
            Ok(_) => write!(f, "RelPayload(claimed)"),
            Err(_) => write!(f, "RelPayload(locked)"),
        }
    }
}

impl<P> PartialEq for RelPayload<P> {
    fn eq(&self, other: &Self) -> bool {
        self.same_as(other)
    }
}

impl<P> Eq for RelPayload<P> {}

/// The envelope every network packet travels in.
///
/// `P` is the kernel-level payload (actor messages, creation requests,
/// FIR messages, …). The AM layer does not interpret `P`; it only needs
/// its wire size to run the cost model and to police the small/bulk split.
#[derive(Debug, Clone)]
pub enum AmEnvelope<P> {
    /// A small active message: delivered directly to the destination
    /// node's handler loop.
    Small(P),
    /// Phase 1 of a bulk transfer: the sender announces `bytes` of data
    /// identified by `tag` and waits for an ack (paper §6.5).
    BulkRequest {
        /// Correlation tag chosen by the sender.
        tag: BulkTag,
        /// Size of the data to follow.
        bytes: usize,
    },
    /// Phase 2: the receiver's node manager grants the transfer. Flow
    /// control lives here — only one grant is outstanding per receiver.
    BulkAck {
        /// Correlation tag from the matching request.
        tag: BulkTag,
    },
    /// Phase 3: the actual data.
    BulkData {
        /// Correlation tag from the matching request.
        tag: BulkTag,
        /// The kernel payload being transferred.
        body: P,
        /// Wire size of `body` (recorded at request time so the cost
        /// model charges the same size in both phases).
        bytes: usize,
    },
    /// A reliable-delivery data packet (chaos mode): one inner envelope
    /// under a per-link sequence number. The receiver dedups/reorders
    /// by `seq` and acknowledges cumulatively with [`AmEnvelope::RelAck`].
    Rel {
        /// Per-(src,dst) sequence number, starting at 1.
        seq: u64,
        /// The wrapped envelope (shared claim ticket — see
        /// [`RelPayload`]).
        body: RelPayload<P>,
        /// Wire size of the *inner* envelope (recorded at wrap time so
        /// retransmitted copies charge the same cost).
        bytes: usize,
    },
    /// Cumulative acknowledgment for reliable delivery: every packet
    /// with `seq <= cum` on this link has been accepted. Acks travel
    /// unreliably — they are idempotent and reorder-safe.
    RelAck {
        /// Highest consecutively accepted sequence number.
        cum: u64,
    },
    /// The reliable layer's retransmit timer for the link toward
    /// `peer`, self-addressed: scheduled directly into the event queue,
    /// never admitted through the link model — a timer consumes no
    /// network resources and cannot itself be dropped or reordered.
    RetxTimer {
        /// The peer whose unacked packets the timer inspects.
        peer: NodeId,
    },
}

impl<P> AmEnvelope<P> {
    /// Approximate wire size of this envelope, given the payload's size.
    ///
    /// Control packets (request/ack) are a fixed small size; data packets
    /// are header + body.
    pub fn wire_bytes(&self, payload_bytes: impl Fn(&P) -> usize) -> usize {
        const HEADER: usize = 16; // dst/handler/len words, as on CMAM
        match self {
            AmEnvelope::Small(p) => HEADER + payload_bytes(p),
            AmEnvelope::BulkRequest { .. } | AmEnvelope::BulkAck { .. } => HEADER,
            AmEnvelope::BulkData { bytes, .. } => HEADER + bytes,
            // `bytes` already includes the inner envelope's header.
            AmEnvelope::Rel { bytes, .. } => bytes + REL_HEADER,
            AmEnvelope::RelAck { .. } => HEADER + REL_HEADER,
            AmEnvelope::RetxTimer { .. } => 0,
        }
    }

    /// Clone this envelope if it is clonable without `P: Clone` — true
    /// for the reliable-delivery variants (their payload is a shared
    /// claim ticket). The fault layer uses this to materialize
    /// duplicate copies: opaque kernel payloads cannot be duplicated,
    /// which is fine because under link faults every packet the kernel
    /// injects travels as `Rel`/`RelAck`.
    pub fn try_clone(&self) -> Option<AmEnvelope<P>> {
        match self {
            AmEnvelope::Rel { seq, body, bytes } => Some(AmEnvelope::Rel {
                seq: *seq,
                body: body.clone(),
                bytes: *bytes,
            }),
            AmEnvelope::RelAck { cum } => Some(AmEnvelope::RelAck { cum: *cum }),
            _ => None,
        }
    }
}

impl<P: PartialEq> PartialEq for AmEnvelope<P> {
    fn eq(&self, other: &Self) -> bool {
        use AmEnvelope::*;
        match (self, other) {
            (Small(a), Small(b)) => a == b,
            (
                BulkRequest { tag: ta, bytes: ba },
                BulkRequest { tag: tb, bytes: bb },
            ) => ta == tb && ba == bb,
            (BulkAck { tag: ta }, BulkAck { tag: tb }) => ta == tb,
            (
                BulkData { tag: ta, body: pa, bytes: ba },
                BulkData { tag: tb, body: pb, bytes: bb },
            ) => ta == tb && ba == bb && pa == pb,
            (
                Rel { seq: sa, body: pa, bytes: ba },
                Rel { seq: sb, body: pb, bytes: bb },
            ) => sa == sb && ba == bb && pa.same_as(pb),
            (RelAck { cum: ca }, RelAck { cum: cb }) => ca == cb,
            (RetxTimer { peer: a }, RetxTimer { peer: b }) => a == b,
            _ => false,
        }
    }
}

impl<P: Eq> Eq for AmEnvelope<P> {}

/// A packet in flight: source, destination, and envelope.
#[derive(Clone)]
pub struct Packet<P> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The envelope.
    pub body: AmEnvelope<P>,
}

impl<P: fmt::Debug> fmt::Debug for Packet<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet[{} -> {}: {:?}]", self.src, self.dst, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_accounts_for_header() {
        let small: AmEnvelope<Vec<u8>> = AmEnvelope::Small(vec![0u8; 10]);
        assert_eq!(small.wire_bytes(|p| p.len()), 26);
        let req: AmEnvelope<Vec<u8>> = AmEnvelope::BulkRequest { tag: 1, bytes: 4096 };
        assert_eq!(req.wire_bytes(|p| p.len()), 16);
        let ack: AmEnvelope<Vec<u8>> = AmEnvelope::BulkAck { tag: 1 };
        assert_eq!(ack.wire_bytes(|p| p.len()), 16);
        let data: AmEnvelope<Vec<u8>> = AmEnvelope::BulkData {
            tag: 1,
            body: vec![0u8; 4096],
            bytes: 4096,
        };
        assert_eq!(data.wire_bytes(|p| p.len()), 16 + 4096);
    }

    #[test]
    fn rel_payload_is_claimed_exactly_once() {
        let p = RelPayload::new(AmEnvelope::Small(9u32));
        let copy = p.clone();
        assert!(p.same_as(&copy));
        assert_eq!(p.take(), Some(AmEnvelope::Small(9)));
        assert_eq!(copy.take(), None, "second claim sees the ticket spent");
    }

    #[test]
    fn only_reliable_envelopes_are_fault_clonable() {
        // `String` is Clone, but try_clone must still refuse opaque
        // payload variants — the contract is about *which variants* the
        // fault layer may copy, not about `P`.
        let small: AmEnvelope<String> = AmEnvelope::Small("x".into());
        assert!(small.try_clone().is_none());
        let rel: AmEnvelope<String> = AmEnvelope::Rel {
            seq: 3,
            body: RelPayload::new(AmEnvelope::Small("x".into())),
            bytes: 17,
        };
        let copy = rel.try_clone().expect("rel packets are duplicable");
        assert_eq!(rel, copy, "copies share the claim ticket");
        let ack: AmEnvelope<String> = AmEnvelope::RelAck { cum: 5 };
        assert_eq!(ack.try_clone(), Some(ack));
    }

    #[test]
    fn rel_wire_size_charges_inner_plus_header() {
        let rel: AmEnvelope<Vec<u8>> = AmEnvelope::Rel {
            seq: 1,
            body: RelPayload::new(AmEnvelope::Small(vec![0u8; 10])),
            bytes: 26,
        };
        assert_eq!(rel.wire_bytes(|p| p.len()), 26 + REL_HEADER);
        let ack: AmEnvelope<Vec<u8>> = AmEnvelope::RelAck { cum: 1 };
        assert_eq!(ack.wire_bytes(|p| p.len()), 16 + REL_HEADER);
        let timer: AmEnvelope<Vec<u8>> = AmEnvelope::RetxTimer { peer: 0 };
        assert_eq!(timer.wire_bytes(|p| p.len()), 0);
    }

    #[test]
    fn packet_debug_is_readable() {
        let p = Packet {
            src: 1,
            dst: 2,
            body: AmEnvelope::Small(7u32),
        };
        assert_eq!(format!("{p:?}"), "Packet[1 -> 2: Small(7)]");
    }
}
