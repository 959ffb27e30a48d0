//! Sender-side state machine for the three-phase bulk protocol (§6.5).
//!
//! Active messages are not buffered at the receiver, so bulk data cannot
//! be injected eagerly: the sender first announces the transfer with a
//! `BulkRequest`, waits for the receiver's `BulkAck` (issued under
//! [`crate::flow::FlowControl`]), and only then transmits the `BulkData`
//! packet. [`BulkSender`] parks the payload between phases 1 and 3.

use crate::packet::{AmEnvelope, BulkTag, NodeId};
use hal_des::Map;

/// A parked outbound transfer awaiting its grant.
#[derive(Debug)]
struct Parked<P> {
    dst: NodeId,
    body: P,
    bytes: usize,
}

/// Sender-side bookkeeping for in-progress bulk transfers.
#[derive(Debug)]
pub struct BulkSender<P> {
    parked: Map<BulkTag, Parked<P>>,
    next_tag: BulkTag,
}

impl<P> BulkSender<P> {
    /// Fresh sender. `node` seeds the tag space so tags are globally
    /// unique (useful in traces; correctness only needs per-sender
    /// uniqueness since receivers match on `(src, tag)`).
    pub fn new(node: NodeId) -> Self {
        BulkSender {
            parked: Map::default(),
            next_tag: (node as u64) << 48,
        }
    }

    /// Begin a transfer of `body` (`bytes` on the wire) to `dst`.
    ///
    /// Parks the payload and returns `(tag, request_envelope)`; the caller
    /// injects the request envelope to `dst`.
    pub fn begin(&mut self, dst: NodeId, body: P, bytes: usize) -> (BulkTag, AmEnvelope<P>) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.parked.insert(tag, Parked { dst, body, bytes });
        (tag, AmEnvelope::BulkRequest { tag, bytes })
    }

    /// A `BulkAck` for `tag` arrived: un-park the payload and return the
    /// destination plus the data envelope to inject.
    ///
    /// # Panics
    /// Panics on an unknown tag — an ack we never requested means protocol
    /// corruption, which we surface immediately.
    pub fn on_ack(&mut self, tag: BulkTag) -> (NodeId, AmEnvelope<P>, usize) {
        let parked = self
            .parked
            .remove(&tag)
            .expect("BulkAck for a tag with no parked transfer");
        let bytes = parked.bytes;
        (
            parked.dst,
            AmEnvelope::BulkData {
                tag,
                body: parked.body,
                bytes,
            },
            bytes,
        )
    }

    /// Transfers announced but not yet granted.
    pub fn in_progress(&self) -> usize {
        self.parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowControl;

    #[test]
    fn three_phase_roundtrip() {
        let mut tx = BulkSender::new(0);
        let (tag, req) = tx.begin(1, vec![1u8, 2, 3], 3);
        assert!(matches!(req, AmEnvelope::BulkRequest { bytes: 3, .. }));
        assert_eq!(tx.in_progress(), 1);

        let (dst, data, bytes) = tx.on_ack(tag);
        assert_eq!(dst, 1);
        assert_eq!(bytes, 3);
        match data {
            AmEnvelope::BulkData { body, bytes, .. } => {
                assert_eq!(body, vec![1, 2, 3]);
                assert_eq!(bytes, 3);
            }
            other => panic!("expected BulkData, got {other:?}"),
        }
        assert_eq!(tx.in_progress(), 0);
    }

    #[test]
    fn tags_are_unique_and_node_scoped() {
        let mut a = BulkSender::new(1);
        let mut b = BulkSender::new(2);
        let (t1, _) = a.begin(0, (), 1);
        let (t2, _) = a.begin(0, (), 1);
        let (t3, _) = b.begin(0, (), 1);
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(t1 >> 48, 1);
        assert_eq!(t3 >> 48, 2);
    }

    #[test]
    #[should_panic(expected = "no parked transfer")]
    fn unknown_ack_panics() {
        let mut tx = BulkSender::<()>::new(0);
        tx.on_ack(12345);
    }

    /// Drive sender + receiver state machines together through a full
    /// pipeline of transfers and verify end-to-end payload delivery with
    /// the single-active-grant invariant.
    #[test]
    fn pipelined_transfers_deliver_in_grant_order() {
        let mut tx = BulkSender::new(0);
        let mut fc = FlowControl::new();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 8]).collect();

        // Sender announces everything up front (software pipelining).
        let mut acks = Vec::new();
        for p in &payloads {
            let (tag, _req) = tx.begin(1, p.clone(), p.len());
            if let Some(g) = fc.on_request(0, tag) {
                acks.push(g);
            }
        }

        let mut delivered = Vec::new();
        while let Some(grant) = acks.pop() {
            let (_dst, data, _) = tx.on_ack(grant.tag);
            if let AmEnvelope::BulkData { tag, body, .. } = data {
                delivered.push(body);
                if let Some(next) = fc.on_data_complete(0, tag) {
                    acks.push(next);
                }
            }
        }
        assert_eq!(delivered, payloads, "in-order, exactly-once delivery");
        assert_eq!(tx.in_progress(), 0, "every parked payload released");
        assert_eq!((fc.active(), fc.queued()), (None, 0));
    }
}
