//! The threaded network: one OS thread per node, real message passing.
//!
//! This substrate carries the same kernel code as [`crate::sim`] but
//! with genuine concurrency: each node is an OS thread and packets
//! travel over mpsc channels. It is the transport of the live backend
//! (`hal-kernel`'s `Machine::live`), whose tests check the runtime is
//! actually `Send`-correct and free of shared-memory shortcuts between
//! "nodes" — faithful to the paper's distributed-memory setting, where
//! nodes communicate only through the network interface.
//!
//! Links come in two flavors:
//!
//! * **unbounded** ([`thread_network`]) — sends never block; fine for
//!   tests and short examples;
//! * **bounded** ([`thread_network_bounded`]) — each node's receive
//!   queue holds at most `capacity` packets, a real NI's injection
//!   limit, so an overloaded live run stalls instead of growing the heap
//!   without bound.
//!
//! An endpoint counts nothing. What a node sent, and how often it found
//! a peer's queue full or closed, is the sender's to count in its own
//! records ([`ThreadEndpoint::try_send`] says which happened); the live
//! backend keeps those counts in the node's single-writer cell.

use crate::packet::{AmEnvelope, NodeId, Packet};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError};

/// A sender to one node's receive queue — unbounded or bounded.
enum Tx<P> {
    Unbounded(Sender<Packet<P>>),
    Bounded(SyncSender<Packet<P>>),
}

impl<P> Clone for Tx<P> {
    fn clone(&self) -> Self {
        match self {
            Tx::Unbounded(t) => Tx::Unbounded(t.clone()),
            Tx::Bounded(t) => Tx::Bounded(t.clone()),
        }
    }
}

/// One node's attachment point to the threaded network.
///
/// Owns the node's receive queue and senders to every peer. Endpoints are
/// created together by [`thread_network`] / [`thread_network_bounded`]
/// and then moved into their node threads.
pub struct ThreadEndpoint<P> {
    me: NodeId,
    rx: Receiver<Packet<P>>,
    peers: Vec<Tx<P>>,
}

impl<P: Send + 'static> ThreadEndpoint<P> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the partition.
    pub fn nodes(&self) -> usize {
        self.peers.len()
    }

    fn packet(&self, dst: NodeId, body: AmEnvelope<P>) -> Packet<P> {
        Packet {
            src: self.me,
            dst,
            body,
        }
    }

    /// Send an envelope to `dst`, blocking while a bounded destination
    /// queue is full. A send to a node that already shut down is
    /// dropped. `wire_bytes` is not read: the signature mirrors
    /// [`crate::sim::SimNetwork::inject`], and the caller counts bytes.
    ///
    /// Sending to self is allowed — the packet loops back through the
    /// receive queue, exactly as a self-addressed active message would.
    pub fn send(&self, dst: NodeId, body: AmEnvelope<P>, _wire_bytes: usize) {
        let pkt = self.packet(dst, body);
        // Either send fails only if the receiver hung up, which in our
        // machines means the partition is shutting down.
        let _ = match &self.peers[dst as usize] {
            Tx::Unbounded(tx) => tx.send(pkt),
            Tx::Bounded(tx) => tx.send(pkt),
        };
    }

    /// Non-blocking send. The envelope comes back as
    /// [`TrySendError::Full`] when a bounded destination queue is at
    /// capacity, so the caller can retry it, and is dropped with
    /// [`TrySendError::Disconnected`] when the destination already shut
    /// down (an unbounded queue is never full).
    ///
    /// The live node loop uses this to keep draining its own receive
    /// queue while a peer's queue is full: a sender that blocks without
    /// draining can wedge the whole partition (two nodes blocked on
    /// each other's full queues), which two opposite bursts into small
    /// queues will readily produce.
    pub fn try_send(&self, dst: NodeId, body: AmEnvelope<P>) -> Result<(), TrySendError<AmEnvelope<P>>> {
        let pkt = self.packet(dst, body);
        match &self.peers[dst as usize] {
            Tx::Unbounded(tx) => tx.send(pkt).map_err(|e| TrySendError::Disconnected(e.0.body)),
            Tx::Bounded(tx) => tx.try_send(pkt).map_err(|e| match e {
                TrySendError::Full(p) => TrySendError::Full(p.body),
                TrySendError::Disconnected(p) => TrySendError::Disconnected(p.body),
            }),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Packet<P>> {
        match self.rx.try_recv() {
            Ok(p) => Some(p),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocking receive; `None` when every sender (including our own
    /// loopback) has been dropped.
    pub fn recv(&self) -> Option<Packet<P>> {
        self.rx.recv().ok()
    }
}

/// Build a fully connected threaded network of `nodes` nodes with
/// unbounded links.
///
/// Returns one endpoint per node; move each into its node thread.
pub fn thread_network<P: Send + 'static>(nodes: usize) -> Vec<ThreadEndpoint<P>> {
    build_network(nodes, None)
}

/// Build a fully connected threaded network whose receive queues hold at
/// most `capacity` packets each — see [`ThreadEndpoint::send`] and
/// [`ThreadEndpoint::try_send`] for what a full queue does to a send.
/// `capacity` must be positive.
pub fn thread_network_bounded<P: Send + 'static>(
    nodes: usize,
    capacity: usize,
) -> Vec<ThreadEndpoint<P>> {
    assert!(capacity > 0, "bounded network needs a positive capacity");
    build_network(nodes, Some(capacity))
}

fn build_network<P: Send + 'static>(
    nodes: usize,
    capacity: Option<usize>,
) -> Vec<ThreadEndpoint<P>> {
    assert!(nodes > 0 && nodes <= u16::MAX as usize + 1, "node count out of range");
    let mut txs = Vec::with_capacity(nodes);
    let mut rxs = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        match capacity {
            None => {
                let (tx, rx) = channel();
                txs.push(Tx::Unbounded(tx));
                rxs.push(rx);
            }
            Some(cap) => {
                let (tx, rx) = sync_channel(cap);
                txs.push(Tx::Bounded(tx));
                rxs.push(rx);
            }
        }
    }
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| ThreadEndpoint {
            me: i as NodeId,
            rx,
            peers: txs.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = thread_network::<u32>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, AmEnvelope::Small(42), 4);
        let pkt = b.recv().unwrap();
        assert_eq!(pkt.src, 0);
        assert_eq!(pkt.body, AmEnvelope::Small(42));
    }

    #[test]
    fn loopback_to_self_works() {
        let eps = thread_network::<u32>(1);
        eps[0].send(0, AmEnvelope::Small(9), 4);
        let pkt = eps[0].try_recv().unwrap();
        assert_eq!(pkt.src, 0);
        assert_eq!(pkt.dst, 0);
    }

    #[test]
    fn per_link_order_is_fifo() {
        let mut eps = thread_network::<u32>(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        for i in 0..100 {
            a.send(1, AmEnvelope::Small(i), 4);
        }
        for i in 0..100 {
            let pkt = b.recv().unwrap();
            assert_eq!(pkt.body, AmEnvelope::Small(i));
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = thread_network::<u64>(4);
        let handles: Vec<_> = eps
            .drain(..)
            .map(|ep| {
                std::thread::spawn(move || {
                    let me = ep.node();
                    // Everyone sends one message to every other node…
                    for dst in 0..ep.nodes() as NodeId {
                        if dst != me {
                            ep.send(dst, AmEnvelope::Small(me as u64), 8);
                        }
                    }
                    // …and receives nodes-1 messages.
                    let mut got = 0;
                    while got < ep.nodes() - 1 {
                        ep.recv().expect("own loopback sender keeps the queue open");
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
    }

    #[test]
    fn try_send_hands_back_a_full_queue_and_reports_a_closed_peer() {
        let mut eps = thread_network_bounded::<u32>(2, 2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.try_send(1, AmEnvelope::Small(1)).is_ok());
        assert!(a.try_send(1, AmEnvelope::Small(2)).is_ok());
        match a.try_send(1, AmEnvelope::Small(3)) {
            Err(TrySendError::Full(env)) => assert_eq!(env, AmEnvelope::Small(3), "handed back"),
            other => panic!("a full queue must hand the envelope back: {other:?}"),
        }
        assert_eq!(b.try_recv().map(|p| p.body), Some(AmEnvelope::Small(1)));
        assert!(a.try_send(1, AmEnvelope::Small(3)).is_ok(), "a freed slot takes the retry");
        drop(b);
        assert!(matches!(a.try_send(1, AmEnvelope::Small(4)), Err(TrySendError::Disconnected(_))));
        let mut eps = thread_network::<u32>(2);
        drop(eps.pop());
        assert!(matches!(eps[0].try_send(1, AmEnvelope::Small(5)), Err(TrySendError::Disconnected(_))));
    }

    #[test]
    fn try_recv_empty_is_none() {
        let eps = thread_network::<u32>(2);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn bounded_network_blocks_a_sender_without_loss_or_reorder() {
        let mut eps = thread_network_bounded::<u32>(2, 4);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // Fill the queue, then overflow it from another thread while the
        // receiver drains slowly: the sender must block, not drop.
        let sender = std::thread::spawn(move || {
            for i in 0..32 {
                a.send(1, AmEnvelope::Small(i), 4);
            }
            a
        });
        let mut got = Vec::new();
        while got.len() < 32 {
            let pkt = b.recv().expect("own loopback sender keeps the queue open");
            if let AmEnvelope::Small(v) = pkt.body {
                got.push(v);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        sender.join().unwrap();
        assert_eq!(got, (0..32).collect::<Vec<_>>(), "FIFO order preserved");
    }

    #[test]
    fn bounded_send_to_closed_endpoint_is_dropped_not_deadlocked() {
        let mut eps = thread_network_bounded::<u32>(2, 1);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b); // node 1 shut down
        for i in 0..8 {
            a.send(1, AmEnvelope::Small(i), 4); // must not block forever
        }
    }
}
