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
//!   queue holds at most `capacity` packets. A send finding the queue
//!   full *blocks* until the receiver drains (a real NI's injection
//!   stall) and the stall is counted in
//!   [`ThreadNetStats::backpressure_hits`], so an overloaded live run
//!   degrades measurably instead of growing the heap without bound.

use crate::packet::{AmEnvelope, NodeId, Packet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;

/// Shared counters for the threaded network.
#[derive(Default, Debug)]
pub struct ThreadNetStats {
    /// Packets sent across all nodes.
    pub packets: AtomicU64,
    /// Envelope payload bytes sent across all nodes.
    pub bytes: AtomicU64,
    /// Sends that found a bounded receive queue full and had to block
    /// until the receiver drained (0 on unbounded networks).
    pub backpressure_hits: AtomicU64,
    /// Packets dropped because the destination endpoint was already
    /// torn down (normal during shutdown; anything else is a bug).
    pub dropped_on_close: AtomicU64,
}

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
    stats: Arc<ThreadNetStats>,
    /// This endpoint's own send-side counters — same fields as the
    /// shared [`ThreadNetStats`], bumped only by *this* node's sends.
    /// Telemetry collectors read these to attribute traffic per node;
    /// the shared handle keeps the network-wide totals.
    local: Arc<ThreadNetStats>,
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

    /// Send an envelope to `dst`. `wire_bytes` feeds the byte counter
    /// (mirrors [`crate::sim::SimNetwork::inject`]'s signature).
    ///
    /// Sending to self is allowed — the packet loops back through the
    /// receive queue, exactly as a self-addressed active message would.
    ///
    /// On a bounded network a full destination queue blocks the sender
    /// until space frees up, bumping
    /// [`ThreadNetStats::backpressure_hits`] once per stalled send. A
    /// send to a node that already shut down is dropped and counted in
    /// [`ThreadNetStats::dropped_on_close`].
    pub fn send(&self, dst: NodeId, body: AmEnvelope<P>, wire_bytes: usize) {
        self.stats.packets.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(wire_bytes as u64, Ordering::Relaxed);
        self.local.packets.fetch_add(1, Ordering::Relaxed);
        self.local.bytes.fetch_add(wire_bytes as u64, Ordering::Relaxed);
        let pkt = Packet {
            src: self.me,
            dst,
            body,
        };
        match &self.peers[dst as usize] {
            // Unbounded channel: send only fails if the receiver hung
            // up, which in our machines means the partition is shutting
            // down.
            Tx::Unbounded(tx) => {
                if tx.send(pkt).is_err() {
                    self.stats.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                    self.local.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                }
            }
            Tx::Bounded(tx) => match tx.try_send(pkt) {
                Ok(()) => {}
                Err(TrySendError::Full(pkt)) => {
                    // Injection stall: the receiver's queue is at
                    // capacity. Count it, then block — backpressure, not
                    // loss: the links stay lossless, so the kernel needs
                    // no reliable layer over them.
                    self.stats.backpressure_hits.fetch_add(1, Ordering::Relaxed);
                    self.local.backpressure_hits.fetch_add(1, Ordering::Relaxed);
                    if tx.send(pkt).is_err() {
                        self.stats.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                        self.local.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.stats.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                    self.local.dropped_on_close.fetch_add(1, Ordering::Relaxed);
                }
            },
        }
    }

    /// Non-blocking send. Counters (`packets`, `bytes`,
    /// `dropped_on_close`) are bumped only when the packet actually
    /// leaves — on a full bounded queue the envelope comes back as
    /// `Err` *uncounted* so the caller can retry without inflating the
    /// wire totals. Unlike [`ThreadEndpoint::send`], this never bumps
    /// `backpressure_hits`; a caller running its own stall loop counts
    /// the stall once via [`ThreadEndpoint::note_backpressure`].
    ///
    /// The live node loop uses this to keep draining its own receive
    /// queue while a peer's queue is full: a sender that blocks without
    /// draining can wedge the whole partition (two nodes blocked on
    /// each other's full queues), which two opposite bursts into small
    /// queues will readily produce.
    pub fn try_send(
        &self,
        dst: NodeId,
        body: AmEnvelope<P>,
        wire_bytes: usize,
    ) -> Result<(), AmEnvelope<P>> {
        let count = |stats: &ThreadNetStats| {
            stats.packets.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(wire_bytes as u64, Ordering::Relaxed);
        };
        let drop_on_close = |stats: &ThreadNetStats| {
            stats.dropped_on_close.fetch_add(1, Ordering::Relaxed);
        };
        let pkt = Packet {
            src: self.me,
            dst,
            body,
        };
        match &self.peers[dst as usize] {
            Tx::Unbounded(tx) => {
                count(&self.stats);
                count(&self.local);
                if tx.send(pkt).is_err() {
                    drop_on_close(&self.stats);
                    drop_on_close(&self.local);
                }
                Ok(())
            }
            Tx::Bounded(tx) => match tx.try_send(pkt) {
                Ok(()) => {
                    count(&self.stats);
                    count(&self.local);
                    Ok(())
                }
                Err(TrySendError::Full(pkt)) => Err(pkt.body),
                Err(TrySendError::Disconnected(_)) => {
                    count(&self.stats);
                    count(&self.local);
                    drop_on_close(&self.stats);
                    drop_on_close(&self.local);
                    Ok(())
                }
            },
        }
    }

    /// Record one injection stall (shared + per-node counters). Callers
    /// of [`ThreadEndpoint::try_send`] that loop on `Err` call this once
    /// per stalled logical send, mirroring [`ThreadEndpoint::send`]'s
    /// accounting.
    pub fn note_backpressure(&self) {
        self.stats.backpressure_hits.fetch_add(1, Ordering::Relaxed);
        self.local.backpressure_hits.fetch_add(1, Ordering::Relaxed);
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

    /// Shared statistics handle.
    pub fn stats(&self) -> &Arc<ThreadNetStats> {
        &self.stats
    }

    /// This endpoint's own send-side counters (per-node attribution);
    /// see the field docs on [`ThreadEndpoint`].
    pub fn local_stats(&self) -> &Arc<ThreadNetStats> {
        &self.local
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
/// most `capacity` packets each — see [`ThreadEndpoint::send`] for the
/// blocking-backpressure semantics. `capacity` must be positive.
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
    let stats = Arc::new(ThreadNetStats::default());
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
            stats: Arc::clone(&stats),
            local: Arc::new(ThreadNetStats::default()),
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
    fn stats_shared_across_endpoints() {
        let eps = thread_network::<u32>(3);
        eps[0].send(1, AmEnvelope::Small(1), 10);
        eps[2].send(1, AmEnvelope::Small(2), 5);
        assert_eq!(eps[1].stats().packets.load(Ordering::Relaxed), 2);
        assert_eq!(eps[1].stats().bytes.load(Ordering::Relaxed), 15);
        assert_eq!(eps[1].stats().backpressure_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn local_stats_attribute_sends_per_endpoint() {
        let eps = thread_network::<u32>(3);
        eps[0].send(1, AmEnvelope::Small(1), 10);
        eps[0].send(2, AmEnvelope::Small(2), 10);
        eps[2].send(1, AmEnvelope::Small(3), 5);
        assert_eq!(eps[0].local_stats().packets.load(Ordering::Relaxed), 2);
        assert_eq!(eps[0].local_stats().bytes.load(Ordering::Relaxed), 20);
        assert_eq!(eps[1].local_stats().packets.load(Ordering::Relaxed), 0);
        assert_eq!(eps[2].local_stats().packets.load(Ordering::Relaxed), 1);
        // The shared handle still carries the network-wide totals.
        assert_eq!(eps[1].stats().packets.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn try_recv_empty_is_none() {
        let eps = thread_network::<u32>(2);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn bounded_network_delivers_and_counts_backpressure() {
        let mut eps = thread_network_bounded::<u32>(2, 4);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // Fill the queue, then overflow it from another thread while the
        // receiver drains slowly: the sender must block (not drop) and
        // the stall must be counted.
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
        let a = sender.join().unwrap();
        assert_eq!(got, (0..32).collect::<Vec<_>>(), "FIFO order preserved");
        assert!(
            a.stats().backpressure_hits.load(Ordering::Relaxed) > 0,
            "a 4-deep queue fed 32 packets against a slow reader must stall"
        );
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
        assert!(a.stats().dropped_on_close.load(Ordering::Relaxed) >= 7);
    }
}
