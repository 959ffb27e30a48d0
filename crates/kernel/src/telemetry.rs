//! Host-time telemetry for the live backend.
//!
//! The PR 5 metrics registry ([`crate::metrics`]) samples gauges on a
//! *virtual-time* cadence, which only makes sense under the
//! deterministic simulator — the live backend used to hard-disable
//! it and run blind. This module is the live replacement: per-node
//! **padded atomic cells** ([`NodeCell`]) that the kernel bumps inline
//! on its hot paths (no locks; each field has a single writer, so the
//! per-message hooks are a relaxed load and store with no locked
//! instruction, and there is no cross-node cache-line contention),
//! drained by a dedicated **collector thread** on a wall-clock cadence
//! into a bounded ring of [`TelemetrySnapshot`]s.
//!
//! The hub converts its ring into the exact same [`MetricsReport`]
//! shape the simulator produces (`cadence_ns` becomes the *wall*
//! cadence, sample timestamps are host nanoseconds since the run
//! anchor), so the console `top` renderer, the `METRICS_*.json`
//! artifact writer, and every downstream consumer ingest live runs
//! unchanged. Live documents are tagged `"backend": "live"` by the
//! artifact writers, which is what exempts them from the perf gate's
//! exact byte comparisons.
//!
//! Counter discipline: cells are monotonic counters plus last-write
//! gauges. The collector only ever *reads* them (relaxed loads), so a
//! node thread never blocks on telemetry and a snapshot is a consistent
//! enough cut for operational dashboards — each individual counter is
//! exact at drain time because the final snapshot is taken after every
//! node thread has joined.

use crate::metrics::{LinkStat, MetricsReport, NodeMetrics, Sample};
use hal_am::{NodeId, ThreadNetStats};
use hal_des::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stat names of [`NodeCell::wakes`], in index order: bit `i` of a
/// doorbell token ([`crate::sync::RING_PACKET`], `RING_JOB`, `RING_STOP`)
/// is entry `i`; an empty token — the park's deadline passed — is the last.
pub const WAKE_COUNTERS: [&str; 4] = [
    "live.wake_packet",
    "live.wake_job",
    "live.wake_stop",
    "live.wake_timer",
];

/// One node's telemetry cell: cache-line padded so two nodes' hot
/// counters never share a line. Every field has exactly one writer, the
/// thread that owns the node — its kernel for the message-path fields,
/// its `live::Node` loop for the park fields — and the collector and the
/// live `top` renderer only load. That is what lets the per-message
/// counters be bumped with `NodeCell::add` (a plain load and store)
/// instead of a locked read-modify-write.
#[repr(align(128))]
#[derive(Debug)]
pub struct NodeCell {
    /// Charged virtual busy nanoseconds. On the live backend virtual
    /// ns are anchored to host ns, so this is the utilization
    /// numerator. Writer: `Kernel::charge`.
    pub busy_ns: AtomicU64,
    /// Messages executed (method dispatches) on this node. Writer:
    /// `Kernel::execute_message`.
    pub msgs_processed: AtomicU64,
    /// Envelopes this node injected into the network. Writer:
    /// `Kernel::net_send`.
    pub net_sends: AtomicU64,
    /// Gauge: ready (scheduled) actors, stored at kernel settle points.
    /// Writer: `Kernel::metrics_tick`.
    pub ready: AtomicU64,
    /// Gauge: messages parked in pending queues (§6.1). Writer:
    /// `Kernel::metrics_pending`.
    pub pending_depth: AtomicU64,
    /// Gauge: name-table entries. Writer: `Kernel::metrics_tick`.
    pub name_entries: AtomicU64,
    /// Gauge: FIR chases opened here and not yet answered (§4.3).
    /// Writer: `Kernel::metrics_tick`.
    pub inflight_firs: AtomicU64,
    /// Gauge: messages buffered for keys this node has never heard of.
    /// Writer: `Kernel::metrics_tick`.
    pub unknown_buffered: AtomicU64,
    /// Times this node's thread parked on its doorbell, counted on the
    /// way in (idle path only; a busy node never touches it). Writer:
    /// the node loop, `live::Node::run`.
    pub parks: AtomicU64,
    /// What ended those parks, indexed like [`WAKE_COUNTERS`]. A park two
    /// producers rang at once counts both reasons. Writer: the node
    /// loop, through [`NodeCell::note_wake`].
    pub wakes: [AtomicU64; 4],
    /// Per-peer reliable-layer retransmits (indexed by peer id). Writer:
    /// the kernel's retransmit timer, through `bump_retransmit`.
    retx: Box<[AtomicU64]>,
    /// Per-peer cumulative acks sent (indexed by peer id). Writer: the
    /// kernel's packet delivery, through `bump_ack`.
    acks: Box<[AtomicU64]>,
}

impl NodeCell {
    /// A zeroed cell for a partition of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        let mk = || (0..nodes).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>();
        NodeCell {
            busy_ns: AtomicU64::new(0),
            msgs_processed: AtomicU64::new(0),
            net_sends: AtomicU64::new(0),
            ready: AtomicU64::new(0),
            pending_depth: AtomicU64::new(0),
            name_entries: AtomicU64::new(0),
            inflight_firs: AtomicU64::new(0),
            unknown_buffered: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: Default::default(),
            retx: mk(),
            acks: mk(),
        }
    }

    /// Add `delta` to one of this cell's counters **from its single
    /// writer**: a relaxed load and a relaxed store, no locked
    /// instruction. Readers on other threads see some earlier or the
    /// current total, never a torn one, and the exact total once the
    /// writer's thread has been joined. Two threads adding to one counter
    /// this way would lose counts — the per-field docs name the writer.
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, delta: u64) {
        counter.store(
            counter.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }

    /// Bump the retransmit counter toward `peer`.
    #[inline]
    pub fn bump_retransmit(&self, peer: NodeId) {
        if let Some(c) = self.retx.get(peer as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bump the ack counter toward `peer`.
    #[inline]
    pub fn bump_ack(&self, peer: NodeId) {
        if let Some(c) = self.acks.get(peer as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record what ended a park: `why` is the doorbell token (see
    /// [`WAKE_COUNTERS`]).
    pub fn note_wake(&self, why: u8) {
        let [rung @ .., timer] = &self.wakes;
        if why == 0 {
            timer.fetch_add(1, Ordering::Relaxed);
        }
        for (bit, c) in rung.iter().enumerate() {
            if why & (1 << bit) != 0 {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Adjust the pending-depth gauge. Single-writer, so a plain
    /// load/store pair (saturating at zero) is race-free.
    #[inline]
    pub fn adjust_pending(&self, delta: i64) {
        let v = self.pending_depth.load(Ordering::Relaxed) as i64 + delta;
        self.pending_depth.store(v.max(0) as u64, Ordering::Relaxed);
    }

    /// Store the settle-point gauges in one call (the kernel's
    /// `metrics_tick` analog for host-time telemetry).
    #[inline]
    pub fn store_gauges(&self, ready: u64, names: u64, firs: u64, unknown: u64) {
        self.ready.store(ready, Ordering::Relaxed);
        self.name_entries.store(names, Ordering::Relaxed);
        self.inflight_firs.store(firs, Ordering::Relaxed);
        self.unknown_buffered.store(unknown, Ordering::Relaxed);
    }

    fn link_totals(&self) -> (u64, u64) {
        let sum = |v: &[AtomicU64]| v.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        (sum(&self.retx), sum(&self.acks))
    }
}

/// One node's values at one collector pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSnapshot {
    /// Charged busy ns so far.
    pub busy_ns: u64,
    /// Messages executed so far.
    pub msgs_processed: u64,
    /// Envelopes injected so far.
    pub net_sends: u64,
    /// Ready-actor gauge.
    pub ready: u64,
    /// Pending-queue-depth gauge.
    pub pending_depth: u64,
    /// Name-table gauge.
    pub name_entries: u64,
    /// In-flight FIR gauge.
    pub inflight_firs: u64,
    /// Unknown-key buffer gauge.
    pub unknown_buffered: u64,
    /// Retransmits summed over peers.
    pub retransmits: u64,
    /// Acks summed over peers.
    pub acks: u64,
    /// Sender-side packets this node pushed into the thread network.
    pub packets_sent: u64,
    /// Sender-side stalls on a full bounded channel.
    pub backpressure_hits: u64,
    /// Doorbell parks so far.
    pub parks: u64,
}

/// One collector pass over every node.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Wall nanoseconds since the hub was anchored (machine init).
    pub at_ns: u64,
    /// Per-node values, indexed by node id.
    pub nodes: Vec<NodeSnapshot>,
}

/// Ring of snapshots plus overflow accounting.
#[derive(Debug, Default)]
struct SnapshotRing {
    snaps: Vec<TelemetrySnapshot>,
    dropped: u64,
}

/// The per-machine telemetry hub: one [`NodeCell`] per node (shared
/// with that node's kernel), the per-node sender-side thread-network
/// stats, and the snapshot ring the collector thread fills.
#[derive(Debug)]
pub struct TelemetryHub {
    cells: Vec<Arc<NodeCell>>,
    /// Sender-side channel stats per node (from
    /// [`hal_am::ThreadEndpoint::local_stats`]).
    net: Vec<Arc<ThreadNetStats>>,
    ring: Mutex<SnapshotRing>,
    stop: AtomicBool,
    anchor: Mutex<Instant>,
    cadence: Duration,
}

impl TelemetryHub {
    /// Default wall-clock collector cadence.
    pub const DEFAULT_CADENCE: Duration = Duration::from_millis(10);
    /// Snapshots kept; passes beyond this are counted, not stored
    /// (mirrors [`crate::metrics::Metrics::MAX_SAMPLES`]).
    pub const MAX_SNAPSHOTS: usize = 4096;

    /// A hub over `cells` and per-node sender-side network stats.
    pub fn new(cells: Vec<Arc<NodeCell>>, net: Vec<Arc<ThreadNetStats>>) -> Self {
        TelemetryHub {
            cells,
            net,
            ring: Mutex::new(SnapshotRing::default()),
            stop: AtomicBool::new(false),
            anchor: Mutex::new(Instant::now()),
            cadence: Self::DEFAULT_CADENCE,
        }
    }

    /// This hub's node cells (the live machine hands each to its
    /// kernel).
    pub fn cells(&self) -> &[Arc<NodeCell>] {
        &self.cells
    }

    /// Re-anchor the wall clock (called at node-thread spawn so
    /// bootstrap time does not skew sample timestamps).
    pub fn re_anchor(&self) {
        *self.anchor.lock().expect("anchor lock") = Instant::now();
    }

    /// Read every cell now. Cheap (relaxed loads only) — safe to call
    /// from a `--watch` loop while the machine runs.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let at_ns = self.anchor.lock().expect("anchor lock").elapsed().as_nanos() as u64;
        let nodes = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (retransmits, acks) = c.link_totals();
                let (packets_sent, backpressure_hits) = self
                    .net
                    .get(i)
                    .map(|s| {
                        (
                            s.packets.load(Ordering::Relaxed),
                            s.backpressure_hits.load(Ordering::Relaxed),
                        )
                    })
                    .unwrap_or((0, 0));
                NodeSnapshot {
                    busy_ns: c.busy_ns.load(Ordering::Relaxed),
                    msgs_processed: c.msgs_processed.load(Ordering::Relaxed),
                    net_sends: c.net_sends.load(Ordering::Relaxed),
                    ready: c.ready.load(Ordering::Relaxed),
                    pending_depth: c.pending_depth.load(Ordering::Relaxed),
                    name_entries: c.name_entries.load(Ordering::Relaxed),
                    inflight_firs: c.inflight_firs.load(Ordering::Relaxed),
                    unknown_buffered: c.unknown_buffered.load(Ordering::Relaxed),
                    retransmits,
                    acks,
                    packets_sent,
                    backpressure_hits,
                    parks: c.parks.load(Ordering::Relaxed),
                }
            })
            .collect();
        TelemetrySnapshot { at_ns, nodes }
    }

    /// Take one collector pass and store it in the ring.
    pub fn collect(&self) {
        let snap = self.snapshot();
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.snaps.len() < Self::MAX_SNAPSHOTS {
            ring.snaps.push(snap);
        } else {
            ring.dropped += 1;
        }
    }

    /// Ask the collector thread to take a final pass and exit.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Snapshots collected so far (collector passes stored in the
    /// ring).
    pub fn passes(&self) -> usize {
        self.ring.lock().expect("ring lock").snaps.len()
    }

    /// Convert the ring into the simulator-shaped [`MetricsReport`]:
    /// `cadence_ns` is the wall cadence, sample timestamps are host ns
    /// since the anchor, and the telemetry counters land in each
    /// node's counter map. Call after the final collector pass.
    pub fn metrics_report(&self) -> MetricsReport {
        let ring = self.ring.lock().expect("ring lock");
        let last = ring.snaps.last().cloned().unwrap_or_default();
        let nodes = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let samples = ring
                    .snaps
                    .iter()
                    .filter_map(|s| {
                        let n = s.nodes.get(i)?;
                        let g = |v: u64| v.min(u64::from(u32::MAX)) as u32;
                        Some(Sample {
                            at_ns: s.at_ns,
                            pending_depth: g(n.pending_depth),
                            name_entries: g(n.name_entries),
                            inflight_firs: g(n.inflight_firs),
                            ready: g(n.ready),
                            unknown_buffered: g(n.unknown_buffered),
                        })
                    })
                    .collect();
                let mut counters = BTreeMap::new();
                let fin = last.nodes.get(i).copied().unwrap_or_default();
                counters.insert("telemetry.msgs_processed".to_string(), fin.msgs_processed);
                counters.insert("telemetry.net_sends".to_string(), fin.net_sends);
                counters.insert("threadnet.packets_sent".to_string(), fin.packets_sent);
                counters
                    .insert("threadnet.backpressure_hits".to_string(), fin.backpressure_hits);
                counters.insert("live.parks".to_string(), fin.parks);
                let links: BTreeMap<NodeId, LinkStat> = c
                    .retx
                    .iter()
                    .zip(c.acks.iter())
                    .enumerate()
                    .filter_map(|(peer, (r, a))| {
                        let stat = LinkStat {
                            retransmits: r.load(Ordering::Relaxed),
                            acks: a.load(Ordering::Relaxed),
                        };
                        (stat.retransmits > 0 || stat.acks > 0)
                            .then_some((peer as NodeId, stat))
                    })
                    .collect();
                NodeMetrics {
                    node: i as NodeId,
                    samples,
                    samples_dropped: ring.dropped,
                    busy_ns: c.busy_ns.load(Ordering::Relaxed),
                    counters,
                    links,
                    chain_epochs: Histogram::default(),
                }
            })
            .collect();
        MetricsReport {
            cadence_ns: self.cadence.as_nanos() as u64,
            nodes,
        }
    }

    /// The live `top` text: per-node throughput, queue depths,
    /// retransmit/backpressure rates — rendered from a fresh cell read,
    /// so it is meaningful *while the machine is running* (`--watch`).
    pub fn top(&self) -> String {
        let snap = self.snapshot();
        let secs = (snap.at_ns as f64 / 1e9).max(1e-9);
        let mut out = String::from(
            "node   thr/s    util%  ready  pending  sends  retx  acks  bp_hits  parks/s\n",
        );
        for (i, n) in snap.nodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<5} {:>8.0} {:>7.1} {:>6} {:>8} {:>6} {:>5} {:>5} {:>8} {:>8.0}",
                i,
                n.msgs_processed as f64 / secs,
                100.0 * n.busy_ns as f64 / snap.at_ns.max(1) as f64,
                n.ready,
                n.pending_depth,
                n.net_sends,
                n.retransmits,
                n.acks,
                n.backpressure_hits,
                n.parks as f64 / secs,
            );
        }
        let total: u64 = snap.nodes.iter().map(|n| n.msgs_processed).sum();
        let _ = writeln!(
            out,
            "total {:>8.0} msg/s over {:.2}s host time",
            total as f64 / secs,
            secs
        );
        out
    }
}

/// Spawn the collector thread: one pass per cadence until
/// [`TelemetryHub::request_stop`], then a final pass (so the last
/// snapshot reflects the fully drained machine) and exit.
pub fn spawn_collector(hub: Arc<TelemetryHub>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let cadence = hub.cadence;
        loop {
            if hub.stop.load(Ordering::Relaxed) {
                hub.collect();
                return;
            }
            hub.collect();
            std::thread::sleep(cadence);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(nodes: usize) -> TelemetryHub {
        let cells = (0..nodes).map(|_| Arc::new(NodeCell::new(nodes))).collect();
        let net = (0..nodes)
            .map(|_| Arc::new(ThreadNetStats::default()))
            .collect();
        TelemetryHub::new(cells, net)
    }

    #[test]
    fn cells_accumulate_and_snapshot_reads_them() {
        let h = hub(2);
        h.cells()[1].busy_ns.fetch_add(500, Ordering::Relaxed);
        h.cells()[1].msgs_processed.fetch_add(3, Ordering::Relaxed);
        h.cells()[1].bump_retransmit(0);
        h.cells()[1].bump_ack(0);
        h.cells()[1].bump_ack(0);
        h.cells()[1].store_gauges(4, 7, 1, 0);
        h.cells()[1].adjust_pending(5);
        h.cells()[1].adjust_pending(-2);
        let s = h.snapshot();
        assert_eq!(s.nodes[1].busy_ns, 500);
        assert_eq!(s.nodes[1].msgs_processed, 3);
        assert_eq!(s.nodes[1].retransmits, 1);
        assert_eq!(s.nodes[1].acks, 2);
        assert_eq!(s.nodes[1].ready, 4);
        assert_eq!(s.nodes[1].pending_depth, 3);
        assert_eq!(s.nodes[0].busy_ns, 0, "cells are per-node");
    }

    #[test]
    fn wake_reasons_land_in_their_counters() {
        use crate::sync::{RING_JOB, RING_PACKET, RING_STOP};
        let h = hub(1);
        let cell = &h.cells()[0];
        cell.note_wake(RING_PACKET);
        cell.note_wake(RING_PACKET | RING_JOB);
        cell.note_wake(RING_STOP);
        cell.note_wake(0);
        let wakes: Vec<u64> = cell.wakes.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(wakes, [2, 1, 1, 1], "{WAKE_COUNTERS:?}");
    }

    #[test]
    fn pending_gauge_saturates_at_zero() {
        let h = hub(1);
        h.cells()[0].adjust_pending(-10);
        assert_eq!(h.snapshot().nodes[0].pending_depth, 0);
    }

    #[test]
    fn collector_drains_into_metrics_report() {
        let h = Arc::new(hub(2));
        let cell = Arc::clone(&h.cells()[0]);
        let handle = spawn_collector(Arc::clone(&h));
        cell.msgs_processed.fetch_add(42, Ordering::Relaxed);
        cell.busy_ns.fetch_add(1_000, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(25));
        h.request_stop();
        handle.join().expect("collector joins");
        assert!(h.passes() >= 2, "cadence passes plus the final pass");
        let rep = h.metrics_report();
        assert_eq!(rep.nodes.len(), 2);
        assert_eq!(rep.nodes[0].counters["telemetry.msgs_processed"], 42);
        assert_eq!(rep.nodes[0].busy_ns, 1_000);
        assert_eq!(rep.counter("telemetry.msgs_processed"), 42);
        // Sample timestamps are host time: strictly increasing.
        let ts: Vec<u64> = rep.nodes[0].samples.iter().map(|s| s.at_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        // The simulator-shaped renderers ingest it unchanged.
        let json = rep.to_json(1_000_000);
        assert!(json.contains("telemetry.msgs_processed"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn ring_overflow_is_counted_not_stored() {
        let h = hub(1);
        for _ in 0..(TelemetryHub::MAX_SNAPSHOTS + 5) {
            h.collect();
        }
        assert_eq!(h.passes(), TelemetryHub::MAX_SNAPSHOTS);
        let rep = h.metrics_report();
        assert_eq!(rep.nodes[0].samples_dropped, 5);
    }

    #[test]
    fn top_renders_throughput_and_backpressure() {
        let h = hub(2);
        h.cells()[0].msgs_processed.fetch_add(10, Ordering::Relaxed);
        h.net[1].backpressure_hits.fetch_add(7, Ordering::Relaxed);
        let top = h.top();
        assert!(top.contains("thr/s"), "{top}");
        assert!(top.contains("bp_hits"), "{top}");
        assert!(top.contains("parks/s"), "{top}");
        assert!(top.lines().count() >= 4, "{top}");
    }
}
