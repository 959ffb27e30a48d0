//! The metrics registry: per-node counters and gauges, sampled on a
//! cadence of the node's own clock — one module for both backends.
//!
//! The flight recorder ([`crate::trace`]) answers "what happened to this
//! message"; the metrics registry answers "what did the node look like
//! while it happened" — pending-queue depth, name-table occupancy,
//! in-flight FIR chases, ready-queue length, per-link
//! retransmit/ack counts, forward-chain length distribution, and the
//! node's charged busy time (its utilization numerator).
//!
//! Every kernel keeps its counters in a [`NodeCell`] — a cache-line
//! padded block of atomics with **one writer**, the thread that owns the
//! node — indexed by the [`Counter`] table, the one declaration of what a
//! kernel counts. A kernel with a [`Metrics`] sampler also stores its
//! gauges there and samples them from the kernel's thread whenever the
//! clock it is handed crosses a cadence boundary (`Metrics::advance`).
//! The clock and the cadence
//! are the caller's: the simulator passes the kernel's virtual clock
//! at [`Metrics::DEFAULT_CADENCE_NS`]; the live node loop passes the
//! clock it has just anchored to the host's at
//! [`Metrics::LIVE_CADENCE_NS`]. Nothing else differs, so a run's
//! [`MetricsReport`] has one shape on both backends, and on the
//! simulator — where the per-node sequence of `step`/`deliver` calls
//! and their clock values is a function of the seed — it is
//! bit-identical from run to run.
//!
//! The cell is what lets *another* thread look while a live machine
//! runs: [`TelemetryHub`] holds every node's cell and renders `top`
//! from relaxed loads, so a node thread never blocks on an observer
//! and a wedged machine can still be looked at. Sampling is
//! allocation-light: one bounded `Vec<Sample>` per node (overflow is
//! counted, not stored).

use crate::sync::{RING_JOB, RING_PACKET, RING_STOP};
use hal_am::NodeId;
use hal_des::json::{self, Style::Block, Style::Inline, Writer};
use hal_des::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

hal_des::counters! {
    /// Everything a kernel counts, one slot each in its [`NodeCell`]:
    /// `kernel/*.rs` writes all but the last nine, which the live node
    /// writes around its parks and its sends.
    pub enum Counter {
        // transport.rs
        NetSends => "net.sends",
        NetBulkRequests => "net.bulk_requests",
        NetBulkEager => "net.bulk_eager",
        NetBulkUnexpected => "net.bulk_unexpected",
        NetRecvs => "net.recvs",
        RelDupDropped => "rel.dup_dropped",
        RelDelivered => "rel.delivered",
        RelTimersExpired => "rel.timers_expired",
        // delivery.rs
        MsgsLocal => "msgs.local",
        MsgsRemote => "msgs.remote",
        NameFirstContact => "name.first_contact",
        DeliverCachedHit => "deliver.cached_hit",
        DeliverCachedStale => "deliver.cached_stale",
        DeliverMigrated => "deliver.migrated",
        DeliverUnknownParked => "deliver.unknown_parked",
        DeliverForwarded => "deliver.forwarded",
        DeliverForwardedWhole => "deliver.forwarded_whole",
        FirBufferedAtSend => "fir.buffered_at_send",
        FirSuppressed => "fir.suppressed",
        FirSent => "fir.sent",
        FirHandled => "fir.handled",
        FirFound => "fir.found",
        FirFlushed => "fir.flushed",
        // creation.rs
        ActorsRemoteRequests => "actors.remote_requests",
        ActorsRemoteBlocking => "actors.remote_blocking",
        ActorsRemoteCreated => "actors.remote_created",
        // sched.rs
        MsgsProcessed => "msgs.processed",
        SyncDeferred => "sync.deferred",
        SyncResumed => "sync.resumed",
        FastInline => "fast.inline",
        FastDepthFallback => "fast.depth_fallback",
        FastStateFallback => "fast.state_fallback",
        RepliesRemote => "replies.remote",
        // groups.rs
        GroupsMembersCreated => "groups.members_created",
        BcastInitiated => "bcast.initiated",
        BcastLocalDeliveries => "bcast.local_deliveries",
        // migrate.rs
        MigrationsOut => "migrations.out",
        MigrationsIn => "migrations.in",
        StealPolls => "steal.polls",
        StealDenied => "steal.denied",
        StealGranted => "steal.granted",
        // collect.rs
        GcFreed => "gc.freed",
        // live.rs: bit `i` of a doorbell token is the `i`-th wake reason;
        // an empty token — the park's deadline passed — is the timer.
        LiveParks => "live.parks",
        LiveWakePacket => "live.wake_packet",
        LiveWakeJob => "live.wake_job",
        LiveWakeStop => "live.wake_stop",
        LiveWakeTimer => "live.wake_timer",
        // live.rs: `LiveNet::inject`, once per packet that left the node.
        ThreadnetPackets => "threadnet.packets",
        ThreadnetBytes => "threadnet.bytes",
        ThreadnetBackpressureHits => "threadnet.backpressure_hits",
        ThreadnetDroppedOnClose => "threadnet.dropped_on_close",
    }
}

hal_des::counters! {
    /// Names a report computes once, at the end of a run, from state that
    /// is not a [`Counter`] cell: kernel tables, per-peer link counts,
    /// the recorders' losses.
    pub enum Folded {
        ActorsCreated => "actors.created",
        JoinsFired => "joins.fired",
        RelRetransmits => "rel.retransmits",
        RelAcks => "rel.acks",
        TraceDroppedEvents => "trace.dropped_events",
        MetricsDroppedSamples => "metrics.dropped_samples",
    }
}

/// One gauge snapshot, taken when the node's clock first crosses a
/// cadence boundary. `at_ns` is the *boundary* (so sample
/// timestamps line up across nodes), the gauge values are the node
/// state at the crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The cadence boundary this sample represents, in ns of the node's
    /// clock.
    pub at_ns: u64,
    /// Messages parked in pending queues (§6.1) on this node.
    pub pending_depth: u32,
    /// Name-table entries (key → descriptor bindings) on this node.
    pub name_entries: u32,
    /// FIR chases opened here and not yet answered (§4.3).
    pub inflight_firs: u32,
    /// Ready (scheduled) actors on this node.
    pub ready: u32,
    /// Messages parked for keys this node has never heard of (§5 alias
    /// traffic racing its creation).
    pub unknown_buffered: u32,
}

/// Per-link reliable-delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Packets re-sent to this peer after a retransmit timeout.
    pub retransmits: u64,
    /// Cumulative acks sent to this peer.
    pub acks: u64,
}

/// One node's counters and gauges, readable from any thread: cache-line
/// padded so two nodes' hot counters never share a line. Every field
/// has exactly one writer, the thread that owns the node — its kernel,
/// or its `live::Node` loop for the park and send counters — and everyone else
/// only loads. That is what lets every counter be bumped with
/// `NodeCell::add` (a plain load and store) instead of a locked
/// read-modify-write.
#[repr(align(128))]
#[derive(Debug)]
pub struct NodeCell {
    /// Indexed by [`Counter`]; read with [`NodeCell::get`].
    counters: [AtomicU64; Counter::COUNT],
    /// Charged busy nanoseconds (every `Kernel::charge`) — the
    /// numerator of this node's utilization. Written with a [`Metrics`]
    /// sampler only.
    pub busy_ns: AtomicU64,
    /// Gauge: ready (scheduled) actors, stored at kernel settle points.
    pub ready: AtomicU64,
    /// Gauge: messages parked in pending queues (§6.1), maintained at
    /// the park/rescan/migration sites.
    pub pending_depth: AtomicU64,
    /// Gauge: name-table entries (key → descriptor bindings).
    pub name_entries: AtomicU64,
    /// Gauge: FIR chases opened here and not yet answered (§4.3).
    pub inflight_firs: AtomicU64,
    /// Gauge: messages buffered for keys this node has never heard of
    /// (§5 alias traffic racing its creation).
    pub unknown_buffered: AtomicU64,
    /// Per-peer reliable-layer counters, indexed by peer id:
    /// `(retransmits, acks sent)` — the only record of either.
    links: Box<[(AtomicU64, AtomicU64)]>,
}

impl NodeCell {
    /// A zeroed cell for a partition of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        NodeCell {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            busy_ns: AtomicU64::new(0),
            ready: AtomicU64::new(0),
            pending_depth: AtomicU64::new(0),
            name_entries: AtomicU64::new(0),
            inflight_firs: AtomicU64::new(0),
            unknown_buffered: AtomicU64::new(0),
            links: (0..nodes).map(|_| Default::default()).collect(),
        }
    }

    /// Counter `c`'s value as last stored.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Add `delta` to counter `c`, from the cell's single writer.
    #[inline]
    pub(crate) fn count(&self, c: Counter, delta: u64) {
        Self::add(&self.counters[c as usize], delta);
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

    /// Record what ended a park: `why` is the doorbell token, empty when
    /// the park's deadline passed. A park two producers rang at once
    /// counts both reasons.
    pub(crate) fn note_wake(&self, why: u8) {
        if why == 0 {
            self.count(Counter::LiveWakeTimer, 1);
        }
        let rung = [
            (RING_PACKET, Counter::LiveWakePacket),
            (RING_JOB, Counter::LiveWakeJob),
            (RING_STOP, Counter::LiveWakeStop),
        ];
        for (bit, c) in rung {
            if why & bit != 0 {
                self.count(c, 1);
            }
        }
    }

    /// Count one retransmit to `peer`.
    pub(crate) fn link_retransmit(&self, peer: NodeId) {
        if let Some((retx, _)) = self.links.get(peer as usize) {
            Self::add(retx, 1);
        }
    }

    /// Count one ack sent to `peer`.
    pub(crate) fn link_ack(&self, peer: NodeId) {
        if let Some((_, acks)) = self.links.get(peer as usize) {
            Self::add(acks, 1);
        }
    }

    /// Retransmits and acks summed over every peer.
    pub(crate) fn link_totals(&self) -> LinkStat {
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
        self.links.iter().fold(LinkStat::default(), |t, (retx, acks)| LinkStat {
            retransmits: t.retransmits + load(retx),
            acks: t.acks + load(acks),
        })
    }

    /// The peers this node retransmitted to or acknowledged, with counts.
    fn link_stats(&self) -> BTreeMap<NodeId, LinkStat> {
        let links = self.links.iter().enumerate().map(|(peer, (retx, acks))| {
            let stat = LinkStat {
                retransmits: retx.load(Ordering::Relaxed),
                acks: acks.load(Ordering::Relaxed),
            };
            (peer as NodeId, stat)
        });
        links.filter(|(_, l)| *l != LinkStat::default()).collect()
    }

    /// The gauges as last stored, as a sample stamped `at_ns`.
    fn gauges(&self, at_ns: u64) -> Sample {
        let g = |v: &AtomicU64| v.load(Ordering::Relaxed) as u32;
        Sample {
            at_ns,
            pending_depth: g(&self.pending_depth),
            name_entries: g(&self.name_entries),
            inflight_firs: g(&self.inflight_firs),
            ready: g(&self.ready),
            unknown_buffered: g(&self.unknown_buffered),
        }
    }
}

/// Per-kernel metrics sampler. Boxed behind an `Option` in the kernel so
/// the disabled path costs one pointer test per hook, exactly like the
/// flight recorder. What it owns is private to the kernel's thread: the
/// cadence, the timeseries and the chain-length histogram. The gauges it
/// stores and the busy time it adds go to the kernel's [`NodeCell`].
#[derive(Debug)]
pub struct Metrics {
    node: NodeId,
    cadence_ns: u64,
    next_sample_at: u64,
    samples: Vec<Sample>,
    samples_dropped: u64,
    /// Distribution of forward-chain lengths (location epochs observed
    /// when FIR replies land, §4.3): how long the migration chains
    /// behind chases actually were.
    pub(crate) chain_epochs: Histogram,
    cell: Arc<NodeCell>,
}

impl Metrics {
    /// The simulator's gauge-sampling cadence: one sample per 100 µs of
    /// virtual time.
    pub const DEFAULT_CADENCE_NS: u64 = 100_000;
    /// The live backend's cadence: one sample per 10 ms of the node's
    /// host-anchored clock.
    pub const LIVE_CADENCE_NS: u64 = 10_000_000;
    /// Samples kept per node; crossings beyond this are counted in
    /// `samples_dropped` instead of stored.
    pub const MAX_SAMPLES: usize = 4096;

    /// Fresh metrics state for `node`, storing its gauges and busy time in
    /// `cell` and sampling once per `cadence_ns` of whatever clock its
    /// owner hands `Metrics::advance`.
    pub fn new(node: NodeId, cadence_ns: u64, cell: Arc<NodeCell>) -> Self {
        Metrics {
            node,
            cadence_ns,
            next_sample_at: 0,
            samples: Vec::new(),
            samples_dropped: 0,
            chain_epochs: Histogram::default(),
            cell,
        }
    }

    /// Record one gauge snapshot per cadence boundary `now_ns` has
    /// reached, each stamped with its boundary and carrying the gauges
    /// as last stored — so a node that slept through boundaries records
    /// them with the state it went to sleep in.
    #[inline]
    pub(crate) fn advance(&mut self, now_ns: u64) {
        while self.next_sample_at <= now_ns {
            if self.samples.len() < Self::MAX_SAMPLES {
                self.samples.push(self.cell.gauges(self.next_sample_at));
            } else {
                self.samples_dropped += 1;
            }
            self.next_sample_at += self.cadence_ns;
        }
    }

    /// Store the gauges a kernel reads off its tables at a settle point,
    /// then [`advance`](Metrics::advance) to `now_ns`.
    #[inline]
    pub(crate) fn tick(&mut self, now_ns: u64, ready: usize, names: usize, firs: usize, unknown: u32) {
        let cell = &*self.cell;
        cell.ready.store(ready as u64, Ordering::Relaxed);
        cell.name_entries.store(names as u64, Ordering::Relaxed);
        cell.inflight_firs.store(firs as u64, Ordering::Relaxed);
        cell.unknown_buffered.store(u64::from(unknown), Ordering::Relaxed);
        self.advance(now_ns);
    }

    /// Account `ns` of charged busy time.
    #[inline]
    pub(crate) fn busy(&self, ns: u64) {
        NodeCell::add(&self.cell.busy_ns, ns);
    }

    /// Adjust the pending-queue-depth gauge (saturating at zero).
    #[inline]
    pub(crate) fn pending(&self, delta: i64) {
        let depth = &self.cell.pending_depth;
        let v = depth.load(Ordering::Relaxed) as i64 + delta;
        depth.store(v.max(0) as u64, Ordering::Relaxed);
    }
}

/// One node's slice of a finished run's metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMetrics {
    /// The node.
    pub node: NodeId,
    /// Gauge timeseries, oldest first.
    pub samples: Vec<Sample>,
    /// Cadence crossings beyond [`Metrics::MAX_SAMPLES`].
    pub samples_dropped: u64,
    /// Total charged busy time on this node.
    pub busy_ns: u64,
    /// Named counters (e.g. `trace.dropped_events`, folded in when the
    /// run's report is assembled; on the live backend also every nonzero
    /// counter of the node's cell).
    pub counters: BTreeMap<String, u64>,
    /// Per-peer reliable-layer counters.
    pub links: BTreeMap<NodeId, LinkStat>,
    /// Forward-chain length distribution.
    pub chain_epochs: Histogram,
}

/// The merged metrics of a whole run. Lives in
/// [`crate::SimReport::metrics`] when metrics were enabled; serialized
/// as `results/METRICS_<bin>.json` by the bench harness.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Sampling cadence shared by every node.
    pub cadence_ns: u64,
    /// Per-node metrics, ordered by node id.
    pub nodes: Vec<NodeMetrics>,
}

impl MetricsReport {
    /// Merge per-node metrics states into one report. The cadence is the
    /// states' own (one machine's kernels all sample at the same one).
    pub fn merge<'a>(states: impl Iterator<Item = &'a Metrics>) -> Self {
        let mut cadence_ns = 0;
        let mut nodes: Vec<NodeMetrics> = states
            .map(|m| {
                cadence_ns = m.cadence_ns;
                NodeMetrics {
                    node: m.node,
                    samples: m.samples.clone(),
                    samples_dropped: m.samples_dropped,
                    busy_ns: m.cell.busy_ns.load(Ordering::Relaxed),
                    counters: BTreeMap::new(),
                    links: m.cell.link_stats(),
                    chain_epochs: m.chain_epochs.clone(),
                }
            })
            .collect();
        nodes.sort_by_key(|n| n.node);
        MetricsReport { cadence_ns, nodes }
    }

    /// Per-node utilization: charged busy time over the run's makespan.
    pub fn utilization(&self, makespan_ns: u64) -> Vec<(NodeId, f64)> {
        self.nodes
            .iter()
            .map(|n| {
                let u = if makespan_ns == 0 {
                    0.0
                } else {
                    n.busy_ns as f64 / makespan_ns as f64
                };
                (n.node, u)
            })
            .collect()
    }

    /// Set a machine-wide named counter. Stored on the first node's
    /// slice (counters are summed across nodes on read).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if let Some(n) = self.nodes.first_mut() {
            n.counters.insert(name.to_string(), value);
        }
    }

    /// Sum of a named counter across nodes.
    pub fn counter(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.counters.get(name).copied().unwrap_or(0))
            .sum()
    }

    /// The `METRICS_` document. A simulated run's contains virtual-time
    /// facts only — byte-identical across reruns.
    pub fn to_json(&self, makespan_ns: u64) -> String {
        json::document(|w| self.write_json(w, makespan_ns))
    }

    /// Write the document's object into `w` at its current depth.
    pub fn write_json(&self, w: &mut Writer, makespan_ns: u64) {
        w.obj(Block, |w| {
            w.key("cadence_ns").int(self.cadence_ns).key("makespan_ns").int(makespan_ns);
            let fields =
                ["at_ns", "pending_depth", "name_entries", "inflight_firs", "ready", "unknown_buffered"];
            w.key("sample_fields").strs(fields);
            w.key("nodes").arr(Block, |w| {
                for (n, (_, util)) in self.nodes.iter().zip(self.utilization(makespan_ns)) {
                    w.obj(Block, |w| write_node(w, n, util));
                }
            });
        });
    }
}

/// One node's members of the `METRICS_` document.
fn write_node(w: &mut Writer, n: &NodeMetrics, util: f64) {
    w.key("node").int(n.node).key("busy_ns").int(n.busy_ns);
    w.key("utilization").float(util, 6).key("samples_dropped").int(n.samples_dropped);
    w.key("counters").obj(Inline, |w| {
        for (k, v) in &n.counters {
            w.key(k).int(*v);
        }
    });
    w.key("links").arr(Inline, |w| {
        for (peer, l) in &n.links {
            w.obj(Inline, |w| {
                w.key("peer").int(*peer).key("retransmits").int(l.retransmits).key("acks").int(l.acks);
            });
        }
    });
    w.key("chain_epochs");
    write_histogram(w, &n.chain_epochs);
    w.key("samples").arr(Inline, |w| {
        for s in &n.samples {
            w.arr(Inline, |w| {
                w.int(s.at_ns).int(s.pending_depth).int(s.name_entries);
                w.int(s.inflight_firs).int(s.ready).int(s.unknown_buffered);
            });
        }
    });
}

/// A histogram as an inline object: moments plus its non-empty log2
/// buckets as `[bucket_index, count]` pairs.
pub(crate) fn write_histogram(w: &mut Writer, h: &Histogram) {
    w.obj(Inline, |w| {
        w.key("count").int(h.count()).key("sum").int(h.sum()).key("max").int(h.max());
        w.key("mean").float(h.mean(), 3).key("log2_buckets").arr(Inline, |w| {
            for (i, c) in h.log2_buckets().into_iter().enumerate().filter(|&(_, c)| c > 0) {
                w.arr(Inline, |w| {
                    w.int(i).int(c);
                });
            }
        });
    });
}

/// Every node's [`NodeCell`]: what a thread that is not a node reads to
/// see a machine *while it runs* (`top`, `hal-serve --watch`). The
/// simulator hands one out too, over its kernels' cells, so `top`
/// renders one way on both backends.
#[derive(Debug)]
pub struct TelemetryHub {
    cells: Vec<Arc<NodeCell>>,
}

impl TelemetryHub {
    /// A hub over `cells`, indexed by node id.
    pub fn new(cells: Vec<Arc<NodeCell>>) -> Self {
        TelemetryHub { cells }
    }

    /// The node cells, indexed by node id.
    pub fn cells(&self) -> &[Arc<NodeCell>] {
        &self.cells
    }

    /// The `top` text: per-node throughput, utilization, gauges and
    /// link counters over `elapsed_ns` of the machine's clock — the
    /// host time since start while a live machine runs, the makespan
    /// once any run is over. Rendered from a fresh cell read (relaxed
    /// loads only), so it is safe to call from a `--watch` loop.
    pub fn top(&self, elapsed_ns: u64) -> String {
        let secs = (elapsed_ns as f64 / 1e9).max(1e-9);
        let mut out = String::from(
            "node   thr/s    util%  ready  pending  names  firs  unknown  sends  retx  acks  bp_hits  parks/s\n",
        );
        let mut total = 0;
        for (i, c) in self.cells.iter().enumerate() {
            let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
            let msgs = c.get(Counter::MsgsProcessed);
            total += msgs;
            let links = c.link_totals();
            let _ = writeln!(
                out,
                "{:<5} {:>8.0} {:>7.1} {:>6} {:>8} {:>6} {:>5} {:>8} {:>6} {:>5} {:>5} {:>8} {:>8.0}",
                i,
                msgs as f64 / secs,
                load(&c.busy_ns) as f64 / (secs * 1e7),
                load(&c.ready),
                load(&c.pending_depth),
                load(&c.name_entries),
                load(&c.inflight_firs),
                load(&c.unknown_buffered),
                c.get(Counter::NetSends),
                links.retransmits,
                links.acks,
                c.get(Counter::ThreadnetBackpressureHits),
                c.get(Counter::LiveParks) as f64 / secs,
            );
        }
        let _ = writeln!(out, "total {:>8.0} msg/s over {:.2}s", total as f64 / secs, secs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_des::json::Json;

    /// A two-node registry that has settled once at time 0 with 2
    /// pending, 5 names, 1 FIR and 3 ready — boundary 0 is sampled.
    fn metrics(node: NodeId) -> Metrics {
        let mut m = Metrics::new(node, Metrics::DEFAULT_CADENCE_NS, Arc::new(NodeCell::new(2)));
        m.pending(2);
        m.tick(0, 3, 5, 1, 0);
        m
    }

    #[test]
    fn advance_emits_one_sample_per_boundary() {
        let mut m = metrics(0);
        assert_eq!(m.samples.len(), 1); // boundary 0
        m.advance(Metrics::DEFAULT_CADENCE_NS * 3 + 5);
        assert_eq!(m.samples.len(), 4); // boundaries 0, 1c, 2c, 3c
        let expect = Sample {
            at_ns: Metrics::DEFAULT_CADENCE_NS * 3,
            pending_depth: 2,
            name_entries: 5,
            inflight_firs: 1,
            ready: 3,
            unknown_buffered: 0,
        };
        assert_eq!(m.samples[3], expect);
        // No boundary crossed: no new sample.
        m.advance(Metrics::DEFAULT_CADENCE_NS * 3 + 10);
        assert_eq!(m.samples.len(), 4);
    }

    #[test]
    fn sample_overflow_is_counted_not_stored() {
        let mut m = metrics(0);
        let far = Metrics::DEFAULT_CADENCE_NS * (Metrics::MAX_SAMPLES as u64 + 10);
        m.advance(far);
        assert_eq!(m.samples.len(), Metrics::MAX_SAMPLES);
        assert_eq!(m.samples_dropped, 11);
    }

    #[test]
    fn pending_gauge_saturates_at_zero() {
        let m = metrics(0);
        m.pending(-10);
        assert_eq!(m.cell.pending_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wake_reasons_land_in_their_counters() {
        let cell = NodeCell::new(1);
        cell.note_wake(RING_PACKET);
        cell.note_wake(RING_PACKET | RING_JOB);
        cell.note_wake(RING_STOP);
        cell.note_wake(0);
        let wakes = [
            Counter::LiveWakePacket,
            Counter::LiveWakeJob,
            Counter::LiveWakeStop,
            Counter::LiveWakeTimer,
        ];
        assert_eq!(wakes.map(|c| cell.get(c)), [2, 1, 1, 1]);
    }

    /// Every name a report can carry comes from one entry of one table.
    #[test]
    fn counter_names_are_pairwise_distinct() {
        let names: Vec<&str> = (Counter::ALL.iter().map(|c| c.name()))
            .chain(hal_am::NetCounter::ALL.iter().map(|c| c.name()))
            .chain(Folded::ALL.iter().map(|c| c.name()))
            .collect();
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
    }

    #[test]
    fn report_json_and_utilization() {
        let mut m = Metrics::new(1, Metrics::LIVE_CADENCE_NS, Arc::new(NodeCell::new(2)));
        m.busy(500);
        m.cell.link_ack(0);
        m.cell.link_retransmit(0);
        m.chain_epochs.observe(3);
        m.advance(0);
        let mut rep = MetricsReport::merge([&m].into_iter());
        assert_eq!(rep.cadence_ns, Metrics::LIVE_CADENCE_NS, "the states' cadence");
        let links = &rep.nodes[0].links;
        assert_eq!(links.keys().collect::<Vec<_>>(), [&0], "untouched peers are omitted");
        rep.nodes[0]
            .counters
            .insert("trace.dropped_events".into(), 7);
        // A counter name is the caller's string: the writer escapes it.
        rep.set_counter("a\"b", 3);
        let u = rep.utilization(1000);
        assert_eq!(u, vec![(1, 0.5)]);
        let doc = Json::parse(&rep.to_json(1000)).expect("the report is JSON");
        let node = &doc.get("nodes").and_then(Json::as_arr).unwrap()[0];
        let num = |v: Option<&Json>| v.and_then(Json::as_f64);
        assert_eq!(num(node.get("busy_ns")), Some(500.0));
        assert_eq!(num(node.get("utilization")), Some(0.5));
        let link = &node.get("links").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(num(link.get("retransmits")), Some(1.0));
        let counters = node.get("counters").unwrap();
        assert_eq!(num(counters.get("trace.dropped_events")), Some(7.0));
        assert_eq!(num(counters.get("a\"b")), Some(3.0));
        assert_eq!(num(node.get("chain_epochs").and_then(|h| h.get("count"))), Some(1.0));
    }

    #[test]
    fn top_renders_throughput_and_backpressure() {
        let (a, b) = (metrics(0), metrics(1));
        a.cell.count(Counter::MsgsProcessed, 10);
        b.busy(500_000_000);
        b.cell.link_ack(0);
        b.cell.count(Counter::ThreadnetBackpressureHits, 7);
        let hub = TelemetryHub::new(vec![Arc::clone(&a.cell), Arc::clone(&b.cell)]);
        let top = hub.top(1_000_000_000);
        let rows: Vec<Vec<&str>> = top.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(rows[0][..3], ["node", "thr/s", "util%"], "{top}");
        assert_eq!(rows[1], ["0", "10", "0.0", "3", "2", "5", "1", "0", "0", "0", "0", "0", "0"]);
        assert_eq!(rows[2], ["1", "0", "50.0", "3", "2", "5", "1", "0", "0", "0", "1", "7", "0"]);
        assert_eq!(rows[0].len(), rows[1].len(), "{top}");
        assert!(top.ends_with("total       10 msg/s over 1.00s\n"), "{top}");
    }
}
