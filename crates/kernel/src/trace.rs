//! The kernel flight recorder: structured event tracing.
//!
//! The paper argues about *mechanism costs* — FIR chases, alias
//! round trips, pending-queue stalls — but its tables only show
//! aggregate times. The flight recorder makes the mechanisms visible:
//! when enabled (via [`crate::MachineConfigBuilder::trace`]), every kernel
//! records a typed [`KernelEvent`] stream into a bounded per-node
//! [`TraceRing`], stamped with the node's virtual clock. At report time
//! the machine merges the rings into one time-ordered [`TraceReport`]
//! that can
//!
//! * be folded into lifecycle spans and their latency histograms
//!   ([`crate::span`]) — message delivery split by path (local / remote /
//!   migrated-chase), FIR chain length, alias-resolution latency,
//!   pending-queue residency;
//! * export Chrome trace-event JSON loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) (one track per node, delivery
//!   latencies as duration slices, protocol events as instants).
//!
//! Recording is off by default and the disabled path is a single
//! `Option` check per hook — `table2_primitives` numbers are unchanged
//! with tracing off.

use crate::addr::AddrKey;
use hal_am::NodeId;
use hal_des::json::{self, Style::Block, Style::Inline, Writer};
use hal_des::{Map, VirtualTime};

/// How a delivered message reached its receiver's mail queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPath {
    /// Sender and receiver were on the same node.
    Local,
    /// One network hop to a correctly believed location.
    Remote,
    /// The receiver had migrated: the message waited out an FIR chase
    /// or was forwarded along the migration chain.
    Migrated,
}

/// One structured kernel event. Variants mirror the paper's protocol
/// vocabulary (§4–§7) so a trace reads like the flowcharts.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelEvent {
    /// An actor-level send left `send_to_addr` (stamped with a
    /// node-unique message id).
    MessageSent {
        /// Node-unique message id (node in the high bits).
        id: u64,
        /// Destination identity key.
        key: AddrKey,
        /// The sender believed the receiver was remote.
        remote: bool,
    },
    /// A message reached its receiver's mail queue.
    MessageDelivered {
        /// Id stamped at send time.
        id: u64,
        /// Virtual nanoseconds between send and enqueue.
        latency_ns: u64,
        /// How it got here.
        path: DeliveryPath,
    },
    /// An FIR left this node chasing `key` (§4.3).
    FirSent {
        /// The chased identity key.
        key: AddrKey,
        /// Next hop of the chase.
        to: NodeId,
    },
    /// A message joined an already-running chase instead of sending
    /// another FIR (§4.3's duplicate suppression).
    FirSuppressed {
        /// The chased identity key.
        key: AddrKey,
    },
    /// An FIR reply arrived: tables repaired, buffered messages
    /// released, askers answered (§4.3).
    FirReplyPropagated {
        /// The located identity key.
        key: AddrKey,
        /// Where the actor actually is.
        node: NodeId,
        /// Chain nodes still waiting that we forwarded the answer to.
        askers: u32,
        /// Buffered messages released directly to `node`.
        released: u32,
    },
    /// An actor completed a migration hop (recorded at the arrival
    /// node).
    ActorMigrated {
        /// The actor's primary identity key.
        key: AddrKey,
        /// The node it left.
        from: NodeId,
        /// Its migration-hop count after this move.
        epoch: u32,
    },
    /// A remote creation minted an alias and fired the request (§5).
    AliasCreated {
        /// The alias key.
        key: AddrKey,
        /// The node asked to create the actor.
        target: NodeId,
    },
    /// The requester learned the alias's real descriptor (the §5
    /// background NameInfo landed).
    AliasResolved {
        /// The alias key.
        key: AddrKey,
        /// Virtual nanoseconds from mint to resolution.
        latency_ns: u64,
    },
    /// A message's handler finished executing (recorded at the end of
    /// dispatch, stamped with the handler's charged cost). Together
    /// with [`KernelEvent::MessageSent`] and
    /// [`KernelEvent::MessageDelivered`] this closes the message
    /// lifecycle span: send → wire → queue → execute.
    MessageExecuted {
        /// Id stamped at send time.
        id: u64,
        /// Virtual nanoseconds between mail-queue enqueue and dispatch
        /// (0 for inline fast-path dispatch, which never enqueues).
        queued_ns: u64,
        /// Charged virtual nanoseconds of handler execution.
        run_ns: u64,
    },
    /// A message failed its synchronization constraint and was parked
    /// in the pending queue (§6.1).
    PendingEnqueued {
        /// The message's trace id.
        id: u64,
    },
    /// A parked message became enabled and was dispatched by the
    /// pending-queue rescan (§6.1).
    PendingRescanned {
        /// The message's trace id.
        id: u64,
        /// Virtual nanoseconds it sat in the pending queue.
        residency_ns: u64,
    },
    /// An idle node polled a random victim for work (§7.2).
    StealRequest {
        /// The polled victim.
        victim: NodeId,
    },
    /// A victim granted work to a thief (one event per donated actor).
    StealGrant {
        /// The node receiving the actor.
        thief: NodeId,
    },
    /// A node finished its garbage-collection sweep (§9).
    GcSweep {
        /// Actors freed on this node.
        freed: u64,
        /// Actors still live on this node.
        live: u64,
    },
    /// The reliable layer discarded an inbound packet as a duplicate
    /// (retransmit racing an ack, or a fabric-duplicated copy).
    Drop {
        /// The sending node.
        src: NodeId,
        /// The duplicate's per-link sequence number.
        seq: u64,
    },
    /// The reliable layer re-sent an unacked packet after its
    /// retransmit timeout.
    Retransmit {
        /// The peer the packet is addressed to.
        peer: NodeId,
        /// The re-sent packet's per-link sequence number.
        seq: u64,
    },
    /// The FIR watchdog re-issued a chase whose reply never arrived.
    FirTimeout {
        /// The chased identity key.
        key: AddrKey,
        /// How many times this chase has been re-issued.
        retries: u32,
    },
    /// An FIR reply older than this node's own belief arrived while a
    /// chase was open: the chase stays open and its FIR goes out again
    /// toward the newer belief.
    FirStale {
        /// The chased identity key.
        key: AddrKey,
        /// The stale reply's location epoch.
        epoch: u32,
    },
    /// An actor was installed in this node's name table under `key`
    /// (local creation, the remote side of a §5 creation, or a group
    /// member install). The protocol checker anchors its
    /// creation-happens-before-delivery pass here.
    ActorCreated {
        /// The identity key registered for the new actor.
        key: AddrKey,
    },
    /// This node's name table gained newer locality information for
    /// `key` — an FIR reply or §4.3 location gossip (NameInfo) landed
    /// and actually advanced the descriptor's epoch. Stale gossip that
    /// is ignored does not produce this event.
    NameRepaired {
        /// The repaired identity key.
        key: AddrKey,
        /// Where the actor is now believed to live.
        node: NodeId,
        /// The descriptor's new location epoch.
        epoch: u32,
    },
    /// The reliable layer released one in-order packet to the kernel
    /// (exactly-once delivery point of the (link, seq) stream).
    RelDelivered {
        /// The sending node.
        src: NodeId,
        /// The released per-link sequence number.
        seq: u64,
    },
}

impl KernelEvent {
    /// Short stable name (Chrome trace + summary tables).
    pub fn name(&self) -> &'static str {
        match self {
            KernelEvent::MessageSent { .. } => "MessageSent",
            KernelEvent::MessageDelivered { .. } => "MessageDelivered",
            KernelEvent::MessageExecuted { .. } => "MessageExecuted",
            KernelEvent::FirSent { .. } => "FirSent",
            KernelEvent::FirSuppressed { .. } => "FirSuppressed",
            KernelEvent::FirReplyPropagated { .. } => "FirReplyPropagated",
            KernelEvent::ActorMigrated { .. } => "ActorMigrated",
            KernelEvent::AliasCreated { .. } => "AliasCreated",
            KernelEvent::AliasResolved { .. } => "AliasResolved",
            KernelEvent::PendingEnqueued { .. } => "PendingEnqueued",
            KernelEvent::PendingRescanned { .. } => "PendingRescanned",
            KernelEvent::StealRequest { .. } => "StealRequest",
            KernelEvent::StealGrant { .. } => "StealGrant",
            KernelEvent::GcSweep { .. } => "GcSweep",
            KernelEvent::Drop { .. } => "Drop",
            KernelEvent::Retransmit { .. } => "Retransmit",
            KernelEvent::FirTimeout { .. } => "FirTimeout",
            KernelEvent::FirStale { .. } => "FirStale",
            KernelEvent::ActorCreated { .. } => "ActorCreated",
            KernelEvent::NameRepaired { .. } => "NameRepaired",
            KernelEvent::RelDelivered { .. } => "RelDelivered",
        }
    }
}

/// A [`KernelEvent`] stamped with where and when it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time on the recording node.
    pub time: VirtualTime,
    /// The recording node.
    pub node: NodeId,
    /// Per-node execution order, assigned by [`TraceRing::push`].
    ///
    /// Virtual time alone cannot recover a node's execution order: a
    /// handler that `charge`s cost advances the local clock past the
    /// timestamps of events already queued behind it, so a node's
    /// timestamps are not monotone in execution order. Consumers that
    /// care about causality (the protocol checker's replay) sort each
    /// node's events by `seq`, never by `time`.
    pub seq: u64,
    /// Lifecycle span this event belongs to (0 = none). Message events
    /// use the message's trace id; FIR-chase events share one span per
    /// chase episode; alias events share one span per remote creation.
    pub span: u64,
    /// Causal parent span (0 = none): for a [`KernelEvent::MessageSent`]
    /// the span of the message whose handler issued the send, for an
    /// opening chase/alias event the message or handler that triggered
    /// it. Spans plus parents form the causal DAG walked by the
    /// critical-path analyzer ([`crate::critical_path`]).
    pub parent: u64,
    /// What happened.
    pub event: KernelEvent,
}

impl TraceEvent {
    /// Event at `time` on `node` with no span attribution (seq is
    /// assigned by [`TraceRing::push`]).
    pub fn at(time: VirtualTime, node: NodeId, event: KernelEvent) -> Self {
        TraceEvent { time, node, seq: 0, span: 0, parent: 0, event }
    }

    /// Attach a span id.
    #[must_use]
    pub fn with_span(mut self, span: u64) -> Self {
        self.span = span;
        self
    }

    /// Attach a causal parent span.
    #[must_use]
    pub fn with_parent(mut self, parent: u64) -> Self {
        self.parent = parent;
        self
    }
}

/// Per-message metadata riding inside [`crate::Msg`] while tracing is
/// on. Never serialized: [`crate::Msg::wire_bytes`] ignores it, so the
/// cost model and the small/bulk split are identical with tracing on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceTag {
    /// Node-unique message id.
    pub id: u64,
    /// Virtual time at the sender when the send was issued.
    pub sent_at: VirtualTime,
    /// Path flags ([`TraceTag::REMOTE`], [`TraceTag::CHASED`]).
    pub flags: u8,
}

impl TraceTag {
    /// The sender resolved the receiver to another node.
    pub const REMOTE: u8 = 1;
    /// The message was buffered behind an FIR chase or forwarded along
    /// a migration chain.
    pub const CHASED: u8 = 2;

    /// The delivery path these flags describe.
    pub fn path(&self) -> DeliveryPath {
        if self.flags & Self::CHASED != 0 {
            DeliveryPath::Migrated
        } else if self.flags & Self::REMOTE != 0 {
            DeliveryPath::Remote
        } else {
            DeliveryPath::Local
        }
    }
}

/// A bounded ring of trace events: pushes past the capacity overwrite
/// the oldest entries (a *flight recorder*, not an unbounded log).
#[derive(Clone, Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the logical start once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Next [`TraceEvent::seq`] — total pushes so far.
    next_seq: u64,
}

impl TraceRing {
    /// Ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            dropped: 0,
            next_seq: 0,
        }
    }

    /// Record an event, overwriting the oldest if full. The event's
    /// `seq` is assigned here (callers leave it 0): rings are per-node,
    /// so push order *is* the node's execution order.
    pub fn push(&mut self, mut ev: TraceEvent) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held, oldest first.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate events oldest first (accounting for wraparound).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }
}

/// Per-kernel recorder state: the ring plus the latency-tracking maps
/// that turn single events into durations. Boxed behind an `Option` in
/// the kernel so the disabled path costs one pointer test.
#[derive(Debug)]
pub struct Recorder {
    /// The bounded event buffer.
    pub ring: TraceRing,
    next_msg_seq: u64,
    node_bits: u64,
    /// Head-sampling rate in parts per million: the fraction of minted
    /// span ids whose lifecycle events are recorded. 1_000_000 records
    /// everything (the default, byte-identical to pre-sampling traces).
    sample_ppm: u32,
    /// Precomputed keep threshold: a span id is sampled iff
    /// `mix64(id) < threshold` (full-rate short-circuits the hash).
    sample_threshold: u64,
    /// Exact count of message-span ids minted here, sampled or not —
    /// the exact-count correction for sampled traces.
    msgs_minted: u64,
    /// How many of those mints the head sampler kept.
    msgs_sampled: u64,
    /// Alias key -> mint time (for [`KernelEvent::AliasResolved`]).
    pub(crate) alias_born: Map<AddrKey, VirtualTime>,
    /// Trace id -> park time (for [`KernelEvent::PendingRescanned`]).
    pub(crate) pending_since: Map<u64, VirtualTime>,
    /// Span of the message whose handler is currently executing on this
    /// node (0 between dispatches). Sends stamp it as their causal
    /// parent.
    pub(crate) current_span: u64,
    /// Trace id -> enqueue time (for
    /// [`KernelEvent::MessageExecuted::queued_ns`]).
    pub(crate) delivered_at: Map<u64, VirtualTime>,
    /// Chased key -> the chase episode's span id (minted when the chase
    /// opens, shared by every hop, popped when the reply propagates).
    pub(crate) chase_span: Map<AddrKey, u64>,
    /// Alias key -> the remote-creation span id (mint → install →
    /// resolve).
    pub(crate) alias_span: Map<AddrKey, u64>,
    /// (peer, link seq) -> the message span riding that reliable-layer
    /// packet, so retransmits show up as retry sub-events of the span.
    pub(crate) rel_span: Map<(NodeId, u64), u64>,
}

impl Recorder {
    /// Default ring capacity per node.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Full head-sampling rate: record every span (the default).
    pub const FULL_SAMPLING_PPM: u32 = 1_000_000;

    /// Recorder for `node` with the given ring capacity, recording
    /// every span ([`Self::FULL_SAMPLING_PPM`]).
    pub fn new(node: NodeId, capacity: usize) -> Self {
        Self::with_sampling(node, capacity, Self::FULL_SAMPLING_PPM)
    }

    /// Recorder with head sampling: span ids are always minted (so id
    /// sequences — and therefore full-rate traces — are unchanged),
    /// but only `sample_ppm` / 1e6 of them, chosen deterministically by
    /// hashing the id, get their lifecycle events recorded.
    pub fn with_sampling(node: NodeId, capacity: usize, sample_ppm: u32) -> Self {
        let ppm = sample_ppm.min(Self::FULL_SAMPLING_PPM);
        Recorder {
            ring: TraceRing::new(capacity),
            next_msg_seq: 0,
            node_bits: (node as u64) << 48,
            sample_ppm: ppm,
            sample_threshold: u64::from(ppm)
                .saturating_mul(u64::MAX / u64::from(Self::FULL_SAMPLING_PPM)),
            msgs_minted: 0,
            msgs_sampled: 0,
            alias_born: Map::default(),
            pending_since: Map::default(),
            current_span: 0,
            delivered_at: Map::default(),
            chase_span: Map::default(),
            alias_span: Map::default(),
            rel_span: Map::default(),
        }
    }

    /// Mint a node-unique message id.
    pub fn next_msg_id(&mut self) -> u64 {
        self.next_msg_seq += 1;
        self.node_bits | self.next_msg_seq
    }

    /// The head-sampling decision for a span id — deterministic and
    /// stateless (any node recomputes it from the id alone), so one
    /// message's whole lifecycle is kept or dropped coherently across
    /// nodes.
    #[inline]
    pub fn span_sampled(&self, id: u64) -> bool {
        self.sample_ppm >= Self::FULL_SAMPLING_PPM || mix64(id) < self.sample_threshold
    }

    /// Mint a message-span id and take its sampling decision, keeping
    /// the exact minted/kept counters current.
    pub fn mint_msg_span(&mut self) -> (u64, bool) {
        let id = self.next_msg_id();
        self.msgs_minted += 1;
        let keep = self.span_sampled(id);
        if keep {
            self.msgs_sampled += 1;
        }
        (id, keep)
    }

    /// The configured head-sampling rate (ppm).
    pub fn sample_ppm(&self) -> u32 {
        self.sample_ppm
    }

    /// Exact (minted, sampled) message-span counts.
    pub fn span_counts(&self) -> (u64, u64) {
        (self.msgs_minted, self.msgs_sampled)
    }
}

/// SplitMix64 finalizer: the bit mixer behind the sampling decision.
/// Sequential ids (`node_bits | seq`) map to uniformly scattered hash
/// values, so a ppm threshold selects an unbiased fraction.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A typed, non-fatal anomaly of a run — carried alongside the event
/// stream (never ring-buffered, never dropped) so downstream consumers
/// (hal-check, metrics) can see conditions that have no per-node event
/// of their own. Warnings derive from admission order, so they are
/// deterministic like everything else in the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceWarning {
    /// What happened.
    pub kind: WarningKind,
    /// Virtual time of the anomaly.
    pub t: VirtualTime,
    /// Source node involved.
    pub src: NodeId,
    /// Destination node involved.
    pub dst: NodeId,
}

/// Warning taxonomy (see [`TraceWarning`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarningKind {
    /// Chaos duplicated a packet whose envelope is a one-shot payload
    /// with no clonable representation: the duplicate could not be
    /// materialized and was counted (`net.fault_dup_unclonable`) and
    /// discarded instead of silently lost.
    DupCloneFailed,
}

impl WarningKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WarningKind::DupCloneFailed => "dup_clone_failed",
        }
    }
}

/// The merged, time-ordered trace of a whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// All surviving events, ordered by (time, node).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound, summed over nodes.
    pub dropped: u64,
    /// Typed non-fatal anomalies (bounded at the source), time-ordered.
    pub warnings: Vec<TraceWarning>,
    /// Head-sampling rate the recorders ran at (ppm; 1_000_000 = every
    /// span recorded).
    pub sample_ppm: u32,
    /// Exact count of message-span ids minted across nodes, sampled or
    /// not — the exact-count correction for sampled traces.
    pub msgs_minted: u64,
    /// How many of those mints the head sampler kept.
    pub msgs_sampled: u64,
}

impl Default for TraceReport {
    fn default() -> Self {
        TraceReport {
            events: Vec::new(),
            dropped: 0,
            warnings: Vec::new(),
            sample_ppm: Recorder::FULL_SAMPLING_PPM,
            msgs_minted: 0,
            msgs_sampled: 0,
        }
    }
}

impl TraceReport {
    /// Merge per-node recorders into one ordered report.
    pub fn merge<'a>(recorders: impl Iterator<Item = &'a Recorder>) -> Self {
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut sample_ppm = Recorder::FULL_SAMPLING_PPM;
        let mut msgs_minted = 0;
        let mut msgs_sampled = 0;
        for r in recorders {
            events.extend(r.ring.iter().cloned());
            dropped += r.ring.dropped();
            sample_ppm = r.sample_ppm();
            let (minted, sampled) = r.span_counts();
            msgs_minted += minted;
            msgs_sampled += sampled;
        }
        events.sort_by_key(|e| (e.time, e.node, e.seq));
        TraceReport {
            events,
            dropped,
            warnings: Vec::new(),
            sample_ppm,
            msgs_minted,
            msgs_sampled,
        }
    }

    /// Count of events with the given stable name.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.event.name() == name).count()
    }

    /// Human-readable summary: event counts plus the latency table of
    /// the span fold ([`crate::span::SpanReport::latency_table`]).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.event.name()).or_insert(0) += 1;
        }
        let mut out = String::from("flight recorder summary\n");
        let _ = writeln!(out, "  events recorded: {} (dropped: {})", self.events.len(), self.dropped);
        if self.sample_ppm < Recorder::FULL_SAMPLING_PPM {
            let _ = writeln!(
                out,
                "  head-sampled at {} ppm: {} of {} message spans recorded",
                self.sample_ppm, self.msgs_sampled, self.msgs_minted
            );
        }
        for (name, n) in counts {
            let _ = writeln!(out, "  {name:<20} {n:>8}");
        }
        out.push('\n');
        out.push_str(&crate::span::SpanReport::build(self).latency_table());
        out
    }

    /// Serialize as Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto format): one `pid` per machine, one `tid` per node,
    /// deliveries as duration slices (`ph:"X"` spanning send→enqueue),
    /// everything else as thread-scoped instants (`ph:"i"`). Message
    /// lifecycle spans additionally render as an async track (`ph:"b"`
    /// at send, `ph:"e"` at handler completion, keyed by span id) so
    /// Perfetto draws each message's whole life as one arc even when it
    /// crosses nodes.
    pub fn chrome_json(&self) -> String {
        let mut nodes: Vec<NodeId> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        json::document(|w| {
            w.obj(Block, |w| {
                w.key("traceEvents").arr(Block, |w| {
                    for n in nodes {
                        w.obj(Inline, |w| {
                            w.key("name").str("thread_name").key("ph").str("M");
                            w.key("pid").int(0).key("tid").int(n).key("args").obj(Inline, |w| {
                                w.key("name").str(&format!("node {n}"));
                            });
                        });
                    }
                    for e in &self.events {
                        write_chrome_events(w, e);
                    }
                });
                w.key("displayTimeUnit").str("ns");
            });
        })
    }

    /// Write the Chrome trace JSON to `path`, creating parent
    /// directories as needed.
    pub fn write_chrome(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.chrome_json())
    }
}

/// `e` as Chrome trace events: its end of the async "message lifecycle"
/// track if it has one — a begin at send, an end at handler completion,
/// keyed by span id (unbalanced pairs from ring wrap or messages still in
/// flight are tolerated by the viewers) — then the event itself.
fn write_chrome_events(w: &mut Writer, e: &TraceEvent) {
    let ts_us = e.time.as_nanos() as f64 / 1e3;
    let at = |w: &mut Writer, ts_us: f64| {
        w.key("pid").int(0).key("tid").int(e.node).key("ts").float(ts_us, 3);
    };
    if let KernelEvent::MessageSent { id, .. } | KernelEvent::MessageExecuted { id, .. } = e.event {
        let begin = matches!(e.event, KernelEvent::MessageSent { .. });
        w.obj(Inline, |w| {
            w.key("name").str("msg").key("cat").str("span");
            w.key("ph").str(if begin { "b" } else { "e" }).key("id").int(id);
            at(w, ts_us);
            if begin {
                w.key("args").obj(Inline, |w| {
                    w.key("parent").int(e.parent);
                });
            }
        });
    }
    w.obj(Inline, |w| {
        if let KernelEvent::MessageDelivered { id, latency_ns, path } = e.event {
            // A slice spanning the delivery latency, ending at the
            // enqueue instant.
            let dur_us = latency_ns as f64 / 1e3;
            w.key("name").str(&format!("deliver:{path:?}")).key("cat").str("delivery");
            w.key("ph").str("X");
            at(w, ts_us - dur_us);
            w.key("dur").float(dur_us, 3).key("args").obj(Inline, |w| {
                w.key("id").int(id);
            });
        } else {
            w.key("name").str(e.event.name()).key("cat").str("kernel");
            w.key("ph").str("i").key("s").str("t");
            at(w, ts_us);
            w.key("args").obj(Inline, |w| write_chrome_args(w, &e.event));
        }
    });
}

/// The `args` members of an instant event.
fn write_chrome_args(w: &mut Writer, event: &KernelEvent) {
    fn key(w: &mut Writer, key: AddrKey) -> &mut Writer {
        w.key("key").str(&format!("{key:?}"))
    }
    match *event {
        KernelEvent::MessageSent { id, key: k, remote } => {
            key(w.key("id").int(id), k).key("remote").bool(remote)
        }
        KernelEvent::FirSent { key: k, to } => key(w, k).key("to").int(to),
        KernelEvent::FirSuppressed { key: k } | KernelEvent::ActorCreated { key: k } => key(w, k),
        KernelEvent::FirReplyPropagated { key: k, node, askers, released } => {
            key(w, k).key("node").int(node).key("askers").int(askers).key("released").int(released)
        }
        KernelEvent::ActorMigrated { key: k, from, epoch } => {
            key(w, k).key("from").int(from).key("epoch").int(epoch)
        }
        KernelEvent::AliasCreated { key: k, target } => key(w, k).key("target").int(target),
        KernelEvent::AliasResolved { key: k, latency_ns } => key(w, k).key("latency_ns").int(latency_ns),
        KernelEvent::FirTimeout { key: k, retries } => key(w, k).key("retries").int(retries),
        KernelEvent::FirStale { key: k, epoch } => key(w, k).key("epoch").int(epoch),
        KernelEvent::NameRepaired { key: k, node, epoch } => {
            key(w, k).key("node").int(node).key("epoch").int(epoch)
        }
        KernelEvent::MessageExecuted { id, queued_ns, run_ns } => {
            w.key("id").int(id).key("queued_ns").int(queued_ns).key("run_ns").int(run_ns)
        }
        KernelEvent::PendingEnqueued { id } => w.key("id").int(id),
        KernelEvent::PendingRescanned { id, residency_ns } => {
            w.key("id").int(id).key("residency_ns").int(residency_ns)
        }
        KernelEvent::StealRequest { victim } => w.key("victim").int(victim),
        KernelEvent::StealGrant { thief } => w.key("thief").int(thief),
        KernelEvent::GcSweep { freed, live } => w.key("freed").int(freed).key("live").int(live),
        KernelEvent::Drop { src, seq } | KernelEvent::RelDelivered { src, seq } => {
            w.key("src").int(src).key("seq").int(seq)
        }
        KernelEvent::Retransmit { peer, seq } => w.key("peer").int(peer).key("seq").int(seq),
        KernelEvent::MessageDelivered { .. } => unreachable!("a delivery is a slice, not an instant"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DescriptorId;
    use hal_des::json::Json;

    fn ev(ns: u64, node: NodeId) -> TraceEvent {
        TraceEvent::at(
            VirtualTime::from_nanos(ns),
            node,
            KernelEvent::StealRequest { victim: 0 },
        )
    }

    #[test]
    fn ring_holds_events_below_capacity() {
        let mut r = TraceRing::new(4);
        for i in 0..3 {
            r.push(ev(i, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let times: Vec<u64> = r.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_drops() {
        let mut r = TraceRing::new(4);
        for i in 0..10 {
            r.push(ev(i, 0));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        // Oldest-first iteration across the wrap point.
        let times: Vec<u64> = r.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_capacity_one_keeps_latest() {
        let mut r = TraceRing::new(1);
        r.push(ev(1, 0));
        r.push(ev(2, 0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().time.as_nanos(), 2);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn merge_orders_across_nodes() {
        let mut a = Recorder::new(0, 16);
        let mut b = Recorder::new(1, 16);
        a.ring.push(ev(5, 0));
        a.ring.push(ev(9, 0));
        b.ring.push(ev(3, 1));
        b.ring.push(ev(7, 1));
        let merged = TraceReport::merge([&a, &b].into_iter());
        let times: Vec<u64> = merged.events.iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![3, 5, 7, 9]);
        assert_eq!(merged.dropped, 0);
    }

    #[test]
    fn msg_ids_are_node_unique() {
        let mut a = Recorder::new(3, 16);
        let id1 = a.next_msg_id();
        let id2 = a.next_msg_id();
        assert_ne!(id1, id2);
        assert_eq!(id1 >> 48, 3);
    }

    #[test]
    fn tag_path_classification() {
        let t = |flags| TraceTag { id: 0, sent_at: VirtualTime::ZERO, flags };
        assert_eq!(t(0).path(), DeliveryPath::Local);
        assert_eq!(t(TraceTag::REMOTE).path(), DeliveryPath::Remote);
        assert_eq!(t(TraceTag::CHASED).path(), DeliveryPath::Migrated);
        assert_eq!(t(TraceTag::REMOTE | TraceTag::CHASED).path(), DeliveryPath::Migrated);
    }

    #[test]
    fn chrome_json_parses_to_the_events_it_exports() {
        let mut r = Recorder::new(0, 16);
        r.ring.push(
            TraceEvent::at(
                VirtualTime::from_nanos(1_000),
                0,
                KernelEvent::MessageSent {
                    id: 7,
                    key: AddrKey { birthplace: 0, index: DescriptorId(1) },
                    remote: true,
                },
            )
            .with_span(7),
        );
        r.ring.push(
            TraceEvent::at(
                VirtualTime::from_nanos(2_000),
                0,
                KernelEvent::MessageDelivered {
                    id: 7,
                    latency_ns: 1_000,
                    path: DeliveryPath::Remote,
                },
            )
            .with_span(7),
        );
        r.ring.push(
            TraceEvent::at(
                VirtualTime::from_nanos(2_300),
                0,
                KernelEvent::MessageExecuted { id: 7, queued_ns: 100, run_ns: 200 },
            )
            .with_span(7),
        );
        r.ring.push(TraceEvent::at(
            VirtualTime::from_nanos(2_500),
            0,
            KernelEvent::FirSent {
                key: AddrKey { birthplace: 0, index: DescriptorId(1) },
                to: 3,
            },
        ));
        let report = TraceReport::merge([&r].into_iter());
        let doc = Json::parse(&report.chrome_json()).expect("the trace is JSON");
        assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |e: &Json, k: &str| e.get(k).cloned().unwrap_or(Json::Null);
        let text = |e: &'_ Json, k| e.get(k).and_then(Json::as_str).unwrap().to_string();
        let phases: Vec<_> = events.iter().map(|e| (text(e, "name"), text(e, "ph"))).collect();
        let expect = [
            ("thread_name", "M"),
            // The async lifecycle track: a begin at send, an end at execute.
            ("msg", "b"),
            ("MessageSent", "i"),
            ("deliver:Remote", "X"),
            ("msg", "e"),
            ("MessageExecuted", "i"),
            ("FirSent", "i"),
        ];
        assert_eq!(phases, expect.map(|(n, p)| (n.to_string(), p.to_string())));
        assert_eq!(field(&events[1], "id"), Json::Num(7.0));
        assert_eq!(field(&events[3], "ts"), Json::Num(1.0), "the slice starts at the send");
        assert_eq!(field(&events[3], "dur"), Json::Num(1.0));
        let args = field(&events[6], "args");
        assert_eq!(args.get("key").and_then(Json::as_str), Some("0:d1"));
        assert_eq!(args.get("to"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn full_rate_sampling_keeps_every_mint_without_hashing() {
        let mut r = Recorder::new(0, 16);
        for _ in 0..100 {
            let (_, keep) = r.mint_msg_span();
            assert!(keep);
        }
        assert_eq!(r.span_counts(), (100, 100));
    }

    #[test]
    fn zero_rate_sampling_keeps_nothing_but_counts_exactly() {
        let mut r = Recorder::with_sampling(0, 16, 0);
        for _ in 0..100 {
            let (_, keep) = r.mint_msg_span();
            assert!(!keep);
        }
        assert_eq!(r.span_counts(), (100, 0));
    }

    #[test]
    fn fractional_sampling_is_deterministic_and_roughly_unbiased() {
        let mut a = Recorder::with_sampling(0, 16, 100_000); // 10%
        let kept_a: Vec<bool> = (0..10_000).map(|_| a.mint_msg_span().1).collect();
        let mut b = Recorder::with_sampling(0, 16, 100_000);
        let kept_b: Vec<bool> = (0..10_000).map(|_| b.mint_msg_span().1).collect();
        assert_eq!(kept_a, kept_b, "decision is a pure function of the id");
        let (minted, sampled) = a.span_counts();
        assert_eq!(minted, 10_000);
        assert!(
            (500..=2_000).contains(&sampled),
            "10% of 10k mints should land near 1k, got {sampled}"
        );
        // The decision is recomputable statelessly from the id alone.
        let c = Recorder::with_sampling(7, 16, 100_000);
        let mut d = Recorder::with_sampling(7, 16, 100_000);
        let (id, keep) = d.mint_msg_span();
        assert_eq!(c.span_sampled(id), keep);
    }

    #[test]
    fn merge_carries_exact_sampling_counts() {
        let mut a = Recorder::with_sampling(0, 16, 100_000);
        let mut b = Recorder::with_sampling(1, 16, 100_000);
        for _ in 0..50 {
            a.mint_msg_span();
            b.mint_msg_span();
        }
        let merged = TraceReport::merge([&a, &b].into_iter());
        assert_eq!(merged.sample_ppm, 100_000);
        assert_eq!(merged.msgs_minted, 100);
        assert_eq!(
            merged.msgs_sampled,
            a.span_counts().1 + b.span_counts().1
        );
        let s = merged.summary();
        assert!(s.contains("head-sampled at 100000 ppm"), "{s}");
    }
}
