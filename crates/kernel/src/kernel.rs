//! The per-node runtime kernel (§3, Fig. 2).
//!
//! "The kernel serves as a passive substrate on which individual actors
//! execute. Because each actor executes kernel functions as part of its
//! own computation, both actor methods and kernel functions may be
//! executed on the same stack assigned to the actor, eliminating the need
//! for context switching between the actor and the kernel."
//!
//! [`Kernel`] owns one node's name server, actor heap, dispatcher, join
//! table, FIR table, group table, balancer, and bulk/flow state, and is
//! driven from outside by a *machine* (simulated or live) that feeds
//! it packets and step requests and drains the kernel's outbox after each
//! one ([`Outbound`]): the kernel never touches a network object, so the
//! identical kernel code runs on both backends.
//!
//! [`Ctx`] is the actor interface of Fig. 2 — the surface "exported to
//! the compiler". Behaviors receive a `Ctx` in every dispatch and use it
//! to send, create, become, broadcast, request/reply, and migrate.

use crate::actor::{ActorRecord, ActorSlab, Behavior};
use crate::addr::{ActorId, AddrKey, BehaviorId, DescriptorId, GroupId, JcId, MailAddr, Mapping, Selector};
use crate::balance::Balancer;
use crate::cost::CostModel;
use crate::descriptor::Locality;
use crate::dispatch::Dispatcher;
use crate::error::MachineError;
use crate::fir::FirTable;
use crate::gc::{CoordState, GcState, MarkBatches};
use crate::group::{home_node, members_on, GroupTable};
use crate::join::{JoinFn, JoinTable};
use crate::machine::MachineConfig;
use crate::message::{ContRef, Msg, Target, Value};
use crate::metrics::Metrics;
use crate::name_server::{NameServer, Resolution};
use crate::registry::BehaviorRegistry;
use crate::trace::{KernelEvent, Recorder, TraceEvent, TraceTag};
use crate::wire::{ActorImage, KMsg};
use hal_am::{
    bcast, AmEnvelope, BulkSender, FaultPlan, FlowControl, NodeId, Packet, RelReceiver, RelSender,
    RetxDecision, RxOutcome, MAX_SMALL_BYTES, REL_HEADER,
};
use hal_des::{StatSet, VirtualDuration, VirtualTime};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One thing the kernel wants from the network. The kernel does no I/O:
/// whatever a kernel entry point sends or arms is left in its outbox, and
/// the machine that called the entry point drains it, in order, right
/// afterwards ([`Kernel::drain_outbox`]).
#[derive(Debug)]
pub enum Outbound {
    /// Inject `env` from this node towards `dst`.
    Packet {
        /// The kernel clock at the call that pushed the entry — inside
        /// [`Kernel::deliver`] that is the packet's arrival time plus the
        /// handler's work so far, not the clock the node ends up with.
        at: VirtualTime,
        /// Destination node.
        dst: NodeId,
        /// What to send.
        env: AmEnvelope<KMsg>,
        /// Bytes on the wire.
        wire: usize,
    },
    /// Arm a self-addressed timer (chaos subsystem: retransmit timeouts,
    /// FIR watchdogs). Timers bypass the link model and the fault layer.
    Timer {
        /// When it fires.
        fire_at: VirtualTime,
        /// The [`AmEnvelope::Timer`] to hand back then.
        env: AmEnvelope<KMsg>,
    },
}

/// Ablation switches for the paper's individual design choices. All
/// default to the paper's design; each `false` selects the alternative
/// the paper argues against, so benches can measure what every choice
/// buys.
#[derive(Clone, Copy, Debug)]
pub struct OptFlags {
    /// §5: alias-based latency hiding for remote creation. When off,
    /// the requester *blocks* for the full creation round trip (the
    /// stock-hardware alternative the paper rejects; split-phase would
    /// need cheap context switches the CM-5 lacked).
    pub aliases: bool,
    /// §4.1: receivers reply with their descriptor index so senders
    /// cache it and later deliveries skip the receiver's name table.
    /// When off, every delivery pays the receiving-side hash lookup and
    /// no NameInfo gossip flows.
    pub name_caching: bool,
    /// §6.4: collective scheduling of broadcasts — all local members of
    /// a group are delivered consecutively under one dispatch charge.
    /// When off, each member delivery pays a full dispatch.
    pub collective_bcast: bool,
    /// §4.3: locate migrated actors with small FIR messages, buffering
    /// the originals. When off, the node manager forwards the *entire
    /// message* along the forward chain — the alternative the paper
    /// rejects because it multiplies bulk traffic.
    pub fir_chase: bool,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags {
            aliases: true,
            name_caching: true,
            collective_bcast: true,
            fir_chase: true,
        }
    }
}

/// Static configuration of one kernel.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// This node's id.
    pub me: NodeId,
    /// Partition size.
    pub nodes: usize,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Receiver-initiated random-polling load balancing (§7.2).
    pub load_balancing: bool,
    /// Three-phase bulk flow control (§6.5). Disabling it is the Table 1
    /// ablation: bulk data is injected eagerly.
    pub flow_control: bool,
    /// Messages an actor may process per scheduling quantum.
    pub quantum: usize,
    /// Depth bound for compiler-controlled stack-based scheduling (§6.3).
    pub max_stack_depth: u32,
    /// Machine seed (per-node RNG streams derive from it).
    pub seed: u64,
    /// Ablation switches (paper design by default).
    pub opt: OptFlags,
    /// Enable the flight recorder ([`crate::trace`]). Off by default;
    /// the disabled path is a single pointer test per hook.
    pub trace: bool,
    /// Enable the metrics registry ([`crate::metrics`]). Off by
    /// default; like tracing, the disabled path is one pointer test.
    pub metrics: bool,
    /// Head-sampling rate for message lifecycle spans, in parts per
    /// million of minted trace ids (1_000_000 = record everything, the
    /// default). Ids are always minted — exact counts stay exact and
    /// the id sequence is identical at any rate — but lifecycle events
    /// for unsampled ids are never pushed, so the recorder's hot-path
    /// cost scales with the rate. The keep/drop decision is a pure
    /// function of the id ([`Recorder::span_sampled`]), recomputable on
    /// any node a message later visits.
    pub span_sample_ppm: u32,
    /// Seeded fault plan (chaos subsystem). [`FaultPlan::none`] runs the
    /// byte-identical fault-free fast path.
    pub faults: FaultPlan,
    /// Always wrap outbound envelopes in the reliable (seq + ack +
    /// retransmit) protocol and arm FIR watchdogs, even with no fault
    /// plan. The live backend sets this: real transports have no
    /// deterministic delivery oracle, so the PR 3 reliable layer *is*
    /// its wire protocol. Simulated machines leave it off — there the
    /// reliable layer engages only under a chaos plan.
    pub force_reliable: bool,
}

impl KernelConfig {
    /// Node `me`'s kernel configuration on a machine built from `cfg` —
    /// the one place machine-wide settings become per-kernel ones. The
    /// live backend overrides `faults` and `force_reliable` on top of
    /// this; everything else is the same on both backends.
    pub fn for_node(cfg: &MachineConfig, me: NodeId) -> Self {
        KernelConfig {
            me,
            nodes: cfg.nodes,
            cost: cfg.cost,
            load_balancing: cfg.load_balancing && cfg.nodes > 1,
            flow_control: cfg.flow_control,
            quantum: cfg.quantum,
            max_stack_depth: cfg.max_stack_depth,
            seed: cfg.seed,
            opt: cfg.opt,
            trace: cfg.record_trace,
            metrics: cfg.record_metrics,
            span_sample_ppm: cfg.span_sample_ppm,
            faults: cfg.faults.clone(),
            force_reliable: false,
        }
    }
}

/// The per-node kernel.
pub struct Kernel {
    cfg: KernelConfig,
    /// Virtual clock: all primitive costs accumulate here.
    pub clock: VirtualTime,
    names: NameServer,
    actors: ActorSlab,
    joins: JoinTable,
    firs: FirTable,
    groups: GroupTable,
    dispatcher: Dispatcher,
    /// Load-balancer policy state (public: the machine consults it for
    /// idle-node poll scheduling).
    pub balancer: Balancer,
    registry: Arc<BehaviorRegistry>,
    bulk_tx: BulkSender<KMsg>,
    flow: FlowControl,
    /// Self-addressed kernel messages (never touch the network).
    loopback: VecDeque<KMsg>,
    /// Packets and timers for the machine to pick up after the current
    /// entry point returns, in the order they were issued.
    outbox: Vec<Outbound>,
    /// Messages for keys this node knows nothing about yet (e.g. alias
    /// traffic racing the creation request).
    unknown_buffer: HashMap<AddrKey, Vec<Msg>>,
    /// Messages in `unknown_buffer` over all keys, kept at the park and
    /// flush sites so the per-step gauge does not walk the map.
    unknown_buffered: u32,
    /// (sender, key) pairs already sent a NameInfo cache reply — a
    /// sender bursting messages before our first reply lands must not
    /// trigger one reply per message.
    advised: std::collections::HashSet<(NodeId, AddrKey)>,
    /// Garbage-collection state (§9 future work).
    pub(crate) gc: GcState,
    /// Coordinator of the in-flight collection.
    gc_coordinator: NodeId,
    /// Coordinator-side accumulator of live counts during sweep.
    gc_live_total: u64,
    /// Depth of inline (stack-based) dispatch currently active.
    stack_depth: u32,
    /// Freelist of spent `Vec<Value>` argument buffers. Creation paths
    /// build one arg vector per actor (group creation builds one per
    /// *member*); recycling them turns that per-create heap churn into
    /// a pop/push on this stack.
    args_pool: Vec<Vec<Value>>,
    /// Set by `Ctx::stop` or an incoming Halt.
    pub stopped: bool,
    /// Counters; the machine merges these into its report.
    pub stats: StatSet,
    /// Values posted by actors via `Ctx::report` (harness results).
    pub reports: Vec<(String, Value)>,
    /// Flight recorder ([`crate::trace`]); `None` when tracing is off,
    /// boxed so the common case carries one cold pointer.
    recorder: Option<Box<Recorder>>,
    /// Metrics registry ([`crate::metrics`]), boxed like the recorder.
    /// `None` on a simulated machine with metrics off; a live kernel
    /// always has one ([`Kernel::set_metrics`]), because its cell is
    /// what `top` on another thread reads.
    metrics: Option<Box<Metrics>>,
    /// Reliable-delivery sender state (per-peer unacked queues). Only
    /// touched when the fault plan is active and `reliable` is on.
    rel_tx: RelSender<KMsg>,
    /// Reliable-delivery receiver state (per-peer dedup + holdback).
    rel_rx: RelReceiver<KMsg>,
    /// This node's pause windows from the fault plan, sorted by start.
    pauses: Vec<(VirtualTime, VirtualTime)>,
    /// First typed error hit on a public kernel path; stops the machine
    /// and surfaces through `SimMachine::run`.
    pub(crate) failed: Option<MachineError>,
}

impl Kernel {
    /// Build a kernel over a shared behavior registry.
    pub fn new(cfg: KernelConfig, registry: Arc<BehaviorRegistry>) -> Self {
        let balancer = Balancer::new(cfg.load_balancing, cfg.seed, cfg.me);
        let recorder = cfg.trace.then(|| {
            Box::new(Recorder::with_sampling(
                cfg.me,
                Recorder::DEFAULT_CAPACITY,
                cfg.span_sample_ppm,
            ))
        });
        let metrics = cfg
            .metrics
            .then(|| Box::new(Metrics::new(cfg.me, cfg.nodes, Metrics::DEFAULT_CADENCE_NS)));
        Kernel {
            recorder,
            metrics,
            names: NameServer::new(cfg.me),
            actors: ActorSlab::new(),
            joins: JoinTable::new(),
            firs: FirTable::new(),
            groups: GroupTable::new(),
            dispatcher: Dispatcher::new(),
            balancer,
            registry,
            bulk_tx: BulkSender::new(cfg.me),
            flow: FlowControl::new(),
            loopback: VecDeque::new(),
            outbox: Vec::new(),
            unknown_buffer: HashMap::new(),
            unknown_buffered: 0,
            advised: std::collections::HashSet::new(),
            gc: GcState::default(),
            gc_coordinator: 0,
            gc_live_total: 0,
            stack_depth: 0,
            args_pool: Vec::new(),
            stopped: false,
            clock: VirtualTime::ZERO,
            stats: StatSet::new(),
            reports: Vec::new(),
            rel_tx: RelSender::new(),
            rel_rx: RelReceiver::new(),
            pauses: cfg.faults.pauses_for(cfg.me),
            failed: None,
            cfg,
        }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.cfg.me
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Advance the virtual clock by a primitive's cost.
    #[inline]
    fn charge(&mut self, d: VirtualDuration) {
        self.clock += d;
        if let Some(m) = self.metrics.as_deref() {
            m.busy(d.as_nanos());
        }
    }

    /// Install this node's metrics registry in place of the one
    /// [`KernelConfig::metrics`] asked for: the live backend's, which
    /// samples on its own cadence and is present whether or not the
    /// timeseries was requested.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = Some(Box::new(metrics));
    }

    /// Bound on [`Kernel::args_pool`]: beyond this, spent buffers are
    /// simply dropped (a burst of group creations must not pin memory
    /// forever).
    const ARGS_POOL_MAX: usize = 64;

    /// An empty argument buffer with at least `cap` capacity, reusing a
    /// pooled allocation when one is available.
    #[inline]
    fn take_args(&mut self, cap: usize) -> Vec<Value> {
        match self.args_pool.pop() {
            Some(mut v) => {
                v.reserve(cap);
                v
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a spent argument buffer to the pool.
    #[inline]
    fn recycle_args(&mut self, mut v: Vec<Value>) {
        if self.args_pool.len() < Self::ARGS_POOL_MAX {
            v.clear();
            self.args_pool.push(v);
        }
    }

    /// Does this node have runnable work (ready actors or self-addressed
    /// kernel messages)?
    pub fn has_work(&self) -> bool {
        !self.dispatcher.is_empty() || !self.loopback.is_empty()
    }

    /// Live actors on this node.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Total actors ever created on this node.
    pub fn actors_created(&self) -> u64 {
        self.actors.created_total()
    }

    /// Read-only access to the name server (tests, diagnostics).
    pub fn name_server(&self) -> &NameServer {
        &self.names
    }

    /// Read-only access to the FIR table (tests, diagnostics).
    pub fn fir_table(&self) -> &FirTable {
        &self.firs
    }

    /// The flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// The metrics registry, if this kernel has one.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Store the gauges and sample them if a cadence boundary was
    /// crossed. Called from the two points where per-node state settles
    /// — the end of `step` and the end of `deliver` — whose sequence is a
    /// function of the seed alone on the simulator, so the timeseries is
    /// too.
    #[inline]
    fn metrics_tick(&mut self) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.tick(
                self.clock.as_nanos(),
                self.dispatcher.len(),
                self.names.table_entries(),
                self.firs.outstanding(),
                self.unknown_buffered,
            );
        }
    }

    /// Sample the cadence boundaries the clock has passed since the last
    /// settle point, with the gauges stored there. The live node loop
    /// calls this after re-anchoring the clock, so a node that slept
    /// through boundaries records them with the state it parked in.
    #[inline]
    pub(crate) fn metrics_catch_up(&mut self) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.advance(self.clock.as_nanos());
        }
    }

    /// Adjust the pending-queue-depth gauge (park/rescan/migration
    /// sites).
    #[inline]
    fn metrics_pending(&mut self, delta: i64) {
        if let Some(m) = self.metrics.as_deref() {
            m.pending(delta);
        }
    }

    /// The shared behavior registry (the loaded program image).
    pub fn registry(&self) -> &BehaviorRegistry {
        &self.registry
    }

    /// Audit this node's leftover protocol state — see [`crate::audit`].
    /// Exact (computed from live kernel tables, not the bounded trace
    /// ring) and meaningful at any time, though the interesting moment
    /// is after a run drained.
    pub fn quiescence_audit(&self) -> crate::audit::NodeAudit {
        let mut stranded_pending = 0u64;
        let mut stranded_keys = Vec::new();
        for aid in self.actors.live_ids() {
            if let Some(rec) = self.actors.get(aid) {
                if !rec.pendq.is_empty() {
                    stranded_pending += rec.pendq.len() as u64;
                    stranded_keys.push(rec.addr.key);
                }
            }
        }
        debug_assert_eq!(
            self.unknown_buffer.values().map(Vec::len).sum::<usize>(),
            self.unknown_buffered as usize,
            "running count of parked unknown-key messages drifted"
        );
        crate::audit::NodeAudit {
            node: self.cfg.me,
            stranded_pending,
            stranded_keys,
            unresolved_joins: self.joins.pending() as u64,
            outstanding_firs: self.firs.outstanding() as u64,
            unknown_buffered: u64::from(self.unknown_buffered),
        }
    }

    /// Record one trace event at the current clock. Callers on hot
    /// paths guard with `self.recorder.is_some()` so event construction
    /// is skipped entirely when tracing is off.
    #[inline]
    fn trace_event(&mut self, event: KernelEvent) {
        self.trace_event_span(event, 0, 0);
    }

    /// Record one trace event with lifecycle-span attribution (see
    /// [`TraceEvent::span`]).
    #[inline]
    fn trace_event_span(&mut self, event: KernelEvent, span: u64, parent: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            let time = self.clock;
            let node = self.cfg.me;
            r.ring.push(TraceEvent { time, node, seq: 0, span, parent, event });
        }
    }

    /// Stamp an outgoing actor message with a trace tag (first send
    /// only) and record the `MessageSent` event. No-op when tracing is
    /// off or the message is already stamped (re-sends keep their id so
    /// end-to-end latency spans the whole journey).
    fn trace_stamp_send(&mut self, msg: &mut Msg, key: AddrKey, remote: bool) {
        let Some(r) = self.recorder.as_deref_mut() else {
            return;
        };
        match msg.trace.as_mut() {
            None => {
                // Mint unconditionally — exact counts and the id
                // sequence are rate-independent — but push the lifecycle
                // event only for sampled ids. The tag is still attached
                // so forwards don't re-mint and downstream nodes can
                // recompute the same keep/drop decision from the id.
                let (id, keep) = r.mint_msg_span();
                let time = self.clock;
                let node = self.cfg.me;
                // The causal parent: the message whose handler is
                // executing right now (0 at bootstrap / between
                // dispatches). This edge is what makes spans a DAG.
                let parent = r.current_span;
                msg.trace = Some(TraceTag {
                    id,
                    sent_at: time,
                    flags: if remote { TraceTag::REMOTE } else { 0 },
                });
                if keep {
                    r.ring.push(TraceEvent {
                        time,
                        node,
                        seq: 0,
                        span: id,
                        parent,
                        event: KernelEvent::MessageSent { id, key, remote },
                    });
                }
            }
            Some(tag) if remote => tag.flags |= TraceTag::REMOTE,
            Some(_) => {}
        }
    }

    /// Latency from a tag's send time to now, robust against the
    /// loosely synchronized clocks of the live backend.
    #[inline]
    fn trace_latency_ns(&self, tag: &TraceTag) -> u64 {
        self.clock.as_nanos().saturating_sub(tag.sent_at.as_nanos())
    }

    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    /// Leave one packet for the machine, stamped with the clock as it is
    /// now.
    #[inline]
    fn emit(&mut self, dst: NodeId, env: AmEnvelope<KMsg>, wire: usize) {
        self.outbox.push(Outbound::Packet { at: self.clock, dst, env, wire });
    }

    /// Leave a self-addressed timer `after` from now for the machine.
    #[inline]
    fn arm_timer(&mut self, after: VirtualDuration, body: KMsg) {
        let fire_at = self.clock + after;
        self.outbox.push(Outbound::Timer { fire_at, env: AmEnvelope::Timer(body) });
    }

    /// Take everything sent or armed since the last drain, oldest first.
    /// A machine calls this after every kernel entry point it drives —
    /// [`Kernel::deliver`], [`Kernel::handle_packet`], [`Kernel::step`],
    /// [`Kernel::send_steal_poll`], [`Kernel::start_gc`],
    /// [`with_system_ctx`] — also when that call stopped the kernel: the
    /// Halt that [`Ctx::stop`] sends is in here.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Outbound> {
        self.outbox.drain(..)
    }

    /// Send a kernel message to `dst`, choosing the small or bulk path by
    /// wire size (§6.5). Local destinations loop back without touching
    /// the network.
    fn net_send(&mut self, dst: NodeId, kmsg: KMsg) {
        if dst == self.cfg.me {
            self.loopback.push_back(kmsg);
            return;
        }
        self.charge(self.cfg.cost.net_send_overhead);
        let wire = kmsg.wire_bytes();
        self.stats.bump("net.sends");
        if let Some(m) = self.metrics.as_deref() {
            m.net_send();
        }
        if wire <= MAX_SMALL_BYTES {
            self.inject_env(dst, AmEnvelope::Small(kmsg), wire + 16);
        } else if self.cfg.flow_control {
            // Three-phase protocol: announce, park the payload, wait for
            // the grant.
            let (_tag, req) = self.bulk_tx.begin(dst, kmsg, wire);
            self.stats.bump("net.bulk_requests");
            self.inject_env(dst, req, 16);
        } else {
            // Ablation: eager injection of bulk data (no grant). The
            // receiver will not run flow control either (same config
            // machine-wide).
            let env = AmEnvelope::BulkData {
                tag: 0,
                body: kmsg,
                bytes: wire,
            };
            self.stats.bump("net.bulk_eager");
            self.inject_env(dst, env, wire + 16);
        }
    }

    /// True when the fault plan can corrupt link traffic — the gate for
    /// both reliable wrapping and the FIR watchdog.
    #[inline]
    fn chaos_on(&self) -> bool {
        self.cfg.faults.link_faults()
    }

    /// True when outbound envelopes must travel under the reliable
    /// (seq + ack + retransmit) protocol: either a chaos plan that can
    /// corrupt the link, or a live transport that demands it outright.
    #[inline]
    fn rel_on(&self) -> bool {
        self.cfg.force_reliable || (self.chaos_on() && self.cfg.faults.reliable)
    }

    /// Record a typed failure and stop the machine. Only the first
    /// failure is kept; later ones are consequences of a dead machine.
    pub(crate) fn fail(&mut self, e: MachineError) {
        if self.failed.is_none() {
            self.failed = Some(e);
        }
        self.stopped = true;
    }

    /// Every kernel envelope leaves through here. Validates the
    /// destination, and — when the fault plan is live and `reliable` is
    /// on — wraps the envelope in [`AmEnvelope::Rel`], parks a
    /// retransmittable copy, and arms the per-peer retransmit timer.
    fn inject_env(&mut self, dst: NodeId, env: AmEnvelope<KMsg>, wire: usize) {
        if (dst as usize) >= self.cfg.nodes {
            self.fail(MachineError::InvalidNode {
                node: dst,
                nodes: self.cfg.nodes,
            });
            return;
        }
        if !self.rel_on() {
            self.emit(dst, env, wire);
            return;
        }
        // Note which message span (if any) rides this reliable packet,
        // so a later retransmit shows up as a retry on that span.
        let span = if self.recorder.is_some() {
            match &env {
                AmEnvelope::Small(KMsg::Deliver { msg, .. })
                | AmEnvelope::BulkData { body: KMsg::Deliver { msg, .. }, .. } => {
                    msg.trace.map_or(0, |t| t.id)
                }
                _ => 0,
            }
        } else {
            0
        };
        let ticket = self.rel_tx.register(dst, env, wire);
        if span != 0 {
            if let Some(r) = self.recorder.as_deref_mut() {
                // Head sampling: retransmits of unsampled messages stay
                // anonymous (span 0) rather than orphaning a span id the
                // ring never opened.
                if r.span_sampled(span) {
                    r.rel_span.insert((dst, ticket.seq), span);
                }
            }
        }
        let rel = AmEnvelope::Rel {
            seq: ticket.seq,
            body: ticket.payload,
            bytes: wire,
        };
        self.emit(dst, rel, wire + REL_HEADER);
        if ticket.arm_timer {
            self.arm_timer(self.cfg.faults.rto, KMsg::RetxTimer { peer: dst });
        }
    }

    /// Exponential backoff for retransmissions: `rto << attempt`, capped
    /// at `rto_max`.
    fn retx_delay(&self, attempt: u32) -> VirtualDuration {
        let ns = self
            .cfg
            .faults
            .rto
            .as_nanos()
            .checked_shl(attempt.min(16))
            .unwrap_or(u64::MAX)
            .min(self.cfg.faults.rto_max.as_nanos());
        VirtualDuration::from_nanos(ns)
    }

    // ------------------------------------------------------------------
    // Inbound path
    // ------------------------------------------------------------------

    /// Handle one arriving packet. The machine sets `self.clock` to at
    /// least the arrival time before calling. Node-manager work executes
    /// immediately on the current stack (the paper's "steals the
    /// processor").
    pub fn handle_packet(&mut self, pkt: Packet<KMsg>) {
        debug_assert_eq!(pkt.dst, self.cfg.me);
        match pkt.body {
            // Timers are local clock events, not network traffic: no
            // receive overhead, no recv counter.
            AmEnvelope::Timer(body) => {
                self.handle_timer(body);
                self.drain_loopback();
                return;
            }
            body => {
                self.charge(self.cfg.cost.net_recv_overhead);
                self.stats.bump("net.recvs");
                match body {
                    AmEnvelope::Rel { seq, body, bytes } => {
                        let cum_before = self.rel_rx.cum(pkt.src);
                        match self.rel_rx.on_data(pkt.src, seq, body, bytes) {
                            RxOutcome::Duplicate => {
                                self.stats.bump("rel.dup_dropped");
                                self.trace_event(KernelEvent::Drop { src: pkt.src, seq });
                            }
                            RxOutcome::Deliver(envs) => {
                                if self.recorder.is_some() {
                                    // The holdback released the in-order
                                    // prefix (cum_before, cum_after]: one
                                    // exactly-once point per sequence
                                    // number on this link.
                                    let cum_after = self.rel_rx.cum(pkt.src);
                                    for s in (cum_before + 1)..=cum_after {
                                        self.trace_event(KernelEvent::RelDelivered {
                                            src: pkt.src,
                                            seq: s,
                                        });
                                    }
                                }
                                for env in envs {
                                    self.stats.bump("rel.delivered");
                                    self.handle_envelope(pkt.src, env);
                                }
                            }
                        }
                        // Ack every Rel arrival (duplicates included —
                        // the ack that retired the original may itself
                        // have been lost). Cumulative, so idempotent.
                        let cum = self.rel_rx.cum(pkt.src);
                        self.charge(self.cfg.cost.net_send_overhead);
                        self.stats.bump("rel.acks");
                        if let Some(m) = self.metrics.as_deref() {
                            m.link_ack(pkt.src);
                        }
                        self.emit(pkt.src, AmEnvelope::RelAck { cum }, 16 + REL_HEADER);
                    }
                    AmEnvelope::RelAck { cum } => {
                        self.rel_tx.on_ack(pkt.src, cum);
                    }
                    env => self.handle_envelope(pkt.src, env),
                }
            }
        }
        self.drain_loopback();
    }

    /// Dispatch one unwrapped envelope (either straight off the wire on
    /// the fault-free fast path, or released in order by the reliable
    /// receiver).
    fn handle_envelope(&mut self, src: NodeId, env: AmEnvelope<KMsg>) {
        match env {
            AmEnvelope::Small(k) => self.handle_kmsg(src, k),
            AmEnvelope::BulkRequest { tag, bytes: _ } => {
                if let Some(grant) = self.flow.on_request(src, tag) {
                    self.net_send_ctl(grant.to, AmEnvelope::BulkAck { tag: grant.tag });
                }
            }
            AmEnvelope::BulkAck { tag } => {
                let (dst, data, bytes) = self.bulk_tx.on_ack(tag);
                self.charge(self.cfg.cost.net_send_overhead);
                self.inject_env(dst, data, bytes + 16);
            }
            AmEnvelope::BulkData { tag, body, bytes } => {
                if self.cfg.flow_control {
                    // Granted transfer: the receiver pre-posted a buffer
                    // when it issued the ack, so reception is a single
                    // copy out of the network interface.
                    self.charge(VirtualDuration::from_nanos(bytes as u64 * 10));
                    self.handle_kmsg(src, body);
                    if let Some(next) = self.flow.on_data_complete(src, tag) {
                        self.net_send_ctl(next.to, AmEnvelope::BulkAck { tag: next.tag });
                    }
                } else {
                    // Ablation (§6.5): unexpected bulk data. Active
                    // messages are unbuffered, so data arriving without a
                    // grant must be bounce-buffered — allocation plus an
                    // extra copy while the NI drains into memory. This is
                    // the receiver-side cost the three-phase protocol
                    // exists to avoid.
                    self.stats.bump("net.bulk_unexpected");
                    self.charge(VirtualDuration::from_nanos(5_000 + bytes as u64 * 30));
                    self.handle_kmsg(src, body);
                }
            }
            AmEnvelope::Rel { .. } | AmEnvelope::RelAck { .. } | AmEnvelope::Timer(_) => {
                unreachable!("reliability framing cannot nest")
            }
        }
    }

    /// Send a protocol control envelope (acks) — small, fixed size.
    fn net_send_ctl(&mut self, dst: NodeId, env: AmEnvelope<KMsg>) {
        self.charge(self.cfg.cost.net_send_overhead);
        self.inject_env(dst, env, 16);
    }

    // ------------------------------------------------------------------
    // Chaos timers (retransmit timeouts, FIR watchdog)
    // ------------------------------------------------------------------

    /// Would delivering this timer do nothing? Checked by the machine
    /// *before* clock mutation so stale timers (work already acked, FIR
    /// already answered) cost zero virtual time.
    pub fn timer_stale(&self, body: &KMsg) -> bool {
        match body {
            KMsg::RetxTimer { peer } => !self.rel_tx.has_unacked(*peer),
            KMsg::FirTimer { key } => !self.firs.is_pending(*key),
            _ => false,
        }
    }

    /// Retire a stale timer: disarm the peer's retransmit state so the
    /// next `register` arms a fresh timer.
    pub fn expire_timer(&mut self, body: &KMsg) {
        self.stats.bump("rel.timers_expired");
        if let KMsg::RetxTimer { peer } = body {
            self.rel_tx.expire(*peer);
        }
    }

    /// A live timer fired.
    fn handle_timer(&mut self, body: KMsg) {
        match body {
            KMsg::RetxTimer { peer } => match self.rel_tx.timer_fired(peer) {
                RetxDecision::Stale => {}
                RetxDecision::Retransmit { copies, attempt } => {
                    for (seq, payload, bytes) in copies {
                        self.charge(self.cfg.cost.net_send_overhead);
                        self.stats.bump("rel.retransmits");
                        if let Some(m) = self.metrics.as_deref() {
                            m.link_retransmit(peer);
                        }
                        let span = self
                            .recorder
                            .as_deref()
                            .and_then(|r| r.rel_span.get(&(peer, seq)).copied())
                            .unwrap_or(0);
                        self.trace_event_span(KernelEvent::Retransmit { peer, seq }, span, 0);
                        let rel = AmEnvelope::Rel { seq, body: payload, bytes };
                        self.emit(peer, rel, bytes + REL_HEADER);
                    }
                    self.arm_timer(self.retx_delay(attempt), KMsg::RetxTimer { peer });
                }
            },
            KMsg::FirTimer { key } => {
                if !self.firs.is_pending(key) {
                    return; // reply arrived first; let the watchdog die
                }
                let retries = self.firs.note_reissue(key);
                self.stats.bump("fir.reissued");
                let span = self
                    .recorder
                    .as_deref()
                    .and_then(|r| r.chase_span.get(&key).copied())
                    .unwrap_or(0);
                self.trace_event_span(KernelEvent::FirTimeout { key, retries }, span, 0);
                // Re-chase from current knowledge: our best guess if we
                // have one, else the birthplace (which always learns of
                // migrations, §4.3).
                let next = match self.names.resolve(key) {
                    Resolution::Remote { node, .. } => node,
                    Resolution::Local(_) => return, // arrived here; chase is moot
                    Resolution::Unknown => key.birthplace,
                };
                if next != self.cfg.me {
                    self.net_send(next, KMsg::Fir { key, span });
                    self.arm_timer(self.cfg.faults.fir_timeout, KMsg::FirTimer { key });
                }
            }
            other => unreachable!("not a timer: {other:?}"),
        }
    }

    /// Process self-addressed kernel messages until none remain.
    fn drain_loopback(&mut self) {
        while let Some(k) = self.loopback.pop_front() {
            let me = self.cfg.me;
            self.handle_kmsg(me, k);
        }
    }

    /// Node-manager message handling (§3): deliveries, creations, FIRs,
    /// replies, migrations, steals, group traffic.
    fn handle_kmsg(&mut self, src: NodeId, k: KMsg) {
        match k {
            KMsg::Deliver { target, msg } => self.handle_deliver(src, target, msg),
            KMsg::NameInfo { key, node, index, epoch } => {
                if let Some(r) = self.recorder.as_deref_mut() {
                    // If this NameInfo answers a §5 alias creation, the
                    // mint-to-resolution window just closed.
                    if let Some(born) = r.alias_born.remove(&key) {
                        let latency_ns =
                            self.clock.as_nanos().saturating_sub(born.as_nanos());
                        let span = r.alias_span.remove(&key).unwrap_or(0);
                        let time = self.clock;
                        let me = self.cfg.me;
                        r.ring.push(TraceEvent {
                            time,
                            node: me,
                            seq: 0,
                            span,
                            parent: 0,
                            event: KernelEvent::AliasResolved { key, latency_ns },
                        });
                    }
                }
                self.repair_descriptor(key, node, index, epoch)
            }
            KMsg::Create {
                alias,
                behavior,
                init,
                requester,
                span,
            } => self.handle_create(alias, behavior, init, requester, span),
            KMsg::Fir { key, span } => self.handle_fir(src, key, span),
            KMsg::FirFound { key, node, index, epoch } => {
                self.handle_fir_found(key, node, index, epoch)
            }
            KMsg::Reply { jc, slot, value, span } => self.fill_join(jc, slot, value, span),
            KMsg::MigrateArrive { image, from, stolen } => {
                self.handle_migrate_arrive(image, from, stolen)
            }
            KMsg::StealRequest { thief } => self.handle_steal_request(thief),
            KMsg::StealNone => {
                let now = self.clock;
                self.balancer.poll_failed(now, self.cfg.cost.steal_poll_interval);
            }
            KMsg::GrpCreate {
                group,
                behavior,
                init,
                root,
            } => self.handle_grp_create(group, behavior, init, root),
            KMsg::GrpBcast { group, msg, root } => self.handle_grp_bcast(group, msg, root),
            KMsg::GcBegin { coordinator, root } => self.handle_gc_begin(coordinator, root),
            KMsg::GcRoundGo { root } => self.handle_gc_round(root),
            KMsg::GcMark { keys } => self.gc.incoming.extend(keys),
            KMsg::GcRoundDone { activity } => self.handle_gc_round_done(activity),
            KMsg::GcSweepCmd { root } => self.handle_gc_sweep(root),
            KMsg::GcSwept { freed, live } => self.handle_gc_swept(freed, live),
            KMsg::Halt => self.stopped = true,
            KMsg::RetxTimer { .. } | KMsg::FirTimer { .. } => {
                unreachable!("timers are dispatched at the packet layer")
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-plan pauses & the canonical delivery entry point
    // ------------------------------------------------------------------

    /// Shift a would-be execution time out of this node's pause windows
    /// (fault plan `node_pauses`). Applied at execution entry only —
    /// never in scheduling keys.
    pub fn pause_shift(&self, mut t: VirtualTime) -> VirtualTime {
        for &(from, until) in &self.pauses {
            if t >= from && t < until {
                t = until;
            }
        }
        t
    }

    /// Deliver one queued packet with the paper's interrupt semantics
    /// (§3): the handler logically runs at arrival time, and whatever
    /// method it interrupted slips by the handler's CPU time. Returns
    /// the `(start, end)` handler span for the timeline, or `None` for a
    /// stale chaos timer (retired for free, without touching the clock).
    pub fn deliver(
        &mut self,
        t: VirtualTime,
        pkt: Packet<KMsg>,
    ) -> Option<(VirtualTime, VirtualTime)> {
        if let AmEnvelope::Timer(body) = &pkt.body {
            if self.timer_stale(body) {
                self.expire_timer(body);
                return None;
            }
        }
        let t = self.pause_shift(t);
        let busy_until = self.clock;
        self.clock = t;
        self.handle_packet(pkt);
        let handler_time = self.clock.since(t);
        self.clock = self.clock.max(busy_until + handler_time);
        self.metrics_tick();
        Some((t, t + handler_time))
    }

    // ------------------------------------------------------------------
    // Message delivery (Fig. 3)
    // ------------------------------------------------------------------

    /// Send `msg` to mail address `to` from this node (the generic send
    /// of Fig. 3, sender side).
    fn send_to_addr(&mut self, to: MailAddr, mut msg: Msg) {
        self.charge(self.cfg.cost.locality_check);
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, false);
                }
                self.charge(self.cfg.cost.local_send);
                self.stats.bump("msgs.local");
                self.enqueue_local(aid, msg);
            }
            Resolution::Remote { node, remote_index } => {
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, true);
                }
                if self.firs.is_pending(to.key) {
                    // We already know our guess is stale; park with the
                    // FIR instead of bouncing off the old node again.
                    if let Some(tag) = msg.trace.as_mut() {
                        tag.flags |= TraceTag::CHASED;
                    }
                    self.firs.buffer(to.key, msg);
                    self.stats.bump("fir.buffered_at_send");
                    return;
                }
                self.stats.bump("msgs.remote");
                let dst_desc = if self.cfg.opt.name_caching {
                    remote_index
                } else {
                    None
                };
                self.net_send(
                    node,
                    KMsg::Deliver {
                        target: Target::Addr {
                            key: to.key,
                            dst_desc,
                            route_hint: to.default_route(),
                        },
                        msg,
                    },
                );
            }
            Resolution::Unknown => {
                // First contact: allocate a best-guess descriptor toward
                // the default route and send there (§4.1).
                assert!(
                    to.key.birthplace != self.cfg.me,
                    "dangling local mail address {:?}",
                    to
                );
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, true);
                }
                let route = to.default_route();
                let d = self.names.alloc_remote(route, None, 0);
                self.names.bind(to.key, d);
                self.stats.bump("msgs.remote");
                self.stats.bump("name.first_contact");
                self.net_send(
                    route,
                    KMsg::Deliver {
                        target: Target::Addr {
                            key: to.key,
                            dst_desc: None,
                            route_hint: route,
                        },
                        msg,
                    },
                );
            }
        }
    }

    /// Receiver side of the generic send (Fig. 3): the node manager
    /// locates the actor or starts an FIR chase.
    fn handle_deliver(&mut self, src: NodeId, target: Target, msg: Msg) {
        match target {
            Target::Addr {
                key,
                dst_desc,
                route_hint,
            } => {
                // Cached-descriptor fast path: no name-table lookup.
                if let Some(d) = dst_desc {
                    if self.names.descriptor_live(d) {
                        match self.names.descriptor(d).locality {
                            Locality::Local(aid) => {
                                self.stats.bump("deliver.cached_hit");
                                self.enqueue_local(aid, msg);
                                return;
                            }
                            Locality::Remote { node, remote_index } => {
                                // Migrated away since the sender cached us.
                                self.stats.bump("deliver.cached_stale");
                                self.forward_or_chase(key, msg, node, remote_index);
                                return;
                            }
                        }
                    }
                }
                self.charge(self.cfg.cost.name_lookup);
                match self.names.resolve(key) {
                    Resolution::Local(aid) => {
                        // Reply with our descriptor index so the sender
                        // skips our name table next time (§4.1).
                        if self.cfg.opt.name_caching
                            && dst_desc.is_none()
                            && src != self.cfg.me
                            && self.advised.insert((src, key))
                        {
                            let d = self.names.descriptor_for(key).expect("just resolved");
                            let epoch = self.actor_epoch(aid);
                            self.net_send(
                                src,
                                KMsg::NameInfo {
                                    key,
                                    node: self.cfg.me,
                                    index: d,
                                    epoch,
                                },
                            );
                        }
                        self.enqueue_local(aid, msg);
                    }
                    Resolution::Remote { node, remote_index } => {
                        self.stats.bump("deliver.migrated");
                        self.forward_or_chase(key, msg, node, remote_index);
                    }
                    Resolution::Unknown => {
                        // Alias traffic racing the creation request, or a
                        // chase overtaking a migration: park until the
                        // key becomes known.
                        assert!(
                            key.birthplace != self.cfg.me || route_hint != self.cfg.me,
                            "undeliverable message to dangling key {key:?}"
                        );
                        self.stats.bump("deliver.unknown_parked");
                        self.unknown_buffer.entry(key).or_default().push(msg);
                        self.unknown_buffered += 1;
                    }
                }
            }
            Target::Member { group, index } => self.deliver_member(group, index, msg),
        }
    }

    /// A message arrived here for an actor that has moved on. If our
    /// information is *confirmed* (we hold the descriptor index on the
    /// believed node — i.e. that node itself told us the actor arrived),
    /// the location is known and the message is forwarded directly
    /// (§4.3: "once the location is known, the original message is sent
    /// directly to the node where the receiver resides"). Confirmed
    /// pointers are strictly epoch-increasing, so forwarding is acyclic.
    /// Unconfirmed history pointers trigger the FIR chase instead.
    fn forward_or_chase(
        &mut self,
        key: AddrKey,
        mut msg: Msg,
        node: NodeId,
        remote_index: Option<DescriptorId>,
    ) {
        // Any message that lands here is behind a migration: its
        // eventual delivery should count in the `migrated` latency
        // column.
        if let Some(tag) = msg.trace.as_mut() {
            tag.flags |= TraceTag::CHASED;
        }
        if !self.cfg.opt.fir_chase {
            // Ablation: forward the entire message along the chain (§4.3's
            // rejected alternative — bulk payloads traverse every hop).
            self.stats.bump("deliver.forwarded_whole");
            self.net_send(
                node,
                KMsg::Deliver {
                    target: Target::Addr {
                        key,
                        dst_desc: remote_index,
                        route_hint: node,
                    },
                    msg,
                },
            );
            return;
        }
        if self.firs.is_pending(key) {
            // A chase is already running; join it.
            self.stats.bump("fir.suppressed");
            let span = self
                .recorder
                .as_deref()
                .and_then(|r| r.chase_span.get(&key).copied())
                .unwrap_or(0);
            self.trace_event_span(KernelEvent::FirSuppressed { key }, span, 0);
            self.firs.buffer(key, msg);
            return;
        }
        match remote_index {
            Some(idx) => {
                self.stats.bump("deliver.forwarded");
                self.net_send(
                    node,
                    KMsg::Deliver {
                        target: Target::Addr {
                            key,
                            dst_desc: Some(idx),
                            route_hint: node,
                        },
                        msg,
                    },
                );
            }
            None => self.fir_chase(key, msg, node),
        }
    }

    /// Park `msg` and (unless one is already outstanding) send an FIR
    /// toward `next_hop` (§4.3: "instead of forwarding the entire message
    /// the node manager sends a special forwarding information request").
    fn fir_chase(&mut self, key: AddrKey, msg: Msg, next_hop: NodeId) {
        self.charge(self.cfg.cost.fir_handle);
        if self.firs.need_location(key) {
            self.stats.bump("fir.sent");
            // Open a chase span: every hop of this episode (here and on
            // relaying nodes) shares it, parented by the message that
            // triggered the chase.
            let (span, parent) = match self.recorder.as_deref_mut() {
                Some(r) => {
                    // Head sampling: an unsampled chase episode travels
                    // with span 0 — the protocol events still land in
                    // the ring for the histograms, but the span builder
                    // (which keys on span != 0) never opens an episode.
                    let span = r.next_msg_id();
                    let span = if r.span_sampled(span) { span } else { 0 };
                    if span != 0 {
                        r.chase_span.insert(key, span);
                    }
                    let parent = msg
                        .trace
                        .filter(|t| r.span_sampled(t.id))
                        .map_or(0, |t| t.id);
                    (span, parent)
                }
                None => (0, 0),
            };
            self.trace_event_span(KernelEvent::FirSent { key, to: next_hop }, span, parent);
            self.net_send(next_hop, KMsg::Fir { key, span });
            self.arm_fir_watchdog(key);
        } else {
            self.stats.bump("fir.suppressed");
            let span = self
                .recorder
                .as_deref()
                .and_then(|r| r.chase_span.get(&key).copied())
                .unwrap_or(0);
            self.trace_event_span(KernelEvent::FirSuppressed { key }, span, 0);
        }
        self.firs.buffer(key, msg);
    }

    /// An FIR arrived from `src` looking for `key`. `span` is the chase
    /// episode's span id, adopted by every relay so all hops of one
    /// chase share a single span.
    fn handle_fir(&mut self, src: NodeId, key: AddrKey, span: u64) {
        self.charge(self.cfg.cost.fir_handle);
        self.stats.bump("fir.handled");
        match self.names.resolve(key) {
            Resolution::Local(aid) => {
                let d = self.names.descriptor_for(key).expect("just resolved");
                let epoch = self.actor_epoch(aid);
                self.net_send(
                    src,
                    KMsg::FirFound {
                        key,
                        node: self.cfg.me,
                        index: d,
                        epoch,
                    },
                );
            }
            Resolution::Remote { node, .. } => {
                if self.firs.is_pending(key) {
                    self.firs.add_asker(key, src);
                } else {
                    self.firs.need_location(key);
                    self.firs.add_asker(key, src);
                    if span != 0 {
                        if let Some(r) = self.recorder.as_deref_mut() {
                            r.chase_span.insert(key, span);
                        }
                    }
                    self.trace_event_span(KernelEvent::FirSent { key, to: node }, span, 0);
                    self.net_send(node, KMsg::Fir { key, span });
                    self.arm_fir_watchdog(key);
                }
            }
            Resolution::Unknown => {
                // We know nothing (e.g. the actor is migrating toward us
                // and the FIR overtook the bulk transfer). Park the
                // question: if the actor arrives here, install completes
                // the FIR; otherwise fall back to the birthplace chain.
                assert!(
                    key.birthplace != self.cfg.me,
                    "FIR for dangling local key {key:?}"
                );
                if self.firs.is_pending(key) {
                    self.firs.add_asker(key, src);
                } else {
                    self.firs.need_location(key);
                    self.firs.add_asker(key, src);
                    if span != 0 {
                        if let Some(r) = self.recorder.as_deref_mut() {
                            r.chase_span.insert(key, span);
                        }
                    }
                    self.trace_event_span(
                        KernelEvent::FirSent { key, to: key.birthplace },
                        span,
                        0,
                    );
                    self.net_send(key.birthplace, KMsg::Fir { key, span });
                    self.arm_fir_watchdog(key);
                }
            }
        }
    }

    /// Under a live fault plan an FIR (or its reply) can be eaten by the
    /// link; arm a watchdog so the chase is re-issued instead of wedging
    /// the buffered messages forever.
    fn arm_fir_watchdog(&mut self, key: AddrKey) {
        if self.chaos_on() || self.cfg.force_reliable {
            self.arm_timer(self.cfg.faults.fir_timeout, KMsg::FirTimer { key });
        }
    }

    /// The FIR reply: repair our table, release parked messages, and
    /// propagate back along the chain.
    fn handle_fir_found(
        &mut self,
        key: AddrKey,
        node: NodeId,
        index: DescriptorId,
        epoch: u32,
    ) {
        self.charge(self.cfg.cost.fir_handle);
        self.stats.bump("fir.found");
        self.repair_descriptor(key, node, index, epoch);
        if let Some(m) = self.metrics.as_deref_mut() {
            // The located epoch is the forward-chain length behind this
            // chase — the paper's "how far did the actor get" number.
            m.chain_epochs.observe(u64::from(epoch));
        }
        if let Some(pending) = self.firs.complete(key) {
            let span = self
                .recorder
                .as_deref_mut()
                .and_then(|r| r.chase_span.remove(&key))
                .unwrap_or(0);
            self.trace_event_span(
                KernelEvent::FirReplyPropagated {
                    key,
                    node,
                    askers: pending.askers.len() as u32,
                    released: pending.buffered.len() as u32,
                },
                span,
                0,
            );
            for asker in pending.askers {
                self.net_send(asker, KMsg::FirFound { key, node, index, epoch });
            }
            for msg in pending.buffered {
                // "Once the location is known, the original message is
                // sent directly to the node where the receiver resides."
                self.stats.bump("fir.flushed");
                self.net_send(
                    node,
                    KMsg::Deliver {
                        target: Target::Addr {
                            key,
                            dst_desc: Some(index),
                            route_hint: node,
                        },
                        msg,
                    },
                );
            }
        }
    }

    /// The location epoch of a local actor (its migration hop count).
    fn actor_epoch(&self, aid: ActorId) -> u32 {
        self.actors.get(aid).map(|r| r.hops).unwrap_or(0)
    }

    /// Location gossip: update our descriptor for `key` unless we hold
    /// newer information. Local knowledge is authoritative, and gossip
    /// from an older epoch never overwrites a newer belief — this keeps
    /// forward chains strictly epoch-increasing, so FIR chases terminate
    /// even under arbitrarily reordered gossip.
    fn repair_descriptor(&mut self, key: AddrKey, node: NodeId, index: DescriptorId, epoch: u32) {
        let repaired = match self.names.descriptor_for(key) {
            Some(d) => {
                let desc = self.names.descriptor_mut(d);
                match desc.locality {
                    Locality::Local(_) => false, // authoritative; ignore gossip
                    Locality::Remote { .. } => {
                        if epoch >= desc.epoch {
                            desc.locality = Locality::Remote {
                                node,
                                remote_index: Some(index),
                            };
                            desc.epoch = epoch;
                            true
                        } else {
                            false
                        }
                    }
                }
            }
            None => {
                let d = self.names.alloc_remote(node, Some(index), epoch);
                self.names.bind(key, d);
                true
            }
        };
        if repaired && self.recorder.is_some() {
            self.trace_event(KernelEvent::NameRepaired { key, node, epoch });
        }
    }

    /// Enqueue a message for a local actor, scheduling it if idle.
    fn enqueue_local(&mut self, aid: ActorId, msg: Msg) {
        self.charge(self.cfg.cost.constraint_check);
        if self.recorder.is_some() {
            if let Some(tag) = msg.trace {
                let latency_ns = self.trace_latency_ns(&tag);
                let sampled = if let Some(r) = self.recorder.as_deref_mut() {
                    let keep = r.span_sampled(tag.id);
                    if keep {
                        // Enqueue time, for MessageExecuted's queued_ns.
                        r.delivered_at.insert(tag.id, self.clock);
                    }
                    keep
                } else {
                    false
                };
                if sampled {
                    self.trace_event_span(
                        KernelEvent::MessageDelivered {
                            id: tag.id,
                            latency_ns,
                            path: tag.path(),
                        },
                        tag.id,
                        0,
                    );
                }
            }
        }
        if self.actors.enqueue(aid, msg) {
            self.dispatcher.push(aid);
        }
    }

    // ------------------------------------------------------------------
    // Creation (§5)
    // ------------------------------------------------------------------

    /// Install a behavior as a new local actor; returns its id and
    /// ordinary mail address.
    fn install_actor(&mut self, behavior: Box<dyn Behavior>) -> (ActorId, MailAddr) {
        let aid = self.actors.insert(ActorRecord::new(behavior));
        let d = self.names.alloc_local(aid, 0);
        let addr = MailAddr::ordinary(self.cfg.me, d);
        let rec = self.actors.get_mut(aid).expect("just inserted");
        rec.addr = addr;
        rec.keys.push(addr.key);
        self.stats.bump("actors.created");
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::ActorCreated { key: addr.key });
        }
        (aid, addr)
    }

    /// Local creation: the `new` primitive when the target is this node.
    fn create_local(&mut self, behavior: Box<dyn Behavior>) -> MailAddr {
        self.charge(self.cfg.cost.local_creation);
        let (_aid, addr) = self.install_actor(behavior);
        addr
    }

    /// Remote creation with alias-based latency hiding (§5): mint the
    /// alias, fire off the request, and return immediately.
    fn create_remote(
        &mut self,
        node: NodeId,
        behavior: BehaviorId,
        init: Vec<Value>,
    ) -> MailAddr {
        debug_assert_ne!(node, self.cfg.me);
        self.charge(self.cfg.cost.remote_creation_request);
        if !self.cfg.opt.aliases {
            // Ablation: no aliases means the creating actor must wait
            // for the new actor's real mail address to come back — a
            // full round trip of stall on top of the request cost (§5's
            // rejected alternative on stock hardware).
            self.charge(self.cfg.cost.remote_creation_rtt_stall);
            self.stats.bump("actors.remote_blocking");
        }
        self.stats.bump("actors.remote_requests");
        let d = self.names.alloc_remote(node, None, 0);
        let alias = MailAddr::alias(self.cfg.me, d, node, behavior);
        let mut span = 0;
        if let Some(r) = self.recorder.as_deref_mut() {
            // Open an alias-creation span: mint (here) → install (at
            // the target) → resolve (the NameInfo landing back here),
            // parented by the requesting handler's message. Under head
            // sampling an unsampled episode keeps span 0: the raw event
            // still lands (latency histograms stay exact) but the span
            // builder never opens it.
            span = r.next_msg_id();
            if !r.span_sampled(span) {
                span = 0;
            }
            let parent = r.current_span;
            r.alias_born.insert(alias.key, self.clock);
            if span != 0 {
                r.alias_span.insert(alias.key, span);
            }
            let time = self.clock;
            let me = self.cfg.me;
            r.ring.push(TraceEvent {
                time,
                node: me,
                seq: 0,
                span,
                parent,
                event: KernelEvent::AliasCreated { key: alias.key, target: node },
            });
        }
        self.net_send(
            node,
            KMsg::Create {
                alias: alias.key,
                behavior,
                init,
                requester: self.cfg.me,
                span,
            },
        );
        alias
    }

    /// Remote side of a creation request. `span` is the requester's
    /// alias-creation span (0 when tracing is off there).
    fn handle_create(
        &mut self,
        alias: AddrKey,
        behavior: BehaviorId,
        init: Vec<Value>,
        requester: NodeId,
        span: u64,
    ) {
        self.charge(self.cfg.cost.remote_creation_work);
        let Some(b) = self.registry.try_create(behavior, &init) else {
            self.recycle_args(init);
            self.fail(MachineError::UnknownBehavior {
                behavior,
                node: self.cfg.me,
            });
            return;
        };
        self.recycle_args(init);
        let (aid, addr) = self.install_actor(b);
        // Register the alias alongside the ordinary address ("registers
        // the actor in its local name table with the received alias").
        let d = addr.key.index;
        self.names.bind(alias, d);
        if self.recorder.is_some() {
            // The alias key now names a live actor too — deliveries
            // through it are legitimate from this point on. Carries the
            // requester's span: this is the "install" leg of the alias
            // lifecycle (mint → install → resolve).
            self.trace_event_span(KernelEvent::ActorCreated { key: alias }, span, 0);
        }
        self.actors
            .get_mut(aid)
            .expect("just installed")
            .keys
            .push(alias);
        self.flush_unknown(alias, aid);
        self.flush_unknown(addr.key, aid);
        self.complete_local_fir(alias, d, 0);
        self.complete_local_fir(addr.key, d, 0);
        // Cache our descriptor index back at the requester ("as
        // background processing").
        // Observe the moment the actor exists — the paper's "actual
        // creation" latency (20.83 us end to end).
        self.stats.observe("create.remote_actual_ns", self.clock.as_nanos());
        self.net_send(
            requester,
            KMsg::NameInfo {
                key: alias,
                node: self.cfg.me,
                index: d,
                epoch: 0,
            },
        );
        self.stats.bump("actors.remote_created");
    }

    /// Deliver any messages parked for a previously unknown key.
    fn flush_unknown(&mut self, key: AddrKey, aid: ActorId) {
        if let Some(msgs) = self.unknown_buffer.remove(&key) {
            self.unknown_buffered -= msgs.len() as u32;
            for msg in msgs {
                self.enqueue_local(aid, msg);
            }
        }
    }

    /// If this node was chasing `key` with an FIR, the chase ends here:
    /// the actor just became local. Answer askers, deliver parked mail.
    fn complete_local_fir(
        &mut self,
        key: AddrKey,
        index: DescriptorId,
        epoch: u32,
    ) {
        if let Some(pending) = self.firs.complete(key) {
            let me = self.cfg.me;
            let span = self
                .recorder
                .as_deref_mut()
                .and_then(|r| r.chase_span.remove(&key))
                .unwrap_or(0);
            // The chase ends here because the actor became local: same
            // terminal event as a reply arriving, so the checker sees
            // every opened chase close.
            self.trace_event_span(
                KernelEvent::FirReplyPropagated {
                    key,
                    node: me,
                    askers: pending.askers.len() as u32,
                    released: pending.buffered.len() as u32,
                },
                span,
                0,
            );
            for asker in pending.askers {
                self.net_send(asker, KMsg::FirFound { key, node: me, index, epoch });
            }
            if !pending.buffered.is_empty() {
                if let Resolution::Local(aid) = self.names.resolve(key) {
                    for msg in pending.buffered {
                        self.enqueue_local(aid, msg);
                    }
                } else {
                    unreachable!("complete_local_fir on non-local key");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Join continuations (§6.2)
    // ------------------------------------------------------------------

    /// Fill a join slot; fire the continuation if complete. `span` is
    /// the span of the message whose handler produced the reply; sends
    /// issued by the fired continuation are parented by it so the
    /// causal chain survives the join.
    fn fill_join(&mut self, jc: JcId, slot: u16, value: Value, span: u64) {
        self.charge(self.cfg.cost.join_fill);
        if let Some(fired) = self.joins.fill(jc, slot, value) {
            self.charge(self.cfg.cost.join_fire);
            self.stats.bump("joins.fired");
            let saved = if let Some(r) = self.recorder.as_deref_mut() {
                let saved = r.current_span;
                r.current_span = span;
                saved
            } else {
                0
            };
            let mut ctx = Ctx {
                k: self,
                ident: Ident::Continuation,
                customer: None,
                become_to: None,
                migrate_to: None,
            };
            (fired.func)(&mut ctx, fired.values);
            debug_assert!(ctx.become_to.is_none(), "continuations cannot become");
            debug_assert!(ctx.migrate_to.is_none(), "continuations cannot migrate");
            if let Some(r) = self.recorder.as_deref_mut() {
                r.current_span = saved;
            }
        }
    }

    /// Route a reply to a continuation reference.
    fn send_reply(&mut self, cont: ContRef, value: Value) {
        let span = self.recorder.as_deref().map_or(0, |r| r.current_span);
        match cont {
            ContRef::Join { node, jc, slot } => {
                if node == self.cfg.me {
                    self.fill_join(jc, slot, value, span);
                } else {
                    self.stats.bump("replies.remote");
                    self.net_send(node, KMsg::Reply { jc, slot, value, span });
                }
            }
            ContRef::Actor { addr, selector } => {
                self.send_to_addr(addr, Msg::new(selector, vec![value]));
            }
        }
    }

    // ------------------------------------------------------------------
    // Migration + load balancing
    // ------------------------------------------------------------------

    /// Ship actor `aid` to `dst`. The actor must be checked in and not
    /// scheduled (callers arrange this). `stolen` marks steal-reply
    /// migrations so the thief can clear its poll state.
    fn migrate_out(&mut self, aid: ActorId, dst: NodeId, stolen: bool) {
        self.charge(self.cfg.cost.migrate_fixed);
        let rec = self.actors.remove(aid);
        // Every local descriptor for the actor becomes a forward pointer
        // — the migration history of §4.3 — stamped with the epoch the
        // actor will have after this hop.
        let next_epoch = rec.hops + 1;
        for &key in &rec.keys {
            if let Some(d) = self.names.descriptor_for(key) {
                let desc = self.names.descriptor_mut(d);
                desc.locality = Locality::Remote {
                    node: dst,
                    remote_index: None,
                };
                desc.epoch = next_epoch;
            }
        }
        self.stats.bump("migrations.out");
        self.metrics_pending(-(rec.pendq.len() as i64));
        let image = ActorImage {
            behavior: rec.behavior,
            mailq: rec.mailq.into(),
            pendq: rec.pendq.into(),
            keys: rec.keys,
            group: rec.group,
            hops: next_epoch,
        };
        self.net_send(
            dst,
            KMsg::MigrateArrive {
                image,
                from: self.cfg.me,
                stolen,
            },
        );
    }

    /// An actor arrives (migration or steal).
    fn handle_migrate_arrive(
        &mut self,
        image: ActorImage,
        from: NodeId,
        stolen: bool,
    ) {
        self.charge(self.cfg.cost.migrate_fixed);
        self.stats.bump("migrations.in");
        if stolen {
            self.balancer.poll_succeeded();
        }
        let primary = image.keys[0];
        let epoch = image.hops;
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::ActorMigrated { key: primary, from, epoch });
        }
        self.metrics_pending(image.pendq.len() as i64);
        let aid = self.actors.insert(ActorRecord {
            behavior: image.behavior,
            addr: MailAddr::ordinary(primary.birthplace, primary.index),
            mailq: image.mailq.into(),
            pendq: image.pendq.into(),
            scheduled: false,
            keys: image.keys,
            group: image.group,
            hops: epoch,
        });
        self.stats.bump("actors.created"); // arrival installs a record
        let keys = self.actors.get(aid).expect("just inserted").keys.clone();
        // Keys born here resolve through the arena fast path: their
        // original descriptor must become Local *in place* (allocating a
        // fresh one would leave an orphan that other nodes could cache
        // and later resolve to a recycled actor slot). Foreign keys bind
        // to one shared fresh descriptor.
        let mut shared: Option<DescriptorId> = None;
        for key in &keys {
            if key.birthplace == self.cfg.me && self.names.descriptor_live(key.index) {
                let desc = self.names.descriptor_mut(key.index);
                desc.locality = Locality::Local(aid);
                desc.epoch = epoch;
            } else {
                let d = *shared.get_or_insert_with(|| self.names.alloc_local(aid, epoch));
                self.names.bind(*key, d);
            }
        }
        for key in &keys {
            self.flush_unknown(*key, aid);
            let idx = self
                .names
                .descriptor_for(*key)
                .expect("key just registered");
            self.complete_local_fir(*key, idx, epoch);
        }
        // Cache the new location at the birthplace and the old node
        // (§4.3 "cached in its birthplace node as well as in the old
        // node").
        let me = self.cfg.me;
        let primary_key = keys[0];
        let primary_desc = self
            .names
            .descriptor_for(primary_key)
            .expect("primary key just registered");
        if primary_key.birthplace != me {
            self.net_send(
                primary_key.birthplace,
                KMsg::NameInfo {
                    key: primary_key,
                    node: me,
                    index: primary_desc,
                    epoch,
                },
            );
        }
        if from != me && from != primary_key.birthplace {
            self.net_send(
                from,
                KMsg::NameInfo {
                    key: primary_key,
                    node: me,
                    index: primary_desc,
                    epoch,
                },
            );
        }
        // Schedule if it carried work.
        let rec = self.actors.get_mut(aid).expect("just inserted");
        if !rec.mailq.is_empty() || !rec.pendq.is_empty() {
            rec.scheduled = true;
            self.dispatcher.push(aid);
        }
    }

    /// Idle-node action: send a steal request to a random victim (§7.2).
    /// The machine calls this when the node is idle and `may_poll`.
    pub fn send_steal_poll(&mut self) {
        debug_assert!(self.balancer.may_poll(self.clock));
        let victim = self.balancer.start_poll(self.cfg.me, self.cfg.nodes);
        self.stats.bump("steal.polls");
        self.trace_event(KernelEvent::StealRequest { victim });
        self.net_send(victim, KMsg::StealRequest { thief: self.cfg.me });
    }

    /// Victim side of a steal: donate up to half the ready queue
    /// (Kumar/Grama/Rao work splitting) or decline. Work is taken from
    /// the tail — the coldest, largest-subtree end. Group members are
    /// stealable too: their home-node entry keeps a mail address, and
    /// descriptors forward.
    fn handle_steal_request(&mut self, thief: NodeId) {
        self.charge(self.cfg.cost.steal_handle);
        let batch = self.dispatcher.steal_half(16);
        if batch.is_empty() {
            self.stats.bump("steal.denied");
            self.net_send(thief, KMsg::StealNone);
            return;
        }
        for aid in batch {
            if let Some(rec) = self.actors.get_mut(aid) {
                rec.scheduled = false;
                self.stats.bump("steal.granted");
                self.trace_event(KernelEvent::StealGrant { thief });
                self.migrate_out(aid, thief, true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Groups (§2.2, §6.4)
    // ------------------------------------------------------------------

    /// `grpnew`: mint the group, create local members, fan out along the
    /// spanning tree. Returns the id immediately.
    fn grpnew(
        &mut self,
        behavior: BehaviorId,
        count: u32,
        init: Vec<Value>,
        mapping: Mapping,
    ) -> GroupId {
        let group = self.groups.mint(self.cfg.me, count, mapping);
        let me = self.cfg.me;
        self.handle_grp_create(group, behavior, init, me);
        group
    }

    fn handle_grp_create(
        &mut self,
        group: GroupId,
        behavior: BehaviorId,
        init: Vec<Value>,
        root: NodeId,
    ) {
        // Relay down the tree first so subtree creation overlaps ours.
        for child in bcast::children(self.cfg.me, root, self.cfg.nodes) {
            self.net_send(
                child,
                KMsg::GrpCreate {
                    group,
                    behavior,
                    init: init.clone(),
                    root,
                },
            );
        }
        let count = group.count();
        let mut members = Vec::new();
        for idx in members_on(self.cfg.me, count, self.cfg.nodes, group.mapping()) {
            self.charge(self.cfg.cost.local_creation);
            // One pooled buffer per member instead of a fresh clone of
            // `init` — group creation is the kernel's hottest
            // allocation site (one vector per member per node).
            let mut args = self.take_args(init.len() + 3);
            args.extend_from_slice(&init);
            args.push(Value::Group(group));
            args.push(Value::Int(idx as i64));
            args.push(Value::Int(count as i64));
            let Some(b) = self.registry.try_create(behavior, &args) else {
                self.recycle_args(args);
                self.fail(MachineError::UnknownBehavior {
                    behavior,
                    node: self.cfg.me,
                });
                return;
            };
            self.recycle_args(args);
            let (aid, addr) = self.install_actor(b);
            self.actors.get_mut(aid).expect("just installed").group = Some((group, idx));
            members.push((idx, addr));
        }
        self.recycle_args(init);
        self.stats.add("groups.members_created", members.len() as u64);
        let (parked_member, parked_bcast) = self.groups.install(group, members);
        for (idx, msg) in parked_member {
            self.deliver_member(group, idx, msg);
        }
        for msg in parked_bcast {
            self.deliver_bcast_local(group, msg);
        }
    }

    /// Route a message to group member `index` (home-node resolution).
    fn deliver_member(&mut self, group: GroupId, index: u32, msg: Msg) {
        let home = home_node(index, group.count(), self.cfg.nodes, group.mapping());
        if home == self.cfg.me {
            if let Some(addr) = self.groups.member(group, index) {
                self.send_to_addr(addr, msg);
            } else if self.groups.known(group) {
                panic!("group {group:?} installed without member {index}");
            } else {
                self.groups.park_member(group, index, msg);
            }
        } else {
            self.net_send(
                home,
                KMsg::Deliver {
                    target: Target::Member { group, index },
                    msg,
                },
            );
        }
    }

    /// Broadcast to a group from this node.
    fn broadcast(&mut self, group: GroupId, msg: Msg) {
        let me = self.cfg.me;
        self.stats.bump("bcast.initiated");
        self.handle_grp_bcast(group, msg, me);
    }

    fn handle_grp_bcast(&mut self, group: GroupId, msg: Msg, root: NodeId) {
        for child in bcast::children(self.cfg.me, root, self.cfg.nodes) {
            self.net_send(
                child,
                KMsg::GrpBcast {
                    group,
                    msg: msg.clone(),
                    root,
                },
            );
        }
        if self.groups.known(group) {
            self.deliver_bcast_local(group, msg);
        } else {
            self.groups.park_bcast(group, msg);
        }
    }

    /// Collective scheduling (§6.4): deliver a broadcast to every local
    /// member consecutively — one dispatch charge for the whole quantum
    /// rather than one per message.
    fn deliver_bcast_local(&mut self, group: GroupId, msg: Msg) {
        let members = self.groups.local_members(group);
        if members.is_empty() {
            return;
        }
        if self.cfg.opt.collective_bcast {
            // One dispatch for the whole local quantum (§6.4).
            self.charge(self.cfg.cost.dispatch);
        }
        self.stats.add("bcast.local_deliveries", members.len() as u64);
        let last = members.len() - 1;
        let mut msg = Some(msg);
        for (i, (_idx, addr)) in members.into_iter().enumerate() {
            if !self.cfg.opt.collective_bcast {
                // Ablation: every member delivery is its own scheduling
                // event.
                self.charge(self.cfg.cost.dispatch);
                self.charge(self.cfg.cost.local_send);
            }
            // Members homed here are usually still local; if one migrated
            // the normal descriptor path forwards it.
            self.charge(self.cfg.cost.constraint_check);
            // The last member takes the message itself; only the first
            // `len - 1` deliveries pay for a clone.
            let mut m = if i == last {
                msg.take().expect("taken once")
            } else {
                msg.as_ref().expect("not yet taken").clone()
            };
            match self.names.resolve(addr.key) {
                Resolution::Local(aid) => {
                    // Collective deliveries bypass send_to_addr, so each
                    // member's copy is stamped here — a broadcast is N
                    // logical sends, one fresh id per member, keeping the
                    // checker's exactly-once pass meaningful.
                    if self.recorder.is_some() && m.trace.is_none() {
                        self.trace_stamp_send(&mut m, addr.key, false);
                        if let Some(tag) = m.trace {
                            let latency_ns = self.trace_latency_ns(&tag);
                            let sampled = if let Some(r) = self.recorder.as_deref_mut() {
                                let keep = r.span_sampled(tag.id);
                                if keep {
                                    r.delivered_at.insert(tag.id, self.clock);
                                }
                                keep
                            } else {
                                false
                            };
                            if sampled {
                                self.trace_event_span(
                                    KernelEvent::MessageDelivered {
                                        id: tag.id,
                                        latency_ns,
                                        path: tag.path(),
                                    },
                                    tag.id,
                                    0,
                                );
                            }
                        }
                    }
                    if self.actors.enqueue(aid, m) {
                        self.dispatcher.push(aid);
                    }
                }
                _ => self.send_to_addr(addr, m),
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection (§9 future work)
    // ------------------------------------------------------------------

    /// Coordinator entry point: start a distributed collection from this
    /// node. The machine calls this at a quiescent point.
    pub fn start_gc(&mut self) {
        assert!(
            self.joins.pending() == 0,
            "GC requires quiescence without pending join continuations"
        );
        self.gc.coord = Some(CoordState {
            awaiting: self.cfg.nodes,
            round_activity: 0,
            rounds: 0,
            freed: 0,
        });
        let me = self.cfg.me;
        // Deliver to ourselves through the loopback so the coordinator
        // node follows the identical code path as everyone else.
        self.loopback.push_back(KMsg::GcBegin {
            coordinator: me,
            root: me,
        });
        self.drain_loopback();
    }

    /// Where a traced mail address should be marked: locally now, or at
    /// the believed owner. Returns the number of *new* local marks.
    fn gc_trace_addr(&mut self, addr: MailAddr, work: &mut Vec<ActorId>, out: &mut MarkBatches) -> u64 {
        match self.names.resolve(addr.key) {
            Resolution::Local(aid) => {
                if self.gc.mark(aid) {
                    work.push(aid);
                    1
                } else {
                    0
                }
            }
            Resolution::Remote { node, .. } => {
                out.push(node, addr.key);
                0
            }
            Resolution::Unknown => {
                out.push(addr.default_route(), addr.key);
                0
            }
        }
    }

    /// Trace from the current worklist to a local fixpoint; batch remote
    /// references. Returns new local marks.
    fn gc_trace(&mut self, mut work: Vec<ActorId>, out: &mut MarkBatches) -> u64 {
        let mut new_marks = 0;
        while let Some(aid) = work.pop() {
            let refs = match self.actors.get(aid) {
                Some(rec) => rec.behavior.acquaintances(),
                None => continue,
            };
            for addr in refs {
                new_marks += self.gc_trace_addr(addr, &mut work, out);
            }
        }
        new_marks
    }

    /// Local roots: pinned actors, actors with queued work, and group
    /// members (externally reachable by `(group, index)`).
    fn gc_roots(&mut self) -> Vec<ActorId> {
        let mut roots: Vec<ActorId> = Vec::new();
        for aid in self.actors.live_ids() {
            let rec = self.actors.get(aid).expect("live id");
            let is_root = self.gc.pinned.contains(&aid)
                || rec.scheduled
                || !rec.mailq.is_empty()
                || !rec.pendq.is_empty()
                || rec.group.is_some();
            if is_root {
                roots.push(aid);
            }
        }
        roots
    }

    fn gc_flush_batches(&mut self, out: MarkBatches) -> u64 {
        let mut forwarded = 0;
        for (node, keys) in out.drain() {
            forwarded += keys.len() as u64;
            self.net_send(node, KMsg::GcMark { keys });
        }
        forwarded
    }

    fn handle_gc_begin(&mut self, coordinator: NodeId, root: NodeId) {
        for child in bcast::children(self.cfg.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcBegin { coordinator, root });
        }
        assert!(
            self.joins.pending() == 0,
            "GC requires quiescence without pending join continuations"
        );
        let was_active = self.gc.active;
        let coord = self.gc.coord.take();
        self.gc.begin();
        self.gc.coord = coord;
        debug_assert!(!was_active, "nested collection");
        self.gc_coordinator = coordinator;
        let roots: Vec<ActorId> = self.gc_roots();
        let mut newly = Vec::new();
        for aid in roots {
            if self.gc.mark(aid) {
                newly.push(aid);
            }
        }
        let mut out = MarkBatches::default();
        let mut activity = newly.len() as u64;
        activity += self.gc_trace(newly, &mut out);
        activity += self.gc_flush_batches(out);
        self.net_send(coordinator, KMsg::GcRoundDone { activity });
    }

    fn handle_gc_round(&mut self, root: NodeId) {
        for child in bcast::children(self.cfg.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcRoundGo { root });
        }
        let incoming = std::mem::take(&mut self.gc.incoming);
        let mut out = MarkBatches::default();
        let mut work = Vec::new();
        let mut activity = 0u64;
        for key in incoming {
            match self.names.resolve(key) {
                Resolution::Local(aid) => {
                    if self.gc.mark(aid) {
                        work.push(aid);
                        activity += 1;
                    }
                }
                Resolution::Remote { node, .. } => {
                    out.push(node, key);
                }
                Resolution::Unknown => {
                    // At the birthplace an unknown key means the actor is
                    // already gone; elsewhere, ask the birthplace.
                    if key.birthplace != self.cfg.me {
                        out.push(key.birthplace, key);
                    }
                }
            }
        }
        activity += self.gc_trace(work, &mut out);
        activity += self.gc_flush_batches(out);
        let coordinator = self.gc_coordinator;
        self.net_send(coordinator, KMsg::GcRoundDone { activity });
    }

    fn handle_gc_round_done(&mut self, activity: u64) {
        let me = self.cfg.me;
        let nodes = self.cfg.nodes;
        let coord = self.gc.coord.as_mut().expect("round report at non-coordinator");
        coord.awaiting -= 1;
        coord.round_activity += activity;
        if coord.awaiting > 0 {
            return;
        }
        if coord.round_activity > 0 {
            coord.awaiting = nodes;
            coord.round_activity = 0;
            coord.rounds += 1;
            self.loopback.push_back(KMsg::GcRoundGo { root: me });
        } else {
            coord.awaiting = nodes;
            self.loopback.push_back(KMsg::GcSweepCmd { root: me });
        }
    }

    fn handle_gc_sweep(&mut self, root: NodeId) {
        for child in bcast::children(self.cfg.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcSweepCmd { root });
        }
        let mut freed = 0u64;
        let mut swept_keys = std::collections::HashSet::new();
        for aid in self.actors.live_ids() {
            if self.gc.marked.contains(&aid) {
                continue;
            }
            let rec = self.actors.remove(aid);
            swept_keys.extend(rec.keys.iter().copied());
            for key in &rec.keys {
                if key.birthplace == self.cfg.me {
                    if self.names.descriptor_live(key.index) {
                        self.names.free_descriptor(key.index);
                    }
                } else if let Some(d) = self.names.unbind(*key) {
                    if self.names.descriptor_live(d) {
                        self.names.free_descriptor(d);
                    }
                }
            }
            freed += 1;
        }
        // A dead key's "already advised" marks must not outlive it: the
        // set would grow with actors ever addressed, and a recycled
        // descriptor index would inherit them.
        if !swept_keys.is_empty() {
            self.advised.retain(|(_, key)| !swept_keys.contains(key));
        }
        self.stats.add("gc.freed", freed);
        self.gc.active = false;
        let live = self.actors.len() as u64;
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::GcSweep { freed, live });
        }
        let coordinator = self.gc_coordinator;
        self.net_send(coordinator, KMsg::GcSwept { freed, live });
    }

    fn handle_gc_swept(&mut self, freed: u64, live: u64) {
        let coord = self.gc.coord.as_mut().expect("sweep report at non-coordinator");
        coord.awaiting -= 1;
        coord.freed += freed;
        self.gc_live_total += live;
        if coord.awaiting == 0 {
            let rounds = coord.rounds;
            let freed = coord.freed;
            let live = self.gc_live_total;
            self.gc_live_total = 0;
            self.reports.push(("gc_freed".into(), Value::Int(freed as i64)));
            self.reports.push(("gc_rounds".into(), Value::Int(rounds as i64)));
            self.reports.push(("gc_live".into(), Value::Int(live as i64)));
        }
    }

    // ------------------------------------------------------------------
    // Scheduling (§6.3)
    // ------------------------------------------------------------------

    /// Bootstrap: create an actor on this node before the machine runs
    /// (the front-end loading a program) and optionally hand it an
    /// initial message.
    pub fn bootstrap(&mut self, behavior: Box<dyn Behavior>, initial: Option<Msg>) -> MailAddr {
        let (aid, addr) = self.install_actor(behavior);
        if let Some(msg) = initial {
            self.enqueue_local(aid, msg);
        }
        addr
    }

    /// Run one scheduling step: drain loopback work, then execute one
    /// ready actor for up to a quantum of messages. Returns `true` if any
    /// work was done.
    pub fn step(&mut self) -> bool {
        if !self.pauses.is_empty() {
            self.clock = self.pause_shift(self.clock);
        }
        if !self.loopback.is_empty() {
            self.drain_loopback();
            self.metrics_tick();
            return true;
        }
        let Some(aid) = self.dispatcher.pop() else {
            return false;
        };
        self.charge(self.cfg.cost.dispatch);
        self.run_actor(aid);
        self.drain_loopback();
        self.metrics_tick();
        true
    }

    /// Execute up to `quantum` enabled messages on actor `aid`, with
    /// pending-queue rescans after each method (§6.1).
    fn run_actor(&mut self, aid: ActorId) {
        let Some(mut rec) = self.actors.checkout(aid) else {
            // Stolen or migrated between scheduling and execution.
            return;
        };
        rec.scheduled = false;
        let mut processed = 0usize;
        let mut migrate_req: Option<NodeId> = None;

        loop {
            if processed >= self.cfg.quantum || migrate_req.is_some() {
                break;
            }
            let Some(msg) = rec.mailq.pop_front() else {
                break;
            };
            self.charge(self.cfg.cost.constraint_check);
            if rec.behavior.enabled(msg.selector, &msg.args) {
                processed += 1;
                let mreq = self.execute_message(aid, &mut rec, msg);
                if mreq.is_some() {
                    migrate_req = mreq;
                }
                // Pending rescan: "Whenever an actor completes its method
                // execution, it examines whether or not it has pending
                // messages" — dispatch newly enabled ones immediately.
                if migrate_req.is_none() {
                    let m2 = self.rescan_pending(aid, &mut rec);
                    if m2.is_some() {
                        migrate_req = m2;
                    }
                }
            } else {
                self.stats.bump("sync.deferred");
                self.metrics_pending(1);
                if let Some(r) = self.recorder.as_deref_mut() {
                    if let Some(tag) = msg.trace {
                        if r.span_sampled(tag.id) {
                            r.pending_since.insert(tag.id, self.clock);
                            let time = self.clock;
                            let me = self.cfg.me;
                            r.ring.push(TraceEvent {
                                time,
                                node: me,
                                seq: 0,
                                span: tag.id,
                                parent: 0,
                                event: KernelEvent::PendingEnqueued { id: tag.id },
                            });
                        }
                    }
                }
                rec.pendq.push_back(msg);
            }
        }
        // A migration-free actor with nothing processed but a nonempty
        // pendq still deserves one rescan (e.g. scheduled by arrival of
        // state-changing messages that all went to pendq — nothing to do,
        // but harmless and keeps semantics uniform).
        if processed == 0 && migrate_req.is_none() && !rec.pendq.is_empty() {
            let m2 = self.rescan_pending(aid, &mut rec);
            if m2.is_some() {
                migrate_req = m2;
            }
        }

        let more = !rec.mailq.is_empty();
        self.actors.checkin(aid, rec);
        if let Some(dst) = migrate_req {
            if dst == self.cfg.me {
                // Degenerate migration to self: just reschedule.
                if let Some(r) = self.actors.get_mut(aid) {
                    if (!r.mailq.is_empty() || !r.pendq.is_empty()) && !r.scheduled {
                        r.scheduled = true;
                        self.dispatcher.push(aid);
                    }
                }
            } else {
                self.migrate_out(aid, dst, false);
            }
            return;
        }
        // checkin may have merged new arrivals; reschedule if needed.
        let rec = self.actors.get_mut(aid).expect("just checked in");
        if (more || !rec.mailq.is_empty()) && !rec.scheduled {
            rec.scheduled = true;
            self.dispatcher.push(aid);
        }
    }

    /// Dispatch every currently enabled pending message, repeatedly,
    /// until none is enabled. Returns a migration request if one arose.
    fn rescan_pending(
        &mut self,
        aid: ActorId,
        rec: &mut ActorRecord,
    ) -> Option<NodeId> {
        loop {
            let mut fired = false;
            let mut i = 0;
            while i < rec.pendq.len() {
                self.charge(self.cfg.cost.constraint_check);
                let enabled = {
                    let m = &rec.pendq[i];
                    rec.behavior.enabled(m.selector, &m.args)
                };
                if enabled {
                    let msg = rec.pendq.remove(i).expect("index in range");
                    self.stats.bump("sync.resumed");
                    self.metrics_pending(-1);
                    if let Some(r) = self.recorder.as_deref_mut() {
                        if let Some(tag) = msg.trace.filter(|t| r.span_sampled(t.id)) {
                            // A message parked on another node can be
                            // re-enabled here after its actor migrated
                            // with its pending queue: the park time
                            // lives in the other node's recorder, so
                            // residency falls back to zero. The event
                            // itself must still fire — the checker's
                            // liveness pass pairs every PendingEnqueued
                            // with a PendingRescanned.
                            let residency_ns = r
                                .pending_since
                                .remove(&tag.id)
                                .map(|parked| {
                                    self.clock.as_nanos().saturating_sub(parked.as_nanos())
                                })
                                .unwrap_or(0);
                            let time = self.clock;
                            let me = self.cfg.me;
                            r.ring.push(TraceEvent {
                                time,
                                node: me,
                                seq: 0,
                                span: tag.id,
                                parent: 0,
                                event: KernelEvent::PendingRescanned {
                                    id: tag.id,
                                    residency_ns,
                                },
                            });
                        }
                    }
                    fired = true;
                    let mreq = self.execute_message(aid, rec, msg);
                    if mreq.is_some() {
                        return mreq;
                    }
                } else {
                    i += 1;
                }
            }
            if !fired {
                return None;
            }
        }
    }

    /// Invoke one method on a checked-out actor record. Returns the
    /// migration destination if the method requested one.
    fn execute_message(
        &mut self,
        aid: ActorId,
        rec: &mut ActorRecord,
        msg: Msg,
    ) -> Option<NodeId> {
        self.charge(self.cfg.cost.method_invoke);
        self.stats.bump("msgs.processed");
        if let Some(m) = self.metrics.as_deref() {
            m.msg_processed();
        }
        // Span bookkeeping: the dispatched message becomes the current
        // span, so every send the handler issues is parented by it.
        // Under head sampling an unsampled message executes with
        // current_span 0: its children become causal roots rather than
        // orphans pointing at a span the ring never opened.
        let tag = msg.trace;
        let exec_start = self.clock;
        let (saved, sampled) = if let Some(r) = self.recorder.as_deref_mut() {
            let saved = r.current_span;
            let sampled = tag.is_some_and(|t| r.span_sampled(t.id));
            r.current_span = if sampled {
                tag.map_or(0, |t| t.id)
            } else {
                0
            };
            (saved, sampled)
        } else {
            (0, false)
        };
        let mut ctx = Ctx {
            ident: Ident::Actor {
                aid,
                addr: rec.addr,
            },
            customer: msg.customer,
            become_to: None,
            migrate_to: None,
            k: self,
        };
        rec.behavior.dispatch(&mut ctx, msg);
        let become_to = ctx.become_to.take();
        let migrate_to = ctx.migrate_to.take();
        if let Some(b) = become_to {
            rec.behavior = b;
        }
        if self.recorder.is_some() {
            if let Some(tag) = tag.filter(|_| sampled) {
                let run_ns = self.clock.since(exec_start).as_nanos();
                let queued_ns = self
                    .recorder
                    .as_deref_mut()
                    .and_then(|r| r.delivered_at.remove(&tag.id))
                    .map_or(0, |at| exec_start.since(at).as_nanos());
                self.trace_event_span(
                    KernelEvent::MessageExecuted { id: tag.id, queued_ns, run_ns },
                    tag.id,
                    0,
                );
            }
            if let Some(r) = self.recorder.as_deref_mut() {
                r.current_span = saved;
            }
        }
        migrate_to
    }

    /// Compiler fast path (§6.3): locality check + inline static dispatch
    /// on the current stack, when the receiver is local, enabled, idle,
    /// and the depth bound permits. Falls back to the generic send.
    /// Returns `true` if the fast path was taken.
    fn send_fast(&mut self, to: MailAddr, msg: Msg) -> bool {
        self.charge(self.cfg.cost.locality_check);
        if self.stack_depth >= self.cfg.max_stack_depth {
            self.stats.bump("fast.depth_fallback");
            self.send_after_check(to, msg);
            return false;
        }
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                // The runtime "additionally checks if the recipient actor
                // is in a state in which it is enabled to process the
                // message" — and that it has no queued messages (queue
                // jumping would break the actor's arrival order).
                let ok = match self.actors.get(aid) {
                    Some(rec) => {
                        rec.mailq.is_empty()
                            && rec.pendq.is_empty()
                            && rec.behavior.enabled(msg.selector, &msg.args)
                    }
                    None => false, // running: fall back to queueing
                };
                if !ok {
                    self.charge(self.cfg.cost.local_send);
                    self.stats.bump("fast.state_fallback");
                    self.enqueue_local(aid, msg);
                    return false;
                }
                self.charge(self.cfg.cost.local_send_fast);
                self.stats.bump("fast.inline");
                let mut rec = self.actors.checkout(aid).expect("checked above");
                self.stack_depth += 1;
                let mreq = self.execute_message(aid, &mut rec, msg);
                let m2 = if mreq.is_none() {
                    self.rescan_pending(aid, &mut rec)
                } else {
                    mreq
                };
                self.stack_depth -= 1;
                let has_more = !rec.mailq.is_empty();
                self.actors.checkin(aid, rec);
                if let Some(dst) = m2 {
                    if dst != self.cfg.me {
                        self.migrate_out(aid, dst, false);
                        return true;
                    }
                }
                if has_more {
                    let rec = self.actors.get_mut(aid).expect("just checked in");
                    if !rec.scheduled {
                        rec.scheduled = true;
                        self.dispatcher.push(aid);
                    }
                }
                true
            }
            _ => {
                self.send_after_check(to, msg);
                false
            }
        }
    }

    /// The generic send for a `send_fast` fallback, whose caller has
    /// already charged one locality check. Only a local receiver is
    /// spared a second one: any other resolution re-enters
    /// `send_to_addr`, which charges `locality_check` again (a cost-model
    /// wart, ROADMAP item 1 — fixing it moves `virtual_ns` in every
    /// artifact with a remote `send_fast`).
    fn send_after_check(&mut self, to: MailAddr, msg: Msg) {
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                self.charge(self.cfg.cost.local_send);
                self.stats.bump("msgs.local");
                self.enqueue_local(aid, msg);
            }
            _ => self.send_to_addr(to, msg),
        }
    }
}

/// Who is currently executing.
enum Ident {
    /// An actor method.
    Actor {
        /// Its slab id.
        aid: ActorId,
        /// Its primary address.
        addr: MailAddr,
    },
    /// A join continuation body.
    Continuation,
    /// Machine bootstrap code.
    System,
}

/// The actor interface (Fig. 2's top layer): everything a behavior can
/// ask of the kernel during a method execution.
pub struct Ctx<'a> {
    k: &'a mut Kernel,
    ident: Ident,
    customer: Option<ContRef>,
    become_to: Option<Box<dyn Behavior>>,
    migrate_to: Option<NodeId>,
}

impl<'a> Ctx<'a> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.k.cfg.me
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.k.cfg.nodes
    }

    /// Current virtual time on this node.
    pub fn now(&self) -> VirtualTime {
        self.k.clock
    }

    /// Charge user compute time to the node clock (simulation of the
    /// method body's real work, e.g. a block matrix multiply).
    pub fn charge(&mut self, d: VirtualDuration) {
        self.k.charge(d);
    }

    /// The executing actor's mail address.
    ///
    /// # Panics
    /// Panics when called from a continuation or bootstrap context.
    pub fn me(&self) -> MailAddr {
        match self.ident {
            Ident::Actor { addr, .. } => addr,
            _ => panic!("Ctx::me outside an actor method"),
        }
    }

    /// The reply destination of the current message, if it was a request.
    pub fn customer(&self) -> Option<ContRef> {
        self.customer
    }

    /// Asynchronous send (the actor `send` primitive).
    pub fn send(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>) {
        self.k.send_to_addr(to, Msg::new(selector, args));
    }

    /// Compiler fast path (§6.3): inline local dispatch when legal, else
    /// the generic send. Returns whether the inline path ran.
    pub fn send_fast(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>) -> bool {
        self.k.send_fast(to, Msg::new(selector, args))
    }

    /// `request`: asynchronous send whose reply fills `cont`.
    pub fn request(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>, cont: ContRef) {
        self.k
            .send_to_addr(to, Msg::request(selector, args, cont));
    }

    /// `reply`: answer the current message's customer.
    ///
    /// # Panics
    /// Panics if the current message carried no continuation.
    pub fn reply(&mut self, value: Value) {
        let cont = self
            .customer
            .take()
            .expect("reply without a customer continuation");
        self.k.send_reply(cont, value);
    }

    /// Answer an explicit continuation reference (for forwarded or stored
    /// customers).
    pub fn reply_to(&mut self, cont: ContRef, value: Value) {
        self.k.send_reply(cont, value);
    }

    /// Create a join continuation with `arity` slots, `prefilled` known
    /// values, and body `func` (§6.2). Combine with [`Ctx::cont_slot`] to
    /// build reply targets.
    pub fn create_join(
        &mut self,
        arity: u16,
        prefilled: Vec<(u16, Value)>,
        func: JoinFn,
    ) -> JcId {
        let creator = match self.ident {
            Ident::Actor { aid, .. } => Some(aid),
            _ => None,
        };
        self.k.joins.create(arity, prefilled, func, creator)
    }

    /// A continuation reference filling `slot` of `jc` on this node.
    pub fn cont_slot(&self, jc: JcId, slot: u16) -> ContRef {
        ContRef::Join {
            node: self.k.cfg.me,
            jc,
            slot,
        }
    }

    /// `new`: create an actor on this node from a behavior object.
    pub fn create_local(&mut self, behavior: Box<dyn Behavior>) -> MailAddr {
        self.k.create_local(behavior)
    }

    /// `new @ node`: create an actor on `node` (alias latency hiding when
    /// remote, §5). Placement is explicit, as HAL allows ("placement
    /// specification for dynamically created objects").
    pub fn create_on(&mut self, node: NodeId, behavior: BehaviorId, init: Vec<Value>) -> MailAddr {
        if node == self.k.cfg.me {
            let b = self.k.registry.create(behavior, &init);
            self.k.recycle_args(init);
            self.k.create_local(b)
        } else {
            self.k.create_remote(node, behavior, init)
        }
    }

    /// `grpnew`: create a group of `count` actors of `behavior` spread
    /// over the partition; returns immediately with the group id. Each
    /// member's factory receives `init ++ [Group(id), Int(index),
    /// Int(count)]`.
    pub fn grpnew(&mut self, behavior: BehaviorId, count: u32, init: Vec<Value>) -> GroupId {
        self.k.grpnew(behavior, count, init, Mapping::Block)
    }

    /// `grpnew` with an explicit member-distribution mapping (Table 1's
    /// block vs cyclic column placement).
    pub fn grpnew_mapped(
        &mut self,
        behavior: BehaviorId,
        count: u32,
        init: Vec<Value>,
        mapping: Mapping,
    ) -> GroupId {
        self.k.grpnew(behavior, count, init, mapping)
    }

    /// Broadcast to every member of `group` (§6.4).
    pub fn broadcast(&mut self, group: GroupId, selector: Selector, args: Vec<Value>) {
        self.k.broadcast(group, Msg::new(selector, args));
    }

    /// Send to one member of a group by index.
    pub fn send_member(&mut self, group: GroupId, index: u32, selector: Selector, args: Vec<Value>) {
        self.k
            .deliver_member(group, index, Msg::new(selector, args));
    }

    /// Send a request to one member of a group.
    pub fn request_member(
        &mut self,
        group: GroupId,
        index: u32,
        selector: Selector,
        args: Vec<Value>,
        cont: ContRef,
    ) {
        self.k
            .deliver_member(group, index, Msg::request(selector, args, cont));
    }

    /// `become`: replace this actor's behavior after the current method
    /// returns.
    pub fn become_behavior(&mut self, behavior: Box<dyn Behavior>) {
        assert!(
            matches!(self.ident, Ident::Actor { .. }),
            "become outside an actor method"
        );
        self.become_to = Some(behavior);
    }

    /// Ask the kernel to migrate this actor to `node` after the current
    /// method returns.
    pub fn migrate(&mut self, node: NodeId) {
        assert!(
            matches!(self.ident, Ident::Actor { .. }),
            "migrate outside an actor method"
        );
        self.migrate_to = Some(node);
    }

    /// Post a named result for the harness to read from the machine
    /// report.
    pub fn report(&mut self, key: impl Into<String>, value: Value) {
        self.k.reports.push((key.into(), value));
    }

    /// Stop the whole machine: sets the local stop flag and broadcasts
    /// Halt to every other node.
    pub fn stop(&mut self) {
        self.k.stopped = true;
        for n in 0..self.k.cfg.nodes as NodeId {
            if n != self.k.cfg.me {
                self.k.net_send(n, KMsg::Halt);
            }
        }
    }

    /// Pin a *local* actor as a garbage-collection root (the analog of
    /// an address held outside the actor system). Panics if the actor
    /// does not live on this node.
    pub fn pin(&mut self, addr: MailAddr) {
        match self.k.names.resolve(addr.key) {
            Resolution::Local(aid) => {
                self.k.gc.pinned.insert(aid);
            }
            other => panic!("pin of non-local actor ({other:?})"),
        }
    }

    /// Remove a pin (the external reference was dropped); the actor
    /// becomes collectable if nothing else reaches it.
    pub fn unpin(&mut self, addr: MailAddr) {
        if let Resolution::Local(aid) = self.k.names.resolve(addr.key) {
            self.k.gc.pinned.remove(&aid);
        }
    }
}

/// Run a closure in a bootstrap (`System`) context against a kernel —
/// how machines let harness code create the initial actors.
pub fn with_system_ctx<R>(kernel: &mut Kernel, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
    let mut ctx = Ctx {
        k: kernel,
        ident: Ident::System,
        customer: None,
        become_to: None,
        migrate_to: None,
    };
    let r = f(&mut ctx);
    debug_assert!(ctx.become_to.is_none());
    debug_assert!(ctx.migrate_to.is_none());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimMachine;

    /// Selector 0 with address arguments: report the time, then message
    /// each address in turn.
    struct Relay;
    impl Behavior for Relay {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            ctx.report("relay_at", Value::Int(ctx.now().as_nanos() as i64));
            for target in &msg.args {
                ctx.send(target.as_addr(), 0, vec![]);
            }
        }
    }

    /// Node 1 of 3 with one `Relay` on it — and no network of any kind.
    fn relay_kernel(force_reliable: bool) -> (Kernel, MailAddr) {
        let mut cfg = KernelConfig::for_node(&MachineConfig::new(3), 1);
        cfg.force_reliable = force_reliable;
        let mut k = Kernel::new(cfg, Arc::new(BehaviorRegistry::new()));
        let relay = k.bootstrap(Box::new(Relay), None);
        (k, relay)
    }

    /// An actor born on `node` that this kernel has never heard of.
    fn stranger(node: NodeId) -> Value {
        Value::Addr(MailAddr::ordinary(node, DescriptorId(7)))
    }

    /// What the `Relay`'s last run stamped, plus `d`.
    fn relay_at(k: &Kernel, d: VirtualDuration) -> VirtualTime {
        VirtualTime::from_nanos(k.reports.last().expect("relay ran").1.as_int() as u64) + d
    }

    /// The kernel needs no network object: one remote `Deliver` handled,
    /// and what it wants sent is in the outbox, each packet stamped with
    /// the clock at the call that pushed it.
    #[test]
    fn a_delivered_packet_leaves_its_answers_in_the_outbox() {
        let (mut k, relay) = relay_kernel(false);
        let cost = k.config().cost;
        // Mid-method at 1 ms when the packet arrives at 10 us.
        k.clock = VirtualTime::from_nanos(1_000_000);
        let t = VirtualTime::from_nanos(10_000);
        let target = Target::Addr { key: relay.key, dst_desc: None, route_hint: 1 };
        let body = KMsg::Deliver { target, msg: Msg::new(0, vec![stranger(2)]) };
        k.deliver(t, Packet { src: 0, dst: 1, body: AmEnvelope::Small(body) });
        // The node manager told the sender our descriptor (§4.1) at the
        // arrival time plus its own work, not at the interrupted clock.
        let advised_at = t + cost.net_recv_overhead + cost.name_lookup + cost.net_send_overhead;
        assert!(advised_at < k.clock);
        assert!(k.step(), "the relay runs");
        let sent_at = relay_at(&k, cost.locality_check + cost.net_send_overhead);
        let outbox: Vec<_> = k.drain_outbox().collect();
        assert!(matches!(outbox[0], Outbound::Packet { dst: 0, at, .. } if at == advised_at));
        assert!(matches!(outbox[1], Outbound::Packet { dst: 2, at, .. } if at == sent_at));
        assert_eq!((outbox.len(), k.outbox.len()), (2, 0));
    }

    /// Packets and timers share one queue, in call order.
    #[test]
    fn sends_and_timers_leave_in_call_order() {
        let (mut k, relay) = relay_kernel(true);
        let (cost, rto) = (k.config().cost, k.config().faults.rto);
        // Peer 2's retransmit timer is armed by an earlier send ...
        with_system_ctx(&mut k, |ctx| ctx.send(stranger(2).as_addr(), 0, vec![]));
        assert_eq!(k.drain_outbox().count(), 2);
        // ... so a handler sending to 0 and then to 2 arms one more.
        with_system_ctx(&mut k, |ctx| ctx.send(relay, 0, vec![stranger(0), stranger(2)]));
        assert!(k.step());
        let first = relay_at(&k, cost.locality_check + cost.net_send_overhead);
        let second = first + cost.locality_check + cost.net_send_overhead;
        let outbox: Vec<_> = k.drain_outbox().collect();
        assert_eq!(outbox.len(), 3);
        assert!(matches!(outbox[0], Outbound::Packet { dst: 0, at, .. } if at == first));
        assert!(matches!(outbox[1], Outbound::Timer { fire_at, .. } if fire_at == first + rto));
        assert!(matches!(outbox[2], Outbound::Packet { dst: 2, at, .. } if at == second));
    }

    /// The "already advised" set follows the actors alive, not the
    /// actors ever addressed: a swept actor's (sender, key) pairs go
    /// with its descriptors.
    #[test]
    fn advised_pairs_are_dropped_with_the_swept_actor() {
        let mut reg = BehaviorRegistry::new();
        reg.register(BehaviorId(0), "relay", |_| Box::new(Relay));
        let mut m = SimMachine::new(MachineConfig::new(3), Arc::new(reg));
        let relay = m.with_ctx(1, |ctx| {
            let relay = ctx.create_local(Box::new(Relay));
            ctx.pin(relay);
            relay
        });
        let advised = |m: &SimMachine| -> usize { (0..3).map(|n| m.kernel(n).advised.len()).sum() };
        let mut after_first = None;
        for round in 0..100 {
            // Remote-create on node 2, message it from node 0 directly
            // and from node 1 through the relay, then drop it.
            m.with_ctx(0, |ctx| {
                let a = ctx.create_on(2, BehaviorId(0), vec![]);
                ctx.send(a, 0, vec![]);
                ctx.send(relay, 0, vec![Value::Addr(a)]);
            });
            m.run().unwrap();
            assert!(
                m.kernel(2).advised.len() >= 2,
                "round {round}: both senders were advised"
            );
            assert_eq!(m.collect_garbage().unwrap().freed, 1, "round {round}");
            after_first.get_or_insert_with(|| advised(&m));
        }
        assert_eq!(Some(advised(&m)), after_first);
    }
}
