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

use crate::actor::ActorSlab;
use crate::addr::AddrKey;
use crate::balance::Balancer;
use crate::cost::CostModel;
use crate::dispatch::Dispatcher;
use crate::error::MachineError;
use crate::fir::FirTable;
use crate::gc::GcState;
use crate::group::GroupTable;
use crate::join::JoinTable;
use crate::machine::MachineConfig;
use crate::message::{Msg, Value};
use crate::metrics::{Counter, Metrics, NodeCell};
use crate::name_server::NameServer;
use crate::registry::BehaviorRegistry;
use crate::trace::{KernelEvent, Recorder, TraceEvent, TraceTag};
use crate::wire::KMsg;
use hal_am::{
    AmEnvelope, BulkSender, FaultPlan, FlowControl, NodeId, RelReceiver, RelSender,
};
use hal_des::{Histogram, Map, Set, VirtualDuration, VirtualTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

mod collect;
mod creation;
mod ctx;
mod delivery;
mod groups;
mod migrate;
mod sched;
mod transport;

pub use ctx::{with_system_ctx, Ctx};
use ctx::Ident;

/// One thing the kernel wants from the network. The kernel does no I/O:
/// whatever a kernel entry point sends or arms is left in its outbox, and
/// the machine that called the entry point drains it, in order, right
/// afterwards ([`Kernel::drain_outbox`]).
///
/// A kernel message is boxed once, where it becomes a packet, and from
/// there on only the pointer moves — through this entry, the network's
/// event queue or channel, and back into [`Kernel::handle_packet`], which
/// unboxes it for the node manager.
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
        env: AmEnvelope<Box<KMsg>>,
        /// Bytes on the wire.
        wire: usize,
    },
    /// Arm a self-addressed timer (chaos subsystem: retransmit timeouts,
    /// FIR watchdogs). Timers bypass the link model and the fault layer.
    Timer {
        /// When it fires.
        fire_at: VirtualTime,
        /// The [`AmEnvelope::Timer`] to hand back then.
        env: AmEnvelope<Box<KMsg>>,
    },
}

// A packet is a pointer plus a few words wherever it travels: the outbox,
// the simulator's event queue and the live channels all move it by value.
const _: () = assert!(std::mem::size_of::<Outbound>() <= 56);
const _: () = assert!(std::mem::size_of::<hal_am::Packet<Box<KMsg>>>() <= 40);

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
    /// byte-identical fault-free fast path, with no reliable layer, no
    /// FIR watchdog and no timer of any kind.
    pub faults: FaultPlan,
}

impl KernelConfig {
    /// Node `me`'s kernel configuration on a machine built from `cfg` —
    /// the one place machine-wide settings become per-kernel ones, on
    /// both backends alike.
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
    bulk_tx: BulkSender<Box<KMsg>>,
    flow: FlowControl,
    /// Self-addressed kernel messages (never touch the network).
    loopback: VecDeque<KMsg>,
    /// Packets and timers for the machine to pick up after the current
    /// entry point returns, in the order they were issued.
    outbox: Vec<Outbound>,
    /// Messages for keys this node knows nothing about yet (e.g. alias
    /// traffic racing the creation request).
    unknown_buffer: Map<AddrKey, Vec<Msg>>,
    /// Messages in `unknown_buffer` over all keys, kept at the park and
    /// flush sites so the per-step gauge does not walk the map.
    unknown_buffered: u32,
    /// (sender, key) pairs already sent a NameInfo cache reply — a
    /// sender bursting messages before our first reply lands must not
    /// trigger one reply per message.
    advised: Set<(NodeId, AddrKey)>,
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
    /// This node's counters, indexed by [`Counter`] — written by this
    /// kernel (and its live node loop), read by `top` on any thread and
    /// folded into the report at the end.
    cell: Arc<NodeCell>,
    /// Named distributions this node observed, merged by name into the
    /// report's stats: the kernel's own `create.remote_actual_ns` (when
    /// each remote creation made its actor, §5's "actual creation"
    /// latency) and whatever actors record through `Ctx::observe`.
    pub(crate) histograms: BTreeMap<&'static str, Histogram>,
    /// Values posted by actors via `Ctx::report` (harness results).
    pub reports: Vec<(String, Value)>,
    /// Flight recorder ([`crate::trace`]); `None` when tracing is off,
    /// boxed so the common case carries one cold pointer.
    recorder: Option<Box<Recorder>>,
    /// Metrics sampler ([`crate::metrics`]), boxed like the recorder.
    /// `None` on a simulated machine with metrics off; a live kernel
    /// always has one ([`Kernel::enable_metrics`]), because the gauges
    /// it stores are what `top` on another thread reads.
    metrics: Option<Box<Metrics>>,
    /// Reliable-delivery sender state (per-peer unacked queues). Only
    /// touched when the fault plan is active and `reliable` is on.
    rel_tx: RelSender<Box<KMsg>>,
    /// Reliable-delivery receiver state (per-peer dedup + holdback).
    rel_rx: RelReceiver<Box<KMsg>>,
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
        let cell = Arc::new(NodeCell::new(cfg.nodes));
        let metrics = cfg.metrics.then(|| {
            Box::new(Metrics::new(cfg.me, Metrics::DEFAULT_CADENCE_NS, Arc::clone(&cell)))
        });
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
            unknown_buffer: Map::default(),
            unknown_buffered: 0,
            advised: Set::default(),
            gc: GcState::default(),
            gc_coordinator: 0,
            gc_live_total: 0,
            stack_depth: 0,
            args_pool: Vec::new(),
            stopped: false,
            clock: VirtualTime::ZERO,
            cell,
            histograms: BTreeMap::new(),
            reports: Vec::new(),
            rel_tx: RelSender::for_plan(&cfg.faults),
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

    /// Count one `c` event in this node's cell.
    #[inline]
    fn count(&self, c: Counter) {
        self.cell.count(c, 1);
    }

    /// Record one sample into this node's histogram `name`.
    fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Install a metrics sampler at `cadence_ns` in place of the one
    /// [`KernelConfig::metrics`] asked for: the live backend's, which
    /// samples on its own cadence and is present whether or not the
    /// timeseries was requested.
    pub fn enable_metrics(&mut self, cadence_ns: u64) {
        let cell = Arc::clone(&self.cell);
        self.metrics = Some(Box::new(Metrics::new(self.cfg.me, cadence_ns, cell)));
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

    /// `(held, allocated)`: messages queued on this node now, over every
    /// actor's mail, pending and mid-execution queues, and the cells its
    /// mail slab has allocated — the most it ever held at once.
    pub fn mail_cells(&self) -> (usize, usize) {
        (self.actors.mail.live(), self.actors.mail.cells())
    }

    /// Actor records ever installed on this node: creations, plus every
    /// migration or steal that arrived here.
    pub fn actors_created(&self) -> u64 {
        self.actors.created_total()
    }

    /// Join continuations fired on this node.
    pub(crate) fn joins_fired(&self) -> u64 {
        self.joins.fired_total()
    }

    /// This node's counters — what a [`crate::TelemetryHub`] on another
    /// thread reads.
    pub fn cell(&self) -> &Arc<NodeCell> {
        &self.cell
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

    /// The metrics sampler, if this kernel has one.
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
                // The causal parent: the message whose handler is
                // executing right now (0 at bootstrap / between
                // dispatches). This edge is what makes spans a DAG.
                let parent = r.current_span;
                msg.trace = Some(TraceTag {
                    id,
                    sent_at: self.clock,
                    flags: if remote { TraceTag::REMOTE } else { 0 },
                });
                if keep {
                    self.trace_event_span(KernelEvent::MessageSent { id, key, remote }, id, parent);
                }
            }
            Some(tag) if remote => tag.flags |= TraceTag::REMOTE,
            Some(_) => {}
        }
    }

    /// A tagged message reached a local mail queue: note the enqueue time
    /// (for `MessageExecuted`'s `queued_ns`) and record `MessageDelivered`
    /// — for sampled ids, with tracing on.
    fn trace_delivered(&mut self, tag: TraceTag) {
        let Some(r) = self.recorder.as_deref_mut() else {
            return;
        };
        if r.span_sampled(tag.id) {
            r.delivered_at.insert(tag.id, self.clock);
            let latency_ns = self.trace_latency_ns(&tag);
            let event = KernelEvent::MessageDelivered { id: tag.id, latency_ns, path: tag.path() };
            self.trace_event_span(event, tag.id, 0);
        }
    }

    /// Make `span` the span sends are parented by — the message whose
    /// handler is about to run, or the one restored after it — and return
    /// the one it replaces (0 with tracing off).
    fn swap_current_span(&mut self, span: u64) -> u64 {
        match self.recorder.as_deref_mut() {
            Some(r) => std::mem::replace(&mut r.current_span, span),
            None => 0,
        }
    }

    /// The span of the chase episode running for `key` on this node (0 =
    /// none, or untraced).
    fn chase_span(&self, key: AddrKey) -> u64 {
        self.recorder.as_deref().and_then(|r| r.chase_span.get(&key).copied()).unwrap_or(0)
    }

    /// Latency from a tag's send time to now, robust against the
    /// loosely synchronized clocks of the live backend.
    #[inline]
    fn trace_latency_ns(&self, tag: &TraceTag) -> u64 {
        self.clock.as_nanos().saturating_sub(tag.sent_at.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Behavior;
    use crate::addr::{BehaviorId, DescriptorId, MailAddr};
    use crate::machine::SimMachine;
    use crate::message::Target;
    use crate::wire::ActorImage;
    use hal_am::Packet;

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
    /// A lossy `faults` plan puts its sends under the reliable layer.
    fn relay_kernel(faults: FaultPlan) -> (Kernel, MailAddr) {
        let mut cfg = KernelConfig::for_node(&MachineConfig::new(3), 1);
        cfg.faults = faults;
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
        let (mut k, relay) = relay_kernel(FaultPlan::none());
        let cost = k.config().cost;
        // Mid-method at 1 ms when the packet arrives at 10 us.
        k.clock = VirtualTime::from_nanos(1_000_000);
        let t = VirtualTime::from_nanos(10_000);
        let target = Target::Addr { key: relay.key, dst_desc: None, route_hint: 1 };
        let body = KMsg::Deliver { target, msg: Msg::new(0, vec![stranger(2)]) };
        k.deliver(t, Packet { src: 0, dst: 1, body: AmEnvelope::Small(Box::new(body)) });
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
        let (mut k, relay) = relay_kernel(FaultPlan::none().with_drop(0.5));
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

    /// A packet from `src` to node 1 carrying one kernel message.
    fn to_node1(src: NodeId, body: KMsg) -> Packet<Box<KMsg>> {
        Packet { src, dst: 1, body: AmEnvelope::Small(Box::new(body)) }
    }

    /// The kernel messages in the outbox, by destination.
    fn sent(k: &mut Kernel) -> Vec<(NodeId, KMsg)> {
        k.drain_outbox()
            .filter_map(|o| match o {
                Outbound::Packet { dst, env: AmEnvelope::Small(body), .. } => Some((dst, *body)),
                _ => None,
            })
            .collect()
    }

    /// An FIR reply older than what the node learned since it asked must
    /// not close the node's open chase: an actor born on node 0 arrives
    /// here at epoch 1 and leaves for node 2 (epoch 2), a message for it
    /// opens a chase toward 2, and then an answer naming node 0 at epoch
    /// 0 arrives. The chase stays open and asks node 2 again; the parked
    /// message goes where the fresh answer says, never back to node 0.
    #[test]
    fn a_stale_fir_reply_does_not_close_a_newer_chase() {
        let (mut k, _) = relay_kernel(FaultPlan::none());
        let key = AddrKey { birthplace: 0, index: DescriptorId(7) };
        let image = ActorImage {
            behavior: Box::new(Relay),
            mailq: vec![],
            pendq: vec![],
            keys: vec![key],
            group: None,
            hops: 1,
        };
        let t = |us: u64| VirtualTime::from_nanos(us * 1_000);
        k.deliver(t(1), to_node1(0, KMsg::MigrateArrive { image, from: 0, stolen: false }));
        let crate::name_server::Resolution::Local(aid) = k.names.resolve(key) else {
            panic!("the actor arrived");
        };
        k.migrate_out(aid, 2, false);
        sent(&mut k);
        let target = Target::Addr { key, dst_desc: None, route_hint: 0 };
        k.deliver(t(2), to_node1(0, KMsg::Deliver { target, msg: Msg::new(0, vec![]) }));
        assert!(matches!(sent(&mut k)[..], [(2, KMsg::Fir { .. })]), "chase opened toward 2");

        let stale = KMsg::FirFound { key, node: 0, index: DescriptorId(7), epoch: 0 };
        k.deliver(t(3), to_node1(2, stale));
        assert!(k.firs.is_pending(key), "the stale answer left the chase open");
        assert!(matches!(sent(&mut k)[..], [(2, KMsg::Fir { .. })]), "asked node 2 again");

        let fresh = KMsg::FirFound { key, node: 2, index: DescriptorId(3), epoch: 2 };
        k.deliver(t(4), to_node1(2, fresh));
        assert!(!k.firs.is_pending(key));
        assert!(matches!(sent(&mut k)[..], [(2, KMsg::Deliver { .. })]), "mail follows the answer");
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
