//! The simulated machine: N kernels over the discrete-event network.
//!
//! This is the "CM-5 partition" of the reproduction: the machine advances
//! whichever node (or packet) has the earliest virtual timestamp, so an
//! entire multicomputer executes deterministically on one host CPU. The
//! benchmark harnesses read the resulting virtual makespans — their shape
//! reproduces the paper's tables.

use crate::backend::BackendKind;
use crate::cost::CostModel;
use crate::error::{ConfigError, MachineError};
use crate::gc::GcReport;
use crate::timeline::{SpanKind, Timeline};
use crate::kernel::{with_system_ctx, Ctx, Kernel, Outbound};
use crate::message::Value;
use crate::metrics::{Counter, Folded};
use crate::registry::BehaviorRegistry;
use crate::wire::KMsg;
use hal_am::{AmEnvelope, FaultPlan, LinkModel, NodeId, SimNetwork};
use hal_des::{StatSet, VirtualTime};
use std::sync::Arc;

/// What a machine records while it runs: [`MachineConfig::observe`],
/// set through [`MachineConfigBuilder::observe`]. Each flag maps to one
/// observability subsystem; all default to off (the zero-overhead path).
///
/// ```
/// use hal_kernel::{MachineConfig, ObserveOpts};
/// let cfg = MachineConfig::builder(4)
///     .observe(ObserveOpts::none().trace(true).timeline(true))
///     .build()
///     .unwrap();
/// assert!(cfg.observe.trace && cfg.observe.timeline && !cfg.observe.metrics);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObserveOpts {
    /// Flight-recorder events on every kernel ([`crate::trace`]); the
    /// disabled path is one pointer test per hook.
    pub trace: bool,
    /// Metrics timeseries on every simulated kernel ([`crate::metrics`]).
    /// A live kernel always samples, on its own cadence, because the
    /// gauges it stores are what `top` on another thread reads.
    pub metrics: bool,
    /// Per-node busy spans for timeline rendering ([`crate::timeline`]).
    pub timeline: bool,
    /// Head-sampling rate for message lifecycle spans in parts per
    /// million of minted trace ids (1_000_000 = record every span, the
    /// default). Ids are always minted, so the exact-count correction
    /// (`msgs_minted` / `msgs_sampled` in the trace report) and the id
    /// sequence are the same at any rate; lifecycle events for unsampled
    /// ids are never pushed. The keep/drop decision is a pure function
    /// of the id ([`crate::trace::Recorder::span_sampled`]). Only
    /// meaningful with `trace`. Layered [`MachineConfigBuilder::observe`]
    /// calls keep the *lowest* requested rate.
    pub span_sample_ppm: u32,
}

impl Default for ObserveOpts {
    fn default() -> Self {
        Self::none()
    }
}

impl ObserveOpts {
    /// Record nothing (the default).
    pub const fn none() -> Self {
        ObserveOpts {
            trace: false,
            metrics: false,
            timeline: false,
            span_sample_ppm: crate::trace::Recorder::FULL_SAMPLING_PPM,
        }
    }

    /// Set flight-recorder tracing.
    pub const fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Set metrics-timeseries recording.
    pub const fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Set timeline-span recording.
    pub const fn timeline(mut self, on: bool) -> Self {
        self.timeline = on;
        self
    }

    /// Set the span head-sampling rate in parts per million.
    pub const fn span_sample_ppm(mut self, ppm: u32) -> Self {
        self.span_sample_ppm = ppm;
        self
    }
}

/// Machine-wide configuration — and, as every node runs the same kernel,
/// each kernel's too: a [`Kernel`] keeps its node id and a clone of this
/// record.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Partition size (number of nodes).
    pub nodes: usize,
    /// Which execution backend [`crate::backend::Machine::from_config`]
    /// selects: the deterministic simulator ([`BackendKind::Sim`], the
    /// default) or the multi-threaded live runtime
    /// ([`BackendKind::Live`]).
    pub backend: BackendKind,
    /// Master seed: every per-node RNG stream derives from it.
    pub seed: u64,
    /// Cost model charged by every kernel.
    pub cost: CostModel,
    /// Network timing.
    pub link: LinkModel,
    /// Receiver-initiated random-polling load balancing (§7.2).
    pub load_balancing: bool,
    /// Three-phase bulk flow control (§6.5); disable for the Table 1
    /// ablation.
    pub flow_control: bool,
    /// Messages per actor scheduling quantum.
    pub quantum: usize,
    /// Stack-based inline dispatch depth bound (§6.3).
    pub max_stack_depth: u32,
    /// Safety valve: abort after this many simulation events (0 = off).
    pub max_events: u64,
    /// Ablation switches (paper design by default).
    pub opt: crate::kernel::OptFlags,
    /// What the machine records while it runs.
    pub observe: ObserveOpts,
    /// Seeded fault plan (chaos subsystem): per-link drop / duplicate /
    /// reorder probabilities, timed link outages, node pause windows.
    /// [`FaultPlan::none`] (the default) is the byte-identical
    /// fault-free fast path.
    pub faults: FaultPlan,
    /// Live backend only: per-node receive-queue capacity in packets.
    /// A node whose send finds the peer's queue full never blocks: it
    /// counts the stall once in `threadnet.backpressure_hits`, then
    /// drains its own queue into a holdback inbox between retries. `0` =
    /// unbounded. Ignored by the sim backend.
    pub live_queue_capacity: usize,
}

impl MachineConfig {
    /// CM-5-calibrated defaults for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        MachineConfig {
            nodes,
            backend: BackendKind::Sim,
            seed: 0x5EED,
            cost: CostModel::cm5(),
            link: LinkModel::cm5(),
            load_balancing: false,
            flow_control: true,
            quantum: 16,
            max_stack_depth: 64,
            max_events: 0,
            opt: crate::kernel::OptFlags::default(),
            observe: ObserveOpts::none(),
            faults: FaultPlan::none(),
            live_queue_capacity: 4096,
        }
    }

    /// Start a validating builder from the CM-5 defaults for `nodes`
    /// nodes. The builder's [`MachineConfigBuilder::build`] rejects
    /// impossible configurations with a typed [`ConfigError`] instead of
    /// panicking mid-run.
    pub fn builder(nodes: usize) -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: MachineConfig::new(nodes),
        }
    }

    /// Check the configuration's invariants (the builder's `build` gate;
    /// also run by [`SimMachine::new`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.nodes > u16::MAX as usize {
            return Err(ConfigError::TooManyNodes { nodes: self.nodes });
        }
        if self.quantum == 0 {
            return Err(ConfigError::ZeroQuantum);
        }
        for (which, p) in [
            ("drop", self.faults.drop),
            ("duplicate", self.faults.duplicate),
            ("reorder", self.faults.reorder),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::BadFaultRate { which });
            }
        }
        if self.backend == BackendKind::Live && self.faults.enabled() {
            // The chaos fault injector lives in the simulated link
            // layer, and a pause window would shift a host-anchored
            // clock: a live run would ignore or distort the plan, which
            // is worse than refusing it. So a live kernel never arms a
            // timer (`LiveNet::flush`).
            return Err(ConfigError::LiveFaultsUnsupported);
        }
        let ppm = self.observe.span_sample_ppm;
        if ppm > crate::trace::Recorder::FULL_SAMPLING_PPM {
            return Err(ConfigError::BadSampleRate { ppm });
        }
        if self.faults.link_faults() {
            let min_ns = lookahead_ns(&self.link).max(1);
            if self.faults.rto.as_nanos() < min_ns {
                return Err(ConfigError::TimeoutTooShort { min_ns });
            }
        }
        Ok(())
    }
}

/// Validating builder for [`MachineConfig`] — see
/// [`MachineConfig::builder`].
#[derive(Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Select the execution backend ([`BackendKind::Sim`] is the
    /// default).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.cfg.backend = kind;
        self
    }

    /// Enable observability subsystems in one call — the single entry
    /// point for conditional recording (the [`trace`]/[`metrics`]/
    /// [`timeline`] shorthands delegate here). Flags accumulate (OR)
    /// with whatever earlier calls enabled, so conditional harness code
    /// can layer opts.
    ///
    /// [`trace`]: MachineConfigBuilder::trace
    /// [`metrics`]: MachineConfigBuilder::metrics
    /// [`timeline`]: MachineConfigBuilder::timeline
    pub fn observe(mut self, opts: ObserveOpts) -> Self {
        let o = &mut self.cfg.observe;
        o.trace |= opts.trace;
        o.metrics |= opts.metrics;
        o.timeline |= opts.timeline;
        // The lowest requested rate wins: a harness layering a sampled
        // opts over an unsampled one asked for sampling.
        o.span_sample_ppm = o.span_sample_ppm.min(opts.span_sample_ppm);
        self
    }

    /// Set the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Set the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Set the link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.cfg.link = link;
        self
    }

    /// Enable/disable random-polling load balancing (§7.2).
    pub fn load_balancing(mut self, on: bool) -> Self {
        self.cfg.load_balancing = on;
        self
    }

    /// Enable/disable three-phase bulk flow control (§6.5).
    pub fn flow_control(mut self, on: bool) -> Self {
        self.cfg.flow_control = on;
        self
    }

    /// Messages per actor scheduling quantum (must be positive).
    pub fn quantum(mut self, quantum: usize) -> Self {
        self.cfg.quantum = quantum;
        self
    }

    /// Stack-based inline dispatch depth bound (§6.3).
    pub fn max_stack_depth(mut self, depth: u32) -> Self {
        self.cfg.max_stack_depth = depth;
        self
    }

    /// Abort after this many simulation events (0 = off).
    pub fn max_events(mut self, n: u64) -> Self {
        self.cfg.max_events = n;
        self
    }

    /// Set the ablation flags.
    pub fn opt(mut self, opt: crate::kernel::OptFlags) -> Self {
        self.cfg.opt = opt;
        self
    }

    /// Record per-node busy spans for timeline rendering — shorthand
    /// for `observe(ObserveOpts::none().timeline(true))`.
    pub fn timeline(self) -> Self {
        self.observe(ObserveOpts::none().timeline(true))
    }

    /// Record flight-recorder events on every kernel — shorthand for
    /// `observe(ObserveOpts::none().trace(true))`.
    pub fn trace(self) -> Self {
        self.observe(ObserveOpts::none().trace(true))
    }

    /// Record live metrics timeseries on every kernel — shorthand for
    /// `observe(ObserveOpts::none().metrics(true))`.
    pub fn metrics(self) -> Self {
        self.observe(ObserveOpts::none().metrics(true))
    }

    /// No-op, kept only because the frozen `benchmark/` package still
    /// calls `.parallelism(1)`: the simulator has one sequential loop and
    /// no thread count to set. The next `benchmark` PR drops its two
    /// calls and this shim with them.
    #[doc(hidden)]
    pub fn parallelism(self, _k: usize) -> Self {
        self
    }

    /// Install a seeded fault plan (chaos subsystem).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Live-backend receive-queue capacity in packets (`0` = unbounded).
    pub fn live_queue_capacity(mut self, cap: usize) -> Self {
        self.cfg.live_queue_capacity = cap;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Result of running a simulated machine to completion. Every field is
/// a deterministic function of the configuration and the seed, so two
/// reports of the same run compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Maximum node clock at completion — the parallel execution time.
    pub makespan: VirtualTime,
    /// Each node's final clock.
    pub node_clocks: Vec<VirtualTime>,
    /// Merged kernel + network statistics.
    pub stats: StatSet,
    /// Values actors posted via [`Ctx::report`].
    pub reports: Vec<(String, Value)>,
    /// Total simulation events dispatched.
    pub events: u64,
    /// Actor records installed across all nodes: creations, plus every
    /// migration or steal arrival (`actors.created`).
    pub actors_created: u64,
    /// Merged flight-recorder events, present when the machine's
    /// `observe.trace` was set ([`ObserveOpts`]).
    pub trace: Option<crate::trace::TraceReport>,
    /// Merged metrics timeseries, present when the machine's
    /// `observe.metrics` was set ([`ObserveOpts`]).
    pub metrics: Option<crate::metrics::MetricsReport>,
    /// End-of-run quiescence audit plus the behavior-registry image —
    /// the protocol checker's ground truth ([`crate::audit`]).
    pub audit: crate::audit::MachineAudit,
}

impl SimReport {
    /// First reported value under `key`, if any.
    pub fn value(&self, key: &str) -> Option<&Value> {
        self.reports.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All reported values under `key`.
    pub fn values(&self, key: &str) -> Vec<&Value> {
        self.reports
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .collect()
    }

    /// Everything a run's kernels say about it, on either backend:
    /// counters (the kernels' cells summed, then each nonzero one named
    /// once, plus `transport`, what only the caller's network knows),
    /// reports, clocks, the flight-recorder trace when
    /// `cfg.observe.trace` is set, the metrics timeseries when
    /// `cfg.observe.metrics` is, and the quiescence audit.
    pub(crate) fn from_kernels(
        cfg: &MachineConfig,
        kernels: &[Kernel],
        events: u64,
        transport: &StatSet,
    ) -> Self {
        let mut stats = transport.clone();
        let mut reports = Vec::new();
        let (mut counts, mut folded) = ([0; Counter::COUNT], [0; Folded::COUNT]);
        for k in kernels {
            for (n, &c) in counts.iter_mut().zip(Counter::ALL) {
                *n += k.cell().get(c);
            }
            let links = k.cell().link_totals();
            folded[Folded::ActorsCreated as usize] += k.actors_created();
            folded[Folded::JoinsFired as usize] += k.joins_fired();
            folded[Folded::RelRetransmits as usize] += links.retransmits;
            folded[Folded::RelAcks as usize] += links.acks;
            for (&name, h) in &k.histograms {
                stats.merge_histogram(name, h);
            }
            reports.extend(k.reports.iter().cloned());
        }
        stats.add_nonzero(Counter::ALL.iter().map(|c| c.name()).zip(counts));
        stats.add_nonzero(Folded::ALL.iter().map(|c| c.name()).zip(folded));
        let node_clocks: Vec<_> = kernels.iter().map(|k| k.clock).collect();
        let makespan = node_clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(VirtualTime::ZERO);
        let trace = cfg.observe.trace.then(|| {
            crate::trace::TraceReport::merge(kernels.iter().filter_map(|k| k.recorder()))
        });
        let metrics = cfg.observe.metrics.then(|| {
            let mut metrics =
                crate::metrics::MetricsReport::merge(kernels.iter().filter_map(|k| k.metrics()));
            // Loss is loud: what the recorders and the fault layer had to
            // drop shows in the metrics artifact, not just on stderr.
            // Trace-ring truncation always; the others only when nonzero,
            // so complete runs keep their exact bytes.
            if let Some(t) = &trace {
                metrics.set_counter(Folded::TraceDroppedEvents.name(), t.dropped);
            }
            let dropped: u64 = metrics.nodes.iter().map(|n| n.samples_dropped).sum();
            if dropped > 0 {
                metrics.set_counter(Folded::MetricsDroppedSamples.name(), dropped);
            }
            metrics
        });
        SimReport {
            makespan,
            node_clocks,
            stats,
            reports,
            events,
            actors_created: folded[Folded::ActorsCreated as usize],
            trace,
            metrics,
            audit: quiescence_audit(kernels),
        }
    }
}

/// Every kernel's leftover protocol state plus the behavior-registry
/// image they share — see [`crate::audit`].
fn quiescence_audit(kernels: &[Kernel]) -> crate::audit::MachineAudit {
    let behaviors = kernels
        .first()
        .map(|k| {
            k.registry()
                .entries()
                .into_iter()
                .map(|(id, name)| (id.0, name.to_string()))
                .collect()
        })
        .unwrap_or_default();
    crate::audit::MachineAudit {
        nodes: kernels.iter().map(|k| k.quiescence_audit()).collect(),
        behaviors,
    }
}

/// Lookahead of a link model in nanoseconds: no injection at `now` can
/// arrive before `now + inject_overhead + latency` (transmission time
/// and resource contention only push arrivals later).
fn lookahead_ns(link: &LinkModel) -> u64 {
    (link.inject_overhead + link.latency).as_nanos()
}

/// What the loop may do next is a candidate `(time, rank, node)`, and the
/// smallest one runs: at equal times packet deliveries come first, then
/// dispatcher steps by node index, then load-balance polls by node index
/// — fixed so that reruns with one seed are bit-identical.
type Candidate = (VirtualTime, u8, usize);

/// Deliver the next network packet (the node field is unused).
const RANK_NET: u8 = 0;
/// Step the node's dispatcher.
const RANK_STEP: u8 = 1;
/// Let the idle node send the load-balance poll planned for that time.
const RANK_POLL: u8 = 2;

/// A simulated multicomputer partition.
pub struct SimMachine {
    cfg: MachineConfig,
    kernels: Vec<Kernel>,
    net: SimNetwork<Box<KMsg>>,
    events: u64,
    timeline: Timeline,
}

impl SimMachine {
    /// Build a machine over a registry of behaviors. The machine is a
    /// simulator whatever `cfg.backend` says, and its kernels are told so.
    ///
    /// # Panics
    /// Panics on an invalid configuration. Use
    /// [`MachineConfig::builder`] to catch those as [`ConfigError`]
    /// values instead.
    pub fn new(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        let cfg = MachineConfig { backend: BackendKind::Sim, ..cfg };
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let kernels = (0..cfg.nodes)
            .map(|i| Kernel::new(i as NodeId, &cfg, Arc::clone(&registry)))
            .collect();
        // Pre-size the packet heap: fan-out workloads keep O(nodes)
        // packets in flight, and growing a BinaryHeap mid-run moves
        // every entry.
        let mut net = SimNetwork::with_capacity(cfg.nodes, cfg.link, (cfg.nodes * 64).max(1024));
        net.set_fault_plan(&cfg.faults, cfg.seed);
        SimMachine {
            cfg,
            kernels,
            net,
            events: 0,
            timeline: Timeline::default(),
        }
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Access a node's kernel (tests, diagnostics).
    pub fn kernel(&self, node: NodeId) -> &Kernel {
        &self.kernels[node as usize]
    }

    /// Mutable kernel access (test-only surgery).
    pub fn kernel_mut(&mut self, node: NodeId) -> &mut Kernel {
        &mut self.kernels[node as usize]
    }

    /// Run harness code in a system context on `node` — the front-end
    /// loading a program: create initial actors, send kick-off messages.
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let r = with_system_ctx(&mut self.kernels[node as usize], f);
        self.flush(node as usize);
        r
    }

    /// Hand node `i`'s outbox to the network, oldest entry first, each
    /// packet at the clock its kernel stamped on it. Called after every
    /// kernel entry point this machine drives.
    fn flush(&mut self, i: usize) {
        let k = &mut self.kernels[i];
        let me = k.node();
        for out in k.drain_outbox() {
            match out {
                Outbound::Packet { at, dst, env, wire } => {
                    self.net.inject(at, me, dst, env, wire);
                }
                Outbound::Timer { fire_at, peer } => {
                    self.net.schedule(fire_at, me, AmEnvelope::RetxTimer { peer });
                }
            }
        }
    }

    /// Run until every node is idle and the network is drained (or a
    /// kernel stopped the machine / the event valve blew).
    ///
    /// One sequential loop: always execute the globally earliest
    /// `(time, rank, tie)` candidate. Virtual time is cut into windows of
    /// one poll quantum `Q` — the link lookahead, or 1 ns on a
    /// zero-lookahead link ([`LinkModel::instant`]) — and three things
    /// happen only at a window boundary: the stop flag and the event
    /// valve are checked, and idle nodes' load-balance polls are planned
    /// for the coming window, gated on "some node holds ready work" as
    /// seen at that boundary (the real system parks on an idle interrupt;
    /// the simulation can see readiness globally). In-flight packets
    /// deliberately do not count as work: steal traffic itself would
    /// otherwise keep idle nodes polling each other forever after the
    /// computation drains. Every virtual result in `results/` was
    /// recorded under this per-window gating, which is the only reason
    /// the window exists; a packet may arrive inside the window that
    /// sent it and is delivered in order like any other.
    pub fn run(&mut self) -> Result<SimReport, MachineError> {
        let quantum = lookahead_ns(&self.cfg.link).max(1);
        let limit = match self.cfg.max_events {
            0 => u64::MAX,
            n => n,
        };
        let mut next_window = 0u64;
        // Idle nodes' poll candidates, probed at each boundary and then
        // narrowed to the polls planned for the window, in firing order.
        let mut polls: Vec<(VirtualTime, usize)> = Vec::new();
        loop {
            if self.kernels.iter().any(|k| k.stopped) {
                break;
            }
            let mut t_next = self.net.peek_time();
            let mut earliest = |t: VirtualTime| t_next = Some(t_next.map_or(t, |b| b.min(t)));
            let mut work_exists = false;
            polls.clear();
            for (i, k) in self.kernels.iter().enumerate() {
                if k.has_work() {
                    work_exists = true;
                    earliest(k.clock);
                } else if let Some(t0) = k.balancer.poll_ready_at() {
                    polls.push((t0.max(k.clock), i));
                }
            }
            if !work_exists {
                polls.clear();
            }
            for &(t, _) in &polls {
                earliest(t);
            }
            let Some(t_next) = t_next else {
                break; // fully drained
            };
            if self.events >= limit {
                return Err(MachineError::MaxEvents { limit });
            }
            let index = (t_next.as_nanos() / quantum).max(next_window);
            next_window = index + 1;
            let start = VirtualTime::from_nanos(index * quantum);
            let end = VirtualTime::from_nanos((index + 1) * quantum);
            for p in &mut polls {
                p.0 = p.0.max(start);
            }
            polls.retain(|&(t, _)| t < end);
            polls.sort_unstable();
            self.run_window(end, limit, &polls);
        }
        if let Some(e) = self.take_failure() {
            return Err(e);
        }
        Ok(self.report())
    }

    /// First typed failure recorded by any kernel, in node order.
    fn take_failure(&mut self) -> Option<MachineError> {
        self.kernels.iter_mut().find_map(|k| k.failed.take())
    }

    /// Execute every action with `t < end` in key order, stopping early
    /// only when the event count reaches `limit`. `polls` are the planned
    /// poll fire times, sorted.
    fn run_window(&mut self, end: VirtualTime, limit: u64, polls: &[(VirtualTime, usize)]) {
        let mut next_poll = 0usize;
        while self.events < limit {
            let mut best: Option<Candidate> = None;
            let mut consider = |c: Candidate| {
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            };
            if let Some(t) = self.net.peek_time() {
                if t < end {
                    consider((t, RANK_NET, 0));
                }
            }
            for (i, k) in self.kernels.iter().enumerate() {
                if k.has_work() && k.clock < end {
                    consider((k.clock, RANK_STEP, i));
                }
            }
            if let Some(&(at, i)) = polls.get(next_poll) {
                consider((at, RANK_POLL, i));
            }
            let Some((t, rank, i)) = best else {
                break; // nothing left before the window end
            };
            self.events += 1;
            match rank {
                RANK_NET => {
                    let (_, pkt) = self.net.pop().expect("candidate said Net");
                    self.deliver_packet(t, pkt);
                    // Batch-drain every packet arriving at the same
                    // instant: deliveries win all ties at `t` and nothing
                    // can be sent into the past, so the scan above could
                    // not choose differently — this skips an O(nodes)
                    // scan per packet in hot fan-in phases.
                    while self.net.peek_time() == Some(t) && self.events < limit {
                        let (_, pkt) = self.net.pop().expect("peeked");
                        self.events += 1;
                        self.deliver_packet(t, pkt);
                    }
                }
                RANK_STEP => {
                    let k = &mut self.kernels[i];
                    let before = k.clock;
                    k.step();
                    self.flush(i);
                    if self.cfg.observe.timeline {
                        let after = self.kernels[i].clock;
                        self.timeline
                            .push(i as NodeId, before, after, SpanKind::Compute);
                    }
                }
                _ => {
                    next_poll += 1;
                    let k = &mut self.kernels[i];
                    // The poll was planned at the boundary; the node's
                    // state may have moved since (a delivered packet gave
                    // it work, a steal reply rescheduled the backoff).
                    // A poll that is no longer live is discarded — and
                    // still counted as an event.
                    if !k.has_work() && k.balancer.poll_ready_at().is_some_and(|t0| t0 <= t) {
                        k.clock = k.clock.max(t);
                        k.send_steal_poll();
                        self.flush(i);
                    }
                }
            }
        }
    }

    /// Deliver one packet with interrupt semantics (§3): the node
    /// manager "steals the processor from the actor that is currently
    /// executing". If the node's clock is already past the arrival
    /// (mid-method), the handler logically runs AT the arrival time —
    /// its outbound packets (acks, relays, grants) leave immediately —
    /// while the interrupted method's completion slips by the handler's
    /// CPU time. Stale chaos timers are retired for free.
    fn deliver_packet(&mut self, t: VirtualTime, pkt: hal_am::Packet<Box<KMsg>>) {
        let node = pkt.dst;
        let span = self.kernels[node as usize].deliver(t, pkt);
        self.flush(node as usize);
        if let Some((start, end)) = span {
            if self.cfg.observe.timeline {
                self.timeline.push(node, start, end, SpanKind::Handler);
            }
        }
    }

    /// Snapshot the report without running.
    pub fn report(&self) -> SimReport {
        SimReport::from_kernels(&self.cfg, &self.kernels, self.events, &self.net.stats())
    }

    /// A hub over the kernels' cells (none with metrics off: their
    /// gauges were never stored) — the same `top` source a live machine
    /// has.
    pub fn telemetry(&self) -> Arc<crate::metrics::TelemetryHub> {
        let sampled = self.kernels.iter().filter(|k| k.metrics().is_some());
        let cells = sampled.map(|k| Arc::clone(k.cell())).collect();
        Arc::new(crate::metrics::TelemetryHub::new(cells))
    }

    /// The recorded timeline (empty unless `observe.timeline` was set,
    /// see [`ObserveOpts`]).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Run a distributed garbage collection (§9 future work): the
    /// machine must be quiescent (no ready work, empty network — i.e.
    /// right after [`SimMachine::run`] drained). Returns what was freed,
    /// [`MachineError::NotQuiescent`] when called mid-computation, or
    /// [`MachineError::GcIncomplete`] if the protocol never converged.
    pub fn collect_garbage(&mut self) -> Result<GcReport, MachineError> {
        if self.net.in_flight() != 0 || self.kernels.iter().any(|k| k.has_work()) {
            return Err(MachineError::NotQuiescent);
        }
        self.kernels[0].start_gc();
        self.flush(0);
        self.run()?;
        // The coordinator posted gc_freed / gc_rounds / gc_live as its
        // most recent reports.
        let reports = &self.kernels[0].reports;
        let find_last = |key: &str| {
            reports
                .iter()
                .rev()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_int())
                .ok_or_else(|| MachineError::GcIncomplete {
                    missing: key.to_string(),
                })
        };
        Ok(GcReport {
            freed: find_last("gc_freed")? as u64,
            rounds: find_last("gc_rounds")? as u32,
            live: find_last("gc_live")? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    /// What one node's sampler had to drop is reported once, on either
    /// backend's report — not copied onto every node.
    #[test]
    fn dropped_samples_are_folded_into_the_report_once() {
        let cfg = MachineConfig::builder(2).metrics().build().unwrap();
        let mut m = SimMachine::new(cfg, Arc::new(BehaviorRegistry::new()));
        // Node 1 crosses MAX_SAMPLES + 5 boundaries, node 0 none.
        let k = m.kernel_mut(1);
        k.clock = VirtualTime::from_nanos(
            Metrics::DEFAULT_CADENCE_NS * (Metrics::MAX_SAMPLES as u64 + 4),
        );
        k.metrics_catch_up();
        let metrics = m.report().metrics.expect("metrics were requested");
        let dropped: Vec<u64> = metrics.nodes.iter().map(|n| n.samples_dropped).collect();
        assert_eq!(dropped, [0, 5]);
        assert_eq!(metrics.counter("metrics.dropped_samples"), 5);
    }
}
