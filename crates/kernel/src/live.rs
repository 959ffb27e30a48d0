//! The live backend: real kernels on host threads, real time, lossless
//! FIFO links.
//!
//! Where [`crate::machine::SimMachine`] advances a virtual clock under a
//! cost model, this machine runs one kernel per OS thread over
//! [`hal_am::thread_network_bounded`] mpsc links and anchors every
//! kernel's clock to the **host monotonic clock**: at the top of each
//! loop iteration a node sets `clock = max(clock, elapsed-since-start)`.
//! Virtual nanoseconds therefore *are* host nanoseconds, so `Ctx::now()`
//! measures real time and latency instrumentation written for the
//! simulator (e.g. the serving front-end's `now() - sent_at`) is
//! meaningful on both backends.
//!
//! Kernels are built exactly as the simulator's are, from the machine's
//! one [`MachineConfig`] ([`Kernel::new`]), and they speak the same
//! protocol: the links neither drop nor reorder (a full peer queue stalls
//! the sender, see `LiveNet::inject`), so, as on a fault-free simulated
//! run, there is no seq/ack layer and no retransmit timer.
//! Migration, aliases and FIR chases run the exact same kernel code
//! paths — the backends differ only in who drains the kernel's outbox
//! ([`crate::kernel::Outbound`]) and into what. Fault plans are refused
//! at validation (`ConfigError::LiveFaultsUnsupported`).
//!
//! A node with nothing to do **sleeps until something happens**; it never
//! polls. Each node owns one [`Doorbell`], and whoever hands it work
//! rings that bell after enqueueing: `LiveNet::inject` (the flush of a
//! kernel's outbox) after a packet went onto the peer's queue,
//! [`LiveMachine::submit`] after a job was queued, and
//! `Shared::raise_abort` (watchdog, peer panic) after raising the abort
//! flag. The sleeper announces itself, takes one more
//! full loop turn with the flag up — so anything enqueued before the flag
//! was visible is found — and only then parks, until rung or until its
//! one real deadline, the load balancer's next poll time. Without a
//! balancer it sleeps without a timeout;
//! there is no safety-net tick to paper over a missed ring, which is why
//! the protocol is model-checked (`model_port::doorbell_program`).
//!
//! Termination is explicit (`Ctx::stop` → Halt broadcast, which reaches a
//! parked peer as a packet like any other), with a wall-clock watchdog as
//! the livelock valve — the live analog of `max_events`. A node thread
//! that panics aborts its peers and surfaces as
//! [`MachineError::NodePanicked`].
//!
//! Metrics are the simulator's registry ([`crate::metrics`]) on another
//! clock: each node samples its gauges in its own thread, whenever the
//! clock it has just anchored crosses a 10 ms boundary — a node that
//! slept through boundaries records them on waking, with the gauges it
//! parked with. There is no collector thread; what other threads can
//! read while the machine runs is each node's single-writer
//! [`crate::metrics::NodeCell`], through [`LiveMachine::telemetry`].
//!
//! The result is a genuine [`SimReport`] (merged stats
//! including each node's own transport counts, per-node
//! clocks, reports, optional merged trace and metrics, quiescence audit)
//! so hal-check and the artifact tooling ingest live runs unchanged; only
//! virtual-time *determinism* is absent, which downstream consumers
//! must not assume (the perf gate relaxes its exact comparisons for
//! reports tagged live).

use crate::backend::{BackendKind, Job};
use crate::error::MachineError;
use crate::kernel::{with_system_ctx, Ctx, Kernel, Outbound};
use crate::machine::{MachineConfig, SimReport};
use crate::registry::BehaviorRegistry;
use crate::sync::{
    AtomicBool, Condvar, Doorbell, Mutex, Ordering, RING_JOB, RING_PACKET, RING_STOP,
};
use crate::metrics::{Counter, NodeCell, TelemetryHub};
use crate::wire::KMsg;
use hal_am::{thread_network, thread_network_bounded, AmEnvelope, NodeId, Packet, ThreadEndpoint};
use hal_des::{StatSet, VirtualTime};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the node threads and the harness share: the wake-up and shutdown
/// state of one live machine.
struct Shared {
    /// One bell per node, rung by whoever enqueues work for it.
    bells: Vec<Doorbell>,
    /// Raised by the watchdog or by a panicking node; every loop turn
    /// checks it. Raise it through [`Shared::raise_abort`] only, so a
    /// parked node hears about it.
    abort: AtomicBool,
    /// Node threads that have not exited yet; `all_exited` is notified
    /// when it reaches zero.
    running: Mutex<usize>,
    all_exited: Condvar,
}

impl Shared {
    fn new(nodes: usize) -> Self {
        Shared {
            bells: (0..nodes).map(|_| Doorbell::new()).collect(),
            abort: AtomicBool::new(false),
            running: Mutex::new(nodes),
            all_exited: Condvar::new(),
        }
    }

    /// Stop every node at its next loop turn. Flag first, bell second —
    /// the producer half of the doorbell protocol, with the flag as the
    /// "queue" (`SeqCst` on both sides, see [`Doorbell`]).
    fn raise_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for bell in &self.bells {
            bell.ring(RING_STOP);
        }
    }

    /// Block until every node thread has exited; false if `deadline`
    /// passes first.
    fn wait_all_exited(&self, deadline: Instant) -> bool {
        let mut running = self.running.lock();
        while *running > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            running = self.all_exited.wait_timeout(running, deadline - now).0;
        }
        true
    }
}

/// Held by a node thread for its whole life: announces the exit, and if
/// the thread is unwinding aborts the peers first — they may be parked
/// without a timeout, waiting for packets this node will never send.
struct ExitGuard(Arc<Shared>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.raise_abort();
        }
        let mut running = self.0.running.lock();
        *running -= 1;
        if *running == 0 {
            self.0.all_exited.notify_all();
        }
    }
}

/// A node's network interface on the live backend: the thread endpoint
/// plus the holdback inbox of its stalled sends.
pub struct LiveNet {
    ep: ThreadEndpoint<Box<KMsg>>,
    /// Packets received while a send was stalled on a full peer queue.
    /// The node loop consumes these before fresh arrivals so per-link
    /// FIFO order is preserved (see `LiveNet::inject`).
    inbox: VecDeque<Packet<Box<KMsg>>>,
    /// The peers' doorbells, rung after every send.
    shared: Arc<Shared>,
    /// The node's cell, where every send is counted: the `threadnet.*`
    /// counters have this node's thread as their one writer, like the
    /// kernel's own.
    cell: Arc<NodeCell>,
}

impl LiveNet {
    fn new(ep: ThreadEndpoint<Box<KMsg>>, shared: Arc<Shared>, cell: Arc<NodeCell>) -> Self {
        LiveNet {
            ep,
            inbox: VecDeque::new(),
            shared,
            cell,
        }
    }

    /// Next packet set aside during a stalled send, oldest first.
    fn take_inbox(&mut self) -> Option<Packet<Box<KMsg>>> {
        self.inbox.pop_front()
    }

    /// Send everything `kernel` left in its outbox, oldest first. The
    /// node loop calls this after every kernel entry point, on every exit
    /// path.
    fn flush(&mut self, kernel: &mut Kernel) {
        for out in kernel.drain_outbox() {
            match out {
                Outbound::Packet { dst, env, wire, .. } => self.inject(dst, env, wire),
                // Retransmit timers need link faults, which
                // `MachineConfig::validate` refuses on live.
                Outbound::Timer { .. } => unreachable!("a live kernel armed a timer"),
            }
        }
    }

    fn inject(&mut self, dst: NodeId, env: AmEnvelope<Box<KMsg>>, wire_bytes: usize) {
        // Drain-while-stalled: never block on a full peer queue without
        // also draining our own. A blocking send (e.g. a burst of sends
        // out of one dispatch) can wedge the partition — two nodes
        // blocked on each other's full queues, neither consuming.
        // The kernel is not running while its outbox is flushed, so
        // arrivals cannot be handled here; instead, retry the non-blocking
        // send and between attempts pull our own arrivals into `inbox`,
        // so this node always stays a consumer while it waits. The
        // blocked sender makes progress as soon as the peer frees a
        // slot, and the peer can always free a slot because every node
        // in the cycle keeps draining.
        let mut env = env;
        let mut stalled = false;
        loop {
            match self.ep.try_send(dst, env) {
                Ok(()) => {
                    // Enqueued: wake the peer if it sleeps (one load if not).
                    self.shared.bells[dst as usize].ring(RING_PACKET);
                    break;
                }
                // The peer already stopped: normal during shutdown.
                Err(TrySendError::Disconnected(_)) => {
                    self.cell.count(Counter::ThreadnetDroppedOnClose, 1);
                    break;
                }
                Err(TrySendError::Full(back)) => env = back,
            }
            if !stalled {
                stalled = true;
                self.cell.count(Counter::ThreadnetBackpressureHits, 1);
            }
            let mut drained = false;
            while let Some(pkt) = self.ep.try_recv() {
                self.inbox.push_back(pkt);
                drained = true;
            }
            if !drained {
                std::thread::yield_now();
            }
        }
        self.cell.count(Counter::ThreadnetPackets, 1);
        self.cell.count(Counter::ThreadnetBytes, wire_bytes as u64);
    }
}

/// What a finished node thread hands back.
struct NodeDone {
    kernel: Kernel,
    /// Loop iterations that made progress — the live stand-in for the
    /// simulator's event counter (order-of-magnitude comparable, not
    /// deterministic).
    events: u64,
}

enum LiveState {
    /// Threads not yet spawned: kernels are directly addressable, so
    /// bootstrap closures may borrow the caller's stack.
    Staged {
        kernels: Vec<Kernel>,
        nets: Vec<LiveNet>,
        job_txs: Vec<Sender<Job>>,
        job_rxs: Vec<Receiver<Job>>,
    },
    /// Node threads running; jobs travel over per-node channels.
    Running {
        handles: Vec<JoinHandle<NodeDone>>,
        job_txs: Vec<Sender<Job>>,
    },
    /// Drained: the report is fixed.
    Done(Box<SimReport>),
    /// Transient marker while moving between states; observing it means
    /// a prior transition panicked.
    Poisoned,
}

/// The live machine — see the module docs. Constructed via
/// [`crate::backend::Machine::live`] (or directly for tests).
pub struct LiveMachine {
    cfg: MachineConfig,
    state: LiveState,
    anchor: Instant,
    /// Every node's cell (owned by that node's kernel). Always wired —
    /// the hot path costs one unlocked load/store per hook — so `top`
    /// works against any running live machine, metrics requested or not.
    hub: Arc<TelemetryHub>,
    /// Doorbells, abort flag and exit count (see [`Shared`]).
    shared: Arc<Shared>,
}

impl LiveMachine {
    /// Stage a live machine: build kernels and the bounded thread
    /// network, spawn nothing yet. The machine is live whatever
    /// `cfg.backend` says, and its kernels are told so.
    ///
    /// # Panics
    /// Panics on an invalid configuration (use the validating builder),
    /// including a configuration carrying a fault plan — chaos injection
    /// is simulation-only.
    pub fn new(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        let cfg = MachineConfig { backend: BackendKind::Live, ..cfg };
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let endpoints = match cfg.live_queue_capacity {
            0 => thread_network::<Box<KMsg>>(cfg.nodes),
            cap => thread_network_bounded::<Box<KMsg>>(cfg.nodes, cap),
        };
        let kernels: Vec<Kernel> = (0..cfg.nodes)
            .map(|i| Kernel::new(i as NodeId, &cfg, Arc::clone(&registry)))
            .collect();
        let cells: Vec<Arc<NodeCell>> = kernels.iter().map(|k| Arc::clone(k.cell())).collect();
        let mut job_txs = Vec::with_capacity(cfg.nodes);
        let mut job_rxs = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let (tx, rx) = channel::<Job>();
            job_txs.push(tx);
            job_rxs.push(rx);
        }
        let shared = Arc::new(Shared::new(cfg.nodes));
        LiveMachine {
            cfg,
            state: LiveState::Staged {
                kernels,
                nets: endpoints
                    .into_iter()
                    .zip(&cells)
                    .map(|(ep, cell)| LiveNet::new(ep, Arc::clone(&shared), Arc::clone(cell)))
                    .collect(),
                job_txs,
                job_rxs,
            },
            anchor: Instant::now(),
            hub: Arc::new(TelemetryHub::new(cells)),
            shared,
        }
    }

    /// The hub over the nodes' metrics cells — live `top` reads it while
    /// the machine runs.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Wait up to `timeout` for every node thread to exit, raising
    /// `abort` if they do not, then join them. A thread that panicked has
    /// already aborted its peers ([`ExitGuard`]) and is reported as
    /// [`MachineError::NodePanicked`] (the lowest such node), ahead of a
    /// [`MachineError::WallTimeout`].
    fn join_nodes(
        handles: Vec<JoinHandle<NodeDone>>,
        shared: &Shared,
        timeout: Duration,
    ) -> Result<Vec<NodeDone>, MachineError> {
        let timed_out = !shared.wait_all_exited(Instant::now() + timeout);
        if timed_out {
            shared.raise_abort();
        }
        let mut out = Vec::with_capacity(handles.len());
        let mut panicked = None;
        for (node, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(done) => out.push(done),
                Err(payload) => {
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    panicked.get_or_insert(MachineError::NodePanicked {
                        node: node as NodeId,
                        message,
                    });
                }
            }
        }
        if let Some(e) = panicked {
            return Err(e);
        }
        if timed_out {
            return Err(MachineError::WallTimeout {
                waited_ms: timeout.as_millis() as u64,
            });
        }
        Ok(out)
    }

    /// Assemble the [`SimReport`] from joined kernels — the merge the
    /// simulator performs ([`SimReport::from_kernels`]), with each node's
    /// nonzero cell counters in its metrics slice.
    fn assemble_report(cfg: &MachineConfig, nodes: Vec<NodeDone>) -> Result<SimReport, MachineError> {
        let events = nodes.iter().map(|n| n.events).sum();
        let mut kernels: Vec<Kernel> = nodes.into_iter().map(|n| n.kernel).collect();
        if let Some(e) = kernels.iter_mut().find_map(|k| k.failed.take()) {
            return Err(e);
        }
        let mut report = SimReport::from_kernels(cfg, &kernels, events, &StatSet::new());
        for n in report.metrics.iter_mut().flat_map(|m| &mut m.nodes) {
            let cell = kernels[n.node as usize].cell();
            let named = Counter::ALL.iter().map(|&c| (c.name().to_string(), cell.get(c)));
            n.counters.extend(named.filter(|&(_, v)| v > 0));
        }
        Ok(report)
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Run a bootstrap closure in a system context on `node` and return
    /// its value. The closure may borrow locals (it is not shipped
    /// across threads); in exchange it is only valid while the machine
    /// is staged, i.e. before [`LiveMachine::init`] —
    /// [`MachineError::BackendState`] afterwards.
    pub fn with_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Ctx<'_>) -> R,
    ) -> Result<R, MachineError> {
        if (node as usize) >= self.cfg.nodes {
            return Err(MachineError::InvalidNode {
                node,
                nodes: self.cfg.nodes,
            });
        }
        match &mut self.state {
            LiveState::Staged { kernels, nets, .. } => {
                let kernel = &mut kernels[node as usize];
                let r = with_system_ctx(kernel, f);
                nets[node as usize].flush(kernel);
                Ok(r)
            }
            _ => Err(MachineError::BackendState {
                what: "run a borrowing bootstrap closure after init (submit a Job instead)",
            }),
        }
    }

    /// Spawn the node threads. Idempotent while running.
    pub fn init(&mut self) -> Result<(), MachineError> {
        match &self.state {
            LiveState::Staged { .. } => {}
            LiveState::Running { .. } => return Ok(()), // idempotent
            LiveState::Done(_) | LiveState::Poisoned => {
                return Err(MachineError::BackendState {
                    what: "restart after it has drained",
                })
            }
        }
        let LiveState::Staged {
            kernels,
            nets,
            job_txs,
            job_rxs,
        } = std::mem::replace(&mut self.state, LiveState::Poisoned)
        else {
            unreachable!("matched Staged above")
        };
        // Re-anchor at spawn: bootstrap wall time (program loading)
        // should not count against the run's clocks.
        self.anchor = Instant::now();
        let anchor = self.anchor;
        let handles = kernels
            .into_iter()
            .zip(nets)
            .zip(job_rxs)
            .map(|((kernel, net), jobs)| Node::new(kernel, net, jobs, anchor).spawn())
            .collect();
        self.state = LiveState::Running { handles, job_txs };
        Ok(())
    }

    /// Queue a job for `node`'s thread and ring its doorbell. A job
    /// submitted while staged runs as soon as the node loop starts.
    pub fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError> {
        if (node as usize) >= self.cfg.nodes {
            return Err(MachineError::InvalidNode {
                node,
                nodes: self.cfg.nodes,
            });
        }
        let txs = match &mut self.state {
            LiveState::Staged { job_txs, .. } | LiveState::Running { job_txs, .. } => job_txs,
            LiveState::Done(_) | LiveState::Poisoned => {
                return Err(MachineError::BackendState {
                    what: "accept a job after it has drained",
                })
            }
        };
        // Staged jobs queue up and run as soon as the node loop starts.
        txs[node as usize]
            .send(job)
            .map_err(|_| MachineError::BackendState {
                what: "accept a job for a node that already stopped",
            })?;
        self.shared.bells[node as usize].ring(RING_JOB);
        Ok(())
    }

    /// Start if still staged, then join the node threads with `timeout`
    /// as the wall-clock backstop ([`MachineError::WallTimeout`] if it
    /// trips) and return the report.
    pub fn drain(&mut self, timeout: Duration) -> Result<SimReport, MachineError> {
        if matches!(self.state, LiveState::Staged { .. }) {
            self.init()?;
        }
        match std::mem::replace(&mut self.state, LiveState::Poisoned) {
            LiveState::Running { handles, job_txs } => {
                // Drop the job senders so node loops see a disconnected
                // queue rather than a forever-pending one.
                drop(job_txs);
                // A failure leaves the state Poisoned: a run that lost a
                // node or was cut short has no coherent report. Every
                // node thread has been joined, so the cell totals read
                // into the report are exact, not a mid-run cut.
                let nodes = Self::join_nodes(handles, &self.shared, timeout)?;
                let report = Self::assemble_report(&self.cfg, nodes)?;
                self.state = LiveState::Done(Box::new(report.clone()));
                Ok(report)
            }
            LiveState::Done(report) => {
                let out = (*report).clone();
                self.state = LiveState::Done(report);
                Ok(out)
            }
            LiveState::Staged { .. } => unreachable!("init() above left Staged"),
            LiveState::Poisoned => Err(MachineError::BackendState {
                what: "drain after a failed run",
            }),
        }
    }

    /// Re-read the drained report ([`MachineError::BackendState`] before
    /// that — a running partition has no coherent global snapshot).
    pub fn report(&self) -> Result<SimReport, MachineError> {
        match &self.state {
            LiveState::Done(report) => Ok((**report).clone()),
            _ => Err(MachineError::BackendState {
                what: "snapshot a report before draining (a running partition has no coherent global state)",
            }),
        }
    }
}

/// One live node: its kernel, its network interface and its job queue,
/// owned by the node's thread for the length of the run.
struct Node {
    kernel: Kernel,
    net: LiveNet,
    jobs: Receiver<Job>,
    anchor: Instant,
    /// Loop steps that did something (see [`NodeDone::events`]).
    events: u64,
}

impl Node {
    fn new(kernel: Kernel, net: LiveNet, jobs: Receiver<Job>, anchor: Instant) -> Self {
        Node {
            kernel,
            net,
            jobs,
            anchor,
            events: 0,
        }
    }

    /// One pass over everything that can hand this node work. Returns
    /// whether anything happened.
    ///
    /// 1. anchor the virtual clock to host time (`max`, never backwards)
    ///    and sample the metrics cadence boundaries that passed while
    ///    this thread was parked or descheduled;
    /// 2. run submitted jobs in a system context;
    /// 3. drain arrived packets, the stalled-send inbox first;
    /// 4. take one scheduling step.
    fn turn(&mut self) -> bool {
        let Node {
            kernel,
            net,
            jobs,
            events,
            ..
        } = self;
        let before = *events;
        kernel.clock = kernel
            .clock
            .max(VirtualTime::from_nanos(self.anchor.elapsed().as_nanos() as u64));
        kernel.metrics_catch_up();
        while let Ok(job) = jobs.try_recv() {
            with_system_ctx(kernel, job);
            net.flush(kernel);
            *events += 1;
            if kernel.stopped {
                return true;
            }
        }
        // Inbox first: packets set aside while a send was stalled are
        // older than anything still in the endpoint queue.
        while let Some(pkt) = net.take_inbox().or_else(|| net.ep.try_recv()) {
            kernel.handle_packet(pkt);
            net.flush(kernel);
            *events += 1;
            if kernel.stopped {
                return true;
            }
        }
        if kernel.step() {
            net.flush(kernel);
            *events += 1;
        }
        *events != before
    }

    /// Run the node on a thread of its own, counted out of
    /// `Shared::running` (and its peers aborted if it unwinds) by an
    /// [`ExitGuard`].
    fn spawn(self) -> JoinHandle<NodeDone> {
        let exit = ExitGuard(Arc::clone(&self.net.shared));
        std::thread::spawn(move || {
            let _exit = exit;
            self.run()
        })
    }

    /// The node's event loop: [`Node::turn`] while turns find work; when
    /// one does not, go to sleep by the [`Doorbell`] protocol — optionally
    /// send a steal poll, announce, take one more turn with the flag up
    /// (the re-check: a producer that enqueued before it could see the
    /// flag rang nobody), then park. The park is the only place this
    /// thread blocks. It ends when a producer rings or at the node's one
    /// real deadline, the balancer's next poll time, and has no timeout
    /// when there is none.
    ///
    /// Exits when the kernel stops (local `Ctx::stop` or received Halt) or
    /// `abort` is raised.
    fn run(mut self) -> NodeDone {
        let shared = Arc::clone(&self.net.shared);
        let bell = &shared.bells[self.kernel.node() as usize];
        loop {
            if self.kernel.stopped || shared.abort.load(Ordering::SeqCst) {
                return NodeDone {
                    kernel: self.kernel,
                    events: self.events,
                };
            }
            if self.turn() {
                continue;
            }
            if self.kernel.balancer.may_poll(self.kernel.clock) {
                self.kernel.send_steal_poll();
                self.net.flush(&mut self.kernel);
            }
            bell.announce();
            if shared.abort.load(Ordering::SeqCst) || self.turn() {
                bell.cancel();
                continue;
            }
            let deadline = self
                .kernel
                .balancer
                .poll_ready_at()
                .map(|t| self.anchor + Duration::from_nanos(t.as_nanos()));
            let cell = self.kernel.cell();
            cell.count(Counter::LiveParks, 1);
            cell.note_wake(bell.park(deadline));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Machine;
    use crate::message::Value;
    use hal_am::FaultPlan;
    use hal_des::VirtualDuration;

    fn empty_registry() -> Arc<BehaviorRegistry> {
        Arc::new(BehaviorRegistry::new())
    }

    #[test]
    fn live_empty_partition_stops_via_bootstrap() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.with_ctx(0, |ctx| {
            ctx.report("who", Value::Int(7));
            ctx.stop();
        });
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert_eq!(report.value("who"), Some(&Value::Int(7)));
        assert_eq!(report.node_clocks.len(), 2);
        // Drained: report() re-reads the same result.
        let again = m.report().unwrap();
        assert_eq!(again.value("who"), Some(&Value::Int(7)));
    }

    /// `Ctx::stop` from a job on a running machine: the job returns with
    /// the kernel stopped and the Halt still in its outbox, so the node
    /// loop must flush on that exit path too — or node 1 sleeps until
    /// the watchdog.
    #[test]
    fn live_stop_from_a_job_after_init_halts_the_peer() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.init().unwrap();
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        m.drain(Duration::from_secs(10)).expect("the Halt was flushed");
    }

    #[test]
    fn live_submit_runs_jobs_mid_flight() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.init().unwrap();
        m.submit(1, Box::new(|ctx| ctx.report("from", Value::Int(1))))
            .unwrap();
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert_eq!(report.value("from"), Some(&Value::Int(1)));
    }

    #[test]
    fn live_exec_after_init_is_a_state_error() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        let err = m.with_ctx(0, |_| {}).unwrap_err();
        assert!(matches!(err, MachineError::BackendState { .. }));
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        m.drain(Duration::from_secs(10)).unwrap();
    }

    #[test]
    fn live_report_before_drain_is_a_state_error() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let m = LiveMachine::new(cfg, empty_registry());
        assert!(matches!(
            m.report(),
            Err(MachineError::BackendState { .. })
        ));
    }

    #[test]
    fn live_wall_timeout_trips() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        // Nobody ever calls stop: the watchdog must fire — and its abort
        // must wake a node parked without a timeout.
        let t = Instant::now();
        let err = m.drain(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, MachineError::WallTimeout { .. }));
        assert!(t.elapsed() < Duration::from_secs(5), "abort woke the node");
    }

    #[test]
    fn live_idle_nodes_sleep_instead_of_polling() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        // No balancer: nothing to wake for.
        std::thread::sleep(Duration::from_millis(100));
        let parks: Vec<u64> = m
            .telemetry()
            .cells()
            .iter()
            .map(|c| c.get(Counter::LiveParks))
            .collect();
        assert!(
            parks.iter().all(|&p| (1..=4).contains(&p)),
            "100 idle ms are one park per node, not 100 poll ticks: {parks:?}"
        );
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        let report = m.drain(Duration::from_secs(10)).unwrap();
        // Node 0 was woken by the job, node 1 by node 0's Halt packet.
        assert!(report.stats.get("live.wake_job") >= 1, "{:?}", report.stats);
        assert!(report.stats.get("live.wake_packet") >= 1, "{:?}", report.stats);
        assert_eq!(report.stats.get("live.wake_stop"), 0);
        assert!(report.stats.get("live.parks") >= parks.iter().sum::<u64>());
    }

    #[test]
    fn live_job_wakes_a_parked_node() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = LiveMachine::new(cfg, empty_registry());
        m.init().unwrap();
        let waits = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            std::thread::sleep(Duration::from_micros(1_000 + (x >> 33) % 2_000));
            let (sent, waits) = (Instant::now(), Arc::clone(&waits));
            m.submit(1, Box::new(move |_| waits.lock().unwrap().push(sent.elapsed())))
                .unwrap();
        }
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        m.drain(Duration::from_secs(10)).unwrap();
        let mut waits = waits.lock().unwrap().clone();
        assert_eq!(waits.len(), 200);
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_micros(400),
            "submit -> run on an idle node took {median:?} at the median (a poll tick?)"
        );
    }

    /// A node whose only pending event is its balancer's next poll parks
    /// *until that deadline*: after an empty-handed steal reply, the next
    /// steal request leaves one poll interval later, not a tick later.
    #[test]
    fn live_poll_deadline_wakes_a_parked_node() {
        let interval = Duration::from_millis(5);
        let is_poll = |p: &Packet<Box<KMsg>>| {
            matches!(&p.body, AmEnvelope::Small(k) if matches!(**k, KMsg::StealRequest { .. }))
        };
        let mut late = Vec::new();
        for _ in 0..5 {
            let mut cfg = MachineConfig::builder(2)
                .backend(BackendKind::Live)
                .load_balancing(true)
                .build()
                .unwrap();
            cfg.cost.steal_poll_interval = VirtualDuration::from_nanos(interval.as_nanos() as u64);
            let mut eps = thread_network::<Box<KMsg>>(2);
            let silent_peer = eps.pop().unwrap();
            let shared = Arc::new(Shared::new(2));
            let (_job_tx, jobs) = channel::<Job>();
            let kernel = Kernel::new(0, &cfg, empty_registry());
            let cell = Arc::clone(kernel.cell());
            let net = LiveNet::new(eps.pop().unwrap(), Arc::clone(&shared), Arc::clone(&cell));
            let node = Node::new(kernel, net, jobs, Instant::now());
            let h = node.spawn();
            // The idle node polls its one peer at once; the peer has no
            // work to give.
            assert!(is_poll(&silent_peer.recv().expect("first poll")));
            silent_peer.send(0, AmEnvelope::Small(Box::new(KMsg::StealNone)), 16);
            shared.bells[0].ring(RING_PACKET);
            let answered = Instant::now();
            assert!(is_poll(&silent_peer.recv().expect("second poll")));
            let waited = answered.elapsed();
            late.push(waited.saturating_sub(interval));
            assert!(waited + Duration::from_millis(1) >= interval, "not early");
            assert!(cell.get(Counter::LiveWakeTimer) >= 1, "woken by its deadline");
            shared.raise_abort();
            h.join().unwrap();
        }
        late.sort();
        assert!(
            late[late.len() / 2] < Duration::from_millis(1),
            "the poll left {late:?} after its deadline"
        );
    }

    const BOMB: crate::addr::BehaviorId = crate::addr::BehaviorId(1);

    /// A registry whose one behavior panics on its first message.
    fn registry_with_bomb() -> Arc<BehaviorRegistry> {
        struct Bomb;
        impl crate::actor::Behavior for Bomb {
            fn dispatch(&mut self, _: &mut Ctx<'_>, _: crate::message::Msg) {
                panic!("boom");
            }
        }
        let mut reg = BehaviorRegistry::new();
        reg.register(BOMB, "bomb", |_| Box::new(Bomb));
        Arc::new(reg)
    }

    #[test]
    fn live_node_panic_is_a_typed_error_not_a_hang() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::live(cfg, registry_with_bomb());
        m.init().unwrap();
        // Node 0 creates the bomb on node 1, lights it and goes back to
        // sleep with no timeout; nobody calls stop.
        m.submit(
            0,
            Box::new(|ctx| {
                let bomb = ctx.create_on(1, BOMB, vec![]);
                ctx.send(bomb, 0, vec![]);
            }),
        )
        .unwrap();
        let err = m.drain(Duration::from_secs(10)).unwrap_err();
        assert_eq!(
            err,
            MachineError::NodePanicked {
                node: 1,
                message: "boom".to_string()
            }
        );
    }

    /// Sim and live kernels are built from the machine's one record:
    /// each keeps it whole, with only `backend` forced by its machine, and
    /// the backend alone decides the metrics sampler. The live machine is
    /// staged from a config saying `Sim`, as a caller of
    /// `LiveMachine::new` may pass.
    #[test]
    fn kernels_keep_the_machine_config_on_both_backends() {
        use crate::machine::{ObserveOpts, SimMachine};
        // Every setting off its default, so a field a kernel dropped or
        // rewrote would show.
        let mut cfg = MachineConfig::builder(3)
            .seed(99)
            .load_balancing(true)
            .flow_control(false)
            .quantum(5)
            .max_stack_depth(9)
            .max_events(1_000)
            .live_queue_capacity(7)
            .link(hal_am::LinkModel::instant())
            .opt(crate::kernel::OptFlags {
                name_caching: false,
                ..Default::default()
            })
            .observe(ObserveOpts::none().trace(true).timeline(true).span_sample_ppm(500_000))
            .build()
            .unwrap();
        cfg.cost.method_invoke = VirtualDuration::from_nanos(123);
        let faults = FaultPlan::none().with_drop(0.25);
        let check = |kernels: Vec<&Kernel>, want: &MachineConfig, sampled: bool| {
            for (me, k) in kernels.into_iter().enumerate() {
                assert_eq!(format!("{:?}", k.config()), format!("{want:?}"));
                assert_eq!(k.node() as usize, me);
                assert_eq!(k.metrics().is_some(), sampled, "{:?} node {me}", want.backend);
            }
        };
        for metrics in [false, true] {
            let observe = ObserveOpts { metrics, ..cfg.observe };
            // A simulated kernel samples only when asked.
            let sim_cfg = MachineConfig { observe, faults: faults.clone(), ..cfg.clone() };
            let sim = SimMachine::new(sim_cfg.clone(), empty_registry());
            check((0..3).map(|n| sim.kernel(n)).collect(), &sim_cfg, metrics);

            // Live refuses the fault plan; a live kernel always samples.
            let live_cfg = MachineConfig { observe, ..cfg.clone() };
            assert_eq!(live_cfg.backend, BackendKind::Sim);
            let m = LiveMachine::new(live_cfg.clone(), empty_registry());
            let LiveState::Staged { kernels, .. } = &m.state else {
                unreachable!("a new machine is staged")
            };
            let want = MachineConfig { backend: BackendKind::Live, ..live_cfg };
            check(kernels.iter().collect(), &want, true);
        }
    }

    #[test]
    fn live_clocks_track_host_time() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = Machine::live(cfg, empty_registry());
        m.init().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
        let report = m.drain(Duration::from_secs(10)).unwrap();
        assert!(
            report.makespan >= VirtualTime::from_nanos(15_000_000),
            "anchored clock must have advanced ~20ms of host time, got {} ns",
            report.makespan.as_nanos()
        );
    }
}
