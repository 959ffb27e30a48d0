//! The backend seam: one trait, two ways to execute a partition.
//!
//! Everything above the kernel — workloads, benches, the console, the
//! serving front-end — talks to a [`Machine`], which drives a boxed
//! [`Backend`]. Two implementations exist:
//!
//! * **Sim** ([`BackendKind::Sim`]) — the deterministic discrete-event
//!   simulator ([`crate::machine::SimMachine`]): virtual time, one
//!   sequential loop, bit-identical reports for one seed, the substrate
//!   for every paper table.
//! * **Live** ([`BackendKind::Live`]) — [`crate::live::LiveMachine`]:
//!   one real kernel per host thread over
//!   [`hal_am::thread_network`], with the PR 3 reliable layer as its
//!   wire protocol and host monotonic time as its clock.
//!
//! The trait cuts exactly where `SimMachine::run` used to be monolithic:
//! *bootstrap* ([`Backend::exec`]), *start* ([`Backend::init`]),
//! *feed* ([`Backend::submit`]), *finish* ([`Backend::drain`] /
//! [`Backend::run`]), *observe* ([`Backend::report`]). Application code
//! written against [`Machine`] runs identically on both backends —
//! migration, aliases, and FIR chases included — which is the location
//! transparency claim of the paper restated at the harness level.

use crate::error::MachineError;
use crate::kernel::Ctx;
use crate::machine::{MachineConfig, SimMachine, SimReport};
use crate::registry::BehaviorRegistry;
use hal_am::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// Which execution substrate a [`Machine`] drives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation (the default).
    #[default]
    Sim,
    /// Multi-threaded live runtime: real kernels on host threads over
    /// mpsc links, reliable delivery, host-time clocks.
    Live,
}

impl BackendKind {
    /// Canonical lowercase name (`"sim"` / `"live"`), as accepted by
    /// every bin's `--backend` flag.
    pub const fn as_str(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Live => "live",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "live" => Ok(BackendKind::Live),
            other => Err(format!("unknown backend `{other}` (expected sim|live)")),
        }
    }
}

/// A unit of work injected into a running machine: a closure executed
/// in a system context on its target node. `Send + 'static` because the
/// live backend ships jobs across threads; the sim backend just runs
/// them inline.
pub type Job = Box<dyn FnOnce(&mut Ctx<'_>) + Send + 'static>;

/// One way of executing a partition of HAL kernels.
///
/// Lifecycle: [`exec`](Backend::exec) bootstrap closures while the
/// machine is staged → [`init`](Backend::init) starts it →
/// [`submit`](Backend::submit) feeds jobs mid-flight →
/// [`drain`](Backend::drain) (or the [`run`](Backend::run) shorthand)
/// waits for completion and yields the [`SimReport`] →
/// [`report`](Backend::report) re-reads it afterwards.
///
/// The sim backend is lenient — it has no threads, so every phase is
/// callable any time. The live backend enforces the lifecycle and
/// answers out-of-order calls with [`MachineError::BackendState`].
pub trait Backend {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Partition size.
    fn nodes(&self) -> usize;

    /// Run a bootstrap closure in a system context on `node` — the
    /// front-end loading a program before the machine starts. The
    /// closure may borrow locals (it is not shipped across threads);
    /// in exchange it is only valid while the machine is staged, i.e.
    /// before [`Backend::init`] on the live backend.
    fn exec(
        &mut self,
        node: NodeId,
        f: Box<dyn FnOnce(&mut Ctx<'_>) + '_>,
    ) -> Result<(), MachineError>;

    /// Start the machine. On the live backend this spawns the node
    /// threads; on the sim backend it is a no-op. Idempotent.
    fn init(&mut self) -> Result<(), MachineError>;

    /// Inject a job into the (possibly already running) machine on
    /// `node`. The sim backend executes it immediately in a system
    /// context; the live backend enqueues it to the node's thread,
    /// which picks it up within its next idle millisecond.
    fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError>;

    /// Wait for the machine to finish and return its report.
    ///
    /// Sim: runs the event loop to quiescence (`timeout` is ignored —
    /// virtual time needs no wall budget; the `max_events` valve guards
    /// livelock). Live: joins the node threads, with `timeout` as the
    /// wall-clock backstop ([`MachineError::WallTimeout`] if it trips).
    fn drain(&mut self, timeout: Duration) -> Result<SimReport, MachineError>;

    /// Start (if needed) and drain with the backend's default budget —
    /// the one-call path every harness uses.
    fn run(&mut self) -> Result<SimReport, MachineError> {
        self.init()?;
        self.drain(DEFAULT_WALL_BUDGET)
    }

    /// Re-read the most recent report without driving the machine.
    /// Sim: snapshots current state any time. Live: available once
    /// drained ([`MachineError::BackendState`] before that — a running
    /// partition has no coherent global snapshot).
    fn report(&self) -> Result<SimReport, MachineError>;
}

/// Default wall-clock budget for [`Backend::run`] on the live backend
/// (ignored by sim). Generous: it is a crash backstop, not a deadline.
pub const DEFAULT_WALL_BUDGET: Duration = Duration::from_mins(1);

/// The deterministic DES backend: a thin adapter over
/// [`SimMachine`], which remains the real implementation (and keeps its
/// public API for tests that reach into kernels).
pub struct SimBackend {
    machine: SimMachine,
}

impl SimBackend {
    /// Build over a behavior registry. Panics on an invalid
    /// configuration, exactly as [`SimMachine::new`] does.
    pub fn new(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        SimBackend {
            machine: SimMachine::new(cfg, registry),
        }
    }

    /// The wrapped machine (tests, diagnostics).
    pub fn machine(&self) -> &SimMachine {
        &self.machine
    }

    /// Mutable access to the wrapped machine.
    pub fn machine_mut(&mut self) -> &mut SimMachine {
        &mut self.machine
    }
}

impl Backend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn nodes(&self) -> usize {
        self.machine.nodes()
    }

    fn exec(
        &mut self,
        node: NodeId,
        f: Box<dyn FnOnce(&mut Ctx<'_>) + '_>,
    ) -> Result<(), MachineError> {
        self.machine.with_ctx(node, f);
        Ok(())
    }

    fn init(&mut self) -> Result<(), MachineError> {
        Ok(()) // nothing to start: the event loop runs inside drain()
    }

    fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError> {
        // No threads to hand the job to — run it right now, in the same
        // system context a bootstrap closure gets. Deterministic because
        // the caller's submission order IS the execution order.
        self.machine.with_ctx(node, job);
        Ok(())
    }

    fn drain(&mut self, _timeout: Duration) -> Result<SimReport, MachineError> {
        self.machine.run()
    }

    fn report(&self) -> Result<SimReport, MachineError> {
        Ok(self.machine.report())
    }
}

/// The backend-agnostic machine handle — what harness code holds.
///
/// ```
/// use hal_kernel::{Machine, MachineConfig, BackendKind};
/// use hal_kernel::registry::BehaviorRegistry;
/// use std::sync::Arc;
///
/// let cfg = MachineConfig::builder(2).build().unwrap();
/// let mut m = Machine::from_config(cfg, Arc::new(BehaviorRegistry::new()));
/// assert_eq!(m.kind(), BackendKind::Sim);
/// let report = m.run().unwrap();
/// assert_eq!(report.actors_created, 0);
/// ```
pub struct Machine {
    inner: Inner,
}

/// Static dispatch for the two first-party backends (the hot path),
/// boxed dynamic dispatch for injected ones.
enum Inner {
    Sim(Box<SimBackend>),
    Live(Box<crate::live::LiveMachine>),
    Boxed(Box<dyn Backend>),
}

impl Inner {
    fn get(&self) -> &dyn Backend {
        match self {
            Inner::Sim(b) => b.as_ref(),
            Inner::Live(b) => b.as_ref(),
            Inner::Boxed(b) => b.as_ref(),
        }
    }

    fn get_mut(&mut self) -> &mut dyn Backend {
        match self {
            Inner::Sim(b) => b.as_mut(),
            Inner::Live(b) => b.as_mut(),
            Inner::Boxed(b) => b.as_mut(),
        }
    }
}

impl Machine {
    /// A machine over the deterministic DES backend.
    pub fn simulated(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        let cfg = MachineConfig {
            backend: BackendKind::Sim,
            ..cfg
        };
        Machine {
            inner: Inner::Sim(Box::new(SimBackend::new(cfg, registry))),
        }
    }

    /// A machine over the live multi-threaded backend.
    pub fn live(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        let cfg = MachineConfig {
            backend: BackendKind::Live,
            ..cfg
        };
        Machine {
            inner: Inner::Live(Box::new(crate::live::LiveMachine::new(cfg, registry))),
        }
    }

    /// Dispatch on [`MachineConfig::backend`].
    pub fn from_config(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        match cfg.backend {
            BackendKind::Sim => Machine::simulated(cfg, registry),
            BackendKind::Live => Machine::live(cfg, registry),
        }
    }

    /// Wrap an arbitrary backend (tests injecting mocks).
    pub fn from_backend(inner: Box<dyn Backend>) -> Self {
        Machine {
            inner: Inner::Boxed(inner),
        }
    }

    /// Which substrate this machine drives.
    pub fn kind(&self) -> BackendKind {
        self.inner.get().kind()
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.inner.get().nodes()
    }

    /// Run harness code in a system context on `node` (bootstrap) and
    /// return its value. Panics if the backend cannot bootstrap any
    /// more (live machine already started) — use [`Machine::try_exec`]
    /// to handle that as a value.
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut out = None;
        let mut f = Some(f);
        self.inner
            .get_mut()
            .exec(
                node,
                Box::new(|ctx| {
                    out = Some((f.take().expect("exec runs the closure once"))(ctx));
                }),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        out.expect("backend exec must run the bootstrap closure")
    }

    /// Fallible bootstrap — see [`Machine::with_ctx`].
    pub fn try_exec(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Ctx<'_>),
    ) -> Result<(), MachineError> {
        self.inner.get_mut().exec(node, Box::new(f))
    }

    /// Start the machine (spawns live node threads; no-op on sim).
    pub fn init(&mut self) -> Result<(), MachineError> {
        self.inner.get_mut().init()
    }

    /// Inject a job — see [`Backend::submit`].
    pub fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError> {
        self.inner.get_mut().submit(node, job)
    }

    /// Start (if needed) and run to completion with the default budget.
    pub fn run(&mut self) -> Result<SimReport, MachineError> {
        self.inner.get_mut().run()
    }

    /// Wait for completion with an explicit wall budget (live) — see
    /// [`Backend::drain`].
    pub fn drain(&mut self, timeout: Duration) -> Result<SimReport, MachineError> {
        self.inner.get_mut().drain(timeout)
    }

    /// Re-read the most recent report — see [`Backend::report`].
    pub fn report(&self) -> Result<SimReport, MachineError> {
        self.inner.get().report()
    }

    /// The wrapped [`SimMachine`] when this machine drives the sim
    /// backend (tests that reach into kernels), else `None`.
    pub fn as_sim(&mut self) -> Option<&mut SimMachine> {
        match &mut self.inner {
            Inner::Sim(b) => Some(b.machine_mut()),
            _ => None,
        }
    }

    /// The host-time telemetry hub when this machine drives the live
    /// backend (the console's live `top` / `--watch` read it while the
    /// machine runs), else `None`.
    pub fn telemetry(&self) -> Option<&Arc<crate::telemetry::TelemetryHub>> {
        match &self.inner {
            Inner::Live(b) => Some(b.telemetry()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
        assert_eq!("live".parse::<BackendKind>().unwrap(), BackendKind::Live);
        assert!("fast".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Live.to_string(), "live");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn sim_backend_runs_empty_partition() {
        let cfg = MachineConfig::builder(2).build().unwrap();
        let mut m = Machine::from_config(cfg, Arc::new(BehaviorRegistry::new()));
        assert_eq!(m.kind(), BackendKind::Sim);
        assert_eq!(m.nodes(), 2);
        let report = m.run().unwrap();
        assert_eq!(report.actors_created, 0);
        assert!(m.as_sim().is_some(), "sim machine must be reachable");
    }

    #[test]
    fn sim_submit_executes_immediately() {
        let cfg = MachineConfig::builder(1).build().unwrap();
        let mut m = Machine::simulated(cfg, Arc::new(BehaviorRegistry::new()));
        m.submit(
            0,
            Box::new(|ctx| ctx.report("probe", crate::message::Value::Int(7))),
        )
        .unwrap();
        let report = m.run().unwrap();
        assert_eq!(
            report.value("probe"),
            Some(&crate::message::Value::Int(7))
        );
    }
}
