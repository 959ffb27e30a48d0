//! The machine handle: one type, two ways to execute a partition.
//!
//! Everything above the kernel — workloads, benches, the console, the
//! serving front-end — holds a [`Machine`], a two-arm enum over the two
//! runtimes there are:
//!
//! * **Sim** ([`BackendKind::Sim`]) — the deterministic discrete-event
//!   simulator ([`crate::machine::SimMachine`]): virtual time, one
//!   sequential loop, bit-identical reports for one seed, the substrate
//!   for every paper table.
//! * **Live** ([`BackendKind::Live`]) — [`crate::live::LiveMachine`]:
//!   one real kernel per host thread over the lossless FIFO links of
//!   [`hal_am::thread_network`], speaking the simulator's fault-free
//!   protocol, with host monotonic time as its clock.
//!
//! The handle cuts exactly where `SimMachine::run` used to be monolithic:
//! *bootstrap* ([`Machine::with_ctx`]), *start* ([`Machine::init`]),
//! *feed* ([`Machine::submit`]), *finish* ([`Machine::drain`] /
//! [`Machine::run`]), *observe* ([`Machine::report`]). Application code
//! written against [`Machine`] runs identically on both backends —
//! migration, aliases, and FIR chases included — which is the location
//! transparency claim of the paper restated at the harness level.
//!
//! The simulator is lenient — it has no threads, so every phase is
//! callable any time. The live machine enforces the lifecycle (staged →
//! running → drained) and answers out-of-order calls with
//! [`MachineError::BackendState`].

use crate::error::MachineError;
use crate::kernel::Ctx;
use crate::live::LiveMachine;
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
    /// lossless mpsc links, host-time clocks.
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

/// Default wall-clock budget for [`Machine::run`] on the live backend
/// (ignored by sim). Generous: it is a crash backstop, not a deadline.
pub const DEFAULT_WALL_BUDGET: Duration = Duration::from_mins(1);

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
pub enum Machine {
    /// The deterministic simulator. Tests that reach into kernels match
    /// on this arm.
    Sim(Box<SimMachine>),
    /// The live multi-threaded runtime.
    Live(Box<LiveMachine>),
}

impl Machine {
    /// A machine over the deterministic DES backend.
    ///
    /// # Panics
    /// Panics on an invalid configuration, exactly as
    /// [`SimMachine::new`] does.
    pub fn simulated(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        Machine::Sim(Box::new(SimMachine::new(cfg, registry)))
    }

    /// A machine over the live multi-threaded backend.
    ///
    /// # Panics
    /// Panics on an invalid configuration, exactly as
    /// [`LiveMachine::new`] does.
    pub fn live(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        Machine::Live(Box::new(LiveMachine::new(cfg, registry)))
    }

    /// Dispatch on [`MachineConfig::backend`].
    pub fn from_config(cfg: MachineConfig, registry: Arc<BehaviorRegistry>) -> Self {
        match cfg.backend {
            BackendKind::Sim => Machine::simulated(cfg, registry),
            BackendKind::Live => Machine::live(cfg, registry),
        }
    }

    /// Which substrate this machine drives.
    pub fn kind(&self) -> BackendKind {
        match self {
            Machine::Sim(_) => BackendKind::Sim,
            Machine::Live(_) => BackendKind::Live,
        }
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        match self {
            Machine::Sim(m) => m.nodes(),
            Machine::Live(m) => m.nodes(),
        }
    }

    /// Run harness code in a system context on `node` — the front-end
    /// loading a program before the machine starts — and return its
    /// value. The closure may borrow locals (it is not shipped across
    /// threads); in exchange, on the live backend it is only valid while
    /// the machine is staged, i.e. before [`Machine::init`].
    ///
    /// # Panics
    /// Panics if a live machine cannot bootstrap any more (already
    /// started) or `node` is out of range — [`LiveMachine::with_ctx`]
    /// returns those as values.
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        match self {
            Machine::Sim(m) => m.with_ctx(node, f),
            Machine::Live(m) => m.with_ctx(node, f).unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// Start the machine. On the live backend this spawns the node
    /// threads; on the sim backend it is a no-op (the event loop runs
    /// inside [`Machine::drain`]). Idempotent.
    pub fn init(&mut self) -> Result<(), MachineError> {
        match self {
            Machine::Sim(_) => Ok(()),
            Machine::Live(m) => m.init(),
        }
    }

    /// Inject a job into the (possibly already running) machine on
    /// `node`. The sim backend has no threads to hand it to and runs it
    /// right now, in the same system context a bootstrap closure gets —
    /// deterministic because the caller's submission order *is* the
    /// execution order. The live backend queues it to the node's thread
    /// and rings that node's doorbell.
    pub fn submit(&mut self, node: NodeId, job: Job) -> Result<(), MachineError> {
        match self {
            Machine::Sim(m) => {
                m.with_ctx(node, job);
                Ok(())
            }
            Machine::Live(m) => m.submit(node, job),
        }
    }

    /// Start (if needed) and run to completion with the default budget —
    /// the one-call path every harness uses.
    pub fn run(&mut self) -> Result<SimReport, MachineError> {
        self.init()?;
        self.drain(DEFAULT_WALL_BUDGET)
    }

    /// Wait for the machine to finish and return its report.
    ///
    /// Sim: runs the event loop to quiescence (`timeout` is ignored —
    /// virtual time needs no wall budget; the `max_events` valve guards
    /// livelock). Live: joins the node threads, with `timeout` as the
    /// wall-clock backstop ([`MachineError::WallTimeout`] if it trips).
    pub fn drain(&mut self, timeout: Duration) -> Result<SimReport, MachineError> {
        match self {
            Machine::Sim(m) => m.run(),
            Machine::Live(m) => m.drain(timeout),
        }
    }

    /// Re-read the most recent report without driving the machine.
    /// Sim: snapshots current state any time. Live: available once
    /// drained ([`MachineError::BackendState`] before that — a running
    /// partition has no coherent global snapshot).
    pub fn report(&self) -> Result<SimReport, MachineError> {
        match self {
            Machine::Sim(m) => Ok(m.report()),
            Machine::Live(m) => m.report(),
        }
    }

    /// The hub over this machine's metrics cells: what `top` renders
    /// from, on a live machine while it runs (`--watch`), on either
    /// backend once it is done.
    pub fn telemetry(&self) -> Arc<crate::metrics::TelemetryHub> {
        match self {
            Machine::Sim(m) => m.telemetry(),
            Machine::Live(m) => Arc::clone(m.telemetry()),
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
        assert!(matches!(m, Machine::Sim(_)), "sim machine must be reachable");
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
