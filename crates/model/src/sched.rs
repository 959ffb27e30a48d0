//! The virtual scheduler: a deterministic interleaving explorer.
//!
//! Model programs run on real OS threads, but every synchronization
//! operation (atomic access, mutex, condvar, channel, spawn/join) traps into
//! this scheduler and blocks until the *driver* — the thread that called
//! [`explore`] — grants it. At most one logical thread is ever runnable, so
//! an execution is fully determined by the sequence of scheduling decisions,
//! and the driver enumerates those sequences by depth-first search with two
//! prunings:
//!
//! * **sleep sets** (classic partial-order reduction): after exploring the
//!   subtree where thread `t` ran at a decision point, `t` is put to sleep
//!   for the sibling subtrees until some dependent operation executes, which
//!   removes interleavings that only commute independent operations;
//! * a **preemption bound**: once a schedule has preempted a runnable thread
//!   `preemption_bound` times, the scheduler only switches threads at points
//!   where the running thread blocks. Most real ordering bugs need very few
//!   preemptions (CHESS's observation), so a small bound keeps exploration
//!   tractable while still finding them.
//!
//! Beyond schedule choice, the scheduler models *weak memory*: every atomic
//! location keeps a history of stores, and a load may read any store not yet
//! superseded for the loading thread under happens-before (tracked with
//! per-thread vector clocks). Which store a load reads becomes one more DFS
//! decision, so stale reads permitted by `Ordering::Relaxed` are explored
//! deterministically — and release/acquire edges (including C++20-style
//! release sequences through RMWs) are what shrink the admissible set back
//! to "the latest value".
//!
//! Violations — assertion failures inside the model program, data races on
//! [`crate::sync::RaceCell`]s, deadlocks, and livelock-suspect op-budget
//! blowups — are reported with the full interleaving trace that produced
//! them.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::vclock::VClock;

/// Logical thread id. Thread 0 is the body passed to [`explore`].
pub type Tid = usize;
/// Resource id: one per atomic location, cell, mutex, condvar or channel.
pub type Rid = usize;

/// Sentinel panic payload used to unwind model threads when an execution is
/// aborted (after a violation, or when a branch is pruned as redundant).
pub(crate) struct ModelAbort;

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RmwKind {
    Add,
    Sub,
    Or,
    And,
    Swap,
    /// compare_exchange: stores only when the current value equals `expected`.
    Cas {
        expected: u64,
        new: u64,
    },
}

/// One visible operation. Threads publish the op they are about to perform
/// and block; the driver applies its semantics centrally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Load { rid: Rid, order: Ordering },
    Store { rid: Rid, order: Ordering, val: u64 },
    Rmw { rid: Rid, order: Ordering, kind: RmwKind, operand: u64 },
    CellRead { rid: Rid },
    CellWrite { rid: Rid },
    Lock { rid: Rid },
    Unlock { rid: Rid },
    /// Phase 1 of `Condvar::wait` / `wait_timeout` (`timed`): atomically
    /// release the mutex and park.
    CondWait { cv: Rid, mutex: Rid, timed: bool },
    /// Parked on a condvar. A notify turns this into `Lock`. An untimed
    /// park is never enabled; a timed one may also be scheduled whenever
    /// its mutex is free, which is the timeout firing — at any moment,
    /// since the model has no clock ("may return early").
    Parked { cv: Rid, mutex: Rid, timed: bool },
    Notify { cv: Rid, all: bool },
    ChanSend { rid: Rid },
    ChanRecv { rid: Rid },
    ChanCloneTx { rid: Rid },
    ChanDropTx { rid: Rid },
    ChanDropRx { rid: Rid },
    Spawn,
    Join { target: Tid },
}

impl Op {
    fn rid(&self) -> Option<Rid> {
        match self {
            Op::Load { rid, .. }
            | Op::Store { rid, .. }
            | Op::Rmw { rid, .. }
            | Op::CellRead { rid }
            | Op::CellWrite { rid }
            | Op::Lock { rid }
            | Op::Unlock { rid }
            | Op::ChanSend { rid }
            | Op::ChanRecv { rid }
            | Op::ChanCloneTx { rid }
            | Op::ChanDropTx { rid }
            | Op::ChanDropRx { rid } => Some(*rid),
            // A timeout touches the condvar *and* re-locks the mutex: keep
            // it dependent with everything (sound, only costs pruning).
            Op::Parked { timed: true, .. } => None,
            Op::CondWait { cv, .. } | Op::Parked { cv, .. } | Op::Notify { cv, .. } => Some(*cv),
            Op::Spawn | Op::Join { .. } => None,
        }
    }

    /// Conservative dependence relation for sleep-set wakeups: two ops
    /// commute only when they clearly touch different resources, or are both
    /// pure readers of the same location.
    fn dependent(&self, other: &Op) -> bool {
        match (self.rid(), other.rid()) {
            (Some(a), Some(b)) if a != b => false,
            (Some(_), Some(_)) => !matches!(
                (self, other),
                (Op::Load { .. }, Op::Load { .. }) | (Op::CellRead { .. }, Op::CellRead { .. })
            ),
            // Spawn/join: rare, keep them dependent with everything (sound,
            // only costs pruning).
            _ => true,
        }
    }
}

/// What a granted thread resumes with.
#[derive(Clone, Debug)]
pub(crate) enum Resume {
    Unit,
    /// Load result or RMW old value.
    Val(u64),
    Cas { old: u64, ok: bool },
    /// Receiver may pop its typed queue.
    RecvOk,
    /// Channel endpoint closed: send failed / recv drained and disconnected.
    Disconnected,
    /// A timed condvar wait gave up before any notify reached it.
    TimedOut,
    /// Unwind: the execution is being torn down.
    Abort,
}

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct StoreRec {
    seq: u64,
    val: u64,
    /// Full clock of the writer at the store: used for happens-before
    /// supersession ("the reader already knows a newer store happened").
    ev: VClock,
    /// Clock acquired by an acquire-load of this store. Carries the C++20
    /// release sequence: a release store starts it with the writer's clock;
    /// RMWs propagate (and, if themselves release, extend) it; a plain
    /// relaxed store starts an empty one.
    acq: VClock,
}

struct AtomicSt {
    stores: Vec<StoreRec>,
    next_seq: u64,
    /// Per-thread coherence floor: the newest store seq this thread has read
    /// or written; later loads may not go below it.
    floors: Vec<u64>,
    name: String,
}

struct CellSt {
    write_ev: VClock,
    reads: VClock,
    name: String,
}

struct MutexSt {
    locked_by: Option<Tid>,
    clock: VClock,
    name: String,
}

struct CvSt {
    parked: Vec<Tid>,
    name: String,
}

struct ChanSt {
    cap: usize,
    len: usize,
    msg_clocks: VecDeque<VClock>,
    senders: usize,
    rx_alive: bool,
    /// Clock of the most recent receive: a send joins it, modeling the
    /// acquire a bounded sender performs on the consumed slot index.
    recv_clock: VClock,
    name: String,
}

enum Res {
    Atomic(AtomicSt),
    Cell(CellSt),
    Mutex(MutexSt),
    Cv(CvSt),
    Chan(ChanSt),
}

// ---------------------------------------------------------------------------
// Execution state shared between driver and model threads
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Status {
    /// Executing model-program code between operations.
    Running,
    /// Blocked at an operation, waiting for a grant.
    AtOp(Op),
    /// Granted; the thread will consume the resume and go back to Running.
    Granted(Resume),
    Finished,
}

struct ThreadSt {
    status: Status,
    clock: VClock,
}

pub(crate) struct ExecState {
    threads: Vec<ThreadSt>,
    res: Vec<Res>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    aborting: bool,
    violation: Option<Violation>,
    trace: Vec<String>,
    ops_executed: u64,
}

pub(crate) struct Shared {
    pub(crate) st: StdMutex<ExecState>,
    pub(crate) cv: StdCondvar,
}

impl Shared {
    fn lock(&self) -> StdMutexGuard<'_, ExecState> {
        self.st.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

// Thread-local context installed in every model thread.
thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Shared>, Tid)>> = const { std::cell::RefCell::new(None) };
}

/// `true` while the current OS thread is a model-program thread (used by the
/// panic hook to silence expected assertion unwinds).
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn ctx() -> (Arc<Shared>, Tid) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("hal-model primitive used outside Explorer::explore (model types only work inside a model program)")
    })
}

/// Publish an op and block until the driver grants it.
pub(crate) fn perform(op: Op) -> Resume {
    let (shared, tid) = ctx();
    let mut g = shared.lock();
    if g.aborting {
        drop(g);
        panic::panic_any(ModelAbort);
    }
    g.threads[tid].status = Status::AtOp(op);
    shared.cv.notify_all();
    loop {
        match std::mem::replace(&mut g.threads[tid].status, Status::Running) {
            Status::Granted(r) => {
                if matches!(r, Resume::Abort) {
                    drop(g);
                    panic::panic_any(ModelAbort);
                }
                shared.cv.notify_all();
                return r;
            }
            other => {
                g.threads[tid].status = other;
                g = shared
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

/// Register a resource from model-program code (not a scheduling point).
fn register(res: Res) -> Rid {
    let (shared, _tid) = ctx();
    let mut g = shared.lock();
    g.res.push(res);
    g.res.len() - 1
}

pub(crate) fn register_atomic(init: u64, name: &str) -> Rid {
    let (shared, tid) = ctx();
    let mut g = shared.lock();
    let clock = g.threads[tid].clock.clone();
    g.res.push(Res::Atomic(AtomicSt {
        stores: vec![StoreRec { seq: 0, val: init, ev: clock.clone(), acq: clock }],
        next_seq: 1,
        floors: Vec::new(),
        name: name.to_string(),
    }));
    g.res.len() - 1
}

pub(crate) fn register_cell(name: &str) -> Rid {
    let (shared, tid) = ctx();
    let mut g = shared.lock();
    let clock = g.threads[tid].clock.clone();
    g.res.push(Res::Cell(CellSt { write_ev: clock, reads: VClock::new(), name: name.to_string() }));
    g.res.len() - 1
}

pub(crate) fn register_mutex(name: &str) -> Rid {
    register(Res::Mutex(MutexSt { locked_by: None, clock: VClock::new(), name: name.to_string() }))
}

pub(crate) fn register_cv(name: &str) -> Rid {
    register(Res::Cv(CvSt { parked: Vec::new(), name: name.to_string() }))
}

pub(crate) fn register_chan(cap: usize, name: &str) -> Rid {
    register(Res::Chan(ChanSt {
        cap,
        len: 0,
        msg_clocks: VecDeque::new(),
        senders: 1,
        rx_alive: true,
        recv_clock: VClock::new(),
        name: name.to_string(),
    }))
}

/// Force-release a mutex while unwinding (guard dropped during a panic):
/// semantics no longer matter, the execution is being torn down, but the
/// driver must not see the mutex held by a finished thread.
pub(crate) fn force_unlock(rid: Rid) {
    let (shared, tid) = ctx();
    let mut g = shared.lock();
    if let Res::Mutex(m) = &mut g.res[rid] {
        if m.locked_by == Some(tid) {
            m.locked_by = None;
        }
    }
    shared.cv.notify_all();
}

/// Adjust channel endpoint counts while unwinding (see [`force_unlock`]).
pub(crate) fn force_chan_close(rid: Rid, tx: bool) {
    let (shared, _tid) = ctx();
    let mut g = shared.lock();
    if let Res::Chan(c) = &mut g.res[rid] {
        if tx {
            c.senders = c.senders.saturating_sub(1);
        } else {
            c.rx_alive = false;
        }
    }
    shared.cv.notify_all();
}

/// Spawn a model thread: one `Spawn` op to allocate the logical id, then a
/// real OS thread whose handle the driver reaps at execution teardown.
pub(crate) fn spawn_thread<F: FnOnce() + Send + 'static>(f: F) -> Tid {
    let (shared, _tid) = ctx();
    let child = match perform(Op::Spawn) {
        Resume::Val(v) => v as Tid,
        _ => unreachable!("spawn resumes with the child tid"),
    };
    let sh = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("hal-model-t{child}"))
        .spawn(move || run_model_thread(&sh, child, f))
        .expect("spawn model thread");
    shared.lock().os_handles.push(handle);
    child
}

fn run_model_thread<F: FnOnce()>(shared: &Arc<Shared>, tid: Tid, f: F) {
    CTX.with(|c| *c.borrow_mut() = Some((shared.clone(), tid)));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CTX.with(|c| *c.borrow_mut() = None);
    let mut g = shared.lock();
    if let Err(payload) = result {
        if !payload.is::<ModelAbort>() && g.violation.is_none() {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "model thread panicked (non-string payload)".to_string());
            g.violation = Some(Violation {
                kind: ViolationKind::Assertion,
                message: format!("thread t{tid} panicked: {msg}"),
                trace: g.trace.clone(),
            });
        }
    }
    g.threads[tid].status = Status::Finished;
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Why an execution was flagged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// An `assert!` (or any panic) fired inside the model program.
    Assertion,
    /// No thread can make progress while some are still alive.
    Deadlock,
    /// Conflicting unsynchronized accesses to a [`crate::sync::RaceCell`].
    DataRace,
    /// A single execution exceeded the op budget — a livelock suspect.
    OpBudget,
}

impl ViolationKind {
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::Assertion => "assertion",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::DataRace => "data-race",
            ViolationKind::OpBudget => "op-budget (livelock suspect)",
        }
    }
}

/// A flagged execution, with the interleaving that produced it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub message: String,
    /// One line per executed operation, oldest first.
    pub trace: Vec<String>,
}

impl Violation {
    /// Multi-line human-readable rendering (kind, message, full trace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("[{}] {}\n  interleaving ({} steps):\n", self.kind.as_str(), self.message, self.trace.len());
        for line in &self.trace {
            s.push_str("    ");
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Executions run to completion (including flagged ones).
    pub executions: u64,
    /// Branches abandoned because every enabled thread was in the sleep set.
    pub pruned: u64,
    pub violations: Vec<Violation>,
    /// `false` when a cap (`max_executions`) stopped the search early.
    pub complete: bool,
    /// Deepest decision stack seen.
    pub max_depth: usize,
}

impl Report {
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render all violations (empty string when clean).
    #[must_use]
    pub fn render_violations(&self) -> String {
        self.violations.iter().map(Violation::render).collect::<Vec<_>>().join("\n")
    }
}

/// Exploration bounds and knobs.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Max preemptions (forced switches away from a runnable thread) per
    /// schedule. 2 finds most real ordering bugs; raise for paranoia.
    pub preemption_bound: usize,
    /// Cap on distinct executions; exploration reports `complete: false`
    /// when hit.
    pub max_executions: u64,
    /// Per-execution op budget; exceeding it is flagged as a livelock
    /// suspect.
    pub max_ops: u64,
    /// Stop at the first violating execution (the usual mode: one
    /// counterexample trace is what you debug with).
    pub stop_on_first: bool,
    /// Keep at most this many trace lines per execution (oldest dropped).
    pub max_trace: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self { preemption_bound: 2, max_executions: 200_000, max_ops: 20_000, stop_on_first: true, max_trace: 512 }
    }
}

// ---------------------------------------------------------------------------
// DFS bookkeeping
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    /// Choosing which thread runs; sleep sets apply.
    Sched,
    /// Choosing which store a load reads from.
    ReadsFrom,
    /// Choosing which parked thread a `notify_one` wakes.
    NotifyPick,
}

struct Node {
    kind: NodeKind,
    options: Vec<u64>,
    /// Index of the option taken in the current execution. Options before
    /// it are exhausted (and, for `Sched`, asleep in this subtree).
    idx: usize,
}

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

struct Driver {
    shared: Arc<Shared>,
    opts: Opts,
    path: Vec<Node>,
    /// Replay cursor into `path` for the current execution.
    cursor: usize,
    /// Threads currently asleep (sleep-set pruning).
    sleep: Vec<Tid>,
    last_tid: Option<Tid>,
    preemptions: usize,
    pruned_run: bool,
    mismatch: bool,
}

/// Explore every schedule of `body` (up to the configured bounds).
///
/// `body` is the model program: it runs as logical thread 0, may spawn
/// further threads with [`crate::sync::thread::spawn`], and must create all
/// model resources inside itself (they are torn down between executions).
/// It is called once per explored execution and must be deterministic apart
/// from the scheduling the explorer controls.
pub fn explore<F>(opts: Opts, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_panic_hook();
    let body = Arc::new(body);
    let mut report =
        Report { executions: 0, pruned: 0, violations: Vec::new(), complete: true, max_depth: 0 };
    let mut path: Vec<Node> = Vec::new();

    loop {
        if report.executions + report.pruned >= opts.max_executions {
            report.complete = false;
            break;
        }
        let shared = Arc::new(Shared {
            st: StdMutex::new(ExecState {
                threads: vec![ThreadSt { status: Status::Running, clock: VClock::new() }],
                res: Vec::new(),
                os_handles: Vec::new(),
                aborting: false,
                violation: None,
                trace: Vec::new(),
                ops_executed: 0,
            }),
            cv: StdCondvar::new(),
        });
        let mut driver = Driver {
            shared: shared.clone(),
            opts: opts.clone(),
            path: std::mem::take(&mut path),
            cursor: 0,
            sleep: Vec::new(),
            last_tid: None,
            preemptions: 0,
            pruned_run: false,
            mismatch: false,
        };

        // Thread 0 runs the body.
        let b = body.clone();
        let sh = shared.clone();
        let handle = std::thread::Builder::new()
            .name("hal-model-t0".to_string())
            .spawn(move || run_model_thread(&sh, 0, move || b()))
            .expect("spawn model body thread");

        let violation = driver.run_one();

        // Reap every OS thread before the next execution.
        let handles = std::mem::take(&mut shared.lock().os_handles);
        let _ = handle.join();
        for h in handles {
            let _ = h.join();
        }

        path = std::mem::take(&mut driver.path);
        report.max_depth = report.max_depth.max(path.len());
        if driver.mismatch {
            // Replay divergence means the model program is nondeterministic
            // beyond scheduling — report it once and stop.
            report.violations.push(Violation {
                kind: ViolationKind::Assertion,
                message: "replay divergence: model program is nondeterministic outside scheduler control".to_string(),
                trace: Vec::new(),
            });
            report.complete = false;
            break;
        }
        if driver.pruned_run {
            report.pruned += 1;
        } else {
            report.executions += 1;
        }
        if let Some(v) = violation {
            report.violations.push(v);
            if opts.stop_on_first {
                break;
            }
        }

        // Backtrack: advance the deepest node with an unexplored option.
        loop {
            match path.last_mut() {
                None => return report,
                Some(node) => {
                    node.idx += 1;
                    if node.idx < node.options.len() {
                        break;
                    }
                    path.pop();
                }
            }
        }
    }
    report
}

impl Driver {
    /// Drive a single execution to completion; returns its violation if any.
    fn run_one(&mut self) -> Option<Violation> {
        let shared = self.shared.clone();
        loop {
            let mut g = wait_quiescent(&shared);

            if g.violation.is_some() && !g.aborting {
                g.aborting = true;
            }
            if g.aborting {
                if grant_aborts(&shared, &mut g) {
                    return g.violation.take();
                }
                continue;
            }

            let live: Vec<Tid> = g
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.status, Status::Finished))
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                return g.violation.take();
            }
            if g.ops_executed >= self.opts.max_ops {
                g.violation = Some(Violation {
                    kind: ViolationKind::OpBudget,
                    message: format!("execution exceeded {} operations without terminating", self.opts.max_ops),
                    trace: g.trace.clone(),
                });
                continue;
            }

            let enabled: Vec<Tid> =
                live.iter().copied().filter(|&t| self.enabled(&g, t)).collect();
            if enabled.is_empty() {
                let blocked = live
                    .iter()
                    .map(|&t| format!("t{t} blocked at {}", describe_status(&g, t)))
                    .collect::<Vec<_>>()
                    .join("; ");
                g.violation = Some(Violation {
                    kind: ViolationKind::Deadlock,
                    message: format!("deadlock: no runnable thread ({blocked})"),
                    trace: g.trace.clone(),
                });
                continue;
            }

            let Some(tid) = self.pick_thread(&enabled) else {
                // Every enabled thread is asleep: this branch only permutes
                // independent ops already covered elsewhere.
                self.pruned_run = true;
                g.aborting = true;
                continue;
            };
            if self.mismatch {
                g.aborting = true;
                continue;
            }
            if let Some(last) = self.last_tid {
                if last != tid && enabled.contains(&last) {
                    self.preemptions += 1;
                }
            }
            self.last_tid = Some(tid);

            let op = match &g.threads[tid].status {
                Status::AtOp(op) => op.clone(),
                _ => unreachable!("enabled thread is at an op"),
            };
            // Wake sleepers whose pending op depends on the one executing.
            self.sleep.retain(|&s| {
                !matches!(&g.threads[s].status, Status::AtOp(pending) if pending.dependent(&op))
            });
            self.apply(&mut g, tid, &op);
            g.ops_executed += 1;
            self.shared.cv.notify_all();
        }
    }

    // A method for call-site symmetry with `apply`; state lives in `g`.
    #[allow(clippy::unused_self)]
    fn enabled(&self, g: &ExecState, tid: Tid) -> bool {
        let Status::AtOp(op) = &g.threads[tid].status else { return false };
        match op {
            Op::Parked { timed: false, .. } => false,
            Op::Lock { rid: mutex } | Op::Parked { mutex, timed: true, .. } => {
                matches!(&g.res[*mutex], Res::Mutex(m) if m.locked_by.is_none())
            }
            Op::Join { target } => matches!(g.threads[*target].status, Status::Finished),
            Op::ChanSend { rid } => match &g.res[*rid] {
                Res::Chan(c) => !c.rx_alive || c.len < c.cap,
                _ => unreachable!(),
            },
            Op::ChanRecv { rid } => match &g.res[*rid] {
                Res::Chan(c) => c.len > 0 || c.senders == 0,
                _ => unreachable!(),
            },
            _ => true,
        }
    }

    /// Sleep-set + preemption-bound filtered scheduling decision.
    fn pick_thread(&mut self, enabled: &[Tid]) -> Option<Tid> {
        // Preemption bound: once exhausted, keep running the current thread
        // for as long as it stays enabled (unless it is asleep, in which
        // case the whole branch is redundant).
        if self.preemptions >= self.opts.preemption_bound {
            if let Some(last) = self.last_tid {
                if enabled.contains(&last) {
                    if self.sleep.contains(&last) {
                        return None;
                    }
                    return Some(last);
                }
            }
        }
        let mut cands: Vec<Tid> = Vec::with_capacity(enabled.len());
        if let Some(last) = self.last_tid {
            if enabled.contains(&last) && !self.sleep.contains(&last) {
                cands.push(last);
            }
        }
        for &t in enabled {
            if Some(t) != self.last_tid && !self.sleep.contains(&t) {
                cands.push(t);
            }
        }
        if cands.is_empty() {
            return None;
        }
        let opts: Vec<u64> = cands.iter().map(|&t| t as u64).collect();
        let (chosen, node_idx) = self.decide(NodeKind::Sched, &opts);
        // Previously-explored siblings at this decision sleep through this
        // subtree: their schedules are covered by the earlier branches.
        if let Some(i) = node_idx {
            let asleep: Vec<Tid> =
                self.path[i].options[..self.path[i].idx].iter().map(|&t| t as Tid).collect();
            for prev in asleep {
                if !self.sleep.contains(&prev) {
                    self.sleep.push(prev);
                }
            }
        }
        Some(chosen as Tid)
    }

    /// Generic DFS decision: replay the recorded choice or record a new
    /// node. Single-option decisions are not recorded. Returns the choice
    /// and, when a node was consulted, its index in `path`.
    fn decide(&mut self, kind: NodeKind, options: &[u64]) -> (u64, Option<usize>) {
        if options.len() == 1 {
            return (options[0], None);
        }
        if self.cursor < self.path.len() {
            let node = &self.path[self.cursor];
            if node.kind != kind || node.options != options {
                // Deterministic replay failed; flag and bail out.
                self.mismatch = true;
                self.cursor += 1;
                return (options[0], None);
            }
            let choice = node.options[node.idx];
            let idx = self.cursor;
            self.cursor += 1;
            return (choice, Some(idx));
        }
        self.path.push(Node { kind, options: options.to_vec(), idx: 0 });
        self.cursor += 1;
        (options[0], Some(self.cursor - 1))
    }

    // -- op semantics -------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn apply(&mut self, g: &mut ExecState, tid: Tid, op: &Op) {
        g.threads[tid].clock.tick(tid);
        let mut resume = Resume::Unit;
        let line: String;
        match op {
            Op::Load { rid, order } => {
                let clock = g.threads[tid].clock.clone();
                let Res::Atomic(a) = &mut g.res[*rid] else { unreachable!() };
                let floor = a.floors.get(tid).copied().unwrap_or(0);
                // Admissible stores, newest first: everything down to (and
                // including) the newest store the reader already knows
                // happened-before now, cut at the coherence floor. SeqCst
                // loads are pinned to the latest store (SC approximation).
                let mut admissible: Vec<usize> = Vec::new();
                for (i, s) in a.stores.iter().enumerate().rev() {
                    if s.seq < floor {
                        break;
                    }
                    admissible.push(i);
                    if s.ev.leq(&clock) {
                        break;
                    }
                    if *order == Ordering::SeqCst {
                        break;
                    }
                }
                let opts: Vec<u64> = admissible.iter().map(|&i| i as u64).collect();
                let (choice, _) = self.decide(NodeKind::ReadsFrom, &opts);
                let choice = choice as usize;
                let stale = choice != *admissible.first().unwrap_or(&choice);
                let (val, seq, acq) = {
                    let s = &a.stores[choice];
                    (s.val, s.seq, s.acq.clone())
                };
                if a.floors.len() <= tid {
                    a.floors.resize(tid + 1, 0);
                }
                a.floors[tid] = a.floors[tid].max(seq);
                line = format!(
                    "t{tid} load {} -> {val} ({order:?}{})",
                    a.name,
                    if stale { ", stale" } else { "" }
                );
                if acquires(*order) {
                    g.threads[tid].clock.join(&acq);
                }
                resume = Resume::Val(val);
            }
            Op::Store { rid, order, val } => {
                let clock = g.threads[tid].clock.clone();
                let Res::Atomic(a) = &mut g.res[*rid] else { unreachable!() };
                let seq = a.next_seq;
                a.next_seq += 1;
                let acq = if releases(*order) { clock.clone() } else { VClock::new() };
                a.stores.push(StoreRec { seq, val: *val, ev: clock, acq });
                if a.floors.len() <= tid {
                    a.floors.resize(tid + 1, 0);
                }
                a.floors[tid] = seq;
                prune_stores(a);
                line = format!("t{tid} store {} = {val} ({order:?})", a.name);
            }
            Op::Rmw { rid, order, kind, operand } => {
                let Res::Atomic(a) = &mut g.res[*rid] else { unreachable!() };
                // RMWs read the latest store: they are totally ordered in
                // the per-location modification order.
                let latest = a.stores.last().expect("atomic has at least the initial store");
                let old = latest.val;
                let prev_acq = latest.acq.clone();
                if acquires(*order) {
                    g.threads[tid].clock.join(&prev_acq);
                }
                let (new, desc, writes) = match *kind {
                    RmwKind::Add => (old.wrapping_add(*operand), format!("fetch_add {operand}"), true),
                    RmwKind::Sub => (old.wrapping_sub(*operand), format!("fetch_sub {operand}"), true),
                    RmwKind::Or => (old | *operand, format!("fetch_or {operand:#x}"), true),
                    RmwKind::And => (old & *operand, format!("fetch_and {operand:#x}"), true),
                    RmwKind::Swap => (*operand, format!("swap {operand}"), true),
                    RmwKind::Cas { expected, new } => {
                        let ok = old == expected;
                        (new, format!("cas {expected}->{new} ({})", if ok { "ok" } else { "fail" }), ok)
                    }
                };
                if writes {
                    let seq = a.next_seq;
                    a.next_seq += 1;
                    // C++20 release sequence: the RMW extends the sequence
                    // headed by the store it read; acquire-readers of the
                    // RMW synchronize with that head (and with this RMW too
                    // when it is itself a release).
                    let mut acq = prev_acq;
                    let ev = g.threads[tid].clock.clone();
                    if releases(*order) {
                        acq.join(&ev);
                    }
                    a.stores.push(StoreRec { seq, val: new, ev, acq });
                    if a.floors.len() <= tid {
                        a.floors.resize(tid + 1, 0);
                    }
                    a.floors[tid] = seq;
                    prune_stores(a);
                } else {
                    let seq = a.stores.last().map_or(0, |s| s.seq);
                    if a.floors.len() <= tid {
                        a.floors.resize(tid + 1, 0);
                    }
                    a.floors[tid] = a.floors[tid].max(seq);
                }
                line = format!("t{tid} {} {} -> {old} ({order:?})", desc, a.name);
                resume = match *kind {
                    RmwKind::Cas { expected, .. } => Resume::Cas { old, ok: old == expected },
                    _ => Resume::Val(old),
                };
            }
            Op::CellRead { rid } => {
                let clock = g.threads[tid].clock.clone();
                let (racy, name) = {
                    let Res::Cell(c) = &mut g.res[*rid] else { unreachable!() };
                    if c.write_ev.leq(&clock) {
                        c.reads.set(tid, clock.get(tid));
                        (false, c.name.clone())
                    } else {
                        (true, c.name.clone())
                    }
                };
                if racy {
                    line = format!("t{tid} READ {name} races with a concurrent write");
                    g.violation = Some(Violation {
                        kind: ViolationKind::DataRace,
                        message: format!(
                            "data race: t{tid} read of `{name}` is concurrent with its last write"
                        ),
                        trace: trace_with(g, &line, self.opts.max_trace),
                    });
                } else {
                    line = format!("t{tid} read {name}");
                }
            }
            Op::CellWrite { rid } => {
                let clock = g.threads[tid].clock.clone();
                let (racy, name) = {
                    let Res::Cell(c) = &mut g.res[*rid] else { unreachable!() };
                    if c.write_ev.leq(&clock) && c.reads.leq(&clock) {
                        c.write_ev = clock;
                        c.reads.clear();
                        (false, c.name.clone())
                    } else {
                        (true, c.name.clone())
                    }
                };
                if racy {
                    line = format!("t{tid} WRITE {name} races with a concurrent access");
                    g.violation = Some(Violation {
                        kind: ViolationKind::DataRace,
                        message: format!(
                            "data race: t{tid} write of `{name}` is concurrent with another access"
                        ),
                        trace: trace_with(g, &line, self.opts.max_trace),
                    });
                } else {
                    line = format!("t{tid} write {name}");
                }
            }
            Op::Lock { rid } => {
                let Res::Mutex(m) = &mut g.res[*rid] else { unreachable!() };
                debug_assert!(m.locked_by.is_none());
                m.locked_by = Some(tid);
                let mclock = m.clock.clone();
                line = format!("t{tid} lock {}", m.name);
                g.threads[tid].clock.join(&mclock);
            }
            Op::Unlock { rid } => {
                let clock = g.threads[tid].clock.clone();
                let Res::Mutex(m) = &mut g.res[*rid] else { unreachable!() };
                m.locked_by = None;
                m.clock = clock;
                line = format!("t{tid} unlock {}", m.name);
            }
            Op::CondWait { cv, mutex, timed } => {
                // Atomically: release the mutex and park. The thread stays
                // blocked (no grant) until a notify re-arms it as `Lock`.
                let clock = g.threads[tid].clock.clone();
                {
                    let Res::Mutex(m) = &mut g.res[*mutex] else { unreachable!() };
                    m.locked_by = None;
                    m.clock = clock;
                }
                let Res::Cv(c) = &mut g.res[*cv] else { unreachable!() };
                c.parked.push(tid);
                line = format!(
                    "t{tid} wait{} {} (released mutex, parked)",
                    if *timed { "_timeout" } else { "" },
                    c.name
                );
                g.trace.push(line);
                if g.trace.len() > self.opts.max_trace {
                    g.trace.remove(0);
                }
                g.threads[tid].status =
                    Status::AtOp(Op::Parked { cv: *cv, mutex: *mutex, timed: *timed });
                return;
            }
            Op::Notify { cv, all } => {
                let (woken, name) = {
                    let Res::Cv(c) = &mut g.res[*cv] else { unreachable!() };
                    let name = c.name.clone();
                    if c.parked.is_empty() {
                        (Vec::new(), name)
                    } else if *all {
                        (std::mem::take(&mut c.parked), name)
                    } else {
                        let opts: Vec<u64> = c.parked.iter().map(|&t| t as u64).collect();
                        let (pick, _) = self.decide(NodeKind::NotifyPick, &opts);
                        let pick = pick as Tid;
                        c.parked.retain(|&t| t != pick);
                        (vec![pick], name)
                    }
                };
                line = format!(
                    "t{tid} notify_{} {} (woke {})",
                    if *all { "all" } else { "one" },
                    name,
                    if woken.is_empty() {
                        "nobody — signal lost".to_string()
                    } else {
                        woken.iter().map(|t| format!("t{t}")).collect::<Vec<_>>().join(",")
                    }
                );
                // A woken waiter re-acquires its mutex; happens-before flows
                // through the mutex, not the signal (as in pthreads).
                for w in woken {
                    if let Status::AtOp(Op::Parked { mutex, .. }) = g.threads[w].status {
                        g.threads[w].status = Status::AtOp(Op::Lock { rid: mutex });
                    }
                }
            }
            Op::ChanSend { rid } => {
                let clock = g.threads[tid].clock.clone();
                let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                if c.rx_alive {
                    debug_assert!(c.len < c.cap);
                    c.len += 1;
                    c.msg_clocks.push_back(clock);
                    // Bounded-channel backpressure edge: reusing a slot the
                    // receiver freed synchronizes with that receive.
                    let rc = c.recv_clock.clone();
                    line = format!("t{tid} send {} (len {}/{})", c.name, c.len, c.cap);
                    g.threads[tid].clock.join(&rc);
                } else {
                    line = format!("t{tid} send {} -> disconnected", c.name);
                    resume = Resume::Disconnected;
                }
            }
            Op::ChanRecv { rid } => {
                let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                if c.len > 0 {
                    c.len -= 1;
                    let mc = c.msg_clocks.pop_front().expect("msg clock tracked per element");
                    line = format!("t{tid} recv {} (len {}/{})", c.name, c.len, c.cap);
                    g.threads[tid].clock.join(&mc);
                    let clock = g.threads[tid].clock.clone();
                    let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                    c.recv_clock = clock;
                    resume = Resume::RecvOk;
                } else {
                    debug_assert_eq!(c.senders, 0);
                    line = format!("t{tid} recv {} -> disconnected", c.name);
                    resume = Resume::Disconnected;
                }
            }
            Op::ChanCloneTx { rid } => {
                let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                c.senders += 1;
                line = format!("t{tid} clone sender {}", c.name);
            }
            Op::ChanDropTx { rid } => {
                let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                c.senders = c.senders.saturating_sub(1);
                line = format!("t{tid} drop sender {} ({} left)", c.name, c.senders);
            }
            Op::ChanDropRx { rid } => {
                let Res::Chan(c) = &mut g.res[*rid] else { unreachable!() };
                c.rx_alive = false;
                line = format!("t{tid} drop receiver {}", c.name);
            }
            Op::Spawn => {
                let child = g.threads.len();
                let mut clock = g.threads[tid].clock.clone();
                clock.tick(child);
                g.threads.push(ThreadSt { status: Status::Running, clock });
                line = format!("t{tid} spawn t{child}");
                resume = Resume::Val(child as u64);
            }
            Op::Join { target } => {
                let tclock = g.threads[*target].clock.clone();
                line = format!("t{tid} join t{target}");
                g.threads[tid].clock.join(&tclock);
            }
            Op::Parked { cv, mutex, timed: true } => {
                // The timeout fires: leave the wait queue and re-acquire
                // the mutex, exactly as a notified waiter would.
                let Res::Cv(c) = &mut g.res[*cv] else { unreachable!() };
                c.parked.retain(|&t| t != tid);
                line = format!("t{tid} wait_timeout {} timed out (re-locked mutex)", c.name);
                let Res::Mutex(m) = &mut g.res[*mutex] else { unreachable!() };
                debug_assert!(m.locked_by.is_none());
                m.locked_by = Some(tid);
                let mclock = m.clock.clone();
                g.threads[tid].clock.join(&mclock);
                resume = Resume::TimedOut;
            }
            Op::Parked { timed: false, .. } => {
                unreachable!("untimed parked threads are never enabled")
            }
        }
        g.trace.push(line);
        if g.trace.len() > self.opts.max_trace {
            g.trace.remove(0);
        }
        g.threads[tid].status = Status::Granted(resume);
    }
}

/// Block until every live thread is parked at an op or finished.
fn wait_quiescent(shared: &Shared) -> StdMutexGuard<'_, ExecState> {
    let mut g = shared.lock();
    loop {
        let quiescent = g
            .threads
            .iter()
            .all(|t| matches!(t.status, Status::AtOp(_) | Status::Finished));
        if quiescent {
            return g;
        }
        g = shared
            .cv
            .wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Unblock all parked threads with `Abort`; true when all are finished.
fn grant_aborts(shared: &Shared, g: &mut ExecState) -> bool {
    let mut all_done = true;
    for t in &mut g.threads {
        match t.status {
            Status::Finished => {}
            Status::AtOp(_) => {
                t.status = Status::Granted(Resume::Abort);
                all_done = false;
            }
            _ => all_done = false,
        }
    }
    shared.cv.notify_all();
    all_done
}

fn acquires(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Bound the per-location store history. Old stores become unreadable once
/// enough newer ones exist; keeping a short tail preserves the stale-read
/// choices that matter while bounding state.
fn prune_stores(a: &mut AtomicSt) {
    const KEEP: usize = 8;
    if a.stores.len() > KEEP {
        let cut = a.stores.len() - KEEP;
        a.stores.drain(..cut);
    }
}

fn trace_with(g: &ExecState, line: &str, cap: usize) -> Vec<String> {
    let mut t = g.trace.clone();
    t.push(line.to_string());
    if t.len() > cap {
        let cut = t.len() - cap;
        t.drain(..cut);
    }
    t
}

fn describe_status(g: &ExecState, tid: Tid) -> String {
    match &g.threads[tid].status {
        Status::AtOp(op) => {
            let name = |rid: Rid| match &g.res[rid] {
                Res::Atomic(a) => a.name.clone(),
                Res::Cell(c) => c.name.clone(),
                Res::Mutex(m) => m.name.clone(),
                Res::Cv(c) => c.name.clone(),
                Res::Chan(c) => c.name.clone(),
            };
            match op {
                Op::Lock { rid } => format!("lock({})", name(*rid)),
                Op::Parked { cv, .. } => format!("condvar wait({})", name(*cv)),
                Op::Join { target } => format!("join(t{target})"),
                Op::ChanSend { rid } => format!("send({}, full)", name(*rid)),
                Op::ChanRecv { rid } => format!("recv({}, empty)", name(*rid)),
                other => format!("{other:?}"),
            }
        }
        s => format!("{s:?}"),
    }
}

/// Silence panic output from model threads: assertion unwinds are expected
/// (they become violations with traces) and abort unwinds are routine.
fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}
