//! hal-model: a dependency-free, loom-style deterministic interleaving
//! explorer for the HAL kernel's lock-free protocols.
//!
//! The live backend puts hand-rolled atomics — the per-node `Doorbell`,
//! the abort flag, the job hand-off — on the hot path of a system whose
//! sim twin is bit-identically deterministic. This crate is the proof
//! tooling: write the protocol against [`sync`]'s primitives (the
//! kernel's `sync` shim re-exports them under its `model` cfg), hand the
//! program to [`explore`], and the scheduler enumerates every
//! interleaving — and every weak-memory read — up to a preemption bound,
//! checking assertions, detecting data races via per-location
//! happens-before vector clocks, and reporting
//! deadlocks, each with the full interleaving trace that produced it.
//!
//! ```
//! use hal_model::{explore, Opts};
//! use hal_model::sync::{AtomicU64, Ordering, RaceCell, thread};
//! use std::sync::Arc;
//!
//! // Release/acquire message passing: data is written before the flag is
//! // released, so the reader that acquires the flag may touch the data.
//! let report = explore(Opts::default(), || {
//!     let data = Arc::new(RaceCell::named(0u32, "data"));
//!     let flag = Arc::new(AtomicU64::named(0, "flag"));
//!     let (d, f) = (data.clone(), flag.clone());
//!     let t = thread::spawn(move || {
//!         d.with_mut(|v| *v = 42);
//!         f.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.with(|v| *v), 42);
//!     }
//!     t.join();
//! });
//! assert!(report.ok(), "{}", report.render_violations());
//! ```
//!
//! Swap the `store` above to `Ordering::Relaxed` and the same exploration
//! reports a data race on `data`, with the interleaving that exposes it.
//!
//! # What is modeled
//!
//! * **Schedules**: depth-first over all thread interleavings, pruned by
//!   sleep sets (partial-order reduction) and a preemption bound
//!   ([`Opts::preemption_bound`]).
//! * **Weak memory**: atomic loads may observe any store not superseded
//!   under happens-before for the loading thread — `Relaxed` loads read
//!   stale values exactly where the C++11 model permits, release/acquire
//!   edges (including C++20 release sequences through RMWs) narrow the
//!   choice, `SeqCst` pins to the latest store (an SC approximation).
//!   Per-location modification order follows store execution order.
//! * **Blocking**: mutexes, condvars (no spurious wakeups), bounded
//!   channels with backpressure, and thread join; a state where no thread
//!   can run while some are alive is reported as a deadlock.
//!
//! Exploration is exhaustive only up to the configured bounds; the point is
//! a deterministic, trace-producing bug finder, not a proof assistant.

pub mod sched;
pub mod sync;
pub mod vclock;

pub use sched::{explore, Opts, Report, Violation, ViolationKind};
