//! Model-checked stand-ins for `std::sync` primitives.
//!
//! Same shapes as the zero-cost wrappers in `hal-kernel`'s `sync` shim —
//! the kernel re-exports these under its `model` cfg — but every operation
//! traps into the [`crate::sched`] scheduler, which decides when it runs
//! and (for atomic loads) which store it observes. All types must be
//! created *inside* a model program (the body passed to
//! [`crate::explore`]); constructing them outside an exploration panics.
//!
//! Divergences from `std`, chosen to keep the intersection API simple:
//!
//! * mutexes do not poison — `lock()` returns the guard directly;
//! * condvars do not wake spuriously (real ones may; model programs must
//!   not *rely* on spurious wakeups, which no correct program does), and a
//!   timed wait may time out at any moment (there is no clock);
//! * channels are bounded with blocking `send`, like `mpsc::sync_channel`.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

pub use std::sync::atomic::Ordering;

use crate::sched::{
    self, force_chan_close, force_unlock, perform, Op, Resume, Rid, RmwKind, Tid,
};

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! int_atomic {
    ($name:ident, $ty:ty, $prefix:literal) => {
        /// Model-checked atomic integer; see module docs.
        #[derive(Debug)]
        pub struct $name {
            rid: Rid,
        }

        impl $name {
            #[must_use]
            pub fn new(v: $ty) -> Self {
                Self { rid: sched::register_atomic(v as u64, concat!($prefix, "<anon>")) }
            }

            /// Like [`Self::new`], with a name used in interleaving traces.
            #[must_use]
            pub fn named(v: $ty, name: &str) -> Self {
                Self { rid: sched::register_atomic(v as u64, name) }
            }

            pub fn load(&self, order: Ordering) -> $ty {
                match perform(Op::Load { rid: self.rid, order }) {
                    Resume::Val(v) => v as $ty,
                    _ => unreachable!(),
                }
            }

            pub fn store(&self, val: $ty, order: Ordering) {
                perform(Op::Store { rid: self.rid, order, val: val as u64 });
            }

            pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                self.rmw(RmwKind::Add, val as u64, order)
            }

            pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                self.rmw(RmwKind::Sub, val as u64, order)
            }

            pub fn fetch_or(&self, val: $ty, order: Ordering) -> $ty {
                self.rmw(RmwKind::Or, val as u64, order)
            }

            pub fn fetch_and(&self, val: $ty, order: Ordering) -> $ty {
                self.rmw(RmwKind::And, val as u64, order)
            }

            pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                self.rmw(RmwKind::Swap, val as u64, order)
            }

            /// Success and failure use `order` (the model does not weaken
            /// the failure ordering).
            pub fn compare_exchange(
                &self,
                expected: $ty,
                new: $ty,
                order: Ordering,
                _failure: Ordering,
            ) -> Result<$ty, $ty> {
                match perform(Op::Rmw {
                    rid: self.rid,
                    order,
                    kind: RmwKind::Cas { expected: expected as u64, new: new as u64 },
                    operand: 0,
                }) {
                    Resume::Cas { old, ok: true } => Ok(old as $ty),
                    Resume::Cas { old, ok: false } => Err(old as $ty),
                    _ => unreachable!(),
                }
            }

            fn rmw(&self, kind: RmwKind, operand: u64, order: Ordering) -> $ty {
                match perform(Op::Rmw { rid: self.rid, order, kind, operand }) {
                    Resume::Val(v) => v as $ty,
                    _ => unreachable!(),
                }
            }
        }
    };
}

int_atomic!(AtomicU64, u64, "u64:");
int_atomic!(AtomicUsize, usize, "usize:");
int_atomic!(AtomicU32, u32, "u32:");
int_atomic!(AtomicU8, u8, "u8:");

/// Model-checked atomic bool; see module docs.
#[derive(Debug)]
pub struct AtomicBool {
    rid: Rid,
}

impl AtomicBool {
    #[must_use]
    pub fn new(v: bool) -> Self {
        Self { rid: sched::register_atomic(u64::from(v), "bool:<anon>") }
    }

    /// Like [`Self::new`], with a name used in interleaving traces.
    #[must_use]
    pub fn named(v: bool, name: &str) -> Self {
        Self { rid: sched::register_atomic(u64::from(v), name) }
    }

    pub fn load(&self, order: Ordering) -> bool {
        match perform(Op::Load { rid: self.rid, order }) {
            Resume::Val(v) => v != 0,
            _ => unreachable!(),
        }
    }

    pub fn store(&self, val: bool, order: Ordering) {
        perform(Op::Store { rid: self.rid, order, val: u64::from(val) });
    }

    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        match perform(Op::Rmw {
            rid: self.rid,
            order,
            kind: RmwKind::Swap,
            operand: u64::from(val),
        }) {
            Resume::Val(v) => v != 0,
            _ => unreachable!(),
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// Model-checked mutex. No poisoning: `lock` returns the guard directly.
#[derive(Debug)]
pub struct Mutex<T> {
    rid: Rid,
    data: UnsafeCell<T>,
}

// Access to `data` is serialized by the model scheduler (lock semantics).
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    #[must_use]
    pub fn new(v: T) -> Self {
        Self { rid: sched::register_mutex("mutex:<anon>"), data: UnsafeCell::new(v) }
    }

    /// Like [`Self::new`], with a name used in interleaving traces.
    #[must_use]
    pub fn named(v: T, name: &str) -> Self {
        Self { rid: sched::register_mutex(name), data: UnsafeCell::new(v) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        perform(Op::Lock { rid: self.rid });
        MutexGuard { m: self, armed: true }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Guard for [`Mutex`]; unlocking is a scheduling point.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
    armed: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the scheduler granted this thread the lock; no other
        // thread runs until we block again, and none may lock until unlock.
        unsafe { &*self.m.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if std::thread::panicking() {
            // Unwinding (assertion violation or execution abort): release
            // without a scheduling point — `perform` would double-panic.
            force_unlock(self.m.rid);
        } else {
            perform(Op::Unlock { rid: self.m.rid });
        }
    }
}

/// Model-checked condition variable. No spurious wakeups.
#[derive(Debug)]
pub struct Condvar {
    rid: Rid,
}

impl Condvar {
    #[must_use]
    pub fn new() -> Self {
        Self { rid: sched::register_cv("cv:<anon>") }
    }

    /// Like [`Self::new`], with a name used in interleaving traces.
    #[must_use]
    pub fn named(name: &str) -> Self {
        Self { rid: sched::register_cv(name) }
    }

    /// Atomically release the guard's mutex and park until notified, then
    /// re-acquire. Happens-before flows through the mutex, as in pthreads.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.park(guard, false).0
    }

    /// [`Self::wait`] with a deadline. The model has no clock, so the
    /// duration is ignored and the timeout may fire at *any* point after
    /// parking (every such schedule is explored): correct callers re-check
    /// their predicate and their deadline, as `std` requires. The flag is
    /// true when the wait timed out rather than being notified.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, resume) = self.park(guard, true);
        (guard, matches!(resume, Resume::TimedOut))
    }

    fn park<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timed: bool,
    ) -> (MutexGuard<'a, T>, Resume) {
        let mutex = guard.m;
        guard.armed = false; // the wait op releases the mutex itself
        drop(guard);
        let resume = perform(Op::CondWait { cv: self.rid, mutex: mutex.rid, timed });
        (MutexGuard { m: mutex, armed: true }, resume)
    }

    pub fn notify_all(&self) {
        perform(Op::Notify { cv: self.rid, all: true });
    }

    pub fn notify_one(&self) {
        perform(Op::Notify { cv: self.rid, all: false });
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// RaceCell: non-atomic data with data-race detection
// ---------------------------------------------------------------------------

/// A plain (non-atomic) shared location. Every access is checked against
/// the happens-before relation: two accesses to the same `RaceCell`, at
/// least one of them a write, with neither ordered before the other, is
/// reported as a data race with the interleaving trace. This is how model
/// programs assert "the synchronization around this data is sufficient".
#[derive(Debug)]
pub struct RaceCell<T> {
    rid: Rid,
    data: UnsafeCell<T>,
}

// Accesses are serialized by the scheduler; *logical* races are detected
// via vector clocks rather than UB.
unsafe impl<T: Send> Send for RaceCell<T> {}
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T> RaceCell<T> {
    #[must_use]
    pub fn new(v: T) -> Self {
        Self { rid: sched::register_cell("cell:<anon>"), data: UnsafeCell::new(v) }
    }

    /// Like [`Self::new`], with a name used in interleaving traces.
    #[must_use]
    pub fn named(v: T, name: &str) -> Self {
        Self { rid: sched::register_cell(name), data: UnsafeCell::new(v) }
    }

    /// Read access (race-checked against concurrent writes).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        perform(Op::CellRead { rid: self.rid });
        f(unsafe { &*self.data.get() })
    }

    /// Write access (race-checked against concurrent reads and writes).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        perform(Op::CellWrite { rid: self.rid });
        f(unsafe { &mut *self.data.get() })
    }
}

// ---------------------------------------------------------------------------
// Bounded channel
// ---------------------------------------------------------------------------

/// Send failed: the receiver is gone. Carries the rejected value.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Receive failed: the channel is empty and every sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

struct ChanData<T> {
    queue: UnsafeCell<VecDeque<T>>,
}

// The scheduler serializes queue access (one running thread at a time).
unsafe impl<T: Send> Send for ChanData<T> {}
unsafe impl<T: Send> Sync for ChanData<T> {}

/// Sending half of a model-checked bounded channel.
pub struct Sender<T> {
    rid: Rid,
    data: Arc<ChanData<T>>,
}

/// Receiving half of a model-checked bounded channel.
pub struct Receiver<T> {
    rid: Rid,
    data: Arc<ChanData<T>>,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

/// A bounded channel: `send` blocks while `cap` messages are in flight
/// (backpressure), like `std::sync::mpsc::sync_channel`.
#[must_use]
pub fn channel<T: Send>(cap: usize, name: &str) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "model channel capacity must be nonzero");
    let rid = sched::register_chan(cap, name);
    let data = Arc::new(ChanData { queue: UnsafeCell::new(VecDeque::new()) });
    (
        Sender { rid, data: data.clone() },
        Receiver { rid, data, _not_sync: PhantomData },
    )
}

impl<T: Send> Sender<T> {
    /// Blocks while the channel is full; fails when the receiver is gone.
    pub fn send(&self, v: T) -> Result<(), SendError<T>> {
        match perform(Op::ChanSend { rid: self.rid }) {
            Resume::Unit => {
                unsafe { (*self.data.queue.get()).push_back(v) };
                Ok(())
            }
            Resume::Disconnected => Err(SendError(v)),
            _ => unreachable!(),
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        perform(Op::ChanCloneTx { rid: self.rid });
        Self { rid: self.rid, data: self.data.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            force_chan_close(self.rid, true);
        } else {
            perform(Op::ChanDropTx { rid: self.rid });
        }
    }
}

impl<T: Send> Receiver<T> {
    /// Blocks while the channel is empty; fails once it is drained and
    /// every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        match perform(Op::ChanRecv { rid: self.rid }) {
            Resume::RecvOk => {
                let v = unsafe { (*self.data.queue.get()).pop_front() };
                Ok(v.expect("scheduler granted recv on a nonempty queue"))
            }
            Resume::Disconnected => Err(RecvError),
            _ => unreachable!(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            force_chan_close(self.rid, false);
        } else {
            perform(Op::ChanDropRx { rid: self.rid });
        }
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Model-thread spawning; the scheduler interleaves these with the body.
pub mod thread {
    use super::{perform, sched, Op, Tid};

    /// Handle to a spawned model thread.
    pub struct JoinHandle {
        tid: Tid,
    }

    /// Spawn a logical thread under the model scheduler.
    pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
        JoinHandle { tid: sched::spawn_thread(f) }
    }

    impl JoinHandle {
        /// Block until the thread finishes (a happens-before edge from its
        /// last operation). A panicking child aborts the whole execution
        /// and is reported as a violation, so `join` returns `()`.
        pub fn join(self) {
            perform(Op::Join { target: self.tid });
        }
    }
}
