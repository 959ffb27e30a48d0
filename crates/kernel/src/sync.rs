//! Synchronization shim: the one place the kernel's concurrent code gets
//! its primitives from.
//!
//! By default every type here is a zero-cost `#[inline]` newtype over the
//! `std::sync` equivalent — the only API differences are `named`
//! constructors (the name is dropped) and lock/condvar methods that return
//! guards directly instead of poison `Result`s (a poisoned lock is
//! re-entered; a panicking live node is reported through the machine's
//! abort flag, not through mutex poison).
//!
//! Under `--features model` the same names re-export
//! `hal_model::sync`: every atomic access, lock, and condvar
//! operation becomes a scheduling point of the deterministic interleaving
//! explorer, with per-location happens-before tracking. Code written
//! against this module — notably the live backend's [`Doorbell`] below —
//! is therefore model-checkable verbatim. The model primitives panic if
//! used outside `hal_model::explore`, so a kernel built with the feature is
//! for `tests/model_tests.rs` only, not for running simulations.

#[cfg(feature = "model")]
pub use hal_model::sync::*;

#[cfg(not(feature = "model"))]
mod std_impl {
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;

    pub use std::sync::atomic::Ordering;

    /// Zero-cost wrapper over [`std::sync::atomic::AtomicBool`].
    #[derive(Debug)]
    #[repr(transparent)]
    pub struct AtomicBool(std::sync::atomic::AtomicBool);

    impl AtomicBool {
        #[inline]
        /// See [`std::sync::atomic::AtomicBool::new`].
        pub fn new(v: bool) -> Self {
            Self(std::sync::atomic::AtomicBool::new(v))
        }

        #[inline]
        /// `new`, with a debug name (dropped in this build).
        pub fn named(v: bool, _name: &str) -> Self {
            Self::new(v)
        }

        #[inline]
        /// See [`std::sync::atomic::AtomicBool::load`].
        pub fn load(&self, order: Ordering) -> bool {
            self.0.load(order)
        }

        #[inline]
        /// See [`std::sync::atomic::AtomicBool::store`].
        pub fn store(&self, val: bool, order: Ordering) {
            self.0.store(val, order);
        }

        #[inline]
        /// See [`std::sync::atomic::AtomicBool::swap`].
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            self.0.swap(val, order)
        }
    }

    /// Mutex without poison bookkeeping: `lock` re-enters a poisoned lock.
    #[derive(Debug)]
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        #[inline]
        /// See [`std::sync::Mutex::new`].
        pub fn new(v: T) -> Self {
            Self(std::sync::Mutex::new(v))
        }

        #[inline]
        /// `new`, with a debug name (dropped in this build).
        pub fn named(v: T, _name: &str) -> Self {
            Self::new(v)
        }

        #[inline]
        /// Acquire the lock (a poisoned lock is re-entered).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
        }
    }

    /// Guard returned by [`Mutex::lock`].
    #[derive(Debug)]
    pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        #[inline]
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// Condvar returning guards directly (poison re-entered, like
    /// [`Mutex::lock`]).
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        #[inline]
        /// See [`std::sync::Condvar::new`].
        pub fn new() -> Self {
            Self(std::sync::Condvar::new())
        }

        #[inline]
        /// `new`, with a debug name (dropped in this build).
        pub fn named(_name: &str) -> Self {
            Self::new()
        }

        #[inline]
        /// Atomically release the guard and block until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard(self.0.wait(guard.0).unwrap_or_else(PoisonError::into_inner))
        }

        #[inline]
        /// [`Condvar::wait`] with a timeout; the flag is true when the wait
        /// timed out. Like `std`, it may return early either way, so
        /// callers re-check their predicate and their deadline.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: std::time::Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (guard, res) = self
                .0
                .wait_timeout(guard.0, dur)
                .unwrap_or_else(PoisonError::into_inner);
            (MutexGuard(guard), res.timed_out())
        }

        #[inline]
        /// See [`std::sync::Condvar::notify_all`].
        pub fn notify_all(&self) {
            self.0.notify_all();
        }

        #[inline]
        /// See [`std::sync::Condvar::notify_one`].
        pub fn notify_one(&self) {
            self.0.notify_one();
        }
    }
}

#[cfg(not(feature = "model"))]
pub use std_impl::*;

/// Ring reason: a packet was queued on the sleeper's endpoint.
pub const RING_PACKET: u8 = 1 << 0;
/// Ring reason: a job was queued for the sleeper.
pub const RING_JOB: u8 = 1 << 1;
/// Ring reason: the machine-wide abort flag was raised.
pub const RING_STOP: u8 = 1 << 2;

/// One live node's wake-up primitive: the node sleeps here and every
/// producer rings it *after* enqueueing.
///
/// The protocol is the classic sleeping-flag handshake:
///
/// * **sleeper** — [`announce`](Self::announce) (raise `sleeping`), then
///   re-check every queue and flag a producer could have written; found
///   something → [`cancel`](Self::cancel), otherwise
///   [`park`](Self::park);
/// * **producer** — enqueue (or raise the stop flag the sleeper
///   re-checks), then [`ring`](Self::ring), which loads `sleeping` and
///   only when it is up takes the lock, leaves its reason in the token
///   and notifies.
///
/// Both sides write one location and then read the other (store
/// buffering), so the `sleeping` store and load are `SeqCst` and the
/// queue must be sequentially consistent about its own emptiness — which
/// `std::sync::mpsc` is: `send` claims its slot with a `SeqCst`
/// read-modify-write and `try_recv` fences `SeqCst` before it reads the
/// tail. Then either the re-check sees the item or the ring sees the
/// flag — never neither, which would be a lost wake-up. A producer that
/// raced a `cancel` may leave a token behind; the next `park` consumes it
/// and returns at once, which costs one empty loop turn and can never
/// lose a wake. A ring on a node that is not sleeping is a single load of
/// a line only the sleeper writes.
///
/// Built from this module's primitives, so `tests/model_tests.rs` checks
/// this exact code (`model_port::doorbell_program`).
pub struct Doorbell {
    sleeping: AtomicBool,
    /// The wake token: OR of the `RING_*` reasons rung since the last
    /// park, 0 when nobody rang.
    rung: Mutex<u8>,
    cv: Condvar,
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    /// A bell nobody sleeps on yet.
    pub fn new() -> Self {
        Doorbell {
            sleeping: AtomicBool::named(false, "bell.sleeping"),
            rung: Mutex::named(0, "bell.rung"),
            cv: Condvar::named("bell.cv"),
        }
    }

    /// Producer side; call *after* the enqueue. `why` is OR-ed into the
    /// token the sleeper gets back from [`park`](Self::park).
    #[inline]
    pub fn ring(&self, why: u8) {
        if self.sleeping.load(Ordering::SeqCst) {
            *self.rung.lock() |= why;
            self.cv.notify_one();
        }
    }

    /// Sleeper side, step 1: raise the flag. Everything enqueued before a
    /// producer could see it rang nobody, so the caller must now re-check
    /// its queues once, then [`park`](Self::park) or
    /// [`cancel`](Self::cancel).
    pub fn announce(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
    }

    /// The re-check found work: lower the flag without sleeping.
    pub fn cancel(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Block until rung or until `deadline` (forever when `None`), lower
    /// the flag and return the reasons rung — 0 means the deadline passed.
    pub fn park(&self, deadline: Option<std::time::Instant>) -> u8 {
        let mut rung = self.rung.lock();
        while *rung == 0 {
            let Some(deadline) = deadline else {
                rung = self.cv.wait(rung);
                continue;
            };
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            rung = self.cv.wait_timeout(rung, deadline - now).0;
        }
        let why = std::mem::take(&mut *rung);
        drop(rung);
        self.cancel();
        why
    }
}
