//! Synchronization shim: the one place the kernel's concurrent code gets
//! its primitives from.
//!
//! By default every type here is a zero-cost `#[inline]` newtype over the
//! `std::sync` equivalent — the only API differences are `named`
//! constructors (the name is dropped) and lock/condvar methods that return
//! guards directly instead of poison `Result`s (a poisoned lock is
//! re-entered; panic propagation across shard threads is handled by
//! [`SpinBarrier`] poisoning, not by mutex poison).
//!
//! Under `--features model` the same names re-export
//! `hal_model::sync`: every atomic access, lock, and condvar
//! operation becomes a scheduling point of the deterministic interleaving
//! explorer, with per-location happens-before tracking. Code written
//! against this module — notably [`crate::boundary`], the barrier and the
//! live backend's [`Doorbell`] below — is therefore model-checkable
//! verbatim. The model primitives panic if
//! used outside `hal_model::explore`, so a kernel built with the feature is
//! for `tests/model_tests.rs` only, not for running simulations.

#[cfg(feature = "model")]
pub use hal_model::sync::*;

#[cfg(not(feature = "model"))]
mod std_impl {
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;

    pub use std::sync::atomic::Ordering;

    macro_rules! int_atomic {
        ($name:ident, $std:ty, $ty:ty) => {
            /// Zero-cost wrapper over the `std` atomic; `named` exists for
            /// parity with the model build and drops the name.
            #[derive(Debug)]
            #[repr(transparent)]
            pub struct $name($std);

            impl $name {
                #[inline]
                /// See the `std` atomic constructor.
                pub fn new(v: $ty) -> Self {
                    Self(<$std>::new(v))
                }

                #[inline]
                /// `new`, with a debug name (dropped in this build).
                pub fn named(v: $ty, _name: &str) -> Self {
                    Self::new(v)
                }

                #[inline]
                /// See [`std::sync::atomic`] `load`.
                pub fn load(&self, order: Ordering) -> $ty {
                    self.0.load(order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `store`.
                pub fn store(&self, val: $ty, order: Ordering) {
                    self.0.store(val, order);
                }

                #[inline]
                /// See [`std::sync::atomic`] `fetch_add`.
                pub fn fetch_add(&self, val: $ty, order: Ordering) -> $ty {
                    self.0.fetch_add(val, order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `fetch_sub`.
                pub fn fetch_sub(&self, val: $ty, order: Ordering) -> $ty {
                    self.0.fetch_sub(val, order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `fetch_or`.
                pub fn fetch_or(&self, val: $ty, order: Ordering) -> $ty {
                    self.0.fetch_or(val, order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `fetch_and`.
                pub fn fetch_and(&self, val: $ty, order: Ordering) -> $ty {
                    self.0.fetch_and(val, order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `swap`.
                pub fn swap(&self, val: $ty, order: Ordering) -> $ty {
                    self.0.swap(val, order)
                }

                #[inline]
                /// See [`std::sync::atomic`] `compare_exchange`.
                pub fn compare_exchange(
                    &self,
                    expected: $ty,
                    new: $ty,
                    order: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    self.0.compare_exchange(expected, new, order, failure)
                }
            }
        };
    }

    int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    int_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);

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
    /// Cross-thread panic propagation in the executor rides on
    /// [`super::SpinBarrier::poison`] instead.
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

        #[inline]
        /// Consume the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
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

/// Spin rounds before a barrier waiter parks on the condvar.
#[cfg(not(feature = "model"))]
const SPIN_ROUNDS: u32 = 4096;

/// Under the model every spin-loop load is a scheduling point that may
/// legally keep observing a stale generation; two rounds exercise the spin
/// path without exploding the schedule space, then fall through to the
/// condvar path (whose lock reacquisition carries the happens-before edge
/// that forces the new generation to be seen).
#[cfg(feature = "model")]
const SPIN_ROUNDS: u32 = 2;

/// Seeded-bug switches for [`SpinBarrier`], compiled only under the model
/// feature. Each reproduces a realistic implementation slip; the model
/// suite asserts the explorer finds both (`tests/model_tests.rs`).
#[cfg(feature = "model")]
#[derive(Clone, Copy, Debug, Default)]
pub struct BarrierBugs {
    /// Downgrade the arrival `fetch_add` to `Relaxed`. This severs the
    /// release chain through the arrival counter: the last arriver's
    /// generation bump no longer happens-after every shard's slot
    /// publishes, so a leaver can gather a stale watermark slot — a lost
    /// publish across the parity flip.
    pub relaxed_arrive: bool,
    /// Bump the generation without holding the lock. A waiter can check
    /// the generation, lose the race to the bump-and-notify, and park
    /// after the only signal has already fired — a lost wakeup that
    /// deadlocks the barrier.
    pub unlocked_generation_store: bool,
}

/// Reusable spin-then-block barrier for the shard threads. Shards on a
/// host with enough cores spin briefly before parking on the condvar;
/// oversubscribed runs go straight to blocking. Poisoned when a shard
/// thread panics, so the survivors fail fast instead of deadlocking.
///
/// Built entirely from this module's primitives, so the identical code is
/// model-checked by `tests/model_tests.rs` under `--features model`.
pub struct SpinBarrier {
    n: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    #[cfg(feature = "model")]
    bugs: BarrierBugs,
}

impl SpinBarrier {
    /// A barrier for `n` threads; `spin` enables the pre-park spin loop.
    pub fn new(n: usize, spin: bool) -> Self {
        SpinBarrier {
            n,
            spin,
            arrived: AtomicUsize::named(0, "barrier.arrived"),
            generation: AtomicU64::named(0, "barrier.generation"),
            poisoned: AtomicBool::named(false, "barrier.poisoned"),
            lock: Mutex::named((), "barrier.lock"),
            cv: Condvar::named("barrier.cv"),
            #[cfg(feature = "model")]
            bugs: BarrierBugs::default(),
        }
    }

    /// A barrier with seeded bugs switched on (model builds only).
    #[cfg(feature = "model")]
    pub fn new_seeded(n: usize, spin: bool, bugs: BarrierBugs) -> Self {
        let mut b = Self::new(n, spin);
        b.bugs = bugs;
        b
    }

    // `self` is read only under `model` (the seeded-bug switch).
    #[allow(clippy::unused_self)]
    fn arrive_order(&self) -> Ordering {
        #[cfg(feature = "model")]
        if self.bugs.relaxed_arrive {
            return Ordering::Relaxed;
        }
        Ordering::AcqRel
    }

    /// Panic if a peer poisoned the barrier (a shard thread unwound).
    pub fn check(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "a shard thread panicked mid-window"
        );
    }

    /// Mark the barrier dead and wake every parked waiter (called from a
    /// panicking shard's drop guard).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }

    /// Block until all `n` threads arrive (spin first when configured).
    pub fn wait(&self) {
        if self.n == 1 {
            return;
        }
        self.check();
        let g = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, self.arrive_order()) + 1 == self.n {
            // Last arriver releases the generation. The count is reset
            // *before* the generation bump: no thread can re-enter for
            // the next generation until the bump is visible.
            self.arrived.store(0, Ordering::Release);
            #[cfg(feature = "model")]
            if self.bugs.unlocked_generation_store {
                self.generation.store(g.wrapping_add(1), Ordering::Release);
                self.cv.notify_all();
                return;
            }
            {
                let _guard = self.lock.lock();
                self.generation.store(g.wrapping_add(1), Ordering::Release);
            }
            self.cv.notify_all();
            return;
        }
        if self.spin {
            for _ in 0..SPIN_ROUNDS {
                if self.generation.load(Ordering::Acquire) != g {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        let mut guard = self.lock.lock();
        while self.generation.load(Ordering::Acquire) == g {
            self.check();
            guard = self.cv.wait(guard);
        }
    }
}

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

/// Sets the poison flag if the owning shard thread unwinds, so peers
/// blocked at the barrier fail fast instead of hanging.
pub struct PanicGuard<'a>(pub &'a SpinBarrier);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        // Under the model the explorer reports the panic itself, and
        // performing sync ops during its abort unwind would double-panic.
        #[cfg(not(feature = "model"))]
        if std::thread::panicking() {
            self.0.poison();
        }
        #[cfg(feature = "model")]
        let _ = &self.0;
    }
}
