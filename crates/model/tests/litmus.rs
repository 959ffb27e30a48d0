//! Litmus tests for the interleaving explorer: the classic shapes it must
//! get right, in both directions — clean protocols verify clean, broken
//! ones produce a violation *with a trace*.

use std::sync::Arc;

use hal_model::sync::{thread, AtomicU64, Condvar, Mutex, Ordering, RaceCell};
use hal_model::{explore, Opts, ViolationKind};

fn opts() -> Opts {
    Opts { max_executions: 50_000, ..Opts::default() }
}

#[test]
fn two_increments_under_mutex_sum_to_two() {
    let report = explore(opts(), || {
        let m = Arc::new(Mutex::named(0u32, "counter"));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                thread::spawn(move || {
                    let mut g = m.lock();
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*m.lock(), 2);
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete);
    assert!(report.executions > 1, "mutex contention must branch the schedule");
}

#[test]
fn message_passing_release_acquire_is_clean() {
    let report = explore(opts(), || {
        let data = Arc::new(RaceCell::named(0u32, "data"));
        let flag = Arc::new(AtomicU64::named(0, "flag"));
        let (d, f) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            d.with_mut(|v| *v = 42);
            f.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.with(|v| *v), 42);
        }
        t.join();
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete);
}

#[test]
fn message_passing_relaxed_flag_races() {
    let report = explore(opts(), || {
        let data = Arc::new(RaceCell::named(0u32, "data"));
        let flag = Arc::new(AtomicU64::named(0, "flag"));
        let (d, f) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            d.with_mut(|v| *v = 42);
            // BUG under test: relaxed store publishes no happens-before.
            f.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Acquire) == 1 {
            let _ = data.with(|v| *v);
        }
        t.join();
    });
    assert!(!report.ok(), "relaxed message passing must be flagged as a race");
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::DataRace);
    assert!(!v.trace.is_empty(), "violations must carry an interleaving trace");
    assert!(v.trace.iter().any(|l| l.contains("flag")), "trace names the flag:\n{}", v.render());
}

#[test]
fn stale_read_of_relaxed_published_value_is_found() {
    // Store-buffering shape: x published relaxed, flag released. The flag
    // edge covers x=1 (sequenced before the release), so acquire readers of
    // flag==1 must see x==1 — but a *relaxed* flag lets x==0 through.
    let clean = explore(opts(), || {
        let x = Arc::new(AtomicU64::named(0, "x"));
        let flag = Arc::new(AtomicU64::named(0, "flag"));
        let (x2, f2) = (x.clone(), flag.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(x.load(Ordering::Relaxed), 1);
        }
        t.join();
    });
    assert!(clean.ok(), "{}", clean.render_violations());

    let broken = explore(opts(), || {
        let x = Arc::new(AtomicU64::named(0, "x"));
        let flag = Arc::new(AtomicU64::named(0, "flag"));
        let (x2, f2) = (x.clone(), flag.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // BUG: no release edge
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(x.load(Ordering::Relaxed), 1);
        }
        t.join();
    });
    assert!(!broken.ok(), "stale read through a relaxed flag must be found");
    assert_eq!(broken.violations[0].kind, ViolationKind::Assertion);
    assert!(
        broken.violations[0].trace.iter().any(|l| l.contains("stale")),
        "trace marks the stale read:\n{}",
        broken.violations[0].render()
    );
}

#[test]
fn lock_order_inversion_deadlocks() {
    let report = explore(opts(), || {
        let a = Arc::new(Mutex::named((), "lock_a"));
        let b = Arc::new(Mutex::named((), "lock_b"));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let gb = b.lock();
        let ga = a.lock();
        drop((ga, gb));
        t.join();
    });
    assert!(!report.ok(), "AB-BA locking must deadlock in some schedule");
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(v.message.contains("lock_a") || v.message.contains("lock_b"), "{}", v.message);
    assert!(!v.trace.is_empty());
}

#[test]
fn lost_wakeup_without_lock_held_is_found() {
    // Correct shape: the signaler flips `ready` while holding the lock, so
    // the waiter cannot check-then-park around the notify.
    let clean = explore(opts(), || {
        let m = Arc::new(Mutex::named(false, "ready_lock"));
        let cv = Arc::new(Condvar::named("ready_cv"));
        let (m2, cv2) = (m.clone(), cv.clone());
        let t = thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        t.join();
    });
    assert!(clean.ok(), "{}", clean.render_violations());

    // BUG under test: ready is set and the notify fired *without* the lock;
    // the waiter can observe ready==false, then the notify lands before the
    // park — the signal is lost and the waiter sleeps forever.
    let broken = explore(opts(), || {
        let m = Arc::new(Mutex::named((), "ready_lock"));
        let ready = Arc::new(AtomicU64::named(0, "ready"));
        let cv = Arc::new(Condvar::named("ready_cv"));
        let (r2, cv2) = (ready.clone(), cv.clone());
        let t = thread::spawn(move || {
            r2.store(1, Ordering::Release);
            cv2.notify_all();
        });
        let mut g = m.lock();
        while ready.load(Ordering::Acquire) == 0 {
            g = cv.wait(g);
        }
        drop(g);
        t.join();
    });
    assert!(!broken.ok(), "lost wakeup must be found");
    let v = &broken.violations[0];
    assert_eq!(v.kind, ViolationKind::Deadlock);
    // The counterexample is either the notify landing before the park
    // ("signal lost") or the waiter re-checking through a stale read after
    // a wake; both stem from the unlocked publish.
    assert!(
        v.trace.iter().any(|l| l.contains("signal lost") || l.contains("stale")),
        "trace shows the lost signal or the stale re-check:\n{}",
        v.render()
    );
}

#[test]
fn timed_wait_may_time_out_at_any_point_or_be_notified() {
    use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
    use std::time::Duration;
    static SAW_TIMEOUT: AtomicBool = AtomicBool::new(false);
    static SAW_NOTIFY: AtomicBool = AtomicBool::new(false);
    let report = explore(opts(), || {
        let m = Arc::new(Mutex::named(false, "ready_lock"));
        let cv = Arc::new(Condvar::named("ready_cv"));
        let (m2, cv2) = (m.clone(), cv.clone());
        let t = thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_all();
        });
        let mut g = m.lock();
        if !*g {
            let (back, timed_out) = cv.wait_timeout(g, Duration::from_secs(1));
            g = back;
            if timed_out {
                SAW_TIMEOUT.store(true, StdOrdering::Relaxed);
            } else {
                assert!(*g, "a notified waiter sees the flag the notifier set under the lock");
                SAW_NOTIFY.store(true, StdOrdering::Relaxed);
            }
        }
        drop(g);
        t.join();
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete);
    assert!(SAW_TIMEOUT.load(StdOrdering::Relaxed), "some schedule times out early");
    assert!(SAW_NOTIFY.load(StdOrdering::Relaxed), "some schedule is woken by the notify");

    // Nobody ever notifies: an untimed wait would be a deadlock, a timed
    // one returns.
    let alone = explore(opts(), || {
        let m = Mutex::named((), "lock");
        let cv = Condvar::named("cv");
        let (_g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
    });
    assert!(alone.ok(), "{}", alone.render_violations());
}

#[test]
fn bounded_channel_backpressure_is_clean_and_fifo() {
    let report = explore(opts(), || {
        let (tx, rx) = hal_model::sync::channel::<u32>(1, "jobs");
        let t = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).expect("receiver alive");
            }
        });
        for want in 0..3 {
            assert_eq!(rx.recv(), Ok(want));
        }
        assert!(rx.recv().is_err(), "sender dropped -> disconnect");
        t.join();
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete);
}

#[test]
fn rmw_increments_never_lose_updates() {
    let report = explore(opts(), || {
        let c = Arc::new(AtomicU64::named(0, "counter"));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2);
    });
    assert!(report.ok(), "{}", report.render_violations());
}

#[test]
fn preemption_bound_and_caps_are_respected() {
    // A wide program under a tiny execution cap: exploration must stop and
    // say so rather than hang.
    let report = explore(
        Opts { max_executions: 16, ..Opts::default() },
        || {
            let x = Arc::new(AtomicU64::named(0, "x"));
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let x = x.clone();
                    thread::spawn(move || {
                        x.fetch_add(i, Ordering::Relaxed);
                        x.load(Ordering::Relaxed);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        },
    );
    assert!(!report.complete, "cap must mark the exploration incomplete");
    assert!(report.executions + report.pruned <= 16);
}
