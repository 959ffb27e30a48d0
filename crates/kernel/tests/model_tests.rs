//! Model-check suite for the kernel's concurrent protocols.
//!
//! Requires `--features model`, which reroutes `hal_kernel::sync` through
//! the `hal-model` interleaving explorer:
//!
//! ```text
//! cargo test -p hal-kernel --features model --test model_tests
//! ```
//!
//! The clean programs must verify with **zero** violations to the
//! preemption bound; the two seeded barrier bugs
//! ([`hal_kernel::sync::BarrierBugs`]) and the two seeded doorbell
//! misuses ([`hal_kernel::model_port::DoorbellBug`]) must each be
//! *found*, with an interleaving trace.

use hal_kernel::model_port::{
    doorbell_program, fused_boundary_program, live_lifecycle_program, DoorbellBug,
};
use hal_kernel::sync::BarrierBugs;
use hal_model::{explore, Opts, ViolationKind};

fn opts() -> Opts {
    Opts {
        max_executions: 100_000,
        ..Opts::default()
    }
}

#[test]
fn fused_boundary_handshake_is_clean_blocking() {
    let report = explore(opts(), || {
        fused_boundary_program(BarrierBugs::default(), false);
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete, "exploration must finish under the caps");
    assert!(report.executions > 1, "the handshake must branch the schedule");
}

#[test]
fn fused_boundary_handshake_is_clean_spinning() {
    let report = explore(opts(), || {
        fused_boundary_program(BarrierBugs::default(), true);
    });
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete, "exploration must finish under the caps");
}

#[test]
fn live_lifecycle_is_clean() {
    let report = explore(opts(), || live_lifecycle_program());
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete, "exploration must finish under the caps");
    assert!(report.executions > 1, "the lifecycle must branch the schedule");
}

/// Seeded bug 1: the barrier's arrival `fetch_add` downgraded to
/// `Relaxed`. The release chain through the counter is severed, so a
/// leaver may gather a peer's watermark slot *before* that peer's publish
/// — the lost publish across a parity flip the double-buffered board is
/// supposed to rule out. The explorer must find it and say which slot
/// went stale.
#[test]
fn seeded_relaxed_arrival_is_found_as_lost_publish() {
    let report = explore(opts(), || {
        fused_boundary_program(
            BarrierBugs {
                relaxed_arrive: true,
                ..BarrierBugs::default()
            },
            true,
        );
    });
    assert!(!report.ok(), "relaxed arrival must lose a publish");
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::Assertion, "{}", v.render());
    assert!(
        v.message.contains("lost publish") || v.message.contains("diverged"),
        "violation must name the protocol break: {}",
        v.message
    );
    assert!(!v.trace.is_empty(), "violation must carry a trace");
    assert!(
        v.trace.iter().any(|l| l.contains("stale")),
        "trace marks the stale slot read:\n{}",
        v.render()
    );
}

/// Seeded bug 2: the generation bump stored without holding the barrier
/// lock. A waiter can check the generation, lose the race to the
/// bump-and-notify, and park after the only signal fired — the classic
/// lost wakeup, surfacing as a deadlock at the next boundary.
#[test]
fn seeded_unlocked_generation_store_is_found_as_lost_wakeup() {
    let report = explore(opts(), || {
        fused_boundary_program(
            BarrierBugs {
                unlocked_generation_store: true,
                ..BarrierBugs::default()
            },
            false,
        );
    });
    assert!(!report.ok(), "unlocked generation store must lose a wakeup");
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::Deadlock, "{}", v.render());
    assert!(
        v.message.contains("barrier.cv") || v.message.contains("barrier.lock"),
        "deadlock must name the barrier: {}",
        v.message
    );
    assert!(
        v.trace
            .iter()
            .any(|l| l.contains("signal lost") || l.contains("stale")),
        "trace shows the lost signal or the stale generation re-check:\n{}",
        v.render()
    );
}

/// The live node's wake-up protocol — two producers, one sleeper parked
/// with no timeout — never loses a wake-up: every schedule terminates.
#[test]
fn doorbell_is_clean() {
    let report = explore(opts(), || doorbell_program(DoorbellBug::None));
    assert!(report.ok(), "{}", report.render_violations());
    assert!(report.complete, "exploration must finish under the caps");
    assert!(report.executions > 1, "the handshake must branch the schedule");
}

fn assert_lost_wakeup_found(bug: DoorbellBug) {
    let report = explore(opts(), move || doorbell_program(bug));
    assert!(!report.ok(), "{bug:?} must lose a wake-up");
    let v = &report.violations[0];
    assert_eq!(v.kind, ViolationKind::Deadlock, "{}", v.render());
    assert!(
        v.message.contains("bell.cv"),
        "deadlock must name the doorbell: {}",
        v.message
    );
    assert!(
        v.trace.iter().any(|l| l.contains("wait bell.cv")),
        "trace shows the sleeper parking:\n{}",
        v.render()
    );
}

/// Seeded bug 3: a producer rings before it enqueues. The ring finds the
/// node awake, the node then checks its queues, announces, re-checks and
/// parks, and only then does the item land — behind a sleeper with no
/// timeout.
#[test]
fn seeded_ring_before_enqueue_is_found_as_lost_wakeup() {
    assert_lost_wakeup_found(DoorbellBug::RingBeforeEnqueue);
}

/// Seeded bug 4: the sleeper skips the re-check. An item enqueued (and
/// rung for) between its last drain and its announce wakes nobody.
#[test]
fn seeded_skipped_recheck_is_found_as_lost_wakeup() {
    assert_lost_wakeup_found(DoorbellBug::SkipRecheck);
}
