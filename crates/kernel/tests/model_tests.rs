//! Model-check suite for the kernel's concurrent protocols.
//!
//! Requires `--features model`, which reroutes `hal_kernel::sync` through
//! the `hal-model` interleaving explorer:
//!
//! ```text
//! cargo test -p hal-kernel --features model --test model_tests
//! ```
//!
//! The clean program must verify with **zero** violations to the
//! preemption bound; the two seeded doorbell misuses
//! ([`hal_kernel::model_port::DoorbellBug`]) must each be *found*, with
//! an interleaving trace.

use hal_kernel::model_port::{doorbell_program, DoorbellBug};
use hal_model::{explore, Opts, ViolationKind};

fn opts() -> Opts {
    Opts {
        max_executions: 100_000,
        ..Opts::default()
    }
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

/// Seeded bug 1: a producer rings before it enqueues. The ring finds the
/// node awake, the node then checks its queues, announces, re-checks and
/// parks, and only then does the item land — behind a sleeper with no
/// timeout.
#[test]
fn seeded_ring_before_enqueue_is_found_as_lost_wakeup() {
    assert_lost_wakeup_found(DoorbellBug::RingBeforeEnqueue);
}

/// Seeded bug 2: the sleeper skips the re-check. An item enqueued (and
/// rung for) between its last drain and its announce wakes nobody.
#[test]
fn seeded_skipped_recheck_is_found_as_lost_wakeup() {
    assert_lost_wakeup_found(DoorbellBug::SkipRecheck);
}
