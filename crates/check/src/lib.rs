//! # hal-check — protocol invariant checker for the HAL kernel
//!
//! Kim & Agha's location-transparency machinery is a web of distributed
//! invariants: a name must exist before traffic lands on it (§5), FIR
//! chases must walk acyclic forward chains and repair every name table
//! they touch plus the birthplace (§4.3), duplicate chases must be
//! suppressed (§4.3), synchronization constraints must eventually
//! re-enable parked messages (§6.1), join continuations must fire
//! (§6.2), and the reliable layer must release each (link, seq) exactly
//! once. The kernel *implements* these; this crate *checks* them, from
//! the outside, against evidence the kernel already produces:
//!
//! - **Trace analysis** ([`check_trace`]): a vector-clock pass over the
//!   flight recorder's merged [`TraceReport`].
//! - **Program + quiescence analysis** ([`check_registry`],
//!   [`check_tags`], [`check_audit`]): static checks on the behavior
//!   image and message-tag tables, plus the end-of-run liveness audit
//!   embedded in every [`SimReport`].
//! - **Static protocol lint** ([`run_lint`]): the message-flow graph
//!   built from the `messages!` macro's declared send annotations,
//!   checked for unhandled selectors, dead behaviors, unknown
//!   destinations, and wait-for cycles — without running the program —
//!   plus the tag-table check of every declared protocol.
//!
//! Everything lands in one typed [`CheckReport`] with violation kinds,
//! counts, offending event windows and the lint's [`Flow`] facts,
//! serializable to `results/CHECK_<bin>.json`. Bench bins run every
//! pass, the lint included, under `--check`; the console's `check`
//! command runs the trace and audit passes on the last simulation. The full invariant catalog, with paper-section
//! citations, is DESIGN.md §10.

#![warn(missing_docs)]

mod lint;
mod program_check;
mod report;
mod trace_check;

pub use lint::{run_lint, LintSpec};
pub use program_check::{check_audit, check_behavior_image, check_registry, check_tags};
pub use report::{CheckReport, Flow, Violation, ViolationKind};
pub use trace_check::check_trace;

use hal_kernel::{SimReport, TraceReport};

/// Run every applicable pass over one finished simulation: the trace
/// pass when a trace was recorded, then the quiescence audit (which
/// also checks the behavior image). `label` names the run inside the
/// report's pass list.
pub fn check_sim_report(label: &str, sim: &SimReport, out: &mut CheckReport) {
    let before = out.passes.len();
    if let Some(trace) = &sim.trace {
        check_trace(trace, out);
    }
    check_audit(&sim.audit, out);
    // Prefix this run's pass labels so multi-run reports stay readable.
    for p in &mut out.passes[before..] {
        *p = format!("{label}/{p}");
    }
}

// Re-exported so synthetic-trace tests and callers can build inputs
// without depending on hal-kernel directly.
pub use hal_kernel::trace::TraceEvent;
pub use hal_kernel::KernelEvent;

/// Convenience: run [`check_trace`] over a bare event list (synthetic
/// traces in tests; no ring wraparound). List order stands in for each
/// node's execution order: per-node sequence numbers are assigned in
/// the order given, exactly as the live trace ring would have stamped
/// them.
pub fn check_events(mut events: Vec<TraceEvent>, out: &mut CheckReport) {
    let mut next_seq: std::collections::HashMap<hal_am::NodeId, u64> =
        std::collections::HashMap::new();
    for e in &mut events {
        let s = next_seq.entry(e.node).or_insert(0);
        e.seq = *s;
        *s += 1;
    }
    let trace = TraceReport {
        events,
        ..Default::default()
    };
    check_trace(&trace, out);
}
