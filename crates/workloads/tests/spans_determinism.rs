//! Observability determinism: the span report, the metrics timeseries,
//! and the critical-path analysis are all derived from virtual-time
//! facts, so their JSON serializations must be **byte-identical**
//! across reruns of one seed, on both a join-continuation workload
//! (fib) and a migration chase (FIRs + forward chains + racing probes).

use hal::prelude::*;
use hal_kernel::span::SpanReport;
use hal_kernel::SimReport;
use hal_kernel::critical_path::critical_paths;
use hal_workloads::chase::{self, ChaseConfig};
use hal_workloads::fib;

const SEEDS: [u64; 3] = [1, 0x5EED, 42];

/// The three observability artifacts of one run, as serialized bytes.
fn artifacts(label: &str, report: &SimReport) -> (String, String, String) {
    let trace = report
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: tracing was enabled"));
    let spans = SpanReport::build(trace);
    assert!(!spans.msgs.is_empty(), "{label}: no message spans");
    let makespan_ns = report.makespan.as_nanos();
    let cp = critical_paths(&spans, 5);
    if let Some(c) = cp.critical() {
        assert!(
            c.total_ns <= makespan_ns,
            "{label}: critical path {} ns exceeds makespan {} ns",
            c.total_ns,
            makespan_ns
        );
    }
    let metrics = report
        .metrics
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: metrics were enabled"));
    (
        spans.to_json(),
        metrics.to_json(makespan_ns),
        cp.to_json(makespan_ns),
    )
}

/// Run `build` twice; every serialized artifact of the rerun must equal
/// the first run's byte-for-byte.
fn assert_byte_identical(label: &str, build: impl Fn() -> SimReport) {
    let (spans1, metrics1, cp1) = artifacts(label, &build());
    let (spans2, metrics2, cp2) = artifacts(label, &build());
    assert_eq!(spans1, spans2, "{label}: span JSON diverged on rerun");
    assert_eq!(metrics1, metrics2, "{label}: metrics JSON diverged on rerun");
    assert_eq!(cp1, cp2, "{label}: critical-path JSON diverged on rerun");
}

#[test]
fn fib_spans_and_metrics_are_byte_identical() {
    for seed in SEEDS {
        assert_byte_identical(&format!("fib seed={seed}"), || {
            let cfg = fib::FibConfig {
                n: 13,
                grain: 3,
                placement: fib::Placement::Local,
            };
            let machine = MachineConfig::builder(8)
                .seed(seed)
                .load_balancing(true)
                .trace()
                .metrics()
                    .build()
                .unwrap();
            let (v, report) = fib::run_sim(machine, cfg);
            assert_eq!(v, 233, "fib(13) wrong");
            report
        });
    }
}

// ---- migration chase: FIR chases and forward chains give the span
// reconstructor its hardest inputs (chase spans spanning nodes, parked
// probes, Migrated-path deliveries) ----

fn run_chase(seed: u64) -> SimReport {
    const PROBES: i64 = 20;
    let machine = MachineConfig::builder(8)
        .seed(seed)
        .trace()
        .metrics()
        .build()
        .unwrap();
    let (delivered, report) = chase::run_sim(machine, ChaseConfig::fig3(8, PROBES));
    assert_eq!(delivered, PROBES as u64, "exactly-once delivery violated");
    report
}

#[test]
fn migration_chase_spans_and_metrics_are_byte_identical() {
    for seed in SEEDS {
        assert_byte_identical(&format!("migration-chase seed={seed}"), || run_chase(seed));
    }
}
