//! Rerun determinism: for a fixed seed, two runs of the simulator must
//! produce a **bit-identical** `SimReport` — same counters, same final
//! virtual times, same reported values, same merged trace event
//! sequence — across workloads that stress different kernel machinery:
//! fib (join continuations + load balancing), Cholesky (groups +
//! broadcast + bulk transfers), a migration chase (FIRs + forward
//! chains + racing probes) and fib under chaos (fault draws +
//! retransmit timers).

use hal::prelude::*;
use hal_kernel::SimReport;
use hal_workloads::chase::{self, ChaseConfig};
use hal_workloads::{cholesky, fib};

const SEEDS: [u64; 3] = [1, 0x5EED, 42];

/// Run `build` twice; the second report must equal the first exactly.
fn assert_reruns_identically(label: &str, build: impl Fn() -> SimReport) {
    let first = build();
    assert!(first.events > 0, "{label}: the run executed nothing");
    assert_eq!(first, build(), "{label}: rerun diverged from the first run");
}

#[test]
fn fib_with_load_balancing_is_identical() {
    for seed in SEEDS {
        assert_reruns_identically(&format!("fib-lb seed={seed}"), || {
            let cfg = fib::FibConfig {
                n: 13,
                grain: 3,
                placement: fib::Placement::Local,
            };
            let machine = MachineConfig::builder(8)
                .seed(seed)
                .load_balancing(true)
                .build()
                .unwrap();
            let (v, report) = fib::run_sim(machine, cfg);
            assert_eq!(v, 233, "fib(13) wrong");
            report
        });
    }
}

#[test]
fn fib_static_placement_with_trace_is_identical() {
    // Trace recording on: the merged flight-recorder event sequence is
    // part of the equality.
    assert_reruns_identically("fib-static-trace", || {
        let cfg = fib::FibConfig {
            n: 12,
            grain: 2,
            placement: fib::Placement::RoundRobin,
        };
        let machine = MachineConfig::builder(8)
            .seed(0x5EED)
            .trace()
            .build()
            .unwrap();
        let (v, report) = fib::run_sim(machine, cfg);
        assert_eq!(v, 144, "fib(12) wrong");
        assert!(
            report.trace.as_ref().is_some_and(|t| !t.events.is_empty()),
            "trace should have recorded events"
        );
        report
    });
}

#[test]
fn cholesky_is_identical() {
    for seed in SEEDS {
        assert_reruns_identically(&format!("cholesky seed={seed}"), || {
            let cfg = cholesky::CholeskyConfig {
                n: 8,
                variant: cholesky::Variant::BP,
                per_flop_ns: 50,
                seed,
            };
            let machine = MachineConfig::builder(6).seed(seed).build().unwrap();
            let (fro, report) = cholesky::run_sim(machine, cfg, false);
            assert!(fro.is_finite() && fro > 0.0, "factorization failed");
            report
        });
    }
}

// ---- migration chase (the Fig. 3 pattern: a nomad actor walks hops
// while probes race it through FIR chases and forward chains) ----

fn run_chase(seed: u64) -> SimReport {
    let machine = MachineConfig::builder(8).seed(seed).trace().build().unwrap();
    let (delivered, report) = chase::run_sim(machine, ChaseConfig::fig3(8, 20));
    assert_eq!(delivered, 20, "exactly-once delivery violated");
    report
}

#[test]
fn migration_chase_is_identical() {
    for seed in SEEDS {
        assert_reruns_identically(&format!("migration-chase seed={seed}"), || run_chase(seed));
    }
}

#[test]
fn fib_under_chaos_is_identical() {
    // 10% chaos makes the fault draws and the retransmit timers part of
    // the equality.
    for seed in SEEDS {
        assert_reruns_identically(&format!("fib-chaos seed={seed}"), || {
            let cfg = fib::FibConfig {
                n: 13,
                grain: 3,
                placement: fib::Placement::RoundRobin,
            };
            let machine = MachineConfig::builder(8)
                .seed(seed)
                .faults(FaultPlan::chaos(0.10))
                .build()
                .unwrap();
            let (v, report) = fib::run_sim(machine, cfg);
            assert_eq!(v, 233, "fib(13) wrong under chaos");
            assert!(
                report.stats.get("net.fault_dropped") > 0,
                "chaos at 10% dropped nothing — the plan is not live (seed {seed})"
            );
            report
        });
    }
}
