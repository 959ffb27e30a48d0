//! Cross-backend equivalence: the simulated and live backends run the
//! *same* kernels over different transports, so application-level
//! results must agree exactly — fib's value, Cholesky's Frobenius norm,
//! and a migration chase's exactly-once probe delivery. Host timing
//! (makespans, event counts) legitimately differs; correctness may not.
//!
//! Every live run also goes through the `hal-check` protocol invariant
//! checker with the flight recorder on. Live speaks the simulator's
//! fault-free protocol — no seq/ack layer, asserted below — so the
//! exactly-once oracle is the checker's per-message-id `DoubleDelivery`,
//! and a lost delivery would surface as a wrong final value.

use hal::prelude::*;
use hal_kernel::{KernelEvent, SimReport};
use hal_workloads::chase::{self, ChaseConfig};
use hal_workloads::{cholesky, fib};

const SEEDS: [u64; 3] = [1, 0x5EED, 42];
/// Live partition sizes — one real kernel thread per node.
const LIVE_NODES: [usize; 2] = [2, 4];

fn cfg(nodes: usize, seed: u64, backend: BackendKind) -> MachineConfig {
    MachineConfig::builder(nodes)
        .seed(seed)
        .backend(backend)
        .observe(ObserveOpts::none().trace(true))
        .build()
        .unwrap()
}

/// A fault-free live run engages no part of the reliable layer.
fn assert_unreliable_links(label: &str, report: &SimReport) {
    for name in ["rel.delivered", "rel.acks", "rel.retransmits", "rel.dup_dropped"] {
        assert_eq!(report.stats.get(name), 0, "{label}: {name}");
    }
    let trace = report.trace.as_ref().expect("tracing is on");
    assert!(
        !trace.events.iter().any(|e| matches!(e.event, KernelEvent::RelDelivered { .. })),
        "{label}: a RelDelivered event on a fault-free live run"
    );
}

fn assert_clean(label: &str, report: &SimReport) {
    assert_unreliable_links(label, report);
    let mut cr = hal_check::CheckReport::new("backend-equivalence");
    hal_check::check_sim_report(label, report, &mut cr);
    assert!(cr.is_clean(), "{label}: {}", cr.summary());
}

#[test]
fn fib_value_agrees_across_backends() {
    for seed in SEEDS {
        for nodes in LIVE_NODES {
            let fc = fib::FibConfig {
                n: 13,
                grain: 4,
                placement: fib::Placement::RoundRobin,
            };
            let (v_sim, r_sim) = fib::run_sim(cfg(nodes, seed, BackendKind::Sim), fc);
            let (v_live, r_live) = fib::run_sim(cfg(nodes, seed, BackendKind::Live), fc);
            assert_eq!(v_sim, 233, "fib(13) wrong on sim (seed {seed} K={nodes})");
            assert_eq!(
                v_sim, v_live,
                "fib value diverged between backends (seed {seed} K={nodes})"
            );
            assert!(r_sim.events > 0);
            assert_clean(&format!("fib seed={seed} K={nodes}"), &r_live);
        }
    }
}

#[test]
fn cholesky_norm_agrees_across_backends() {
    for seed in SEEDS {
        for nodes in LIVE_NODES {
            let cc = cholesky::CholeskyConfig {
                n: 8,
                variant: cholesky::Variant::BP,
                per_flop_ns: 50,
                seed,
            };
            let (f_sim, _) = cholesky::run_sim(cfg(nodes, seed, BackendKind::Sim), cc, false);
            let (f_live, r_live) = cholesky::run_sim(cfg(nodes, seed, BackendKind::Live), cc, false);
            assert!(f_sim.is_finite() && f_sim > 0.0, "factorization failed");
            // The norm reduction sums block contributions in message-
            // arrival order, which the live transport does not replay
            // exactly — identical factors, reduction-order ulps apart.
            assert!(
                (f_sim - f_live).abs() <= 1e-12 * f_sim,
                "Cholesky norm diverged between backends (seed {seed} K={nodes}): {f_sim} vs {f_live}"
            );
            assert_clean(&format!("cholesky seed={seed} K={nodes}"), &r_live);
        }
    }
}

// ---- migration chase: a nomad walks a hop chain while a sprayer races
// it with probes that arrive through FIR chases and forward chains.
// Unlike the rerun-determinism chase, this one stops the machine
// itself (the live runtime has no global quiescence detection), so the
// same program drives both backends. ----

fn run_chase(nodes: usize, seed: u64, backend: BackendKind) -> SimReport {
    let chase = ChaseConfig {
        chain: 8,
        probes: 20,
        prober_node: (nodes - 1) as u16,
        stop_after_last_probe: true,
    };
    chase::run_sim(cfg(nodes, seed, backend), chase).1
}

#[test]
fn migration_chase_delivers_exactly_once_on_both_backends() {
    for seed in SEEDS {
        for nodes in LIVE_NODES {
            let r_sim = run_chase(nodes, seed, BackendKind::Sim);
            let r_live = run_chase(nodes, seed, BackendKind::Live);
            // The live backend has no quiescence detection, so the
            // explicit stop at the 20th probe can truncate an FIR chase
            // still in flight — the liveness audit's UnansweredFir is
            // inherent to that shutdown, not a delivery bug. Every
            // other invariant (exactly-once per message id, acyclic
            // chains, alias ordering) must still hold.
            let label = format!("chase seed={seed} K={nodes}");
            assert_unreliable_links(&label, &r_live);
            let mut cr = hal_check::CheckReport::new("backend-equivalence");
            hal_check::check_sim_report(&label, &r_live, &mut cr);
            cr.violations
                .retain(|v| v.kind != hal_check::ViolationKind::UnansweredFir);
            assert!(cr.is_clean(), "{label}: {}", cr.summary());
            for (backend, r) in [("sim", &r_sim), ("live", &r_live)] {
                let delivered = r.values("probe_delivered");
                assert_eq!(
                    delivered.len(),
                    20,
                    "{backend}: exactly-once delivery violated (seed {seed} K={nodes})"
                );
                let max = delivered.iter().map(|v| v.as_int()).max().unwrap();
                assert_eq!(
                    max, 20,
                    "{backend}: probe counter ended wrong (seed {seed} K={nodes})"
                );
            }
        }
    }
}
