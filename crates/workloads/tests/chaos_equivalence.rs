//! Chaos integration: the migration-chase workload under seeded
//! drop/duplicate/reorder faults must still deliver every probe exactly
//! once (the reliable layer's contract), reach the same final actor
//! state as the fault-free run, and stay bit-identical across reruns —
//! fault draws are a function of the seed and the admission order.

use hal::prelude::*;
use hal_kernel::SimReport;
use hal_workloads::chase::{self, ChaseConfig};

const SEEDS: [u64; 3] = [1, 0x5EED, 42];
const RATES: [f64; 2] = [0.05, 0.15];
const CHAIN: usize = 8;
const PROBES: i64 = 20;

fn run_chase(seed: u64, rate: f64) -> SimReport {
    let cfg = MachineConfig::builder(8)
        .seed(seed)
        .faults(FaultPlan::chaos(rate))
        .build()
        .unwrap();
    chase::run_sim(cfg, ChaseConfig::fig3(CHAIN, PROBES)).1
}

/// The nomad's reported probe sequence — its externally visible final
/// state (`probes` counts every delivery, duplicates included, so
/// equality with the fault-free run *is* the exactly-once property).
fn probe_seq(r: &SimReport) -> Vec<i64> {
    r.values("probe_delivered").into_iter().map(|v| v.as_int()).collect()
}

#[test]
fn chase_under_faults_delivers_exactly_once() {
    for seed in SEEDS {
        let clean = run_chase(seed, 0.0);
        assert_eq!(
            probe_seq(&clean),
            (1..=PROBES).collect::<Vec<_>>(),
            "fault-free baseline broken (seed {seed})"
        );
        for rate in RATES {
            let faulty = run_chase(seed, rate);
            assert!(
                faulty.stats.get("net.fault_dropped") > 0,
                "rate {rate} dropped nothing — the plan is not live (seed {seed})"
            );
            assert_eq!(
                probe_seq(&faulty),
                probe_seq(&clean),
                "final actor state diverged from the fault-free run \
                 (seed {seed}, rate {rate})"
            );
        }
    }
}

#[test]
fn chase_under_faults_reruns_identically() {
    for seed in SEEDS {
        for rate in RATES {
            let first = run_chase(seed, rate);
            assert!(first.events > 0);
            assert_eq!(
                first,
                run_chase(seed, rate),
                "chaos rerun diverged (seed {seed}, rate {rate})"
            );
        }
    }
}
