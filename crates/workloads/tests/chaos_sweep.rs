//! The reliable layer and the FIR chase under seeded faults.
//!
//! The sweep runs the Fig. 3 chase (8 hops, 40 probes on 8 nodes) over
//! seeds 1–150 at four fault rates plus the fault-free plan. Every run
//! must deliver each probe exactly once, and hal-check must find its
//! trace clean — in particular every FIR reply that closes a chase must
//! repair the name table where it closes it (§4.3).
//!
//! The goodput floors run fib over the `sim_fib_lossy` links (2 % drop,
//! 1 % duplicate, random placement, balancing on) and bound what the
//! reliable layer spends per delivered packet, from counts alone.

use hal::prelude::*;
use hal_workloads::chase::{self, ChaseConfig};
use hal_workloads::fib::{self, FibConfig, Placement};

const RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];
const SEEDS: std::ops::RangeInclusive<u64> = 1..=150;
const PROBES: i64 = 40;

#[test]
fn fig3_chase_is_exactly_once_and_check_clean_over_150_seeds() {
    let mut dirty = Vec::new();
    for rate in RATES {
        for seed in SEEDS {
            let cfg = MachineConfig::builder(8)
                .seed(seed)
                .faults(FaultPlan::chaos(rate))
                .observe(ObserveOpts::none().trace(true))
                .build()
                .unwrap();
            let (delivered, report) = chase::run_sim(cfg, ChaseConfig::fig3(8, PROBES));
            // The nomad numbers each delivery it sees; the report lists
            // them by node, so sort before comparing.
            let mut seq: Vec<i64> = report
                .values("probe_delivered")
                .into_iter()
                .map(|v| v.as_int())
                .collect();
            seq.sort_unstable();
            assert_eq!(delivered, PROBES as u64, "rate {rate} seed {seed}");
            assert_eq!(
                seq,
                (1..=PROBES).collect::<Vec<_>>(),
                "rate {rate} seed {seed}"
            );
            let mut check = hal_check::CheckReport::new("chaos-sweep");
            hal_check::check_sim_report("chase", &report, &mut check);
            if !check.is_clean() {
                let kinds: Vec<_> = check.violations.iter().map(|v| v.kind).collect();
                dirty.push((rate, seed, kinds));
            }
        }
    }
    assert!(dirty.is_empty(), "{} dirty runs: {dirty:?}", dirty.len());
}

/// fib(`n`) over the `sim_fib_lossy` links; returns the delivered,
/// re-sent and duplicate-dropped reliable packets.
fn fib_lossy(n: u64, seed: u64) -> [u64; 3] {
    let cfg = MachineConfig::builder(8)
        .seed(seed)
        .load_balancing(true)
        .faults(FaultPlan {
            drop: 0.02,
            duplicate: 0.01,
            ..FaultPlan::none()
        })
        .build()
        .unwrap();
    let mut program = Program::new();
    let id = fib::register(&mut program);
    let fib_cfg = FibConfig {
        n,
        grain: 0,
        placement: Placement::Random,
    };
    let r = hal::run(cfg, program, |ctx| fib::bootstrap(ctx, id, fib_cfg));
    assert_eq!(
        r.value("fib").map(Value::as_int),
        Some(hal_baselines::fib_iter(n) as i64)
    );
    ["rel.delivered", "rel.retransmits", "rel.dup_dropped"].map(|k| r.stats.get(k))
}

/// Goodput — delivered over delivered + re-sent + duplicates dropped —
/// is at least 0.8: `5 · delivered ≥ 4 · (delivered + re-sent + dup)`.
#[test]
fn reliable_goodput_is_at_least_four_fifths_on_lossy_fib() {
    for (n, seed) in [(15, 1), (15, 2), (15, 3), (20, 3)] {
        let [delivered, resent, dup] = fib_lossy(n, seed);
        assert!(resent > 0, "fib({n}) seed {seed}: the links lost nothing");
        assert!(
            5 * delivered >= 4 * (delivered + resent + dup),
            "fib({n}) seed {seed}: goodput {delivered} / {}",
            delivered + resent + dup
        );
    }
}
