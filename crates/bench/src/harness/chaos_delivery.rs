//! Chaos harness: exactly-once delivery under seeded link faults.
//!
//! The migration-chase workload from `fig3_delivery` runs again, but
//! with the fault plan live: every link drops, duplicates, and reorders
//! packets with probability `rate`, and the reliable-delivery layer
//! (per-link sequence numbers, cumulative acks, retransmit timed by
//! each link's measured round trip, fast retransmit —
//! DESIGN.md §"Fault injection & reliable delivery") must still deliver
//! every racing probe exactly once to an actor that keeps migrating out
//! from under them. Columns show what the reliability layer paid:
//! retransmissions, duplicates suppressed at the receiver, and raw
//! packets the fault layer ate.
//!
//! Faults are decided inside the DES from the master seed, so a given
//! `(seed, rate)` run is fully reproducible: stdout is byte-identical
//! across reruns.

use crate::out::Session;
use hal::prelude::*;
use hal_workloads::chase::{self, ChaseConfig, ChaseMsg};

/// One chase at fault rate `rate`; returns the row's five counters —
/// delivered, retransmits, duplicates suppressed, packets dropped and
/// duplicated by the links — which are also the run's extras in
/// `BENCH_chaos_delivery.json`.
fn chase(s: &mut Session, rate: f64, chain: usize, probes: i64) -> [u64; 5] {
    let cfg = s.machine(8).seed(5).faults(FaultPlan::chaos(rate)).build().unwrap();
    let (delivered, r) = chase::run_sim(cfg, ChaseConfig::fig3(chain, probes));
    let counters = [
        ("delivered", delivered),
        ("retransmits", r.stats.get("rel.retransmits")),
        ("duplicates_suppressed", r.stats.get("rel.dup_dropped")),
        ("link_dropped", r.stats.get("net.fault_dropped")),
        ("link_duplicated", r.stats.get("net.fault_duplicated")),
    ];
    s.note_run_with(format!("chaos rate={rate}"), &r, &counters);
    counters.map(|(_, count)| count)
}

/// Print the chaos table.
pub fn run(s: &mut Session) {
    s.note_protocol(&ChaseMsg::DECL, &["nomad", "spray"]);
    s.banner(
        "Chaos: exactly-once delivery under seeded link faults (8 nodes)",
        "Every link drops/duplicates/reorders packets at the given rate\n\
         while 40 probes chase an actor through an 8-hop migration walk.\n\
         The reliable layer retransmits after each link's measured\n\
         round-trip timeout or on the second duplicate ack, and\n\
         suppresses duplicates by per-link sequence number; delivery\n\
         stays exactly once at every rate.",
    );
    s.header(
        &["rate", "delivered", "retx", "dup-suppr", "dropped", "dup'd"],
        &[7, 11, 9, 12, 9, 9],
    );
    let rates: &[f64] = if s.quick() {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.01, 0.05, 0.10, 0.20]
    };
    let probes = 40i64;
    for &rate in rates {
        let [delivered, retx, dup_suppr, dropped, duped] = chase(s, rate, 8, probes);
        assert_eq!(
            delivered, probes as u64,
            "exactly-once delivery violated at fault rate {rate}"
        );
        s.row(&[&format!("{rate:.2}"), &delivered, &retx, &dup_suppr, &dropped, &duped]);
    }
    s.say(
        "\nshape: the fault-free row pays zero overhead (the fault layer is\n\
         compiled out of the hot path when the plan is empty); as the rate\n\
         climbs, retransmissions and suppressed duplicates grow while the\n\
         delivered count never moves.",
    );
}
