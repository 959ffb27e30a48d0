//! What every repetition-based workload shares: seed derivation, the
//! staged-machine repetition (build → bootstrap → run → report), the
//! determinism digest, and the per-layer counts read from a report.

use crate::spans::Recorder;
use hal::{Machine, SimReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64 finaliser: derives independent input seeds (machine seed,
/// matrix seed, hop order, request ids) from the one `--seed`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream `lane` of `--seed`.
pub fn derive(seed: u64, lane: u64) -> u64 {
    mix64(seed ^ mix64(lane))
}

/// A workload measured in repetitions: each one builds a fresh machine,
/// bootstraps it, runs it to completion and checks the result.
pub trait Batch {
    /// Build the program and the machine and bootstrap it — everything
    /// up to, not including, the run. Spans: `kernel.build`,
    /// `kernel.bootstrap`.
    fn stage(&self, rec: &mut Recorder) -> Machine;

    /// Work units one repetition completed (sim: events dispatched;
    /// closed loop: round trips) and every correctness violation found
    /// in its report (empty = the repetition passed).
    fn check(&self, report: &SimReport) -> (u64, Vec<String>);

    /// Whether two repetitions must produce identical reports (the sim
    /// backend) or only equivalent results (the live backend).
    fn deterministic(&self) -> bool {
        true
    }
}

/// Outcome of one repetition.
pub struct RepOut {
    /// Host wall of the whole repetition, seconds.
    pub wall_s: f64,
    /// Work units completed.
    pub work: u64,
    /// Correctness violations (empty = passed).
    pub errors: Vec<String>,
    /// Digest of `(events, makespan, every stats counter)`; repetitions
    /// of a deterministic workload must all agree.
    pub digest: u64,
    /// Per-layer counts of this repetition.
    pub counts: BTreeMap<&'static str, f64>,
}

/// Wall-clock backstop for one live repetition; a crash guard, not a
/// deadline (sim ignores it).
const DRAIN_BUDGET: Duration = Duration::from_secs(60);

/// Run one repetition of `w`, timed on the host clock from before the
/// build to after the machine is torn down.
pub fn rep(w: &dyn Batch, rec: &mut Recorder, op: u64) -> RepOut {
    rec.set_op(op);
    let t0 = Instant::now();
    let s_op = rec.begin("op");
    let mut m = w.stage(rec);
    let live = m.kind() == hal::BackendKind::Live;
    let s = rec.begin("kernel.live_init");
    m.init().expect("machine starts");
    rec.end(s);
    let s = rec.begin(if live { "kernel.drain" } else { "kernel.run" });
    let report = m.drain(DRAIN_BUDGET).expect("machine runs to completion");
    rec.end(s);
    if rec.on() {
        // `run` already built the report it returned; the traced run
        // asks for it once more so its cost is on file separately.
        let s = rec.begin("kernel.report");
        std::hint::black_box(m.report().expect("drained machine reports"));
        rec.end(s);
    }
    let (work, errors) = w.check(&report);
    let digest = digest(&report);
    let counts = counts(&report);
    let s = rec.begin("kernel.teardown");
    drop(report);
    drop(m);
    rec.end(s);
    rec.end(s_op);
    RepOut {
        wall_s: t0.elapsed().as_secs_f64(),
        work,
        errors,
        digest,
        counts,
    }
}

/// FNV-1a over the report's deterministic surface.
fn digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&r.events.to_le_bytes());
    eat(&r.makespan.as_nanos().to_le_bytes());
    eat(&r.actors_created.to_le_bytes());
    for (name, v) in r.stats.counters() {
        eat(name.as_bytes());
        eat(&v.to_le_bytes());
    }
    h
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer counts and useful-outcome ratios of one report.
pub fn counts(r: &SimReport) -> BTreeMap<&'static str, f64> {
    let g = |k: &str| r.stats.get(k);
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |k: &'static str, v: u64| {
        c.insert(k, v as f64);
    };
    put("kernel.events", r.events);
    put("kernel.msgs_local", g("msgs.local"));
    put("kernel.msgs_remote", g("msgs.remote"));
    put("kernel.actors_created", r.actors_created);
    put("kernel.joins_fired", g("joins.fired"));
    put("kernel.migrations", g("migrations.out"));
    put("kernel.fir_sent", g("fir.sent"));
    put("kernel.fir_suppressed", g("fir.suppressed"));
    put("kernel.forwarded", g("deliver.forwarded"));
    put("kernel.steal_polls", g("steal.polls"));
    put("am.packets", g("net.packets") + g("threadnet.packets"));
    put("am.bytes", g("net.bytes") + g("threadnet.bytes"));
    put("am.rel_retransmits", g("rel.retransmits"));
    put("am.rel_acks", g("rel.acks"));
    put(
        "am.backpressure_hits",
        g("net.backpressure_stalls") + g("threadnet.backpressure_hits"),
    );
    c.insert(
        "sim.virtual_makespan_us",
        r.makespan.as_nanos() as f64 / 1e3,
    );
    c.insert(
        "kernel.steal_hit_ratio",
        ratio(g("steal.granted"), g("steal.polls")),
    );
    c.insert(
        "kernel.fir_useful_ratio",
        ratio(g("fir.found"), g("fir.sent")),
    );
    c.insert(
        "am.rel_goodput_ratio",
        ratio(
            g("rel.delivered"),
            g("rel.delivered") + g("rel.retransmits") + g("rel.dup_dropped"),
        ),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_lane_and_by_seed() {
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
        assert_eq!(derive(7, 3), derive(7, 3));
    }
}
