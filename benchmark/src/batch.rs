//! Driver for the repetition-based workloads (the four `sim_*` and
//! `live_local_closed`): timed set-ups, untimed warm-up, measured
//! repetitions, and — in the traced run — spans, allocation counts and
//! the ledger.

use crate::out::{Metric, RunResult};
use crate::pace::{self, Pace};
use crate::spans::{self, Recorder};
use crate::workload::{rep, Batch, RepOut};
use crate::{host, ledger, stats, Args};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untimed warm-up before the first measured repetition.
pub const WARMUP: Duration = Duration::from_secs(2);
/// A repetition starts from a fresh set-up when the last one is this
/// old: about twenty `setup_s` samples spread over a 16 s run, so a
/// burst of host interference cannot cover them all.
const SETUP_EVERY: Duration = Duration::from_millis(250);
/// Fewest set-up samples and bare constructions timed per run.
const SETUP_MIN_ROUNDS: usize = 5;
/// Bare constructions timed for `setup_raw_ms` (traced run).
const RAW_MAX_ROUNDS: usize = 2_000;
const RAW_BUDGET: Duration = Duration::from_millis(500);
/// Fewest repetitions a measurement may rest on.
const MIN_REPS: usize = 5;
/// `op_ms` of a repetition workload is the time for this many work
/// units (sim events, closed-loop round trips), so that it does not
/// move with the seed the way a repetition's size does.
const OP_UNITS: f64 = 100_000.0;

/// Seeded variants of the workload an end-to-end run cycles through,
/// one per set-up. `--seed` decides the steal schedule, the fault
/// pattern and the hop order, and with them the mix of events: one
/// variant's cost per event differs from another's by up to a fifth
/// (`sim_fib`). A run reports the median over its variants, which moves
/// with the seed a third as much.
const VARIANTS: u64 = 8;

/// Runs repetitions, starting some of them from nothing.
///
/// The shared host this runs on alternates, for seconds to minutes at a
/// time, between two speeds a factor of about 1.5 apart (see
/// `README.md`), so no statistic of raw repetition time repeats from
/// run to run. Every repetition is therefore run between two laps of
/// the reference work of [`crate::pace`], and a timing is reported as
/// the fastest sample ÷ the fastest lap pair of the run (interference
/// only ever adds time, so those are the least disturbed of each; the
/// host's speed is in both and cancels), scaled by [`pace::NOMINAL_S`]
/// so that it reads as the time on an undisturbed host.
///
/// A `setup_s` sample is the time from nothing to the first verified
/// result: generate the inputs and the reference result, build the
/// program and the machine, bootstrap, start (live: spawn the node
/// thread) and run one repetition. Construction alone is 1–50 µs here —
/// scheduler noise no user sees, and no two runs agree on it to a
/// tenth. Up to the first result the set-up is milliseconds and steady,
/// and work a later change moves out of the repetitions into
/// construction still lands in it. The bare construction time is the
/// ledger's `setup_raw_ms`.
struct Runner<'a> {
    /// Variant index → the workload generated for it.
    make: &'a dyn Fn(u64) -> Box<dyn Batch>,
    /// How many variants to cycle through (the traced run: one, so that
    /// its counts are one workload's).
    variants: u64,
    variant: u64,
    w: Box<dyn Batch>,
    made: Instant,
    /// Seconds the current workload's `make` took, until a repetition
    /// completes the sample.
    pending: Option<f64>,
    /// Set-up samples: (variant, seconds).
    setups: Vec<(u64, f64)>,
    /// Per repetition, the slower of the two laps around it, seconds:
    /// the host was at its faster speed throughout a repetition only if
    /// it was on both sides of it.
    laps: Vec<f64>,
    /// Whether to start over every [`SETUP_EVERY`]; the traced run does
    /// not, so its allocation counts hold repetitions only.
    resetup: bool,
    next_op: u64,
    pace: Pace,
}

/// A repetition's outcome and the variant it ran.
type Rep = (u64, RepOut);

impl<'a> Runner<'a> {
    fn new(make: &'a dyn Fn(u64) -> Box<dyn Batch>, variants: u64, resetup: bool) -> Self {
        let made = Instant::now();
        let w = make(0);
        Runner {
            make,
            variants,
            variant: 0,
            w,
            pending: Some(made.elapsed().as_secs_f64()),
            made,
            setups: Vec::new(),
            laps: Vec::new(),
            resetup,
            next_op: 0,
            pace: Pace::new(),
        }
    }

    /// One repetition; `fresh` forces it to start from a new set-up (of
    /// the next variant).
    fn rep(&mut self, rec: &mut Recorder, fresh: bool) -> Rep {
        let due = self.resetup && self.made.elapsed() >= SETUP_EVERY;
        if self.pending.is_none() && (fresh || due) {
            self.variant = (self.variant + 1) % self.variants;
            self.made = Instant::now();
            self.w = (self.make)(self.variant);
            self.pending = Some(self.made.elapsed().as_secs_f64());
        }
        let before = self.pace.lap();
        let out = rep(&*self.w, rec, self.next_op);
        self.laps.push(before.max(self.pace.lap()));
        self.next_op += 1;
        if let Some(made_s) = self.pending.take() {
            self.setups.push((self.variant, made_s + out.wall_s));
        }
        (self.variant, out)
    }

    /// Repetitions until `budget` has elapsed, but at least `min`.
    fn reps_for(&mut self, rec: &mut Recorder, budget: Duration, min: usize) -> Vec<Rep> {
        let begun = Instant::now();
        let mut outs = Vec::new();
        while outs.len() < min || begun.elapsed() < budget {
            outs.push(self.rep(rec, false));
        }
        outs
    }
}

/// Median seconds of the bare construction: inputs, reference result,
/// program, machine, bootstrap, `init` — no repetition.
fn raw_setup_s(make: &dyn Fn(u64) -> Box<dyn Batch>) -> f64 {
    let mut off = Recorder::new(false);
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < RAW_MAX_ROUNDS
        && (samples.len() < SETUP_MIN_ROUNDS || begun.elapsed() < RAW_BUDGET)
    {
        let t0 = Instant::now();
        let w = make(0);
        let mut m = w.stage(&mut off);
        m.init().expect("machine starts");
        samples.push(t0.elapsed().as_secs_f64());
        // Untimed: a started live machine must be stopped and joined.
        if m.kind() == hal::BackendKind::Live {
            crate::live::stop_and_drain(&mut m);
        }
    }
    stats::median(samples)
}

/// Tally failures: a repetition fails on a wrong result or, for a
/// deterministic workload, on a digest that differs from the first
/// repetition's of the same variant.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first_digest: BTreeMap<u64, u64>,
}

impl Tally {
    fn add(&mut self, deterministic: bool, outs: &[Rep]) {
        for (variant, o) in outs {
            self.attempted += 1;
            let mut errors = o.errors.clone();
            let first = *self.first_digest.entry(*variant).or_insert(o.digest);
            if deterministic && o.digest != first {
                errors.push(format!(
                    "report digest {:016x} differs from the first repetition's {first:016x}",
                    o.digest
                ));
            }
            if !errors.is_empty() {
                self.failed += 1;
                self.errors.extend(errors);
            }
        }
    }
}

fn walls_ms_sorted(outs: &[Rep]) -> Vec<f64> {
    let mut v: Vec<f64> = outs.iter().map(|(_, o)| o.wall_s * 1e3).collect();
    stats::sort(&mut v);
    v
}

/// Median over the variants present in `samples` of each variant's
/// fastest sample at reference speed; `samples` are (variant, seconds).
fn median_of_variants(samples: impl Iterator<Item = (u64, f64)> + Clone, laps: &[f64]) -> f64 {
    let per_variant = (0..VARIANTS)
        .map(|v| {
            samples
                .clone()
                .filter(move |&(sv, _)| sv == v)
                .map(|(_, s)| s)
        })
        .map(|of_v| pace::at_reference_speed(of_v, laps))
        .filter(|s| s.is_finite())
        .collect();
    stats::median(per_variant)
}

/// Run one repetition-based workload; `make` generates its variant `v`.
pub fn run(args: &Args, make: &dyn Fn(u64) -> Box<dyn Batch>) -> RunResult {
    let mut tally = Tally::default();
    let mut rec = Recorder::new(false);
    let mut result = RunResult::default();

    if !args.trace {
        // The laps run on this thread; a live repetition runs on a node
        // thread. On one core they see one speed. (The traced run is
        // not pinned: its ledger has two-thread rows.)
        host::pin_to_current_core();
        let mut runner = Runner::new(make, VARIANTS, true);
        let det = runner.w.deterministic();
        let warm = runner.reps_for(&mut rec, WARMUP, 1);
        tally.add(det, &warm);
        // The warm-up's set-ups and laps are not part of the measurement.
        runner.setups.clear();
        runner.laps.clear();
        let budget = Duration::from_secs_f64(args.seconds);
        let outs = runner.reps_for(&mut rec, budget, MIN_REPS);
        tally.add(det, &outs);
        while runner.setups.len() < SETUP_MIN_ROUNDS {
            tally.add(det, &[runner.rep(&mut rec, true)]);
        }
        let walls = walls_ms_sorted(&outs);
        let mut laps_us: Vec<f64> = runner.laps.iter().map(|l| l * 1e6).collect();
        stats::sort(&mut laps_us);
        // Seconds per work unit and per set-up, at reference speed.
        let unit_s = median_of_variants(
            outs.iter().map(|(v, o)| (*v, o.wall_s / o.work as f64)),
            &runner.laps,
        );
        let setup_s = median_of_variants(runner.setups.iter().copied(), &runner.laps);
        result.reps = outs.len();
        result.end_to_end = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("work_per_s", 1.0 / unit_s, "1/s"),
            Metric::new("op_ms", unit_s * 1e3 * OP_UNITS, "ms"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ];
        result.notes = vec![
            Metric::new("rep_ms_min", walls[0], "ms"),
            Metric::new("rep_ms_p50", stats::median_sorted(&walls), "ms"),
            Metric::new("rep_ms_max", walls[walls.len() - 1], "ms"),
            Metric::new("lap_us_min", laps_us[0], "us"),
            Metric::new("lap_us_p50", stats::median_sorted(&laps_us), "us"),
            Metric::new("lap_us_max", laps_us[laps_us.len() - 1], "us"),
            Metric::new(
                "rep_work_p50",
                stats::median(outs.iter().map(|(_, o)| o.work as f64).collect()),
                "count",
            ),
            Metric::new("setup_samples", runner.setups.len() as f64, "count"),
        ];
    } else {
        // A short traced run: the same repetitions with the span
        // recorder off, then on, so the difference is the tracing
        // overhead; then the ledger.
        let setup_raw_s = raw_setup_s(make);
        let mut runner = Runner::new(make, 1, false);
        let det = runner.w.deterministic();
        let slice = Duration::from_secs_f64(args.seconds * 0.15);
        let warm = runner.reps_for(&mut rec, Duration::ZERO, 2);
        tally.add(det, &warm);
        let plain = runner.reps_for(&mut rec, slice, MIN_REPS);
        tally.add(det, &plain);
        rec.set_on(true);
        let (allocs0, bytes0) = host::alloc_counts();
        let traced = runner.reps_for(&mut rec, slice, MIN_REPS);
        let (allocs1, bytes1) = host::alloc_counts();
        rec.set_on(false);
        tally.add(det, &traced);
        result.reps = traced.len();

        let plain_p50 = stats::median_sorted(&walls_ms_sorted(&plain));
        let traced_walls = walls_ms_sorted(&traced);
        let traced_p50 = stats::median_sorted(&traced_walls);
        let work: f64 = traced.iter().map(|(_, o)| o.work as f64).sum();
        let by_name = spans::self_by_name(rec.spans());

        let first = &traced[0].1;
        let mut layer: BTreeMap<&'static str, f64> = first.counts.clone();
        spans::insert_self_ms(&mut layer, &by_name);
        let run_ms = layer["kernel.run_ms"] + layer["kernel.drain_ms"];
        layer.insert("host.ns_per_event", traced_p50 * 1e6 / first.work as f64);
        layer.insert("host.rep_ms_p50", traced_p50);
        layer.insert("host.rep_ms_min", traced_walls[0]);
        layer.insert(
            "host.pace_lap_us",
            stats::median(runner.laps.iter().map(|l| l * 1e6).collect()),
        );
        layer.insert("host.allocs_per_event", (allocs1 - allocs0) as f64 / work);
        layer.insert(
            "host.alloc_bytes_per_event",
            (bytes1 - bytes0) as f64 / work,
        );
        layer.insert("trace_overhead_x", traced_p50 / plain_p50);
        layer.insert("setup_raw_ms", setup_raw_s * 1e3);

        let rows = ledger::run();
        layer.insert("ledger_coverage", ledger::coverage(&rows, &layer, run_ms));
        layer.insert("host.cpu_s", host::cpu_seconds());
        result.spans = rec.spans().to_vec();
        result.ledger = rows;
        result.layer = layer;
    }
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    result.errors = tally.errors;
    result
}
