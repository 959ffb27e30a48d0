//! The two live-backend workloads.
//!
//! Every latency here comes from the **host monotonic clock** read by
//! the benchmark's own actors against [`spans::anchor`]. Nothing is
//! taken from `Ctx::now()` or `SimReport::makespan`: on the live backend
//! a kernel clock is `max(host clock, clock + charged virtual costs)`,
//! so under load it runs ahead of the host (see `README.md`).

use crate::out::{Metric, RunResult};
use crate::spans::{self, now_ns, Recorder};
use crate::workload::Batch;
use crate::{batch, host, ledger, stats, Args};
use hal::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Replies to every request with its own argument.
pub struct Echo;

impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, mut msg: Msg) {
        let v = msg.args.pop().unwrap_or(Value::Unit);
        ctx.reply(v);
    }

    fn name(&self) -> &'static str {
        "bench-echo"
    }
}

/// Swallows every message.
pub struct Quiet;

impl Behavior for Quiet {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}

    fn name(&self) -> &'static str {
        "bench-quiet"
    }
}

// ---------------------------------------------------------------------------
// live_local_closed
// ---------------------------------------------------------------------------

/// Shared by the 64 call chains of one repetition. All of them run on
/// the one node thread, so the atomics are never contended; they are
/// statistics, hence `Relaxed`.
struct ClosedState {
    total: u64,
    issued: AtomicU64,
    done: AtomicU64,
    bad: AtomicU64,
}

/// One call to the echo actor; its reply issues the next call of this
/// chain until `total` have been issued machine-wide.
fn closed_call(ctx: &mut Ctx<'_>, echo: MailAddr, st: Arc<ClosedState>) {
    let n = st.issued.fetch_add(1, Ordering::Relaxed) as i64;
    hal::call_then(ctx, echo, 0, vec![Value::Int(n)], move |ctx, v| {
        if v != Value::Int(n) {
            st.bad.fetch_add(1, Ordering::Relaxed);
        }
        let done = st.done.fetch_add(1, Ordering::Relaxed) + 1;
        if st.issued.load(Ordering::Relaxed) < st.total {
            closed_call(ctx, echo, st);
        } else if done == st.total {
            ctx.report("round_trips", Value::Int(done as i64));
            ctx.report(
                "bad_replies",
                Value::Int(st.bad.load(Ordering::Relaxed) as i64),
            );
            ctx.stop();
        }
    });
}

struct Source {
    echo: MailAddr,
    window: u64,
    st: Arc<ClosedState>,
}

impl Behavior for Source {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        for _ in 0..self.window {
            closed_call(ctx, self.echo, Arc::clone(&self.st));
        }
    }

    fn name(&self) -> &'static str {
        "bench-source"
    }
}

/// `live_local_closed`: one live node, a source keeping
/// [`LocalClosed::WINDOW`] calls outstanding to an echo actor on the
/// same node. No transport, no parking: the node loop and the kernel's
/// local send/dispatch path are all there is, so CPU per message is
/// everything.
pub struct LocalClosed {
    cfg: MachineConfig,
    round_trips: u64,
}

impl LocalClosed {
    /// Calls outstanding at any time.
    pub const WINDOW: u64 = 64;

    /// The full-size workload: 250 000 round trips per repetition.
    pub fn new(seed: u64) -> Self {
        Self::sized(seed, 250_000)
    }

    /// Same loop with `round_trips` per repetition (ledger row).
    pub fn sized(seed: u64, round_trips: u64) -> Self {
        LocalClosed {
            cfg: MachineConfig::builder(1)
                .seed(crate::workload::derive(seed, 0))
                .backend(BackendKind::Live)
                .build()
                .expect("valid live config"),
            round_trips,
        }
    }
}

impl Batch for LocalClosed {
    fn stage(&self, rec: &mut Recorder) -> Machine {
        let s = rec.begin("kernel.build");
        let mut m = Machine::from_config(self.cfg.clone(), Program::new().build());
        rec.end(s);
        let s = rec.begin("kernel.bootstrap");
        let st = Arc::new(ClosedState {
            total: self.round_trips,
            issued: AtomicU64::new(0),
            done: AtomicU64::new(0),
            bad: AtomicU64::new(0),
        });
        m.with_ctx(0, |ctx| {
            let echo = ctx.create_local(Box::new(Echo));
            let source = ctx.create_local(Box::new(Source {
                echo,
                window: Self::WINDOW.min(self.round_trips),
                st,
            }));
            ctx.send(source, 0, vec![]);
        });
        rec.end(s);
        m
    }

    fn check(&self, r: &SimReport) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        match r.value("round_trips") {
            Some(v) if v.as_int() as u64 == self.round_trips => {}
            other => errors.push(format!(
                "round_trips = {other:?}, expected {}",
                self.round_trips
            )),
        }
        match r.value("bad_replies") {
            Some(v) if v.as_int() == 0 => {}
            other => errors.push(format!("bad_replies = {other:?}, expected 0")),
        }
        (self.round_trips, errors)
    }

    fn deterministic(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// live_open_20k
// ---------------------------------------------------------------------------

/// Offered rate, requests per second.
pub const RATE: u64 = 20_000;
/// A request later than this does not count towards `work_per_s`.
pub const LIMIT_NS: u64 = 25_000_000;
/// How long the generator sleeps between batches.
const WAKE: Duration = Duration::from_micros(200);
/// One request in this many becomes an `op.request` span when tracing.
const SPAN_SAMPLE: u64 = 256;
/// How long to wait for stragglers after the last request was sent.
const STRAGGLER_WAIT: Duration = Duration::from_secs(2);

const REQ: Selector = 0;

/// The open-loop schedule: request `i` is due at `start + i × period`,
/// whatever the generator or the system under test is doing.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Due time of request 0, ns since the anchor.
    pub start_ns: u64,
    /// Nanoseconds between requests.
    pub period_ns: u64,
    /// Requests in the whole run.
    pub total: u64,
}

impl Schedule {
    /// Due time of request `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.period_ns
    }

    /// How many requests are due at or before `now_ns`.
    pub fn due_count(&self, now_ns: u64) -> u64 {
        if now_ns < self.start_ns {
            return 0;
        }
        ((now_ns - self.start_ns) / self.period_ns + 1).min(self.total)
    }

    /// Send every request that is due at `now_ns` and not yet sent,
    /// each stamped with its **due** time — never the send time, or a
    /// stalled generator would hide the wait it imposed.
    pub fn send_due(&self, next: &mut u64, now_ns: u64, mut send: impl FnMut(u64, u64)) {
        let upto = self.due_count(now_ns);
        while *next < upto {
            send(*next, self.due_ns(*next));
            *next += 1;
        }
    }
}

struct Stage {
    next: MailAddr,
}

impl Behavior for Stage {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        ctx.send(self.next, msg.selector, msg.args);
    }

    fn name(&self) -> &'static str {
        "bench-stage"
    }

    fn acquaintances(&self) -> Vec<MailAddr> {
        vec![self.next]
    }
}

/// What the sink has seen: per request id its completion time (ns since
/// the anchor, 0 = not yet), plus duplicate deliveries.
struct Arrivals {
    done_at: Mutex<Vec<u64>>,
    /// Published with `Release` after the slot is written; the harness
    /// reads it with `Acquire`.
    completed: AtomicU64,
    duplicates: AtomicU64,
    /// Harness thread to wake when the last request has arrived
    /// (set-up rounds only).
    waker: Option<std::thread::Thread>,
}

struct Sink {
    seen: Arc<Arrivals>,
}

impl Behavior for Sink {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        // Host clock first: the lock below must not count as latency.
        let now = now_ns();
        let id = msg.args[0].as_int() as usize;
        let mut done_at = self
            .seen
            .done_at
            .lock()
            .expect("sink lock is never poisoned");
        if done_at[id] == 0 {
            done_at[id] = now;
            let completed = self.seen.completed.fetch_add(1, Ordering::Release) + 1;
            if let (Some(harness), true) = (&self.seen.waker, completed == done_at.len() as u64) {
                harness.unpark();
            }
        } else {
            self.seen.duplicates.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn name(&self) -> &'static str {
        "bench-sink"
    }
}

/// Build the two-node pipeline — stage on 1 → stage on 0 → stage on 1 →
/// sink on 0 — and return the machine and the first stage's address.
fn stage_pipeline(seed: u64, seen: &Arc<Arrivals>, rec: &mut Recorder) -> (Machine, MailAddr) {
    let s = rec.begin("kernel.build");
    let cfg = MachineConfig::builder(2)
        .seed(crate::workload::derive(seed, 0))
        .backend(BackendKind::Live)
        .build()
        .expect("valid live config");
    let mut m = Machine::from_config(cfg, Program::new().build());
    rec.end(s);
    let s = rec.begin("kernel.bootstrap");
    let mut next = m.with_ctx(0, |ctx| {
        ctx.create_local(Box::new(Sink {
            seen: Arc::clone(seen),
        }))
    });
    for node in [1, 0, 1] {
        next = m.with_ctx(node, |ctx| ctx.create_local(Box::new(Stage { next })));
    }
    rec.end(s);
    (m, next)
}

fn arrivals(total: u64, waker: Option<std::thread::Thread>) -> Arc<Arrivals> {
    Arc::new(Arrivals {
        done_at: Mutex::new(vec![0; total as usize]),
        completed: AtomicU64::new(0),
        duplicates: AtomicU64::new(0),
        waker,
    })
}

fn request(first: MailAddr, id: u64, due_ns: u64) -> Job {
    Box::new(move |ctx: &mut Ctx<'_>| {
        ctx.send(
            first,
            REQ,
            vec![Value::Int(id as i64), Value::Int(due_ns as i64)],
        );
    })
}

/// Stop a started live machine from outside and join its threads.
pub fn stop_and_drain(m: &mut Machine) -> SimReport {
    m.submit(0, Box::new(|ctx| ctx.stop())).expect("stop job");
    m.drain(Duration::from_secs(60))
        .expect("live machine stops")
}

/// The generator: until every request of `sched` is out, wake every
/// [`WAKE`] and submit what is due. Returns how many were submitted;
/// each one's lateness (ms) goes to `late_ms`.
fn offer(
    m: &mut Machine,
    first: MailAddr,
    sched: &Schedule,
    rec: &mut Recorder,
    late_ms: &mut Vec<f64>,
) -> u64 {
    let mut next = 0u64;
    while next < sched.total {
        let now = now_ns();
        if sched.due_count(now) > next {
            let s = rec.begin("kernel.submit");
            sched.send_due(&mut next, now, |id, due| {
                late_ms.push((now_ns().saturating_sub(due)) as f64 / 1e6);
                m.submit(1, request(first, id, due))
                    .expect("live machine accepts jobs");
            });
            rec.end(s);
        }
        if next < sched.total {
            std::thread::sleep(WAKE);
        }
    }
    next
}

/// Requests of one set-up round: 50 ms of the offered load.
const FIRST_REQUESTS: u64 = 1_000;

/// One set-up from nothing to the first verified result: build the
/// pipeline, bootstrap it, spawn the node threads and serve the first
/// [`FIRST_REQUESTS`] requests at the offered rate. Returns the seconds
/// that took (stopping the machine afterwards is not part of it).
///
/// Up to the first single request a set-up is ≈ 0.25 ms of thread spawn
/// and wake-ups, and no statistic of 80 such rounds repeats between
/// processes to better than a fifth. The repetition workloads' set-up
/// runs to the end of their first repetition; this is the open loop's
/// equivalent.
fn setup_round(seed: u64) -> f64 {
    let t0 = Instant::now();
    let seen = arrivals(FIRST_REQUESTS, Some(std::thread::current()));
    let (mut m, first) = stage_pipeline(seed, &seen, &mut Recorder::new(false));
    m.init().expect("machine starts");
    let sched = Schedule {
        start_ns: now_ns(),
        period_ns: 1_000_000_000 / RATE,
        total: FIRST_REQUESTS,
    };
    offer(
        &mut m,
        first,
        &sched,
        &mut Recorder::new(false),
        &mut Vec::new(),
    );
    while seen.completed.load(Ordering::Acquire) < FIRST_REQUESTS {
        std::thread::park_timeout(Duration::from_millis(50));
    }
    let s = t0.elapsed().as_secs_f64();
    stop_and_drain(&mut m);
    s
}

/// Set-up rounds run before the load and again after it, so one burst
/// of host interference cannot cover them all.
const SETUP_ROUNDS_EACH_SIDE: usize = 8;

/// `live_open_20k`: open loop at a fixed [`RATE`] through a 3-stage,
/// 2-node pipeline; the harness thread is the only generator.
pub fn run_open(args: &Args) -> RunResult {
    let mut setups: Vec<f64> = (0..SETUP_ROUNDS_EACH_SIDE)
        .map(|_| setup_round(args.seed))
        .collect();

    let mut rec = Recorder::new(args.trace);
    let measured_s = if args.trace {
        args.seconds * 0.25
    } else {
        args.seconds
    };
    let warm = RATE * batch::WARMUP.as_secs();
    let total = warm + (RATE as f64 * measured_s) as u64;
    let seen = arrivals(total, None);
    let s_run = rec.begin("op.run");
    let (mut m, first) = stage_pipeline(args.seed, &seen, &mut rec);
    let s = rec.begin("kernel.live_init");
    m.init().expect("machine starts");
    rec.end(s);

    let sched = Schedule {
        start_ns: now_ns() + 1_000_000,
        period_ns: 1_000_000_000 / RATE,
        total,
    };
    let mut late_ms: Vec<f64> = Vec::with_capacity(total as usize);
    let submits = offer(&mut m, first, &sched, &mut rec, &mut late_ms);
    // Let stragglers finish, then stop.
    let waited = Instant::now();
    while seen.completed.load(Ordering::Acquire) < total && waited.elapsed() < STRAGGLER_WAIT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = rec.begin("kernel.drain");
    let report = stop_and_drain(&mut m);
    rec.end(s);
    setups.extend((0..SETUP_ROUNDS_EACH_SIDE).map(|_| setup_round(args.seed)));
    let setup_s = stats::median(setups);

    // Score the measured window (ids past the warm-up).
    let done_at = seen.done_at.lock().expect("sink lock is never poisoned");
    let mut lat_ms = Vec::with_capacity((total - warm) as usize);
    let (mut missing, mut over, mut last_done) = (0u64, 0u64, 0u64);
    for id in warm..total {
        let due = sched.due_ns(id);
        match done_at[id as usize] {
            0 => {
                missing += 1;
                lat_ms.push(STRAGGLER_WAIT.as_secs_f64() * 1e3);
            }
            t => {
                let lat = t.saturating_sub(due);
                if lat > LIMIT_NS {
                    over += 1;
                }
                last_done = last_done.max(t);
                lat_ms.push(lat as f64 / 1e6);
                if id % SPAN_SAMPLE == 0 {
                    rec.complete("op.request", due, t, id);
                }
            }
        }
    }
    rec.end(s_run);
    let attempted = total - warm;
    let duplicates = seen.duplicates.load(Ordering::Relaxed);
    let mut errors = Vec::new();
    if missing > 0 {
        errors.push(format!("{missing} of {attempted} requests never completed"));
    }
    if duplicates > 0 {
        errors.push(format!("{duplicates} requests were delivered twice"));
    }
    stats::sort(&mut lat_ms);
    let window_s = last_done.saturating_sub(sched.due_ns(warm)).max(1) as f64 / 1e9;
    let good = attempted - missing - over;

    let mut result = RunResult {
        attempted,
        // A request that never completes, or completes twice, has
        // failed. One that is merely late has not: how many are is the
        // host's doing (a descheduled node thread), differs from run to
        // run, and is already in `work_per_s` and the percentiles.
        failed: missing + duplicates,
        incorrect: missing + duplicates > 0,
        errors,
        reps: 1,
        ..RunResult::default()
    };
    // Like the latencies, lateness is scored on the measured window.
    let mut late_ms = late_ms.split_off(warm as usize);
    stats::sort(&mut late_ms);
    let p90 = stats::supported_percentile(&lat_ms, 0.90);
    let p99 = stats::supported_percentile(&lat_ms, 0.99);
    let late_p99 = stats::supported_percentile(&late_ms, 0.99);
    if !args.trace {
        result.end_to_end = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("work_per_s", good as f64 / window_s, "1/s"),
            Metric::new("op_ms", stats::median_sorted(&lat_ms), "ms"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ];
        result.notes = vec![
            Metric::new("op_ms_p90", p90, "ms"),
            Metric::new("op_ms_p99", p99, "ms"),
            Metric::new("op_ms_max", lat_ms[lat_ms.len() - 1], "ms"),
            Metric::new("gen_late_p99_ms", late_p99, "ms"),
            Metric::new("over_limit", over as f64, "count"),
        ];
    } else {
        let by_name = spans::self_by_name(rec.spans());
        let mut layer: BTreeMap<&'static str, f64> = crate::workload::counts(&report);
        spans::insert_self_ms(&mut layer, &by_name);
        let submit_ns = by_name.get("kernel.submit").map_or(0, |&(_, total)| total);
        layer.insert(
            "kernel.submit_us",
            submit_ns as f64 / 1e3 / submits.max(1) as f64,
        );
        layer.insert(
            "live.op_ms_p999",
            stats::supported_percentile(&lat_ms, 0.999),
        );
        layer.insert("live.op_ms_p90", p90);
        layer.insert("live.op_ms_p99", p99);
        layer.insert("live.gen_late_p99_ms", late_p99);
        layer.insert("live.gen_late_max_ms", late_ms[late_ms.len() - 1]);
        layer.insert("live.over_limit_share", over as f64 / attempted as f64);
        layer.insert("setup_raw_ms", setup_s * 1e3);
        layer.insert("host.ns_per_event", window_s * 1e9 / good.max(1) as f64);
        layer.insert("live.op_ms_p50", stats::median_sorted(&lat_ms));
        result.ledger = ledger::run();
        layer.insert("host.cpu_s", host::cpu_seconds());
        result.spans = rec.spans().to_vec();
        result.layer = layer;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHED: Schedule = Schedule {
        start_ns: 1_000,
        period_ns: 50,
        total: 10,
    };

    #[test]
    fn requests_fall_due_on_the_grid() {
        assert_eq!(SCHED.due_count(0), 0);
        assert_eq!(SCHED.due_count(999), 0);
        assert_eq!(SCHED.due_count(1_000), 1);
        assert_eq!(SCHED.due_count(1_049), 1);
        assert_eq!(SCHED.due_count(1_050), 2);
        assert_eq!(SCHED.due_count(1_000_000), 10, "capped at the total");
        assert_eq!(SCHED.due_ns(3), 1_150);
    }

    #[test]
    fn a_late_generator_stamps_due_times_and_reports_its_lateness() {
        // The generator slept through three periods: it wakes at 1170
        // with requests 0..=3 due (at 1000, 1050, 1100, 1150).
        let mut next = 0;
        let mut sent = Vec::new();
        SCHED.send_due(&mut next, 1_170, |id, due| sent.push((id, due)));
        assert_eq!(sent, vec![(0, 1_000), (1, 1_050), (2, 1_100), (3, 1_150)]);
        // Never the send time — so the lateness is there to report.
        let late: Vec<u64> = sent.iter().map(|&(_, due)| 1_170 - due).collect();
        assert_eq!(late, vec![170, 120, 70, 20]);
        assert_eq!(next, 4);
        // Nothing new is due a moment later; nothing is sent twice.
        SCHED.send_due(&mut next, 1_180, |id, due| sent.push((id, due)));
        assert_eq!(sent.len(), 4);
    }

    #[test]
    fn the_schedule_ends_at_its_total() {
        let mut next = 8;
        let mut sent = Vec::new();
        SCHED.send_due(&mut next, u64::MAX / 2, |id, _| sent.push(id));
        assert_eq!(sent, vec![8, 9]);
        assert_eq!(next, SCHED.total);
    }

    #[test]
    fn closed_loop_completes_every_round_trip() {
        let w = LocalClosed::sized(1, 1_000);
        let out = crate::workload::rep(&w, &mut Recorder::new(false), 0);
        assert_eq!(out.errors, Vec::<String>::new());
        assert_eq!(out.work, 1_000);
    }
}
