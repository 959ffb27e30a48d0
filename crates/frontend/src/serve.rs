//! The open-loop load generator: `hal-serve`'s engine.
//!
//! The paper's front-end "processes all I/O requests from the kernels";
//! this module turns that front-end into a *server harness*: requests
//! arrive at a configured rate (open loop — arrivals never wait for
//! completions, so queueing delay is measured, not hidden), flow down a
//! multi-node actor pipeline, and the sink records each request's
//! end-to-end latency in the run's `serve.latency_ns` histogram
//! ([`hal_des::Histogram`]). The harness then
//! reports p50/p99/p999 against a declared SLO in
//! `results/SERVE_<scenario>.json`.
//!
//! Both backends ([`hal_kernel::BackendKind`]) are supported and measure
//! the same pipeline:
//!
//! * **simulated** — a `LoadGen` actor paces arrivals on the virtual
//!   clock (`charge(period)` between sends), so the whole run is
//!   deterministic and the "latencies" are virtual nanoseconds;
//! * **live** — the harness thread submits one [`hal_kernel::Job`] per
//!   request at its scheduled host instant. A request's latency is
//!   charged from its *scheduled* arrival time, not from when the job
//!   actually ran, so a backed-up runtime cannot hide queueing delay
//!   (no coordinated omission).
//!
//! Termination uses the pipeline's own FIFO ordering: after the last
//! request the generator sends `Flush` down the same links; each link
//! delivers in order, so `Flush` reaches the sink after every request,
//! and the sink reports its burn windows and stops the machine.

use hal::messages;
use hal::prelude::*;
use hal_des::json::{self, Json, Style::Block, Style::Inline};
use hal_des::{Histogram, VirtualDuration};
use hal_kernel::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

messages! {
    /// The serve pipeline protocol.
    pub enum ServeMsg {
        /// One request: opaque id plus its (scheduled) send time.
        Req { id: i64, sent_at_ns: i64 } = 0 => [ServeMsg],
        /// End-of-load marker; follows every `Req` on each link.
        Flush {} = 1 => [ServeMsg],
        /// Simulated backend only: the `LoadGen` actor's pacing tick.
        Tick {} = 2 => [ServeMsg],
    }
}

// ---------------------------------------------------------------------------
// Pipeline actors
// ---------------------------------------------------------------------------

struct StageActor {
    next: MailAddr,
    cost_ns: u64,
}

impl Behavior for StageActor {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match ServeMsg::take(msg) {
            ServeMsg::Req { id, sent_at_ns } => {
                ctx.charge(VirtualDuration::from_nanos(self.cost_ns));
                let (sel, args) = ServeMsg::Req { id, sent_at_ns }.encode();
                ctx.send(self.next, sel, args);
            }
            ServeMsg::Flush {} => {
                let (sel, args) = ServeMsg::Flush {}.encode();
                ctx.send(self.next, sel, args);
            }
            ServeMsg::Tick {} => unreachable!("stages never receive Tick"),
        }
    }

    fn name(&self) -> &'static str {
        "serve_stage"
    }
}

fn make_stage(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(StageActor {
        next: args[0].as_addr(),
        cost_ns: args[1].as_int() as u64,
    })
}

/// Width of one SLO burn window (sink-side rolling error-budget
/// accounting): violations are bucketed per second of sink time.
const BURN_WINDOW_NS: u64 = 1_000_000_000;

/// The histogram the sink records each request's latency into.
const LATENCY: &str = "serve.latency_ns";

struct SinkActor {
    /// p99 SLO threshold the windowed tracker counts violations against.
    slo_p99_ns: u64,
    window_start_ns: u64,
    window_count: u64,
    window_over: u64,
    windows: u64,
    worst_over: u64,
    worst_count: u64,
}

impl SinkActor {
    /// Close the current window, keeping it if its violation fraction
    /// is the worst seen so far (ties keep the earlier window).
    fn close_window(&mut self) {
        if self.window_count == 0 {
            return;
        }
        self.windows += 1;
        let frac = self.window_over as f64 / self.window_count as f64;
        let worst = if self.worst_count == 0 {
            -1.0
        } else {
            self.worst_over as f64 / self.worst_count as f64
        };
        if frac > worst {
            self.worst_over = self.window_over;
            self.worst_count = self.window_count;
        }
        self.window_over = 0;
        self.window_count = 0;
    }
}

impl Behavior for SinkActor {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match ServeMsg::take(msg) {
            ServeMsg::Req { id: _, sent_at_ns } => {
                let now = ctx.now().as_nanos() as i64;
                let lat = now.saturating_sub(sent_at_ns).max(0) as u64;
                ctx.observe(LATENCY, lat);
                let now_ns = now.max(0) as u64;
                if self.window_start_ns == 0 {
                    self.window_start_ns = now_ns;
                }
                while now_ns >= self.window_start_ns + BURN_WINDOW_NS {
                    self.close_window();
                    self.window_start_ns += BURN_WINDOW_NS;
                }
                self.window_count += 1;
                if lat > self.slo_p99_ns {
                    self.window_over += 1;
                }
            }
            ServeMsg::Flush {} => {
                self.close_window();
                ctx.report("serve_windows", Value::Int(self.windows as i64));
                ctx.report("serve_worst_window_over", Value::Int(self.worst_over as i64));
                ctx.report("serve_worst_window_count", Value::Int(self.worst_count as i64));
                ctx.stop();
            }
            ServeMsg::Tick {} => unreachable!("the sink never receives Tick"),
        }
    }

    fn name(&self) -> &'static str {
        "serve_sink"
    }
}

fn make_sink(args: &[Value]) -> Box<dyn Behavior> {
    // args: [p99 SLO threshold ns]
    Box::new(SinkActor {
        slo_p99_ns: args[0].as_int().max(0) as u64,
        window_start_ns: 0,
        window_count: 0,
        window_over: 0,
        windows: 0,
        worst_over: 0,
        worst_count: 0,
    })
}

/// Simulated backend only: paces the open-loop arrival process on the
/// virtual clock. Each tick sends one request stamped with the actual
/// virtual send time, charges one inter-arrival period, and re-arms
/// itself; arrivals therefore never wait on the pipeline.
struct LoadGen {
    next: MailAddr,
    total: u64,
    period_ns: u64,
    sent: u64,
}

impl Behavior for LoadGen {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let ServeMsg::Tick {} = ServeMsg::take(msg) else {
            unreachable!("LoadGen only receives Tick");
        };
        if self.sent < self.total {
            let (sel, args) = ServeMsg::Req {
                id: self.sent as i64,
                sent_at_ns: ctx.now().as_nanos() as i64,
            }
            .encode();
            ctx.send(self.next, sel, args);
            self.sent += 1;
            ctx.charge(VirtualDuration::from_nanos(self.period_ns));
            let me = ctx.me();
            let (sel, args) = ServeMsg::Tick {}.encode();
            ctx.send(me, sel, args);
        } else {
            let (sel, args) = ServeMsg::Flush {}.encode();
            ctx.send(self.next, sel, args);
        }
    }

    fn name(&self) -> &'static str {
        "serve_loadgen"
    }
}

// ---------------------------------------------------------------------------
// Scenario + harness
// ---------------------------------------------------------------------------

/// Latency SLO: the declared bound each reported percentile is gated
/// against (milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// Median bound.
    pub p50_ms: f64,
    /// 99th-percentile bound.
    pub p99_ms: f64,
    /// 99.9th-percentile bound.
    pub p999_ms: f64,
}

impl Default for Slo {
    fn default() -> Self {
        Slo {
            p50_ms: 20.0,
            p99_ms: 50.0,
            p999_ms: 100.0,
        }
    }
}

/// One load-generation scenario.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Name — becomes `results/SERVE_<scenario>.json`.
    pub scenario: String,
    /// Which backend runs the pipeline.
    pub backend: BackendKind,
    /// Partition size.
    pub nodes: usize,
    /// Pipeline depth (stage actors between generator and sink); stage
    /// `i` lives on node `i % nodes`, the sink on node 0, so any
    /// `stages >= 1` on `nodes >= 2` exercises remote links.
    pub stages: usize,
    /// Offered load, requests per second.
    pub rate_rps: f64,
    /// Total requests to offer.
    pub requests: u64,
    /// Virtual compute charged per stage per request.
    pub stage_cost_ns: u64,
    /// Machine seed.
    pub seed: u64,
    /// Declared latency SLO.
    pub slo: Slo,
    /// Record a flight-recorder trace and run the protocol checker on
    /// the report.
    pub check: bool,
    /// Record the metrics timeseries: gauges sampled in each node's own
    /// thread, per 100 µs of virtual time (simulated) or per 10 ms of
    /// its host-anchored clock (live).
    pub metrics: bool,
    /// Head-sample spans at this rate (parts per million). `Some(_)`
    /// turns tracing on even without `check`; `None` leaves the rate
    /// at the machine default (full sampling when tracing at all).
    pub span_sample_ppm: Option<u32>,
    /// Live backend: print the telemetry `top` table to stderr every
    /// ~500 ms while the load runs.
    pub watch: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scenario: "pipeline".into(),
            backend: BackendKind::Sim,
            nodes: 4,
            stages: 3,
            rate_rps: 500.0,
            requests: 1000,
            stage_cost_ns: 50_000,
            seed: 0x5EED,
            slo: Slo::default(),
            check: false,
            metrics: false,
            span_sample_ppm: None,
            watch: false,
        }
    }
}

impl ServeConfig {
    /// Why this scenario cannot run, if it cannot: a rate that is not a
    /// positive finite number, no requests or stages, or an SLO bound
    /// that is not finite (`hal-serve` refuses these before running).
    pub fn validate(&self) -> Result<(), String> {
        let Slo { p50_ms, p99_ms, p999_ms } = self.slo;
        let slos = [("p50", p50_ms), ("p99", p99_ms), ("p999", p999_ms)];
        if !(self.rate_rps.is_finite() && self.rate_rps > 0.0) {
            Err(format!("rate must be positive and finite, not {}", self.rate_rps))
        } else if self.requests == 0 || self.stages == 0 {
            Err("need at least one request and one stage".into())
        } else if let Some((name, v)) = slos.into_iter().find(|(_, v)| !v.is_finite()) {
            Err(format!("the {name} SLO must be finite, not {v}"))
        } else {
            Ok(())
        }
    }
}

/// The harvested outcome of one scenario run.
pub struct ServeOutcome {
    /// The scenario that ran.
    pub cfg: ServeConfig,
    /// Requests that reached the sink.
    pub completed: u64,
    /// End-to-end latency distribution.
    pub hist: Histogram,
    /// Makespan: virtual ns (simulated) or host ns (live).
    pub wall_ns: u64,
    /// Live backend: sends that hit a full bounded channel.
    pub backpressure_hits: u64,
    /// Protocol checker verdict, when [`ServeConfig::check`] was set.
    pub check_clean: Option<bool>,
    /// Completed `BURN_WINDOW_NS`-wide burn windows the sink closed.
    pub windows: u64,
    /// p99-violating requests in the worst burn window.
    pub worst_window_over: u64,
    /// Total requests in the worst burn window.
    pub worst_window_count: u64,
    /// The machine's full report.
    pub report: SimReport,
}

impl ServeOutcome {
    /// True when every reported percentile is within the declared SLO.
    pub fn slo_pass(&self) -> bool {
        let ms = |ns: u64| ns as f64 / 1e6;
        ms(self.hist.quantile(0.50)) <= self.cfg.slo.p50_ms
            && ms(self.hist.quantile(0.99)) <= self.cfg.slo.p99_ms
            && ms(self.hist.quantile(0.999)) <= self.cfg.slo.p999_ms
    }

    /// SLO burn rates per percentile: observed violation fraction over
    /// the fraction the SLO allows (p50 allows 50%, p99 allows 1%,
    /// p999 allows 0.1%). 1.0 means the error budget is being spent
    /// exactly as fast as the SLO permits; >1.0 means it is burning.
    pub fn burn_rates(&self) -> (f64, f64, f64) {
        let burn =
            |slo_ms: f64, allowed: f64| self.hist.frac_above((slo_ms * 1e6) as u64) / allowed;
        (
            burn(self.cfg.slo.p50_ms, 0.50),
            burn(self.cfg.slo.p99_ms, 0.01),
            burn(self.cfg.slo.p999_ms, 0.001),
        )
    }

    /// Violation fraction of the worst burn window (0 when no window
    /// completed).
    pub fn worst_window_frac(&self) -> f64 {
        if self.worst_window_count == 0 {
            0.0
        } else {
            self.worst_window_over as f64 / self.worst_window_count as f64
        }
    }

    /// Throughput actually sustained (completions over makespan).
    pub fn achieved_rps(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.completed as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Render the `SERVE_<scenario>.json` document.
    pub fn to_json(&self) -> String {
        let (cfg, h) = (&self.cfg, &self.hist);
        json::document(|w| {
            w.obj(Block, |w| {
                w.key("scenario").str(&cfg.scenario).key("backend").str(&cfg.backend.to_string());
                w.key("nodes").int(cfg.nodes).key("stages").int(cfg.stages);
                w.key("requests").int(cfg.requests).key("completed").int(self.completed);
                w.key("offered_rps").float(cfg.rate_rps, 1);
                w.key("achieved_rps").float(self.achieved_rps(), 1);
                w.key("wall_ns").int(self.wall_ns);
                w.key("latency_ns").obj(Block, |w| {
                    w.key("min").int(h.min()).key("mean").float(h.mean(), 0);
                    for (name, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
                        w.key(name).int(h.quantile(q));
                    }
                    w.key("max").int(h.max());
                });
                w.key("slo_ms").obj(Inline, |w| {
                    let slo = &cfg.slo;
                    w.key("p50").float(slo.p50_ms, 3).key("p99").float(slo.p99_ms, 3);
                    w.key("p999").float(slo.p999_ms, 3);
                });
                w.key("slo_pass").bool(self.slo_pass());
                let (b50, b99, b999) = self.burn_rates();
                w.key("burn_rate").obj(Block, |w| {
                    w.key("p50").float(b50, 4).key("p99").float(b99, 4).key("p999").float(b999, 4);
                    w.key("window_ns").int(BURN_WINDOW_NS).key("windows").int(self.windows);
                    w.key("worst_window_over").int(self.worst_window_over);
                    w.key("worst_window_count").int(self.worst_window_count);
                    w.key("worst_window_frac").float(self.worst_window_frac(), 4);
                });
                w.key("backpressure_hits").int(self.backpressure_hits).key("check");
                match self.check_clean {
                    None => w.null(),
                    Some(c) => w.str(if c { "CLEAN" } else { "VIOLATIONS" }),
                };
            });
        })
    }

    /// One-line human summary for the console.
    pub fn summary(&self) -> String {
        let ms = |p: f64| self.hist.quantile(p) as f64 / 1e6;
        format!(
            "{} [{}] {}/{} req @ {:.0}/s offered, {:.0}/s achieved | \
             p50 {:.2} ms p99 {:.2} ms p999 {:.2} ms | SLO {}",
            self.cfg.scenario,
            self.cfg.backend,
            self.completed,
            self.cfg.requests,
            self.cfg.rate_rps,
            self.achieved_rps(),
            ms(0.50),
            ms(0.99),
            ms(0.999),
            if self.slo_pass() { "PASS" } else { "FAIL" },
        )
    }
}

/// Run one scenario to completion and harvest its latency distribution.
///
/// # Panics
/// Panics on a configuration [`ServeConfig::validate`] refuses — the
/// `hal-serve` bin validates its flags first.
pub fn run(cfg: ServeConfig) -> Result<ServeOutcome, MachineError> {
    if let Err(e) = cfg.validate() {
        panic!("invalid serve config: {e}");
    }
    let period_ns = (1e9 / cfg.rate_rps) as u64;

    let mut program = Program::new();
    let stage_id = program.behavior("serve_stage", make_stage);
    let sink_id = program.behavior("serve_sink", make_sink);

    let mut obs = ObserveOpts::none()
        .trace(cfg.check || cfg.span_sample_ppm.is_some())
        .metrics(cfg.metrics);
    if let Some(ppm) = cfg.span_sample_ppm {
        obs = obs.span_sample_ppm(ppm);
    }
    let machine_cfg = MachineConfig::builder(cfg.nodes)
        .seed(cfg.seed)
        .backend(cfg.backend)
        .observe(obs)
        .build()
        .expect("serve config is sim/live-valid");
    let mut m = Machine::from_config(machine_cfg, program.build());

    // Build the pipeline back to front so every stage knows its
    // successor's address at creation time. Stage i sits on node
    // i % nodes; the sink reports and stops from node 0.
    let backend = cfg.backend;
    let (total, rate_period) = (cfg.requests, period_ns);
    let slo_p99_ns = (cfg.slo.p99_ms * 1e6) as i64;
    let first = m.with_ctx(0, |ctx| {
        let mut next = ctx.create_on(0, sink_id, vec![Value::Int(slo_p99_ns)]);
        for s in (1..=cfg.stages).rev() {
            let node = (s % cfg.nodes) as NodeId;
            next = ctx.create_on(
                node,
                stage_id,
                vec![Value::Addr(next), Value::Int(cfg.stage_cost_ns as i64)],
            );
        }
        if backend == BackendKind::Sim {
            let lg = ctx.create_local(Box::new(LoadGen {
                next,
                total,
                period_ns: rate_period,
                sent: 0,
            }));
            let (sel, args) = ServeMsg::Tick {}.encode();
            ctx.send(lg, sel, args);
        }
        next
    });

    let report = match backend {
        BackendKind::Sim => m.run()?,
        BackendKind::Live => {
            m.init()?;
            // `--watch`: a detached printer refreshes the telemetry
            // `top` table on stderr while the load runs. It only reads
            // the nodes' cells, so it works with or without
            // `cfg.metrics` and leaves the timeseries alone.
            let watch_stop = Arc::new(AtomicBool::new(false));
            let watcher = cfg.watch.then(|| {
                let hub = m.telemetry();
                let stop = Arc::clone(&watch_stop);
                std::thread::spawn(move || {
                    let started = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let elapsed_ns = started.elapsed().as_nanos() as u64;
                        eprintln!("{}", hub.top(elapsed_ns).trim_end());
                        std::thread::sleep(Duration::from_millis(500));
                    }
                })
            });
            let drained = (|| {
                let start = Instant::now();
                for i in 0..cfg.requests {
                    let target = start + Duration::from_nanos(i * period_ns);
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    m.submit(
                        0,
                        Box::new(move |ctx: &mut Ctx<'_>| {
                            // Charge latency from the *scheduled* arrival:
                            // job-queue wait counts against the runtime.
                            let late = target.elapsed().as_nanos() as u64;
                            let sent_at = ctx.now().as_nanos().saturating_sub(late);
                            let (sel, args) = ServeMsg::Req {
                                id: i as i64,
                                sent_at_ns: sent_at as i64,
                            }
                            .encode();
                            ctx.send(first, sel, args);
                        }),
                    )?;
                }
                m.submit(
                    0,
                    Box::new(move |ctx: &mut Ctx<'_>| {
                        let (sel, args) = ServeMsg::Flush {}.encode();
                        ctx.send(first, sel, args);
                    }),
                )?;
                // Generous wall budget: the load itself took
                // requests/rate seconds; allow that again plus slack
                // for the drain.
                let load_secs = cfg.requests as f64 / cfg.rate_rps;
                m.drain(Duration::from_secs_f64(load_secs + 30.0))
            })();
            watch_stop.store(true, Ordering::Relaxed);
            if let Some(h) = watcher {
                h.join().expect("watch printer panicked");
            }
            drained?
        }
    };

    let hist = report.stats.histogram(LATENCY).cloned().unwrap_or_default();
    let check_clean = cfg.check.then(|| {
        let mut cr = hal_check::CheckReport::new("serve");
        hal_check::check_sim_report(&cfg.scenario, &report, &mut cr);
        eprintln!("{}", cr.summary().trim_end());
        cr.is_clean()
    });
    let sink_u64 = |k: &str| report.value(k).map(|v| v.as_int() as u64).unwrap_or(0);

    Ok(ServeOutcome {
        completed: hist.count(),
        hist,
        wall_ns: report.makespan.as_nanos(),
        backpressure_hits: report.stats.get("threadnet.backpressure_hits"),
        check_clean,
        windows: sink_u64("serve_windows"),
        worst_window_over: sink_u64("serve_worst_window_over"),
        worst_window_count: sink_u64("serve_worst_window_count"),
        report,
        cfg,
    })
}

/// Sanity-check a written `SERVE_*.json`: parses, carries the full
/// percentile ladder, and the ladder is monotone (p50 ≤ p99 ≤ p999 ≤
/// max). Returns a human-readable error otherwise.
pub fn verify_artifact(body: &str) -> Result<(), String> {
    let doc = Json::parse(body)?;
    let num = |path: &str| {
        let v = path.split('.').try_fold(&doc, |v, k| v.get(k)).and_then(Json::as_f64);
        v.ok_or_else(|| format!("missing {path}"))
    };
    let lat = |k: &str| num(&format!("latency_ns.{k}"));
    let (p50, p99, p999, max) = (lat("p50")?, lat("p99")?, lat("p999")?, lat("max")?);
    if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
        return Err(format!(
            "percentiles not monotone: p50={p50} p99={p99} p999={p999} max={max}"
        ));
    }
    let (completed, requests) = (num("completed")?, num("requests")?);
    if completed > requests {
        return Err(format!("completed {completed} exceeds offered {requests}"));
    }
    if doc.get("slo_pass").is_none() {
        return Err("missing slo_pass".into());
    }
    for k in ["p50", "p99", "p999", "windows", "worst_window_frac"] {
        let v = num(&format!("burn_rate.{k}"))?;
        if v < 0.0 {
            return Err(format!("burn_rate.{k} is negative: {v}"));
        }
    }
    Ok(())
}

/// Convenience: the artifact path for a scenario.
pub fn artifact_path(scenario: &str) -> std::path::PathBuf {
    std::path::Path::new("results").join(format!("SERVE_{scenario}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_serve_reports_burn_windows_and_rates() {
        let cfg = ServeConfig {
            requests: 300,
            rate_rps: 150.0, // 2 s of virtual load => at least two windows
            ..ServeConfig::default()
        };
        let out = run(cfg).expect("serve runs");
        assert!(out.windows >= 2, "expected >= 2 burn windows, got {}", out.windows);
        assert!(out.worst_window_count > 0);
        // Fast pipeline, loose SLO: the p99 budget never burns.
        assert_eq!(out.worst_window_over, 0);
        let (b50, b99, b999) = out.burn_rates();
        assert!(b50 >= 0.0 && b99 == 0.0 && b999 == 0.0, "{b50} {b99} {b999}");
        let body = out.to_json();
        assert!(body.contains("\"burn_rate\""));
        verify_artifact(&body).expect("artifact with burn_rate verifies");
        assert!(verify_artifact(&body.replace("\"burn_rate\"", "\"burn_rat3\"")).is_err());
    }

    #[test]
    fn sim_serve_completes_all_requests_deterministically() {
        let cfg = ServeConfig {
            requests: 200,
            rate_rps: 100_000.0,
            check: true,
            ..ServeConfig::default()
        };
        let a = run(cfg.clone()).expect("serve runs");
        let b = run(cfg).expect("serve runs");
        assert_eq!(a.completed, 200);
        assert_eq!(a.check_clean, Some(true));
        assert_eq!(a.wall_ns, b.wall_ns, "simulated serve is deterministic");
        assert_eq!(a.hist.quantile(0.99), b.hist.quantile(0.99));
        // Latency includes at least the pipeline's compute.
        assert!(a.hist.min() >= u64::from(3u32) * 50_000 / 2);
    }

    #[test]
    fn live_serve_completes_under_light_load() {
        let cfg = ServeConfig {
            backend: BackendKind::Live,
            nodes: 2,
            stages: 2,
            requests: 50,
            rate_rps: 2_000.0,
            stage_cost_ns: 1_000,
            check: true,
            metrics: true,
            ..ServeConfig::default()
        };
        let out = run(cfg).expect("live serve runs");
        assert_eq!(out.completed, 50, "lossless links deliver every request");
        assert_eq!(out.check_clean, Some(true));
        assert!(out.hist.max() > 0, "live latencies are real host time");
        // Each node counts its own sends; the report sums the nodes.
        let metrics = out.report.metrics.as_ref().expect("metrics on");
        for name in ["threadnet.packets", "threadnet.bytes"] {
            let total = out.report.stats.get(name);
            assert!(total > 0, "{name}");
            assert_eq!(metrics.counter(name), total, "{name}: the nodes' cells sum to the report");
        }
    }

    #[test]
    fn artifact_verifies_and_rejects_nonsense() {
        let cfg = ServeConfig {
            requests: 64,
            rate_rps: 100_000.0,
            ..ServeConfig::default()
        };
        let out = run(cfg).expect("serve runs");
        let body = out.to_json();
        verify_artifact(&body).expect("fresh artifact verifies");
        assert!(verify_artifact("{}").is_err());
        assert!(verify_artifact(&body.replace("\"p50\"", "\"p5x\"")).is_err());
    }

    #[test]
    fn a_scenario_name_with_json_syntax_in_it_still_verifies() {
        let cfg = ServeConfig {
            scenario: "q\"x\\".into(),
            requests: 16,
            rate_rps: 100_000.0,
            ..ServeConfig::default()
        };
        let body = run(cfg).expect("serve runs").to_json();
        verify_artifact(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("scenario").and_then(Json::as_str), Some("q\"x\\"));
        assert_eq!(doc.get("check"), Some(&Json::Null));
    }

    #[test]
    fn validate_refuses_what_cannot_run() {
        let with = |f: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            cfg.validate()
        };
        assert_eq!(with(|_| {}), Ok(()));
        assert!(with(|c| c.rate_rps = 0.0).is_err());
        assert!(with(|c| c.rate_rps = f64::INFINITY).is_err());
        assert!(with(|c| c.rate_rps = f64::NAN).is_err());
        assert!(with(|c| c.requests = 0).is_err());
        let nan_slo = with(|c| c.slo.p999_ms = f64::NAN).unwrap_err();
        assert!(nan_slo.contains("p999"), "{nan_slo}");
    }
}
