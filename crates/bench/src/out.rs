//! Machine-readable benchmark output + shared bench-bin switches.
//!
//! Every table bin records its simulation runs here and calls
//! [`finish`] at exit, which writes `results/BENCH_<bin>.json` next to
//! the human-readable `results/<bin>.txt` — label, virtual time, event
//! count and the bin's extra counters per run. Nothing here reads the
//! host clock: on the sim backend every file a bin writes is a pure
//! function of the tree and the flags, which is what lets `ci.sh` hold
//! the committed `results/` to a fresh sweep with `cmp`. Host time is
//! measured by the standalone `benchmark/` package only.
//!
//! The module also owns the switches every bin honors (command-line
//! flags only — no environment variable is read):
//!
//! * `--quick` — shrink problem sizes so the bin finishes in seconds.
//! * `--backend=sim|live` — which [`hal_kernel::BackendKind`] the bin's
//!   machines run on ([`backend`]). The deterministic simulator is the
//!   default; `live` runs one real kernel per host thread, so
//!   virtual-time facts become host-time facts and the artifacts carry
//!   a `"backend": "live"` tag saying they are not reproducible.
//! * `--check` — run the `hal-check` protocol invariant
//!   checker over every recorded run. Bins opt their machines into the
//!   flight recorder via `.observe(out::observe_opts())`; [`finish`]
//!   then writes `results/CHECK_<bin>.json` and **exits nonzero** on any
//!   violation.
//! * `--lint` — run the `hal-check` **static** protocol
//!   lint over the program's compile-time declarations (the `messages!`
//!   protocols fed via [`note_protocol`], handlers via [`note_handler`],
//!   roots via [`note_root`], wait-for gates via [`note_gate`]).
//!   [`finish`] writes `results/LINT_<bin>.json` and **exits nonzero**
//!   on any finding. Purely static: no run, trace, or host fact enters
//!   the artifact.
//! * `--spans` — reconstruct message-lifecycle spans
//!   ([`hal_kernel::span`]) and the critical path
//!   ([`hal_kernel::critical_path`]) for every recorded run, asserting
//!   it never exceeds the makespan, and write `results/SPANS_<bin>.json`.
//!   Implies tracing via [`trace_wanted`].
//! * `--metrics` — enable the metrics registry
//!   ([`hal_kernel::metrics`], folded into [`observe_opts`]) and write
//!   `results/METRICS_<bin>.json` — one document shape on both
//!   backends.
//! * `--span-sample=R` — head-sample spans at
//!   rate `R` in `[0, 1]` (folded into [`observe_opts`]). The sample
//!   decision hashes the deterministic trace id, so sampled `SPANS_`
//!   artifacts stay byte-identical across reruns, and rate 1 reproduces
//!   the unsampled surface exactly.
//!
//! Progress lines (`BENCHLINE`, `SPANLINE`, `CHECKFILE`, ...) go to
//! **stderr**; stdout is the bin's table and becomes `results/<bin>.txt`.

use hal_check::{json_escape, CheckReport, LintSpec};
use hal_kernel::span::SpanReport;
use hal_kernel::{BackendKind, ObserveOpts, ProtocolDecl, SimReport};
use hal_kernel::critical_path::critical_paths;
use std::sync::Mutex;

/// One recorded simulation run.
struct Run {
    label: String,
    virtual_ns: u64,
    events: u64,
    /// Extra per-run counters (e.g. chaos delivery stats), emitted
    /// verbatim into the JSON record.
    extras: Vec<(String, u64)>,
}

static RUNS: Mutex<Vec<Run>> = Mutex::new(Vec::new());

/// Violations accumulated across this process's checked runs.
static CHECK: Mutex<Option<CheckReport>> = Mutex::new(None);

/// The static lint spec accumulated from this process's declarations.
static LINT: Mutex<Option<LintSpec>> = Mutex::new(None);

/// Per-run JSON fragments accumulated for `results/SPANS_<bin>.json`
/// (label, composed span + critical-path object).
static SPANS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Per-run JSON fragments accumulated for `results/METRICS_<bin>.json`.
static METRICS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// True when `name` (e.g. `--quick`) is on this process's command line.
fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// The value of a `--name=value` argument on this process's command
/// line, if present.
fn flag_value(name: &str) -> Option<String> {
    std::env::args()
        .skip(1)
        .find_map(|a| a.strip_prefix(name)?.strip_prefix('=').map(str::to_string))
}

/// Which backend this process's machines run on: `--backend=sim|live`
/// on the command line, else the deterministic simulator. Bins pass
/// this to [`hal_kernel::MachineConfigBuilder::backend`]; under `live`
/// the virtual-time facts in every artifact are host-time facts and
/// carry a `"backend": "live"` tag so a reader knows not to expect
/// determinism.
pub fn backend() -> BackendKind {
    flag_value("--backend").map_or(BackendKind::Sim, |v| {
        v.parse().unwrap_or_else(|e| panic!("{e}"))
    })
}

/// The observability options implied by this process's switches — what
/// bins feed to [`hal_kernel::MachineConfigBuilder::observe`]: flight
/// recording when the checker or span pass needs it, metrics under
/// `--metrics`.
pub fn observe_opts() -> ObserveOpts {
    ObserveOpts::none()
        .trace(trace_wanted())
        .metrics(metrics_enabled())
        .span_sample_ppm(span_sample_ppm())
}

/// Head-sampling rate for lifecycle spans, in parts per million:
/// `--span-sample=R` (a fraction in `[0, 1]`) on the command line, else
/// full sampling. Folded into [`observe_opts`]; only observable when
/// tracing is on (see [`trace_wanted`]).
pub fn span_sample_ppm() -> u32 {
    let Some(v) = flag_value("--span-sample") else {
        return 1_000_000;
    };
    let r: f64 = v
        .parse()
        .unwrap_or_else(|_| panic!("bad span sample rate {v:?}: expected a fraction in [0, 1]"));
    assert!(
        (0.0..=1.0).contains(&r),
        "span sample rate {r} outside [0, 1]"
    );
    (r * 1e6).round() as u32
}

/// True when the bin should shrink its problem sizes to finish in
/// seconds (`--quick`).
pub fn quick() -> bool {
    flag("--quick")
}

/// True when the protocol checker should run over every recorded run
/// (`--check`). Folded into [`observe_opts`] (via [`trace_wanted`]) so
/// the trace pass has events to look at; the audit pass works either
/// way.
pub fn check_enabled() -> bool {
    flag("--check")
}

/// True when the static protocol lint should run over this process's
/// declared protocols/handlers/roots/gates (`--lint`). Purely static —
/// needs no trace and no run.
pub fn lint_enabled() -> bool {
    flag("--lint")
}

/// True when lifecycle spans + critical-path analysis should run over
/// every recorded run (`--spans`).
pub fn spans_enabled() -> bool {
    flag("--spans")
}

/// True when the metrics registry should be enabled (`--metrics`).
/// Folded into [`observe_opts`].
pub fn metrics_enabled() -> bool {
    flag("--metrics")
}

/// True when the flight recorder is needed by any enabled pass — folded
/// into [`observe_opts`].
pub fn trace_wanted() -> bool {
    check_enabled() || spans_enabled()
}

fn with_check(f: impl FnOnce(&mut CheckReport)) {
    let mut guard = CHECK.lock().expect("bench check lock");
    f(guard.get_or_insert_with(|| CheckReport::new("bench")));
}

fn with_lint(f: impl FnOnce(&mut LintSpec)) {
    let mut guard = LINT.lock().expect("bench lint lock");
    f(guard.get_or_insert_with(LintSpec::new));
}

/// Declare one message protocol (the `DECL` const generated by hal's
/// `messages!` macro). Under [`check_enabled`] the tag table goes to
/// the checker's static tag pass; under [`lint_enabled`] the whole
/// declaration (tags + send annotations) enters the lint spec. No-op
/// otherwise.
pub fn note_protocol(decl: &ProtocolDecl) {
    if check_enabled() {
        with_check(|c| hal_check::check_tags(decl.name, decl.tags, c));
    }
    if lint_enabled() {
        with_lint(|s| s.protocols.push(*decl));
    }
}

/// Declare that behavior `behavior` handles protocol `protocol` (its
/// dispatch decodes it). No-op unless [`lint_enabled`].
pub fn note_handler(behavior: &str, protocol: &str) {
    if lint_enabled() {
        with_lint(|s| s.handlers.push((behavior.to_string(), protocol.to_string())));
    }
}

/// Declare a root protocol — one the driver injects from outside any
/// handler (bootstrap sends). No-op unless [`lint_enabled`].
pub fn note_root(protocol: &str) {
    if lint_enabled() {
        with_lint(|s| s.roots.push(protocol.to_string()));
    }
}

/// Declare a wait-for gate: handling selector `from` (as
/// `"Proto::Variant"`) blocks until selector `to` arrives. No-op unless
/// [`lint_enabled`].
pub fn note_gate(from: &str, to: &str) {
    if lint_enabled() {
        with_lint(|s| s.gates.push((from.to_string(), to.to_string())));
    }
}

/// Record one simulation run under `label`.
pub fn note_run(label: impl Into<String>, report: &SimReport) {
    note_run_with(label, report, &[]);
}

/// Like [`note_run`] but with extra named counters attached to the JSON
/// record — chaos bins use this for delivered/retransmit/duplicate
/// counts.
pub fn note_run_with(
    label: impl Into<String>,
    report: &SimReport,
    extras: &[(&str, u64)],
) {
    let label = label.into();
    if check_enabled() {
        with_check(|c| hal_check::check_sim_report(&label, report, c));
    }
    if let Some(trace) = &report.trace {
        if trace.dropped > 0 {
            eprintln!(
                "WARNING {label}: trace ring dropped {} event(s) — spans and histograms are partial",
                trace.dropped
            );
        }
    }
    if let Some(m) = &report.metrics {
        let dropped = m.counter("metrics.dropped_samples");
        if dropped > 0 {
            eprintln!(
                "WARNING {label}: metrics sampler dropped {dropped} gauge sample(s) — timeseries are partial"
            );
        }
    }
    if spans_enabled() {
        if let Some(trace) = &report.trace {
            let spans = SpanReport::build(trace);
            let cp = critical_paths(&spans, 5);
            let makespan_ns = report.makespan.as_nanos();
            if let Some(c) = cp.critical() {
                assert!(
                    c.total_ns <= makespan_ns,
                    "{label}: critical path ({} ns) exceeds the makespan ({makespan_ns} ns) — \
                     span reconstruction is broken",
                    c.total_ns
                );
            }
            eprintln!(
                "SPANLINE {label} msgs={} critical_ns={} serial_fraction={:.3} chains={}",
                spans.msgs.len(),
                cp.critical().map_or(0, |c| c.total_ns),
                cp.ratio(makespan_ns),
                cp.chains.len()
            );
            let obj = format!(
                "{{\"label\": \"{}\", \"spans\": {}, \"critical_path\": {}}}",
                json_escape(&label),
                spans.to_json().trim_end(),
                cp.to_json(makespan_ns).trim_end()
            );
            SPANS.lock().expect("bench spans lock").push((label.clone(), obj));
        }
    }
    if metrics_enabled() {
        if let Some(m) = &report.metrics {
            let obj = format!(
                "{{\"label\": \"{}\", \"metrics\": {}}}",
                json_escape(&label),
                m.to_json(report.makespan.as_nanos()).trim_end()
            );
            METRICS.lock().expect("bench metrics lock").push((label.clone(), obj));
        }
    }
    let run = Run {
        label,
        virtual_ns: report.makespan.as_nanos(),
        events: report.events,
        extras: extras.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
    };
    eprintln!(
        "BENCHLINE {label} virtual_ms={vms:.3} events={ev}",
        label = run.label,
        vms = run.virtual_ns as f64 / 1e6,
        ev = run.events,
    );
    RUNS.lock().expect("bench out lock").push(run);
}

/// The `BENCH_<bin>.json` document for `runs`: a pure function of its
/// arguments, so the file is byte-identical across reruns on sim.
fn bench_json(bin: &str, backend: BackendKind, runs: &[Run]) -> String {
    let mut body = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        let extras: String = r
            .extras
            .iter()
            .map(|(k, v)| format!(", \"{}\": {}", json_escape(k), v))
            .collect();
        body.push_str(&format!(
            "    {{\"label\": \"{}\", \"virtual_ns\": {}, \"events\": {}{}}}",
            json_escape(&r.label),
            r.virtual_ns,
            r.events,
            extras,
        ));
    }
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"backend\": \"{}\",\n  \"runs\": [\n{}\n  ],\n  \"total_events\": {}\n}}\n",
        json_escape(bin),
        backend,
        body,
        runs.iter().map(|r| r.events).sum::<u64>(),
    )
}

/// Write `json` to `path` under `results/`, reporting a failure on
/// stderr. Returns whether the file was written.
fn write_results_file(path: &str, json: &str) -> bool {
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, json)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("bench out: writing {path} failed: {e}");
            false
        }
    }
}

/// Write `results/BENCH_<bin>.json` from every run recorded so far and
/// print a total line to stderr. Call once, at the end of `main`.
pub fn finish(bin: &str) {
    let runs = std::mem::take(&mut *RUNS.lock().expect("bench out lock"));
    let path = format!("results/BENCH_{bin}.json");
    if !write_results_file(&path, &bench_json(bin, backend(), &runs)) {
        return;
    }
    eprintln!(
        "BENCHTOTAL {bin} runs={n} events={ev} json={path}",
        n = runs.len(),
        ev = runs.iter().map(|r| r.events).sum::<u64>(),
    );

    if spans_enabled() {
        let runs = std::mem::take(&mut *SPANS.lock().expect("bench spans lock"));
        write_artifact(&format!("results/SPANS_{bin}.json"), "SPANSFILE", bin, &runs);
    }
    if metrics_enabled() {
        let runs = std::mem::take(&mut *METRICS.lock().expect("bench metrics lock"));
        write_artifact(&format!("results/METRICS_{bin}.json"), "METRICSFILE", bin, &runs);
    }

    if check_enabled() {
        let mut report = CHECK
            .lock()
            .expect("bench check lock")
            .take()
            .unwrap_or_else(|| CheckReport::new(bin));
        report.subject = bin.to_string();
        let check_path = format!("results/CHECK_{bin}.json");
        if let Err(e) = report.write_json(&check_path) {
            eprintln!("bench out: writing {check_path} failed: {e}");
        }
        eprint!("{}", report.summary());
        eprintln!("CHECKFILE {check_path}");
        if !report.is_clean() {
            eprintln!("CHECKFAIL {bin}: {} violation(s)", report.violations.len());
            std::process::exit(1);
        }
    }

    if lint_enabled() {
        let spec = LINT
            .lock()
            .expect("bench lint lock")
            .take()
            .unwrap_or_default();
        let report = hal_check::run_lint(bin, &spec);
        let lint_path = format!("results/LINT_{bin}.json");
        if let Err(e) = report.write_json(&lint_path) {
            eprintln!("bench out: writing {lint_path} failed: {e}");
        }
        eprint!("{}", report.summary());
        eprintln!("LINTFILE {lint_path}");
        if !report.is_clean() {
            eprintln!("LINTFAIL {bin}: {} finding(s)", report.findings.len());
            std::process::exit(1);
        }
    }
}

/// Write one per-run JSON artifact (`SPANS_*` / `METRICS_*`) and print
/// its stderr marker line. Carries the `"backend"` tag like `BENCH_*`:
/// a live-tagged document holds host-time facts and is not reproducible.
fn write_artifact(path: &str, marker: &str, bin: &str, runs: &[(String, String)]) {
    let mut body = String::new();
    for (i, (_, obj)) in runs.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str("    ");
        body.push_str(obj);
    }
    let json = format!(
        "{{\n  \"bench\": \"{}\",\n  \"backend\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        json_escape(bin),
        backend(),
        body
    );
    if write_results_file(path, &json) {
        eprintln!("{marker} {path}");
    }
}

/// Run `f` and record its report under `label` — the common wrapper
/// for `run_sim`-style calls returning `(value, SimReport)`.
pub fn recorded<T>(label: impl Into<String>, f: impl FnOnce() -> (T, SimReport)) -> (T, SimReport) {
    let (v, report) = f();
    note_run(label, &report);
    (v, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_document_is_a_pure_function_of_the_recorded_runs() {
        let runs = || {
            vec![
                Run {
                    label: "fib n=24 p=4 \"lb\"".to_string(),
                    virtual_ns: 36_108_196,
                    events: 3152,
                    extras: vec![],
                },
                Run {
                    label: "chaos drop=5%".to_string(),
                    virtual_ns: 9_000,
                    events: 80,
                    extras: vec![("delivered".to_string(), 40), ("retransmits".to_string(), 3)],
                },
            ]
        };
        let a = bench_json("t", BackendKind::Sim, &runs());
        let b = bench_json("t", BackendKind::Sim, &runs());
        assert_eq!(a, b, "same runs, same bytes");
        assert!(!a.contains("wall") && !a.contains("per_sec"), "{a}");
        assert!(
            a.contains(
                "{\"label\": \"chaos drop=5%\", \"virtual_ns\": 9000, \"events\": 80, \
                 \"delivered\": 40, \"retransmits\": 3}"
            ),
            "{a}"
        );
        assert!(a.contains("\"total_events\": 3232"), "{a}");
        hal_check::Json::parse(&a).expect("the document is JSON");
    }
}
