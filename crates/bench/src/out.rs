//! One harness run: its switches, its table, its recorded runs and the
//! files it writes.
//!
//! A [`Session`] is handed to a harness's `run`. The harness prints its
//! table into it ([`Session::say`], [`Session::row`], …), records every
//! simulation it makes ([`Session::note_run`]) and declares its message
//! protocols; [`Session::finish`] then writes `BENCH_<name>.json` —
//! label, virtual time, event count and the harness's extra counters
//! per run — plus whatever the switches ask for, and returns a
//! [`Verdict`] carrying the table. Nothing here reads the host clock,
//! the environment or the command line: on the sim backend every file
//! is a pure function of the tree and the [`Flags`], which is what lets
//! `ci.sh` hold the committed `results/` to a fresh sweep with `cmp`.
//! Host time is measured by the standalone `benchmark/` package only.
//!
//! The switches (parsed once, by `repro_all`'s `main`):
//!
//! * `--quick` — shrink problem sizes so the harness finishes in seconds.
//! * `--backend=sim|live` — which [`hal_kernel::BackendKind`] the
//!   harness's machines run on. The deterministic simulator is the
//!   default; `live` runs one real kernel per host thread, so
//!   virtual-time facts become host-time facts and the artifacts carry
//!   a `"backend": "live"` tag saying they are not reproducible. Only
//!   rows of the table with `live: true` accept it.
//! * `--check` — run the `hal-check` protocol invariant checker over
//!   every recorded run (harnesses build their machines from
//!   [`Session::machine`], which turns the flight recorder on), then its
//!   static lint over the program's compile-time declarations (the
//!   `messages!` protocols fed with their handlers via
//!   [`Session::note_protocol`], wait-for gates), and write the one
//!   `CHECK_<name>.json`; a violation of either kind makes the verdict
//!   dirty.
//! * `--spans` — reconstruct message-lifecycle spans
//!   ([`hal_kernel::span`]) and the critical path
//!   ([`hal_kernel::critical_path`]) for every recorded run, asserting
//!   it never exceeds the makespan, and write `SPANS_<name>.json`.
//!   Implies tracing.
//! * `--metrics` — enable the metrics registry ([`hal_kernel::metrics`])
//!   and write `METRICS_<name>.json` — one document shape on both
//!   backends.
//! * `--span-sample=R` — head-sample spans at rate `R` in `[0, 1]`. The
//!   sample decision hashes the deterministic trace id, so sampled
//!   `SPANS_` artifacts stay byte-identical across reruns, and rate 1
//!   reproduces the unsampled surface exactly.
//!
//! Progress lines (`BENCHLINE`, `SPANLINE`, `WROTE <path>`, the checker's
//! summary) go to **stderr**; the table is the session's text.

use hal_check::{CheckReport, LintSpec};
use hal_des::json::{Style::Block, Style::Inline, Writer};
use hal_kernel::critical_path::critical_paths;
use hal_kernel::span::SpanReport;
use hal_kernel::{
    BackendKind, MachineConfig, MachineConfigBuilder, ObserveOpts, ProtocolDecl, SimReport,
    TraceReport,
};
use std::fmt::Display;
use std::path::PathBuf;

/// The six switches, as parsed from the command line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// `--quick`.
    pub quick: bool,
    /// `--backend=`; the simulator unless given.
    pub backend: BackendKind,
    /// `--check`.
    pub check: bool,
    /// `--spans`.
    pub spans: bool,
    /// `--metrics`.
    pub metrics: bool,
    /// `--span-sample=R` in parts per million; full sampling unless
    /// given. Only observable when tracing is on.
    pub span_sample_ppm: Option<u32>,
}

/// One recorded simulation run.
struct Run {
    label: String,
    virtual_ns: u64,
    events: u64,
    /// Extra per-run counters (e.g. chaos delivery stats), emitted
    /// verbatim into the JSON record.
    extras: Vec<(String, u64)>,
}

/// What one harness run left behind.
#[derive(Debug)]
pub struct Verdict {
    /// The harness.
    pub name: &'static str,
    /// Its table (the sweep writes it to `<name>.txt`).
    pub text: String,
    /// The protocol checker's verdict, lint included, under `--check`.
    pub check_clean: Option<bool>,
    /// Names of the files written into the output directory, in write
    /// order.
    pub files: Vec<String>,
    /// False when any file could not be written.
    pub io_ok: bool,
}

impl Verdict {
    /// True when every file was written and the checker, if enabled,
    /// found nothing.
    pub fn ok(&self) -> bool {
        self.io_ok && self.check_clean != Some(false)
    }
}

/// Everything one harness run accumulates.
pub struct Session {
    name: &'static str,
    flags: Flags,
    dir: PathBuf,
    /// Echo the table to stdout as it is appended (a named run; a
    /// harness assert then keeps the rows printed before it).
    echo: bool,
    text: String,
    widths: Vec<usize>,
    runs: Vec<Run>,
    check: CheckReport,
    lint: LintSpec,
    /// `SPANS_<name>.json` and `METRICS_<name>.json` under their
    /// switches, open at their `runs` arrays: each recorded run writes its
    /// object into them.
    spans: Option<Writer>,
    metrics: Option<Writer>,
    files: Vec<String>,
    io_ok: bool,
}

impl Session {
    /// A session for harness `name` writing into `dir` (`results` from
    /// the binary, a scratch directory from tests).
    pub fn new(name: &'static str, flags: Flags, dir: impl Into<PathBuf>, echo: bool) -> Self {
        Session {
            name,
            flags,
            dir: dir.into(),
            echo,
            text: String::new(),
            widths: Vec::new(),
            runs: Vec::new(),
            check: CheckReport::new(name),
            lint: LintSpec::new(),
            spans: flags.spans.then(|| runs_doc(name, flags.backend)),
            metrics: flags.metrics.then(|| runs_doc(name, flags.backend)),
            files: Vec::new(),
            io_ok: true,
        }
    }

    /// True when the harness should shrink its problem sizes to finish
    /// in seconds.
    pub fn quick(&self) -> bool {
        self.flags.quick
    }

    /// A machine configuration for `nodes` nodes with what the switches
    /// imply already applied: the backend, flight recording when the
    /// checker or span pass needs it, metrics under `--metrics`, the
    /// span sampling rate. Harnesses add their seed and options and
    /// build it.
    pub fn machine(&self, nodes: usize) -> MachineConfigBuilder {
        let observe = ObserveOpts::none()
            .trace(self.flags.check || self.flags.spans)
            .metrics(self.flags.metrics)
            .span_sample_ppm(self.flags.span_sample_ppm.unwrap_or(1_000_000));
        MachineConfig::builder(nodes).backend(self.flags.backend).observe(observe)
    }

    /// How many runs have been recorded so far.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Append one line to the table.
    pub fn say(&mut self, line: impl Display) {
        let line = line.to_string();
        if self.echo {
            println!("{line}");
        }
        self.text.push_str(&line);
        self.text.push('\n');
    }

    /// Append a table row, right-aligned to the widths of the last
    /// [`Session::header`].
    pub fn row(&mut self, cells: &[&dyn Display]) {
        self.line(cells.iter());
    }

    /// Start a table: a header row plus underline, whose column widths
    /// the rows that follow share.
    pub fn header(&mut self, cells: &[&str], widths: &[usize]) {
        self.widths = widths.to_vec();
        self.line(cells.iter());
        self.line(widths.iter().map(|w| "-".repeat(*w)));
    }

    fn line(&mut self, cells: impl Iterator<Item = impl Display>) {
        let line: String =
            cells.zip(&self.widths).map(|(c, w)| format!("{c:>w$}  ", w = *w)).collect();
        self.say(line.trim_end());
    }

    /// Standard banner naming the artifact being reproduced.
    pub fn banner(&mut self, title: &str, note: &str) {
        self.say(format!("\n== {title} =="));
        if !note.is_empty() {
            self.say(note);
        }
        self.say("");
    }

    /// Declare one message protocol the harness's bootstrap injects (the
    /// `DECL` const generated by hal's `messages!` macro) and the
    /// behaviors whose dispatch decodes it: the declaration (tags and
    /// send annotations), its handlers and its being a root go to the
    /// lint, which runs under `--check`.
    pub fn note_protocol(&mut self, decl: &ProtocolDecl, handlers: &[&str]) {
        self.lint.protocols.push(*decl);
        self.lint.roots.push(decl.name.to_string());
        for behavior in handlers {
            self.lint.handlers.push((behavior.to_string(), decl.name.to_string()));
        }
    }

    /// Declare to the lint a wait-for gate: handling selector `from` (as
    /// `"Proto::Variant"`) blocks until selector `to` arrives.
    pub fn note_gate(&mut self, from: &str, to: &str) {
        self.lint.gates.push((from.to_string(), to.to_string()));
    }

    /// Record one simulation run under `label`.
    pub fn note_run(&mut self, label: impl Into<String>, report: &SimReport) {
        self.note_run_with(label, report, &[]);
    }

    /// Like [`Session::note_run`] but with extra named counters attached
    /// to the JSON record — chaos harnesses use this for
    /// delivered/retransmit/duplicate counts.
    pub fn note_run_with(
        &mut self,
        label: impl Into<String>,
        report: &SimReport,
        extras: &[(&str, u64)],
    ) {
        let label = label.into();
        if self.flags.check {
            hal_check::check_sim_report(&label, report, &mut self.check);
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
        let makespan_ns = report.makespan.as_nanos();
        if let (Some(doc), Some(trace)) = (&mut self.spans, &report.trace) {
            let spans = SpanReport::build(trace);
            let cp = critical_paths(&spans, 5);
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
            doc.obj(Inline, |w| {
                w.key("label").str(&label).key("spans");
                spans.write_json(w);
                w.key("critical_path");
                cp.write_json(w, makespan_ns);
            });
        }
        if let (Some(doc), Some(m)) = (&mut self.metrics, &report.metrics) {
            doc.obj(Inline, |w| {
                w.key("label").str(&label).key("metrics");
                m.write_json(w, makespan_ns);
            });
        }
        eprintln!(
            "BENCHLINE {label} virtual_ms={vms:.3} events={ev}",
            vms = makespan_ns as f64 / 1e6,
            ev = report.events,
        );
        self.runs.push(Run {
            label,
            virtual_ns: makespan_ns,
            events: report.events,
            extras: extras.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Record the report of a `run_sim`-style call returning
    /// `(value, SimReport)` under `label` and hand the pair back.
    pub fn recorded<T>(&mut self, label: impl Into<String>, run: (T, SimReport)) -> (T, SimReport) {
        self.note_run(label, &run.1);
        run
    }

    /// Write `trace` as Chrome trace JSON to `<name>_trace.json` and
    /// return the path the table should print for it.
    pub fn export_trace(&mut self, trace: &TraceReport) -> String {
        let file = format!("{}_trace.json", self.name);
        self.write(&file, &trace.chrome_json());
        format!("results/{file}")
    }

    /// Write `contents` to `file` in the output directory and say so on
    /// stderr; a failure goes there too, and into the verdict.
    fn write(&mut self, file: &str, contents: &str) {
        let path = self.dir.join(file);
        match std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&path, contents)) {
            Ok(()) => {
                eprintln!("WROTE {}", path.display());
                self.files.push(file.to_string());
            }
            Err(e) => {
                eprintln!("{}: writing {} failed: {e}", self.name, path.display());
                self.io_ok = false;
            }
        }
    }

    /// Write `BENCH_<name>.json` and the artifacts the switches ask for;
    /// return the table with what was found and written. (The sweep
    /// writes the table to `<name>.txt`; a named run has echoed it.)
    pub fn finish(mut self) -> Verdict {
        let (name, backend) = (self.name, self.flags.backend);
        self.write(&format!("BENCH_{name}.json"), &bench_json(name, backend, &self.runs));
        let check_clean = self.flags.check.then(|| {
            hal_check::run_lint(&self.lint, &mut self.check);
            eprint!("{}", self.check.summary());
            self.write(&format!("CHECK_{name}.json"), &self.check.to_json());
            self.check.is_clean()
        });
        for (family, doc) in [("SPANS", self.spans.take()), ("METRICS", self.metrics.take())] {
            if let Some(mut doc) = doc {
                doc.end().end();
                self.write(&format!("{family}_{name}.json"), &doc.finish());
            }
        }
        Verdict {
            name,
            text: self.text,
            check_clean,
            files: self.files,
            io_ok: self.io_ok,
        }
    }
}

/// The `BENCH_<name>.json` document for `runs`: a pure function of its
/// arguments, so the file is byte-identical across reruns on sim.
fn bench_json(name: &str, backend: BackendKind, runs: &[Run]) -> String {
    let mut w = runs_doc(name, backend);
    for r in runs {
        w.obj(Inline, |w| {
            w.key("label").str(&r.label);
            w.key("virtual_ns").int(r.virtual_ns).key("events").int(r.events);
            for (k, v) in &r.extras {
                w.key(k).int(*v);
            }
        });
    }
    w.end().key("total_events").int(runs.iter().map(|r| r.events).sum::<u64>());
    w.end();
    w.finish()
}

/// A `BENCH_` / `SPANS_` / `METRICS_` document opened at its `runs`
/// array; the caller writes the runs and closes it. The `"backend"` tag
/// says whether it holds virtual-time facts or host-time ones, which are
/// not reproducible.
fn runs_doc(name: &str, backend: BackendKind) -> Writer {
    let mut w = Writer::default();
    w.begin_obj(Block).key("bench").str(name).key("backend").str(&backend.to_string());
    w.key("runs").begin_arr(Block);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_des::json::Json;

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
        let doc = Json::parse(&a).expect("the document is JSON");
        let keys = |v: &Json| match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("not an object: {v:?}"),
        };
        assert_eq!(keys(&doc), ["bench", "backend", "runs", "total_events"], "no host fact");
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get("label").and_then(Json::as_str), Some("fib n=24 p=4 \"lb\""));
        let chaos = |k: &str| runs[1].get(k).and_then(Json::as_f64);
        assert_eq!(keys(&runs[1]), ["label", "virtual_ns", "events", "delivered", "retransmits"]);
        assert_eq!((chaos("virtual_ns"), chaos("retransmits")), (Some(9000.0), Some(3.0)));
        assert_eq!(doc.get("total_events").and_then(Json::as_f64), Some(3232.0));
    }
}
