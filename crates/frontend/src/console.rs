//! The console: executes parsed commands against simulated partitions.

use crate::command::{parse, Command, ProgramSpec};
use hal::prelude::*;
use hal_workloads::{cholesky, fib, matmul, uts};
use std::fmt::Write as _;

/// Front-end state: partition configuration plus the last run's
/// machine (kept so `stats` and `gc` can inspect it).
pub struct Console {
    nodes: usize,
    seed: u64,
    backend: BackendKind,
    lb: bool,
    trace: bool,
    metrics: bool,
    last: Option<SimReport>,
    machine: Option<Machine>,
    done: bool,
}

impl Default for Console {
    fn default() -> Self {
        Console {
            nodes: 8,
            seed: 0x5EED,
            backend: BackendKind::Sim,
            lb: false,
            trace: false,
            metrics: false,
            last: None,
            machine: None,
            done: false,
        }
    }
}

/// The loadable-program catalog ("executables" in paper terms).
const CATALOG: &[(&str, &str)] = &[
    ("fib", "fib n=<N> grain=<G>            Table 4 Fibonacci"),
    ("uts", "uts seed=<S>                   unbalanced tree search"),
    (
        "matmul",
        "matmul grid=<G> block=<B>      Table 5 systolic multiply",
    ),
    (
        "cholesky",
        "cholesky n=<N> variant=<BP|CP|Seq|Bcast>   Table 1 factorization",
    ),
];

impl Console {
    /// Fresh console with default partition settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once `quit` has been executed.
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Execute one input line; returns the text to show the user.
    pub fn execute(&mut self, line: &str) -> String {
        match parse(line) {
            Err(e) => format!("error: {e}"),
            Ok(cmd) => self.run_command(cmd),
        }
    }

    /// Execute a whole script (one command per line), collecting output.
    pub fn execute_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            if self.done {
                break;
            }
            let reply = self.execute(line);
            if !reply.is_empty() {
                let _ = writeln!(out, "{reply}");
            }
        }
        out
    }

    fn run_command(&mut self, cmd: Command) -> String {
        match cmd {
            Command::Nothing => String::new(),
            Command::Help => HELP.trim().to_string(),
            Command::Quit => {
                self.done = true;
                "bye".into()
            }
            Command::Nodes(n) => {
                self.nodes = n;
                format!("partition size = {n}")
            }
            Command::Seed(s) => {
                self.seed = s;
                format!("seed = {s}")
            }
            Command::Backend(kind) => {
                self.backend = kind;
                format!("backend = {kind}")
            }
            Command::LoadBalancing(on) => {
                self.lb = on;
                format!("load balancing = {}", if on { "on" } else { "off" })
            }
            Command::Programs => {
                let mut out = String::from("loadable programs:");
                for (_, usage) in CATALOG {
                    let _ = write!(out, "\n  {usage}");
                }
                out
            }
            Command::Stats => match &self.last {
                None => "no run yet".into(),
                Some(r) => {
                    let mut out = format!(
                        "virtual time {} | events {} | actors {}",
                        r.makespan, r.events, r.actors_created
                    );
                    for (k, v) in r.stats.counters() {
                        let _ = write!(out, "\n  {k} = {v}");
                    }
                    out
                }
            },
            Command::Trace(on) => {
                self.trace = on;
                format!("flight recorder = {}", if on { "on" } else { "off" })
            }
            Command::TraceDump(path) => {
                let Some(trace) = self.last.as_ref().and_then(|r| r.trace.as_ref()) else {
                    return "no trace recorded (enable with `trace on`, then run)".into();
                };
                match path {
                    None => trace.summary().trim_end().to_string(),
                    Some(p) => match trace.write_chrome(&p) {
                        Ok(()) => format!(
                            "chrome trace ({} events) written to {p}",
                            trace.events.len()
                        ),
                        Err(e) => format!("error: trace export to {p} failed: {e}"),
                    },
                }
            }
            Command::Metrics(on) => {
                self.metrics = on;
                format!("metrics registry = {}", if on { "on" } else { "off" })
            }
            Command::Top => {
                let (Some(r), Some(m)) = (&self.last, &self.machine) else {
                    return "no run yet (enable with `metrics on`, then run)".into();
                };
                // Live kernels carry metrics cells whether or not the
                // timeseries was on; simulated ones only with it.
                let hub = m.telemetry();
                if hub.cells().is_empty() {
                    return "no metrics recorded (enable with `metrics on`, then run)".into();
                }
                let makespan_ns = r.makespan.as_nanos();
                let mut out = hub.top(makespan_ns).trim_end().to_string();
                for (counter, partial) in [
                    ("trace.dropped_events", "histograms/spans"),
                    ("metrics.dropped_samples", "timeseries"),
                ] {
                    let lost = r.metrics.as_ref().map_or(0, |m| m.counter(counter));
                    if lost > 0 {
                        let _ = write!(out, "\n{counter} = {lost} — {partial} are partial");
                    }
                }
                if let Some(trace) = &r.trace {
                    let spans = hal_kernel::span::SpanReport::build(trace);
                    let cp = hal_kernel::critical_path::critical_paths(&spans, 3);
                    let _ = write!(out, "\n{}", cp.summary(makespan_ns).trim_end());
                } else {
                    let _ = write!(
                        out,
                        "\n(no trace recorded: `trace on` before running adds \
                         the critical-path breakdown)"
                    );
                }
                out
            }
            Command::Check => match &self.last {
                None => "no run to check (run something first)".into(),
                Some(r) => {
                    let mut report = hal_check::CheckReport::new("console");
                    hal_check::check_sim_report("last", r, &mut report);
                    let mut out = report.summary().trim_end().to_string();
                    if r.trace.is_none() {
                        let _ = write!(
                            out,
                            "\n(no trace recorded: audit checks only — \
                             `trace on` before running for the full trace pass)"
                        );
                    }
                    out
                }
            },
            Command::Gc => match &mut self.machine {
                None | Some(Machine::Live(_)) => {
                    "no partition to collect (run something first)".into()
                }
                Some(Machine::Sim(m)) => {
                    let before: usize =
                        (0..m.nodes()).map(|n| m.kernel(n as u16).actor_count()).sum();
                    match m.collect_garbage() {
                        Ok(r) => format!(
                            "gc: {} actors examined, {} freed in {} round(s), {} live",
                            before, r.freed, r.rounds, r.live
                        ),
                        Err(e) => format!("error: {e}"),
                    }
                }
            },
            Command::Run(specs) => self.run_programs(specs),
        }
    }

    fn run_programs(&mut self, specs: Vec<ProgramSpec>) -> String {
        // Build one "loaded image" with every catalog behavior — the
        // kernels do not discriminate between programs.
        let mut program = Program::new();
        let fib_id = fib::register(&mut program);
        let uts_id = uts::register(&mut program);
        let mm_id = matmul::register(&mut program);
        let ch_id = cholesky::register(&mut program);

        // Validate all specs before constructing the machine.
        enum Boot {
            Fib(fib::FibConfig),
            Uts(uts::UtsConfig),
            Mm(matmul::MatmulConfig),
            Ch(cholesky::CholeskyConfig),
        }
        let mut boots = Vec::new();
        for spec in &specs {
            let boot = match spec.name.as_str() {
                "fib" => {
                    let n = match spec.int("n", 20) {
                        Ok(v) if (0..=40).contains(&v) => v as u64,
                        _ => return "error: fib needs n in 0..=40".into(),
                    };
                    let grain = spec.int("grain", 8).unwrap_or(8).clamp(0, 40) as u64;
                    Boot::Fib(fib::FibConfig {
                        n,
                        grain,
                        placement: fib::Placement::Local,
                    })
                }
                "uts" => {
                    let seed = match spec.int("seed", 1) {
                        Ok(v) => v as u64,
                        Err(e) => return format!("error: {e}"),
                    };
                    Boot::Uts(uts::UtsConfig::standard(seed))
                }
                "matmul" => {
                    let grid = spec.int("grid", 4).unwrap_or(4).clamp(1, 16) as usize;
                    let block = spec.int("block", 16).unwrap_or(16).clamp(1, 256) as usize;
                    Boot::Mm(matmul::MatmulConfig {
                        grid,
                        block,
                        per_flop_ns: 135,
                        seed_a: self.seed,
                        seed_b: self.seed ^ 0xABCD,
                    })
                }
                "cholesky" => {
                    let n = spec.int("n", 32).unwrap_or(32).clamp(2, 512) as usize;
                    let variant = match spec.str("variant", "BP").as_str() {
                        "BP" => cholesky::Variant::BP,
                        "CP" => cholesky::Variant::CP,
                        "Seq" => cholesky::Variant::Seq,
                        "Bcast" => cholesky::Variant::Bcast,
                        other => return format!("error: unknown variant {other}"),
                    };
                    Boot::Ch(cholesky::CholeskyConfig {
                        n,
                        variant,
                        per_flop_ns: 140,
                        seed: self.seed,
                    })
                }
                other => return format!("error: unknown program `{other}` (try `programs`)"),
            };
            boots.push(boot);
        }

        let machine = match MachineConfig::builder(self.nodes)
            .seed(self.seed)
            .load_balancing(self.lb)
            .backend(self.backend)
            .observe(ObserveOpts::none().trace(self.trace).metrics(self.metrics))
            .build()
        {
            Ok(cfg) => cfg,
            Err(e) => return format!("error: {e}"),
        };
        // The live runtime has no global quiescence detection — it stops
        // when a program says stop — so the console runs one program at a
        // time on it, with a stopping bootstrap. Concurrent programs on
        // the simulator must not stop the machine: it drains naturally
        // once all of them are done.
        let stop = self.backend == BackendKind::Live;
        if stop && boots.len() > 1 {
            return "error: the live backend runs one program per `run` \
                    (the simulator multiplexes; try `backend sim`)"
                .into();
        }
        let mut m = Machine::from_config(machine, program.build());
        m.with_ctx(0, |ctx| {
            for boot in &boots {
                match boot {
                    Boot::Fib(cfg) => fib::bootstrap_opts(ctx, fib_id, *cfg, stop),
                    Boot::Uts(cfg) => uts::bootstrap_opts(ctx, uts_id, *cfg, stop),
                    Boot::Mm(cfg) => matmul::bootstrap_opts(ctx, mm_id, *cfg, false, stop),
                    Boot::Ch(cfg) => cholesky::bootstrap_opts(ctx, ch_id, *cfg, false, stop),
                }
            }
        });
        self.machine = None;
        let report = match m.run() {
            Ok(r) => r,
            Err(e) => return format!("error: {e}"),
        };
        self.machine = Some(m);

        // "The front-end processes all I/O requests from the kernels":
        // print every reported value.
        let mut out = format!(
            "ran {} program(s) on {} node(s): virtual time {}",
            specs.len(),
            self.nodes,
            report.makespan
        );
        for (k, v) in report
            .reports
            .iter()
            .filter(|(k, _)| !k.ends_with("_at_ns"))
        {
            let rendered = match v {
                Value::Int(i) => i.to_string(),
                Value::Float(x) => format!("{x:.4}"),
                other => format!("{other:?}"),
            };
            let _ = write!(out, "\n  {k} = {rendered}");
        }
        self.last = Some(report);
        out
    }
}

const HELP: &str = r"
commands:
  help                      this text
  nodes <P>                 set partition size (default 8)
  seed <S>                  set machine seed
  backend sim|live          execution backend (default sim)
  lb on|off                 dynamic load balancing (default off)
  programs                  list loadable programs
  run <prog> [k=v ...]      run a program on a fresh partition
  run <a> ... & <b> ...     run several programs concurrently
  stats                     counters from the last run
  trace on|off              kernel flight recorder for subsequent runs
  trace dump [path]         last run's trace: summary, or Chrome JSON to path
  metrics on|off            metrics registry for subsequent runs
  top                       per-node throughput, utilization, gauges and
                            link counters from the last run (live runs
                            have them with or without `metrics on`)
  check                     protocol invariant checker on the last run
  gc                        collect garbage on the last partition
  quit                      exit
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_fib_reports_result() {
        let mut c = Console::new();
        let out = c.execute("run fib n=12 grain=4");
        assert!(out.contains("fib = 144"), "{out}");
    }

    #[test]
    fn settings_change_behavior() {
        let mut c = Console::new();
        assert!(c.execute("nodes 4").contains('4'));
        assert!(c.execute("lb on").contains("on"));
        let out = c.execute("run fib n=14 grain=4");
        assert!(out.contains("fib = 377"), "{out}");
        let stats = c.execute("stats");
        assert!(stats.contains("steal.polls") || stats.contains("steal"), "{stats}");
    }

    #[test]
    fn concurrent_programs_share_the_partition() {
        let mut c = Console::new();
        c.execute("nodes 4");
        let out = c.execute("run fib n=12 grain=4 & uts seed=3");
        assert!(out.contains("fib = 144"), "{out}");
        assert!(out.contains("uts_size = "), "{out}");
    }

    #[test]
    fn live_backend_runs_one_program() {
        let mut c = Console::new();
        c.execute("nodes 2");
        assert!(c.execute("backend live").contains("live"));
        let out = c.execute("run fib n=12 grain=4");
        assert!(out.contains("fib = 144"), "{out}");
        // Concurrent programs need the simulator's quiescence drain.
        let out = c.execute("run fib n=10 grain=3 & uts seed=3");
        assert!(out.starts_with("error:"), "{out}");
        // gc needs the simulated machine.
        assert!(c.execute("gc").contains("no partition"));
        assert!(c.execute("backend sim").contains("sim"));
        let out = c.execute("run fib n=10 grain=3 & uts seed=3");
        assert!(out.contains("fib = 55"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut c = Console::new();
        assert!(c.execute("run warp").starts_with("error:"));
        assert!(c.execute("frobnicate").starts_with("error:"));
        assert!(c.execute("run fib n=999").starts_with("error:"));
        // Still usable afterwards.
        assert!(c.execute("run fib n=10 grain=3").contains("fib = 55"));
    }

    #[test]
    fn script_execution_stops_at_quit() {
        let mut c = Console::new();
        let out = c.execute_script("nodes 2\nrun fib n=10 grain=2\nquit\nrun fib n=12 grain=2\n");
        assert!(out.contains("fib = 55"));
        assert!(out.contains("bye"));
        assert!(!out.contains("fib = 144"), "commands after quit must not run");
        assert!(c.finished());
    }

    #[test]
    fn gc_from_the_console() {
        let mut c = Console::new();
        assert!(c.execute("gc").contains("no partition"));
        c.execute("nodes 2");
        c.execute("run fib n=10 grain=3");
        let out = c.execute("gc");
        assert!(out.contains("freed"), "{out}");
        // fib actors are all garbage after the run (nothing pinned).
        assert!(out.contains("0 live"), "{out}");
    }

    #[test]
    fn trace_dump_requires_a_recorded_run() {
        let mut c = Console::new();
        assert!(c.execute("trace dump").contains("no trace recorded"));
        // A run without `trace on` records nothing.
        c.execute("nodes 2");
        c.execute("run fib n=10 grain=3");
        assert!(c.execute("trace dump").contains("no trace recorded"));
    }

    #[test]
    fn trace_records_and_dumps() {
        let mut c = Console::new();
        c.execute("nodes 2");
        assert!(c.execute("trace on").contains("on"));
        c.execute("run fib n=10 grain=3");
        let summary = c.execute("trace dump");
        assert!(summary.contains("events recorded"), "{summary}");
        assert!(summary.contains("delivery.local"), "{summary}");
        let dir = std::env::temp_dir().join("hal_console_trace_test");
        let path = dir.join("dump.json");
        let out = c.execute(&format!("trace dump {}", path.display()));
        assert!(out.contains("written to"), "{out}");
        let body = std::fs::read_to_string(&path).expect("dump file exists");
        let doc = hal_des::json::Json::parse(&body).expect("the dump is JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
        assert!(!events.is_empty(), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_requires_a_metrics_run() {
        let mut c = Console::new();
        assert!(c.execute("top").contains("no run yet"));
        c.execute("nodes 2");
        c.execute("run fib n=10 grain=3");
        assert!(c.execute("top").contains("no metrics recorded"));
    }

    #[test]
    fn metrics_records_and_top_summarizes() {
        let mut c = Console::new();
        c.execute("nodes 2");
        assert!(c.execute("metrics on").contains("on"));
        c.execute("run fib n=10 grain=3");
        let top = c.execute("top");
        assert!(top.contains("util%"), "{top}");
        // Metrics alone give gauges but no span DAG.
        assert!(top.contains("no trace recorded"), "{top}");
        // With the flight recorder on too, `top` adds the critical path.
        c.execute("trace on");
        c.execute("run fib n=10 grain=3");
        let top = c.execute("top");
        assert!(top.contains("critical path"), "{top}");
        assert!(!top.contains("no trace recorded"), "{top}");
    }

    #[test]
    fn live_run_top_shows_host_time_telemetry() {
        let mut c = Console::new();
        c.execute("nodes 2");
        c.execute("backend live");
        c.execute("run fib n=10 grain=3");
        let top = c.execute("top");
        // No `metrics on` needed: live kernels always carry a registry.
        assert!(top.contains("thr/s"), "{top}");
        assert!(top.contains("bp_hits"), "{top}");
        assert!(top.contains("msg/s over"), "{top}");
        // Back on sim, the registry exists only on request.
        c.execute("backend sim");
        c.execute("run fib n=10 grain=3");
        assert!(c.execute("top").contains("no metrics recorded"));
    }

    #[test]
    fn check_command_reports_clean_runs() {
        let mut c = Console::new();
        assert!(c.execute("check").contains("no run to check"));
        c.execute("nodes 2");
        c.execute("run fib n=10 grain=3");
        let out = c.execute("check");
        assert!(out.contains("CLEAN"), "{out}");
        assert!(out.contains("audit checks only"), "{out}");
        // With the flight recorder on, the trace pass joins in.
        c.execute("trace on");
        c.execute("run fib n=10 grain=3");
        let out = c.execute("check");
        assert!(out.contains("CLEAN"), "{out}");
        assert!(!out.contains("audit checks only"), "{out}");
    }

    #[test]
    fn cholesky_and_matmul_from_the_console() {
        let mut c = Console::new();
        c.execute("nodes 4");
        let out = c.execute("run cholesky n=12 variant=CP & matmul grid=2 block=4");
        assert!(out.contains("chol_fro = "), "{out}");
        assert!(out.contains("matmul_fro = "), "{out}");
    }
}
