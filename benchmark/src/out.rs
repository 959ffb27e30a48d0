//! Result reporting: the human-readable metric list, the traced run's
//! `TRACE_<workload>.json` / `LAYERS_<workload>.json`, and the one-line
//! JSON result that ends standard output.

use crate::ledger::Row;
use crate::spans::{self, Span};
use crate::{host, Args};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (repetitions, or open-loop requests).
    pub attempted: u64,
    /// Operations failed (wrong result; open loop: missing or doubled).
    pub failed: u64,
    /// An output was wrong.
    pub incorrect: bool,
    /// What went wrong, for the log.
    pub errors: Vec<String>,
    /// Measured repetitions behind the metrics.
    pub reps: usize,
    /// `--trace 0`: every end-to-end metric…
    pub end_to_end: Vec<Metric>,
    /// …and what else is worth a line in the log (not in the result).
    pub notes: Vec<Metric>,
    /// `--trace 1`: this workload's per-layer values…
    pub layer: BTreeMap<&'static str, f64>,
    /// …the ledger rows…
    pub ledger: Vec<Row>,
    /// …and the recorded spans.
    pub spans: Vec<Span>,
}

/// Every per-layer metric a traced run reports, with its unit: the
/// ledger rows, then the per-workload spans, counts and ratios. A name
/// that does not apply to a workload (`live.*` on a sim workload, FIR
/// counts outside `sim_chase`) reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.queue_push_pop_ns", "ns"),
    ("des.queue_push_pop_deep_ns", "ns"),
    ("am.link_admit_ns", "ns"),
    ("am.link_admit_faulty_ns", "ns"),
    ("am.simnet_inject_pop_ns", "ns"),
    ("am.rel_register_ack_ns", "ns"),
    ("am.thread_send_recv_ns", "ns"),
    ("am.thread_hop_us", "us"),
    ("am.bcast_children_ns", "ns"),
    ("kernel.resolve_local_ns", "ns"),
    ("kernel.resolve_foreign_ns", "ns"),
    ("kernel.migrate_hop_us", "us"),
    ("kernel.fir_chase_us", "us"),
    ("kernel.create_local_ns", "ns"),
    ("kernel.create_remote_ns", "ns"),
    ("kernel.join_fill_fire_ns", "ns"),
    ("kernel.send_local_ns", "ns"),
    ("kernel.send_fast_ns", "ns"),
    ("kernel.send_remote_ns", "ns"),
    ("kernel.bcast_member_ns", "ns"),
    ("kernel.machine_new_us", "us"),
    ("kernel.report_us", "us"),
    ("kernel.live_init_us", "us"),
    ("kernel.live_drain_us", "us"),
    ("kernel.live_submit_ns", "ns"),
    ("kernel.live_job_wait_us", "us"),
    ("kernel.live_local_msg_ns", "ns"),
    ("kernel.live_remote_rtt_us", "us"),
    ("kernel.live_remote_msg_ns", "ns"),
    ("hal.encode_ns", "ns"),
    ("hal.take_ns", "ns"),
    ("hal.call_then_ns", "ns"),
    ("kernel.observe_trace_x", "x"),
    ("kernel.observe_spans_x", "x"),
    ("kernel.observe_metrics_x", "x"),
    ("kernel.build_ms", "ms"),
    ("kernel.bootstrap_ms", "ms"),
    ("kernel.run_ms", "ms"),
    ("kernel.report_ms", "ms"),
    ("kernel.teardown_ms", "ms"),
    ("kernel.live_init_ms", "ms"),
    ("kernel.submit_us", "us"),
    ("kernel.drain_ms", "ms"),
    ("kernel.events", "count"),
    ("kernel.msgs_local", "count"),
    ("kernel.msgs_remote", "count"),
    ("kernel.actors_created", "count"),
    ("kernel.joins_fired", "count"),
    ("kernel.migrations", "count"),
    ("kernel.fir_sent", "count"),
    ("kernel.fir_suppressed", "count"),
    ("kernel.forwarded", "count"),
    ("kernel.steal_polls", "count"),
    ("am.packets", "count"),
    ("am.bytes", "B"),
    ("am.rel_retransmits", "count"),
    ("am.rel_acks", "count"),
    ("am.backpressure_hits", "count"),
    ("sim.virtual_makespan_us", "us"),
    ("kernel.steal_hit_ratio", "ratio"),
    ("kernel.fir_useful_ratio", "ratio"),
    ("am.rel_goodput_ratio", "ratio"),
    ("host.ns_per_event", "ns"),
    ("host.allocs_per_event", "1/event"),
    ("host.alloc_bytes_per_event", "B/event"),
    ("host.cpu_s", "s"),
    ("host.rep_ms_min", "ms"),
    ("host.rep_ms_p50", "ms"),
    ("host.pace_lap_us", "us"),
    ("live.op_ms_p50", "ms"),
    ("live.op_ms_p90", "ms"),
    ("live.op_ms_p99", "ms"),
    ("live.op_ms_p999", "ms"),
    ("live.gen_late_p99_ms", "ms"),
    ("live.gen_late_max_ms", "ms"),
    ("live.over_limit_share", "ratio"),
    ("trace_overhead_x", "x"),
    ("ledger_coverage", "ratio"),
    ("setup_raw_ms", "ms"),
    ("failed_share", "ratio"),
    ("reps", "count"),
];

/// Names of the end-to-end metrics, in reporting order.
pub const END_TO_END: [&str; 4] = ["setup_s", "work_per_s", "op_ms", "peak_rss_mb"];

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// The traced run's per-layer metric list: ledger medians, then this
/// workload's own values, 0 where a name does not apply.
fn per_layer(r: &RunResult) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = r
                .ledger
                .iter()
                .find(|row| row.name == name)
                .map(|row| row.band.median)
                .or_else(|| r.layer.get(name).copied())
                .unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect()
}

/// `LAYERS_<workload>.json`: run facts, every ledger row with its
/// band, and this workload's per-layer values.
fn layers_json(args: &Args, r: &RunResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"host_cores\": {},\n  \"rustc\": \"{}\",\n  \"load_avg_1m\": {},\n  \"reps\": {},\n  \"ledger\": {{",
        args.workload,
        args.seed,
        host::cores(),
        host::rustc_version(),
        num(host::load_avg_1m()),
        r.reps
    );
    for (i, row) in r.ledger.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\": {{\"min\": {}, \"median\": {}, \"max\": {}}}",
            if i > 0 { "," } else { "" },
            row.name,
            num(row.band.min),
            num(row.band.median),
            num(row.band.max)
        );
    }
    s.push_str("\n  },\n  \"layers\": {");
    for (i, (name, v)) in r.layer.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    \"{}\": {}",
            if i > 0 { "," } else { "" },
            name,
            num(*v)
        );
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Where the traced run leaves its files: `out/` inside the benchmark
/// package of the checkout this binary was built from.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_artifacts(args: &Args, r: &RunResult) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("TRACE_{}.json", args.workload)),
        spans::chrome_trace(&args.workload, &r.spans),
    )?;
    std::fs::write(
        dir.join(format!("LAYERS_{}.json", args.workload)),
        layers_json(args, r),
    )
}

/// Print the result and choose the exit code: nonzero when an output
/// was wrong or an artifact could not be written.
pub fn finish(args: &Args, mut r: RunResult) -> ExitCode {
    r.incorrect |= r.failed > 0;
    r.layer
        .insert("failed_share", r.failed as f64 / r.attempted.max(1) as f64);
    r.layer.insert("reps", r.reps as f64);
    let metrics = if args.trace {
        per_layer(&r)
    } else {
        assert!(
            r.end_to_end.iter().map(|m| m.name).eq(END_TO_END),
            "an untraced run reports every end-to-end metric"
        );
        r.end_to_end.clone()
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  host_cores {}  load_avg_1m {}  {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cores(),
        host::load_avg_1m(),
        host::rustc_version()
    );
    println!(
        "attempted {}  failed {}  reps {}",
        r.attempted, r.failed, r.reps
    );
    for m in &metrics {
        println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for m in &r.notes {
        println!("  ({:<30} {:>18.6} {})", m.name, m.value, m.unit);
    }
    for e in r.errors.iter().take(10) {
        eprintln!("hal-benchmark: {}: {e}", args.workload);
    }
    let mut code = ExitCode::SUCCESS;
    if args.trace {
        if let Err(e) = write_artifacts(args, &r) {
            eprintln!("hal-benchmark: cannot write {}: {e}", out_dir().display());
            code = ExitCode::FAILURE;
        }
    }
    if r.incorrect {
        code = ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        !r.incorrect,
        r.attempted.max(1),
        r.failed,
        metrics_json(&metrics)
    );
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .chain(END_TO_END)
            .chain(crate::WORKLOADS)
        {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for &(_, unit) in PER_LAYER {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for name in PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .chain(END_TO_END)
            .chain(crate::WORKLOADS)
        {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json does not list {name}"
            );
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(
            listed,
            PER_LAYER.len() + END_TO_END.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_keeps_every_digit_and_never_prints_nan() {
        let m = [
            Metric::new("a", 1.203_456_789_012_3, "ms"),
            Metric::new("b", f64::NAN, "s"),
        ];
        assert_eq!(
            metrics_json(&m),
            "{\"a\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }
}
