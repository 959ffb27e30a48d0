//! `hal-perf` — gate fresh bench artifacts against committed baselines.
//!
//! ```bash
//! hal-perf diff --baselines results/baselines --fresh scratch/results
//! ```
//!
//! `diff` exits nonzero when any regression is found — `ci.sh`'s
//! `perf-gate` step is built on that.

use hal_perf::{diff_dirs, ungated_serve_artifacts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  hal-perf diff --baselines <dir> --fresh <dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => diff(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn diff(args: &[String]) -> ExitCode {
    let mut baselines: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| panic!("{flag} needs a value\n{USAGE}"))
        };
        match a.as_str() {
            "--baselines" => baselines = Some(PathBuf::from(val("--baselines"))),
            "--fresh" => fresh = Some(PathBuf::from(val("--fresh"))),
            other => {
                eprintln!("hal-perf: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(baselines), Some(fresh)) = (baselines, fresh) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let regs = diff_dirs(&baselines, &fresh);
    // A baselines dir made by copying `results/` wholesale carries the
    // hal-serve latency artifacts too. Those aren't perf-gated (yet) —
    // skip them, but say so rather than silently ignoring them.
    let serve = ungated_serve_artifacts(&baselines);
    if !serve.is_empty() {
        eprintln!(
            "note: skipped {} SERVE_ artifact(s) in {} (latency gating is a separate ROADMAP item): {}",
            serve.len(),
            baselines.display(),
            serve.join(", ")
        );
    }
    if regs.is_empty() {
        println!(
            "perf gate: OK — {} vs {} (virtual facts and sim METRICS_/SPANS_ exact)",
            fresh.display(),
            baselines.display()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: {} regression(s) vs {}:", regs.len(), baselines.display());
        for r in &regs {
            eprintln!("  REGRESSION {r}");
        }
        ExitCode::FAILURE
    }
}
