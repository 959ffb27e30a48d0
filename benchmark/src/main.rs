//! The repo benchmark. One process measures one workload:
//!
//! ```text
//! hal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload on the host clock with every observe
//! flag and the span recorder off and prints the end-to-end metrics;
//! `--trace 1` (the `count-alloc` build) does a short traced run plus
//! the per-layer ledger and prints the per-layer metrics. The last line
//! of standard output is always one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod batch;
mod chase;
mod host;
mod ledger;
mod live;
mod out;
mod pace;
mod sim;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] = [
    "sim_fib",
    "sim_fib_lossy",
    "sim_cholesky",
    "sim_chase",
    "live_open_20k",
    "live_local_closed",
];

/// Parsed command line.
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Every generated input derives from this.
    pub seed: u64,
    /// Measured seconds (after the untimed warm-up).
    pub seconds: f64,
    /// Traced run + ledger instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.trace && !cfg!(feature = "count-alloc") {
        return Err("--trace 1 needs the binary built with --features count-alloc".into());
    }
    Ok(args)
}

/// Generate variant `variant` of a repetition workload's inputs from
/// the seed.
fn make(workload: &str, seed: u64, variant: u64) -> Box<dyn workload::Batch> {
    let seed = workload::derive(seed, 100 + variant);
    match workload {
        "sim_fib" => Box::new(sim::Fib::clean(seed)),
        "sim_fib_lossy" => Box::new(sim::Fib::lossy(seed)),
        "sim_cholesky" => Box::new(sim::Cholesky::new(seed)),
        "sim_chase" => Box::new(sim::Chase::new(seed)),
        "live_local_closed" => Box::new(live::LocalClosed::new(seed)),
        other => unreachable!("parse_args admitted `{other}`"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hal-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    spans::anchor();
    let result = if args.workload == "live_open_20k" {
        live::run_open(&args)
    } else {
        batch::run(&args, &|variant| make(&args.workload, args.seed, variant))
    };
    out::finish(&args, result)
}
