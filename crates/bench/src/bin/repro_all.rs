//! Run every reproduction harness in sequence — the one-command
//! regeneration of the paper's evaluation plus the extension
//! experiments.
//!
//! Each bin runs once; its stdout is committed to `results/<bin>.txt`.
//! Nothing the sweep writes depends on the host clock or on what was in
//! `results/` before: run twice from empty directories, every file is
//! byte-identical, and `ci.sh` holds the committed `results/` to that
//! with `cmp`. The flags below are forwarded to the children as flags.
//!
//! With `--check`, every bin additionally runs the `hal-check` protocol
//! invariant checker over its simulations (a bin that finds violations
//! exits nonzero and fails the whole sweep), and the per-bin
//! `results/CHECK_<bin>.json` verdicts are folded into
//! `results/CHECK_repro_all.json`.
//!
//! With `--lint`, every bin additionally runs the static message-
//! protocol lint over its compile-time declarations (a bin with
//! findings exits nonzero and fails the sweep), and the verdicts are
//! folded into `results/LINT_repro_all.json`.
//!
//! With `--spans` / `--metrics`, every bin also exports lifecycle spans
//! with critical-path analysis (`results/SPANS_<bin>.json`) and the
//! metrics timeseries (`results/METRICS_<bin>.json`). Both artifacts
//! carry only virtual-time facts.
//!
//! Artifact hygiene: stale derived files (`*_trace.json`, `SPANS_*`,
//! `METRICS_*`, `CHECK_*`, `LINT_*`, `SERVE_*`) are deleted
//! before the sweep (how many goes to stderr), and
//! `results/MANIFEST_repro_all.json` records every artifact this sweep
//! was expected to (and did) regenerate — a file in `results/` but not
//! in the manifest is leftover from an older tree.
//!
//! ```bash
//! cargo run --release -p hal-bench --bin repro_all            # full
//! cargo run --release -p hal-bench --bin repro_all -- --quick # smoke
//! cargo run --release -p hal-bench --bin repro_all -- --check # + checker
//! cargo run --release -p hal-bench --bin repro_all -- --lint  # + static lint
//! cargo run --release -p hal-bench --bin repro_all -- --spans --metrics
//! ```

use hal_bench::out;
use hal_check::json_escape;
use std::process::Command;

const BINS: &[&str] = &[
    "table1_cholesky",
    "table2_primitives",
    "table3_invocation",
    "table4_fib",
    "table5_matmul",
    "fig3_delivery",
    "chaos_delivery",
    "ablations",
    "irregular_uts",
    "now_cluster",
    "timeline_cholesky",
];

/// Bins that always export a Chrome trace to `results/<bin>_trace.json`.
const TRACE_EXPORTS: &[&str] = &["fig3_delivery", "ablations", "table3_invocation"];

fn run_bin(bin: &str, flags: &[&str]) -> std::process::Output {
    // Prefer the sibling executable next to this one: it lets CI run
    // the whole sweep from a scratch directory (results/ under that
    // directory, committed files untouched). Fall back to cargo for
    // ad-hoc source-tree runs where the bins may not be built yet.
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join(bin)))
        .filter(|p| p.is_file());
    let mut cmd = match sibling {
        Some(exe) => Command::new(exe),
        None => {
            let mut c = Command::new(env!("CARGO"));
            c.args(["run", "--release", "-p", "hal-bench", "--bin", bin, "--"]);
            c
        }
    };
    let out = cmd
        .args(flags)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// One bin's verdict of one family (`CHECK` / `LINT`), read back from
/// its artifact.
fn verdict_clean(family: &str, bin: &str) -> bool {
    std::fs::read_to_string(format!("results/{family}_{bin}.json"))
        .map(|s| s.contains("\"clean\": true"))
        .unwrap_or(false)
}

/// Derived artifacts a bin regenerates this sweep, given the flags.
fn bin_artifacts(bin: &str, check: bool, lint: bool, spans: bool, metrics: bool) -> Vec<String> {
    let mut v = vec![format!("results/{bin}.txt"), format!("results/BENCH_{bin}.json")];
    if TRACE_EXPORTS.contains(&bin) {
        v.push(format!("results/{bin}_trace.json"));
    }
    if check {
        v.push(format!("results/CHECK_{bin}.json"));
    }
    if lint {
        v.push(format!("results/LINT_{bin}.json"));
    }
    if spans {
        v.push(format!("results/SPANS_{bin}.json"));
    }
    if metrics {
        v.push(format!("results/METRICS_{bin}.json"));
    }
    v
}

/// Delete derived files a previous sweep (or an older tree) left in
/// `results/` that this sweep may not overwrite — otherwise a stale
/// `*_trace.json` from a removed bin looks exactly like fresh output.
/// Returns how many it removed.
fn remove_stale_artifacts() -> usize {
    let mut removed = 0;
    let Ok(dir) = std::fs::read_dir("results") else {
        return removed;
    };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = name.ends_with("_trace.json")
            || name.starts_with("SPANS_")
            || name.starts_with("METRICS_")
            || name.starts_with("CHECK_")
            || name.starts_with("LINT_")
            || name.starts_with("SERVE_")
            || name.starts_with("MANIFEST_");
        if stale {
            if let Err(e) = std::fs::remove_file(entry.path()) {
                eprintln!("repro_all: could not remove stale results/{name}: {e}");
            } else {
                removed += 1;
            }
        }
    }
    removed
}

fn main() {
    let quick = out::quick();
    let check = out::check_enabled();
    let lint = out::lint_enabled();
    let spans = out::spans_enabled();
    let metrics = out::metrics_enabled();
    std::fs::create_dir_all("results").expect("create results/");
    let removed_stale = remove_stale_artifacts();
    let flags: Vec<&str> = [
        ("--quick", quick),
        ("--check", check),
        ("--lint", lint),
        ("--spans", spans),
        ("--metrics", metrics),
    ]
    .into_iter()
    .filter_map(|(flag, on)| on.then_some(flag))
    .collect();
    let mut checks: Vec<(&str, bool)> = Vec::new();
    let mut lints: Vec<(&str, bool)> = Vec::new();
    let mut manifest: Vec<String> = Vec::new();

    for bin in BINS {
        eprintln!("== running {bin} ==");
        let run = run_bin(bin, &flags);
        let path = format!("results/{bin}.txt");
        std::fs::write(&path, &run.stdout).expect("write results file");
        eprintln!("   -> {path} ({} bytes)", run.stdout.len());
        if check {
            checks.push((bin, verdict_clean("CHECK", bin)));
        }
        if lint {
            lints.push((bin, verdict_clean("LINT", bin)));
        }
        for p in bin_artifacts(bin, check, lint, spans, metrics) {
            assert!(
                std::path::Path::new(&p).is_file(),
                "{bin}: expected artifact {p} was not produced"
            );
            manifest.push(p);
        }
    }

    // Fold the per-bin checker verdicts into one machine-readable file.
    // Each bin already exits nonzero on violations (killing the sweep
    // above), so reaching this point with a dirty verdict means the
    // CHECK file is stale or missing — flagged as clean=false.
    if check {
        write_verdicts("CHECK", "protocol checker", "VIOLATIONS", &checks);
    }
    // Same for the static-lint verdicts. The lint is purely static, so a
    // dirty or missing verdict here means a bin's declarations are wrong
    // (or the bin forgot to note them).
    if lint {
        write_verdicts("LINT", "protocol lint", "FINDINGS", &lints);
    }

    // Manifest of everything this sweep regenerated (existence already
    // asserted per bin above).
    if check {
        manifest.push("results/CHECK_repro_all.json".to_string());
    }
    if lint {
        manifest.push("results/LINT_repro_all.json".to_string());
    }
    let files_json = manifest
        .iter()
        .map(|p| format!("    \"{}\"", json_escape(p)))
        .collect::<Vec<_>>()
        .join(",\n");
    let manifest_json = format!(
        "{{\n  \"subject\": \"repro_all\",\n  \"quick\": {quick},\n  \"check\": {check},\n  \
         \"lint\": {lint},\n  \"spans\": {spans},\n  \"metrics\": {metrics},\n  \
         \"artifacts\": [\n{files_json}\n  ]\n}}\n"
    );
    std::fs::write("results/MANIFEST_repro_all.json", manifest_json)
        .expect("write MANIFEST_repro_all.json");
    eprintln!(
        "manifest: {} artifact(s) regenerated, {removed_stale} stale file(s) removed \
         (results/MANIFEST_repro_all.json)",
        manifest.len() + 1,
    );
    eprintln!("all harnesses completed; see results/");
}

/// Fold per-bin verdicts of one family (`CHECK` / `LINT`) into
/// `results/<family>_repro_all.json` and fail the sweep unless all are
/// clean.
fn write_verdicts(family: &str, what: &str, dirty: &str, verdicts: &[(&str, bool)]) {
    let all_clean = verdicts.iter().all(|&(_, clean)| clean);
    let mut bins_json = String::new();
    for (i, (bin, clean)) in verdicts.iter().enumerate() {
        if i > 0 {
            bins_json.push_str(",\n");
        }
        bins_json.push_str(&format!(
            "    {{\"bin\": \"{bin}\", \"clean\": {clean}, \"detail\": \"results/{family}_{bin}.json\"}}"
        ));
    }
    let json = format!(
        "{{\n  \"subject\": \"repro_all\",\n  \"clean\": {all_clean},\n  \"bins\": [\n{bins_json}\n  ]\n}}\n"
    );
    let path = format!("results/{family}_repro_all.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!(
        "{what}: {} across {} bin(s) ({path})",
        if all_clean { "CLEAN" } else { dirty },
        verdicts.len()
    );
    assert!(all_clean, "{what} verdicts incomplete or dirty");
}
