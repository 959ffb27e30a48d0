//! # hal-bench — harnesses regenerating the paper's tables and figures
//!
//! One table, [`HARNESSES`], one row per evaluation artifact; one
//! binary, `repro_all`, that runs rows of it in its own process:
//!
//! | Harness | Paper artifact |
//! |---|---|
//! | `table1_cholesky` | Table 1 — Cholesky variants (BP/CP/Seq/Bcast) + flow-control ablation |
//! | `table2_primitives` | Table 2 — runtime primitive costs (simulated µs) |
//! | `table3_invocation` | Table 3 — method-invocation cost ladder |
//! | `table4_fib` | Table 4 — fib with/without load balancing, the paper's sequential-C cost beside |
//! | `table5_matmul` | Table 5 — systolic matmul times and MFLOPS |
//! | `fig3_delivery` | Fig. 3 — FIR message delivery under migration |
//! | `chaos_delivery` | the Fig. 3 chase under seeded link faults |
//! | `ablations` | each design choice vs the alternative the paper rejects |
//! | `irregular_uts` | unbalanced tree search under dynamic load balancing |
//! | `now_cluster` | the evaluation on a network-of-workstations link model |
//! | `timeline_cholesky` | per-node utilization timelines behind Table 1 |
//!
//! To add a harness: write `src/harness/<name>.rs` with a
//! `pub fn run(s: &mut Session)` that prints its table into the session
//! and records its runs there, declare the module below, add a row to
//! [`HARNESSES`] (`live: true` only if it can run on the live backend,
//! see [`Harness::live`]), and commit the files `./ci.sh
//! --update-results` adds to `results/`.
//!
//! The harnesses report simulated CM-5-calibrated microseconds and
//! nothing else: none reads the host clock or the environment, so
//! every file a sweep leaves under `results/` is a pure function of the
//! tree and the flags, and `ci.sh` compares the committed copies with a
//! fresh sweep byte for byte. The host cost of the same primitives is
//! measured by the standalone `benchmark/` package's layer ledger.

#![warn(missing_docs)]

pub mod out;

/// The harness bodies, one module per row of [`HARNESSES`].
pub mod harness {
    pub mod ablations;
    pub mod chaos_delivery;
    pub mod fig3_delivery;
    pub mod irregular_uts;
    pub mod now_cluster;
    pub mod table1_cholesky;
    pub mod table2_primitives;
    pub mod table3_invocation;
    pub mod table4_fib;
    pub mod table5_matmul;
    pub mod timeline_cholesky;
}

use hal_des::json::{self, Style::Block, Style::Inline};
use hal_kernel::BackendKind;
use out::{Flags, Session, Verdict};
use std::path::Path;

/// One row of the evaluation.
pub struct Harness {
    /// Its name: the positional argument that selects it and the stem of
    /// every file it writes.
    pub name: &'static str,
    /// True when it can run on the live backend: every machine it builds
    /// comes from `s.machine(..)` and goes through `Machine` / `run_sim`,
    /// stops itself (live has no quiescence detection) and has no fault
    /// plan (sim-only). False rows refuse `--backend=live`.
    pub live: bool,
    /// The harness body.
    pub run: fn(&mut Session),
}

/// The evaluation, in sweep order. Why the six `live: false` rows cannot
/// run live: `table2_primitives`, `table3_invocation`, `ablations` and
/// `timeline_cholesky` drive a `SimMachine` by hand; `fig3_delivery`
/// runs its chases to quiescence; `chaos_delivery` does too, under a
/// fault plan.
pub const HARNESSES: &[Harness] = &[
    Harness { name: "table1_cholesky", live: true, run: harness::table1_cholesky::run },
    Harness { name: "table2_primitives", live: false, run: harness::table2_primitives::run },
    Harness { name: "table3_invocation", live: false, run: harness::table3_invocation::run },
    Harness { name: "table4_fib", live: true, run: harness::table4_fib::run },
    Harness { name: "table5_matmul", live: true, run: harness::table5_matmul::run },
    Harness { name: "fig3_delivery", live: false, run: harness::fig3_delivery::run },
    Harness { name: "chaos_delivery", live: false, run: harness::chaos_delivery::run },
    Harness { name: "ablations", live: false, run: harness::ablations::run },
    Harness { name: "irregular_uts", live: true, run: harness::irregular_uts::run },
    Harness { name: "now_cluster", live: true, run: harness::now_cluster::run },
    Harness { name: "timeline_cholesky", live: false, run: harness::timeline_cholesky::run },
];

/// The command line in one paragraph: the seven flags and the eleven
/// names.
pub fn usage() -> String {
    let names: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
    format!(
        "usage: repro_all [HARNESS]... [--quick] [--backend=sim|live] [--check] [--lint] \
         [--spans] [--metrics] [--span-sample=R]\n\
         no HARNESS: sweep all of them into results/ with the CHECK_/LINT_ folds and a manifest\n\
         harnesses: {}",
        names.join(" ")
    )
}

/// Parse the arguments after the program name into the flags and the
/// selected rows (none named = the full sweep, returned as an empty
/// list). An unknown flag, an unknown harness, a bad value, or
/// `--backend=live` with a selected row that cannot honour it is an
/// error; the caller prints it with [`usage`] and exits 2.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Flags, Vec<&'static Harness>), String> {
    let mut flags = Flags::default();
    let mut rows = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => flags.quick = true,
            "--check" => flags.check = true,
            "--lint" => flags.lint = true,
            "--spans" => flags.spans = true,
            "--metrics" => flags.metrics = true,
            a => {
                if let Some(v) = a.strip_prefix("--backend=") {
                    flags.backend = v.parse()?;
                } else if let Some(v) = a.strip_prefix("--span-sample=") {
                    let rate: f64 = v
                        .parse()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| format!("bad span sample rate {v:?}: expected a fraction in [0, 1]"))?;
                    flags.span_sample_ppm = Some((rate * 1e6).round() as u32);
                } else if a.starts_with('-') {
                    return Err(format!("unknown flag {a:?}"));
                } else {
                    let row = HARNESSES.iter().find(|h| h.name == a);
                    rows.push(row.ok_or_else(|| format!("unknown harness {a:?}"))?);
                }
            }
        }
    }
    if flags.backend == BackendKind::Live {
        let selected = if rows.is_empty() { HARNESSES.iter().collect() } else { rows.clone() };
        let refused: Vec<&str> = selected.iter().filter(|h| !h.live).map(|h| h.name).collect();
        if !refused.is_empty() {
            let accept: Vec<&str> = HARNESSES.iter().filter(|h| h.live).map(|h| h.name).collect();
            return Err(format!(
                "--backend=live cannot run {}: a row that drives SimMachine by hand, runs to \
                 quiescence or injects faults has no live form; the rows that accept it are {}",
                refused.join(" "),
                accept.join(" ")
            ));
        }
    }
    Ok((flags, rows))
}

/// Run one row into `dir`, echoing its table to stdout line by line
/// when `echo`.
pub fn run(h: &Harness, flags: Flags, dir: &Path, echo: bool) -> Verdict {
    let mut s = Session::new(h.name, flags, dir, echo);
    (h.run)(&mut s);
    s.finish()
}

/// What a full sweep left behind.
pub struct Sweep {
    /// True when every harness's verdict is ok and both folds are clean.
    pub ok: bool,
    /// Every file the sweep wrote into the directory except the manifest
    /// that lists them, in write order.
    pub files: Vec<String>,
}

/// Run every row into `dir` — `results/` for the binary — and fold what
/// the sessions return: each table to `<name>.txt`,
/// `CHECK_`/`LINT_repro_all.json` from the verdicts under
/// `--check`/`--lint`, and `MANIFEST_repro_all.json` from the files
/// written.
///
/// Nothing the sweep writes depends on the host clock or on what was in
/// `dir` before; a file in `dir` that the manifest does not list is
/// leftover from an older tree (`ci.sh` sweeps into an empty directory
/// and fails on a committed file the sweep did not write).
pub fn sweep(flags: Flags, dir: &Path) -> Sweep {
    std::fs::create_dir_all(dir).expect("create the results directory");
    let mut files = Vec::new();
    let mut verdicts = Vec::new();
    for h in HARNESSES {
        eprintln!("== running {} ==", h.name);
        let v = run(h, flags, dir, false);
        write(dir, &mut files, format!("{}.txt", h.name), &v.text);
        files.extend(v.files.iter().cloned());
        verdicts.push(v);
    }

    let mut ok = verdicts.iter().all(Verdict::ok);
    // One family's verdicts folded into `<family>_repro_all.json`.
    let mut fold = |family: &str, clean: fn(&Verdict) -> Option<bool>| {
        let all_clean = verdicts.iter().all(|v| clean(v) == Some(true));
        let json = json::document(|w| {
            w.obj(Block, |w| {
                w.key("subject").str("repro_all").key("clean").bool(all_clean);
                w.key("bins").arr(Block, |w| {
                    for v in &verdicts {
                        w.obj(Inline, |w| {
                            w.key("bin").str(v.name).key("clean").bool(clean(v) == Some(true));
                            w.key("detail").str(&format!("results/{family}_{}.json", v.name));
                        });
                    }
                });
            });
        });
        write(dir, &mut files, format!("{family}_repro_all.json"), &json);
        eprintln!("{family}_repro_all.json: {}", if all_clean { "CLEAN" } else { "DIRTY" });
        ok &= all_clean;
    };
    if flags.check {
        fold("CHECK", |v| v.check_clean);
    }
    if flags.lint {
        fold("LINT", |v| v.lint_clean);
    }

    std::fs::write(dir.join("MANIFEST_repro_all.json"), manifest_json(flags, &files))
        .expect("write the manifest");
    eprintln!("all harnesses completed; {} file(s) in {}/", files.len() + 1, dir.display());
    Sweep { ok, files }
}

/// Write `file` into `dir` and list it in `files`.
fn write(dir: &Path, files: &mut Vec<String>, file: String, contents: &str) {
    let path = dir.join(&file);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    files.push(file);
}

/// `MANIFEST_repro_all.json`: the flags and every file the sweep wrote,
/// as paths under `results/`.
fn manifest_json(flags: Flags, files: &[String]) -> String {
    let Flags { quick, check, lint, spans, metrics, .. } = flags;
    json::document(|w| {
        w.obj(Block, |w| {
            w.key("subject").str("repro_all").key("quick").bool(quick).key("check").bool(check);
            w.key("lint").bool(lint).key("spans").bool(spans).key("metrics").bool(metrics);
            w.key("artifacts").arr(Block, |w| {
                for f in files {
                    w.str(&format!("results/{f}"));
                }
            });
        });
    })
}

/// Format seconds with 3 decimals.
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Format milliseconds with 2 decimals.
pub fn ms(s: f64) -> String {
    format!("{:.2}", s * 1e3)
}

/// Format microseconds with 2 decimals.
pub fn us(ns: f64) -> String {
    format!("{:.2}", ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Flags, Vec<&'static str>), String> {
        parse_args(args.iter().map(|a| a.to_string()))
            .map(|(flags, rows)| (flags, rows.iter().map(|h| h.name).collect()))
    }

    #[test]
    fn flags_and_names_parse_in_any_order() {
        let (flags, rows) =
            parse(&["table4_fib", "--quick", "--span-sample=0.25", "fig3_delivery", "--lint"]).unwrap();
        assert_eq!(rows, ["table4_fib", "fig3_delivery"]);
        let expect = Flags { quick: true, lint: true, span_sample_ppm: Some(250_000), ..Flags::default() };
        assert_eq!(flags, expect);
        assert_eq!(parse(&[]).unwrap(), (Flags::default(), vec![]));
    }

    #[test]
    fn what_the_parse_does_not_know_is_an_error() {
        for bad in ["--metrcs", "table9", "--span-sample=1.5", "--span-sample=x", "--backend=gpu"] {
            assert!(parse(&["table4_fib", bad]).is_err(), "{bad} was accepted");
        }
    }

    #[test]
    fn live_is_refused_for_a_row_that_cannot_run_on_it() {
        let (flags, rows) = parse(&["table4_fib", "--backend=live"]).expect("a live row");
        assert_eq!((flags.backend, rows), (BackendKind::Live, vec!["table4_fib"]));
        let refusal = parse(&["table4_fib", "table2_primitives", "--backend=live"]).unwrap_err();
        assert!(refusal.starts_with("--backend=live cannot run table2_primitives:"), "{refusal}");
        assert!(refusal.contains("table1_cholesky table4_fib table5_matmul irregular_uts now_cluster"));
        // The full sweep selects every row, so it is refused too.
        assert!(parse(&["--backend=live"]).is_err());
        assert!(parse(&["table2_primitives", "--backend=sim"]).is_ok());
    }
}
