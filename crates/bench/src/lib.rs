//! # hal-bench — harnesses regenerating the paper's tables and figures
//!
//! One binary per evaluation artifact (see `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_cholesky` | Table 1 — Cholesky variants (BP/CP/Seq/Bcast) + flow-control ablation |
//! | `table2_primitives` | Table 2 — runtime primitive costs (simulated µs) |
//! | `table3_invocation` | Table 3 — method-invocation cost ladder |
//! | `table4_fib` | Table 4 — fib with/without load balancing, the paper's sequential-C cost beside |
//! | `table5_matmul` | Table 5 — systolic matmul times and MFLOPS |
//! | `fig3_delivery` | Fig. 3 — FIR message delivery under migration |
//!
//! The binaries report simulated CM-5-calibrated microseconds and
//! nothing else: no bin reads the host clock or the environment, so
//! every file a sweep leaves under `results/` is a pure function of the
//! tree and the flags, and `ci.sh` compares the committed copies with a
//! fresh sweep byte for byte. The host cost of the same primitives is
//! measured by the standalone `benchmark/` package's layer ledger.

#![warn(missing_docs)]

pub mod out;

use std::fmt::Display;

/// Print a formatted table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = *w));
    }
    println!("{}", line.trim_end());
}

/// Print a header row plus underline.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
        widths,
    );
    row(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        widths,
    );
}

/// Format a cell.
pub fn cell(v: impl Display) -> String {
    format!("{v}")
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

/// Standard banner naming the artifact being reproduced.
pub fn banner(title: &str, note: &str) {
    println!("\n== {title} ==");
    if !note.is_empty() {
        println!("{note}");
    }
    println!();
}
