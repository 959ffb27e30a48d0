//! The one evaluation binary: rows of `hal_bench::HARNESSES`, run in
//! this process.
//!
//! With no harness name it sweeps the whole table into `results/` — the
//! one-command regeneration of the paper's evaluation plus the extension
//! experiments (`hal_bench::sweep`): each harness once, its table to
//! `results/<name>.txt`, and under `--check` the verdicts (run checks
//! and static lint alike) folded into `results/CHECK_repro_all.json`, with
//! `results/MANIFEST_repro_all.json` listing every file written. Run
//! twice from empty directories, every file is byte-identical, and
//! `ci.sh` holds the committed `results/` to that with `cmp`.
//!
//! With names it runs just those rows, printing each table to stdout as
//! it grows instead of writing `results/<name>.txt`, so a quick run from
//! the repository root leaves the committed tables alone.
//!
//! Exit status: 0 when every verdict is clean and every file was
//! written, 1 when not, 2 on a command line it does not understand
//! (including `--backend=live` for a row with `live: false`).
//!
//! ```bash
//! cargo run --release -p hal-bench                            # full sweep
//! cargo run --release -p hal-bench -- --quick                 # smoke
//! cargo run --release -p hal-bench -- --check                 # + checker and static lint
//! cargo run --release -p hal-bench -- --spans --metrics
//! cargo run --release -p hal-bench -- table4_fib --quick      # one row, table on stdout
//! ```

use std::path::Path;

fn main() {
    let (flags, rows) = hal_bench::parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("repro_all: {e}\n{}", hal_bench::usage());
        std::process::exit(2);
    });
    let dir = Path::new("results");
    let ok = if rows.is_empty() {
        hal_bench::sweep(flags, dir).ok
    } else {
        rows.iter().fold(true, |ok, h| ok & hal_bench::run(h, flags, dir, true).ok())
    };
    if !ok {
        std::process::exit(1);
    }
}
