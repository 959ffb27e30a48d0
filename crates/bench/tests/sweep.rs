//! The sweep as a function: run twice in this process it writes the
//! same bytes, its manifest lists exactly what it wrote, and the table
//! it walks agrees with the committed `results/` and `src/harness/`.

use hal_bench::out::{Flags, Session};
use hal_bench::{sweep, HARNESSES};
use hal_des::json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The file names in `dir`, sorted.
fn listing(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn quick_sweep_is_byte_identical_across_runs_and_matches_its_manifest() {
    let flags = Flags {
        quick: true,
        check: true,
        spans: true,
        metrics: true,
        ..Flags::default()
    };
    let runs: Vec<(PathBuf, Vec<String>)> = ["a", "b"]
        .iter()
        .map(|run| {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-{run}"));
            let _ = std::fs::remove_dir_all(&dir);
            let swept = sweep(flags, &dir);
            assert!(swept.ok, "sweep {run}: a verdict is dirty");
            (dir, swept.files)
        })
        .collect();
    let ((dir_a, files_a), (dir_b, files_b)) = (&runs[0], &runs[1]);

    assert_eq!(files_a, files_b, "the two sweeps wrote different file lists");
    let mut on_disk: BTreeSet<String> = files_a.iter().cloned().collect();
    assert_eq!(on_disk.len(), files_a.len(), "a file was written twice");
    on_disk.insert("MANIFEST_repro_all.json".to_string());
    assert_eq!(listing(dir_a), on_disk, "files on disk vs files the sweep says it wrote");
    for file in &on_disk {
        let read = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
        assert!(read(dir_a) == read(dir_b), "{file} differs between two sweeps");
    }
    // Every document the sweep writes — Chrome traces included — is JSON.
    let parse = |file: &str| {
        let text = std::fs::read_to_string(dir_a.join(file)).unwrap();
        Json::parse(&text).unwrap_or_else(|e| panic!("{file} is not JSON: {e}"))
    };
    let documents: Vec<&String> = on_disk.iter().filter(|f| f.ends_with(".json")).collect();
    assert!(documents.iter().filter(|f| f.ends_with("_trace.json")).count() >= 3, "{documents:?}");
    for file in documents {
        parse(file);
    }

    let manifest = parse("MANIFEST_repro_all.json");
    let listed: Vec<&str> = manifest
        .get("artifacts")
        .and_then(|a| a.as_arr())
        .expect("artifacts array")
        .iter()
        .map(|p| p.as_str().unwrap().strip_prefix("results/").unwrap())
        .collect();
    assert_eq!(listed, *files_a, "the manifest lists what the sweep wrote, in write order");
}

#[test]
fn a_single_row_run_writes_no_table_file() {
    // `repro_all table2_primitives --quick` from the repository root must
    // not overwrite the committed `results/table2_primitives.txt`.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("one-row");
    let _ = std::fs::remove_dir_all(&dir);
    let row = HARNESSES.iter().find(|h| h.name == "table2_primitives").unwrap();
    let verdict = hal_bench::run(row, Flags { quick: true, ..Flags::default() }, &dir, false);
    assert!(verdict.ok() && verdict.text.contains("Table 2"), "{}", verdict.text);
    assert_eq!(verdict.files, ["BENCH_table2_primitives.json"]);
    assert_eq!(listing(&dir), verdict.files.iter().cloned().collect());
}

#[test]
fn check_alone_runs_the_lint_into_the_one_verdict() {
    // A harness that injects a protocol nothing handles: `--check` is
    // the only switch, and the static finding must still make the
    // verdict dirty and land in CHECK_<name>.json beside the run passes.
    const ORPHAN: hal_kernel::ProtocolDecl =
        hal_kernel::ProtocolDecl { name: "Orphan", tags: &[("Ping", 0)], sends: &[("Ping", &[])] };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-under-check");
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = Session::new("orphan", Flags { check: true, ..Flags::default() }, &dir, false);
    s.note_protocol(&ORPHAN, &[]);
    let verdict = s.finish();
    assert_eq!(verdict.check_clean, Some(false));
    assert!(!verdict.ok());
    assert_eq!(verdict.files, ["BENCH_orphan.json", "CHECK_orphan.json"]);
    let text = std::fs::read_to_string(dir.join("CHECK_orphan.json")).unwrap();
    let doc = Json::parse(&text).expect("the report is JSON");
    let passes: Vec<&str> =
        doc.get("passes").and_then(Json::as_arr).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(passes, ["lint", "tags:Orphan"]);
    let kinds: Vec<&str> = doc
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|v| v.get("kind").and_then(Json::as_str))
        .collect();
    assert_eq!(kinds, ["UnhandledSelector"], "{text}");
    let roots = doc.get("flow").and_then(|f| f.get("roots")).and_then(Json::as_arr).unwrap();
    assert_eq!(roots[0].as_str(), Some("Orphan"));
    // The lint has no switch of its own.
    assert!(hal_bench::parse_args(["--lint".to_string()]).is_err());
}

#[test]
fn the_table_the_committed_results_and_the_harness_modules_agree() {
    let names: BTreeSet<String> = HARNESSES.iter().map(|h| h.name.to_string()).collect();
    assert_eq!(names.len(), HARNESSES.len(), "a harness name is used twice");

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let stems = |dir: &Path, ext: &str| -> BTreeSet<String> {
        let ext = format!(".{ext}");
        listing(dir).iter().filter_map(|f| f.strip_suffix(&ext).map(str::to_string)).collect()
    };
    assert_eq!(stems(&root.join("../../results"), "txt"), names, "results/*.txt vs HARNESSES");
    assert_eq!(stems(&root.join("src/harness"), "rs"), names, "src/harness/*.rs vs HARNESSES");
}
