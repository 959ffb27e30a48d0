//! # hal-perf — regression gating over the bench artifacts
//!
//! The benchmark bins leave several artifact families behind:
//!
//! * `BENCH_<bin>.json` — per-run virtual time, event counts, and host
//!   throughput (`events_per_sec`);
//! * `METRICS_<bin>.json` / `SPANS_<bin>.json` — the observability
//!   artifacts (metrics snapshots, span DAG summaries + critical path),
//!   written under `--metrics` / `--spans`. On the sim backend these are
//!   deterministic documents and are gated exactly; live-tagged ones
//!   carry host-time facts, so only their sampled-span counts are
//!   checked, within [`SPAN_COUNT_TOLERANCE`].
//!
//! This crate reads them (with its own dependency-free JSON parser — the
//! workspace has no serde) and provides the operation the `hal-perf`
//! binary and `ci.sh`'s `perf-gate` step are built on: [`diff_dirs`]
//! compares fresh artifacts against committed baselines under
//! `results/baselines/`, returning the list of [`Regression`]s.
//!
//! The gate holds only what is exact: virtual facts (`events`,
//! `virtual_ns`) and the sim observability documents are deterministic,
//! so any drift is a correctness change and is flagged **exactly**. The
//! one host fact (`events_per_sec`) is noise on a shared host and is not
//! gated here — speed is measured by `benchmark/noise.sh`'s alternating
//! pairs against the 0.25 bound, which is strictly tighter than any
//! floor this gate could hold.

use std::collections::BTreeMap;
use std::path::Path;

// ---------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are kept as `f64` — every artifact
/// number this crate compares fits without precision loss at the
/// tolerances involved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut p = Parser { b, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.i
            )),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            fields.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found {:?}",
                        self.i,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (artifacts contain em
                    // dashes and arrows in labels).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
                    let c = rest.chars().next().ok_or("empty")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }
}

// ---------------------------------------------------------------------
// Regression gating
// ---------------------------------------------------------------------

/// One detected regression (or comparison failure).
#[derive(Clone, Debug)]
pub struct Regression {
    /// Artifact file name (e.g. `BENCH_table4_fib.json`).
    pub artifact: String,
    /// Run label inside the artifact, or `"<file>"` for file-level
    /// problems.
    pub run: String,
    /// Metric that tripped.
    pub metric: String,
    /// Baseline value (display form).
    pub baseline: String,
    /// Fresh value (display form).
    pub fresh: String,
    /// What rule failed.
    pub detail: String,
}

impl Regression {
    fn file(artifact: &str, detail: impl Into<String>) -> Self {
        Regression {
            artifact: artifact.to_string(),
            run: "<file>".to_string(),
            metric: "artifact".to_string(),
            baseline: String::new(),
            fresh: String::new(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.baseline.is_empty() && self.fresh.is_empty() {
            write!(f, "{} [{}] {}: {}", self.artifact, self.run, self.metric, self.detail)
        } else {
            write!(
                f,
                "{} [{}] {}: baseline {} -> fresh {} ({})",
                self.artifact, self.run, self.metric, self.baseline, self.fresh, self.detail
            )
        }
    }
}

fn runs_by_label(doc: &Json) -> BTreeMap<String, Json> {
    let mut map = BTreeMap::new();
    if let Some(runs) = doc.get("runs").and_then(Json::as_arr) {
        for r in runs {
            if let Some(label) = r.get("label").and_then(Json::as_str) {
                map.insert(label.to_string(), r.clone());
            }
        }
    }
    map
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

/// True when an artifact document (or one run inside it) came from the
/// live backend. Live runs carry host-time facts (in `virtual_ns`, the
/// metrics snapshots, the span timestamps), so exact comparison against
/// a (simulated) baseline is meaningless and the gate falls back to the
/// noise-tolerant checks only.
fn is_live(doc: &Json) -> bool {
    doc.get("backend").and_then(Json::as_str) == Some("live")
}

/// Compare one fresh `BENCH_` document against its baseline: every
/// baseline run must still be there, and on sim-backed pairs the
/// deterministic virtual facts (`events`, `virtual_ns`) must match
/// exactly — drift there is a simulation-semantics change, not noise.
/// Documents or runs tagged `"backend": "live"` are exempt from the
/// exact match: their `virtual_ns` is host time. Host throughput
/// (`events_per_sec`) is not gated here; measuring it is
/// `benchmark/noise.sh`'s job.
pub fn diff_bench(artifact: &str, baseline: &Json, fresh: &Json) -> Vec<Regression> {
    let mut out = Vec::new();
    let sim_exact = !is_live(baseline) && !is_live(fresh);
    let base_runs = runs_by_label(baseline);
    let fresh_runs = runs_by_label(fresh);
    for (label, b) in &base_runs {
        let Some(f) = fresh_runs.get(label) else {
            out.push(Regression {
                artifact: artifact.to_string(),
                run: label.clone(),
                metric: "run".to_string(),
                baseline: "present".to_string(),
                fresh: "missing".to_string(),
                detail: "baseline run disappeared from the fresh artifact".to_string(),
            });
            continue;
        };
        if sim_exact && !is_live(b) && !is_live(f) {
            for metric in ["events", "virtual_ns"] {
                let (bv, fv) = (num(b, metric), num(f, metric));
                if bv != fv {
                    out.push(Regression {
                        artifact: artifact.to_string(),
                        run: label.clone(),
                        metric: metric.to_string(),
                        baseline: format!("{}", bv.unwrap_or(f64::NAN)),
                        fresh: format!("{}", fv.unwrap_or(f64::NAN)),
                        detail: "deterministic virtual fact changed (exact match required)"
                            .to_string(),
                    });
                }
            }
        }
    }
    out
}

/// Tolerated relative drift in a live run's sampled-span counts
/// (`msgs_minted`, `msgs_sampled`) versus baseline: ±50%. Live runs
/// retransmit and chase under host timing, so the exact message count
/// wobbles; an order-of-magnitude move still means the sampler (or the
/// workload wiring) broke.
pub const SPAN_COUNT_TOLERANCE: f64 = 0.5;

/// Short display form of a JSON leaf for diff messages.
fn leaf(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => format!("{s:?}"),
        Json::Arr(a) => format!("<array[{}]>", a.len()),
        Json::Obj(o) => format!("<object[{}]>", o.len()),
    }
}

/// Path to the first structural difference between two JSON values, or
/// `None` when they are equal. Drives the exact-match messages for the
/// deterministic observability artifacts: "something changed" is
/// useless in CI output, "`.metrics.nodes[1].busy_ns (500 vs 517)`"
/// points straight at the drifted fact.
fn first_diff(a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(x), Json::Obj(_)) => {
            for (k, va) in x {
                match b.get(k) {
                    None => return Some(format!(".{k} (missing in fresh)")),
                    Some(vb) => {
                        if let Some(p) = first_diff(va, vb) {
                            return Some(format!(".{k}{p}"));
                        }
                    }
                }
            }
            if let Json::Obj(y) = b {
                for (k, _) in y {
                    if a.get(k).is_none() {
                        return Some(format!(".{k} (new in fresh)"));
                    }
                }
            }
            None
        }
        (Json::Arr(x), Json::Arr(y)) => {
            if x.len() != y.len() {
                return Some(format!(" (length {} vs {})", x.len(), y.len()));
            }
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                if let Some(p) = first_diff(va, vb) {
                    return Some(format!("[{i}]{p}"));
                }
            }
            None
        }
        _ => (a != b).then(|| format!(" ({} vs {})", leaf(a), leaf(b))),
    }
}

/// Shared core of the observability diffs: flag baseline runs missing
/// from the fresh artifact, and — for sim-backed pairs — require each
/// run object to match the baseline
/// **exactly** (the whole subtree: metrics snapshots, span stage
/// tables, critical path). Returns the regressions plus whether the
/// exact comparison applied, so callers can layer live-only checks.
fn diff_obs_runs(
    artifact: &str,
    baseline: &Json,
    fresh: &Json,
    what: &str,
) -> (Vec<Regression>, bool) {
    let exact = !is_live(baseline) && !is_live(fresh);
    let mut out = Vec::new();
    let base_runs = runs_by_label(baseline);
    let fresh_runs = runs_by_label(fresh);
    for (label, b) in &base_runs {
        let Some(f) = fresh_runs.get(label) else {
            out.push(Regression {
                artifact: artifact.to_string(),
                run: label.clone(),
                metric: "run".to_string(),
                baseline: "present".to_string(),
                fresh: "missing".to_string(),
                detail: "baseline run disappeared from the fresh artifact".to_string(),
            });
            continue;
        };
        if exact && b != f {
            let path = first_diff(b, f).unwrap_or_default();
            out.push(Regression {
                artifact: artifact.to_string(),
                run: label.clone(),
                metric: what.to_string(),
                baseline: String::new(),
                fresh: String::new(),
                detail: format!(
                    "deterministic {what} document changed (exact match required) at <run>{path}"
                ),
            });
        }
    }
    (out, exact)
}

/// Compare one fresh `METRICS_` document against its baseline. Sim
/// metrics are sampled on the virtual clock, so the whole document —
/// cadence, per-node busy nanoseconds, dropped-sample counts, every
/// counter — is deterministic and compared exactly. Live documents are
/// sampled on host-anchored clocks and are exempt from comparison beyond
/// run presence.
pub fn diff_metrics(artifact: &str, baseline: &Json, fresh: &Json) -> Vec<Regression> {
    diff_obs_runs(artifact, baseline, fresh, "metrics").0
}

/// Compare one fresh `SPANS_` document against its baseline. Sim span
/// documents (stage tables, `sample_ppm`, minted/sampled counts, the
/// critical path) are deterministic and compared exactly. Live spans
/// keep host timestamps, so only the sampled-span counts are gated,
/// within [`SPAN_COUNT_TOLERANCE`] relative drift — enough to catch a
/// broken sampler without tripping on retransmit wobble.
pub fn diff_spans(artifact: &str, baseline: &Json, fresh: &Json) -> Vec<Regression> {
    let (mut out, exact) = diff_obs_runs(artifact, baseline, fresh, "spans");
    if exact {
        return out;
    }
    let base_runs = runs_by_label(baseline);
    let fresh_runs = runs_by_label(fresh);
    for (label, b) in &base_runs {
        let Some(f) = fresh_runs.get(label) else {
            continue; // already flagged as missing above
        };
        for metric in ["msgs_minted", "msgs_sampled"] {
            let pick = |r: &Json| r.get("spans").and_then(|s| num(s, metric));
            if let (Some(bv), Some(fv)) = (pick(b), pick(f)) {
                if bv > 0.0 && (fv - bv).abs() > bv * SPAN_COUNT_TOLERANCE {
                    out.push(Regression {
                        artifact: artifact.to_string(),
                        run: label.clone(),
                        metric: metric.to_string(),
                        baseline: format!("{bv:.0}"),
                        fresh: format!("{fv:.0}"),
                        detail: format!(
                            "sampled-span count drifted more than ±{:.0}% from baseline",
                            100.0 * SPAN_COUNT_TOLERANCE
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Diff every `BENCH_*` / `METRICS_*` / `SPANS_*` `.json` baseline in
/// `baseline_dir` against its counterpart in `fresh_dir`. A baseline
/// without a fresh counterpart, or either side failing to parse, is
/// itself a regression — the gate must not silently pass on missing
/// data. `SERVE_*.json` latency artifacts from `hal-serve` are skipped —
/// those carry SLO verdicts, not throughput runs, and are not perf-gated
/// yet (see [`ungated_serve_artifacts`] for the diff subcommand's skip
/// note).
pub fn diff_dirs(baseline_dir: &Path, fresh_dir: &Path) -> Vec<Regression> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(baseline_dir) {
        Ok(d) => d,
        Err(e) => {
            return vec![Regression::file(
                &baseline_dir.display().to_string(),
                format!("cannot read baseline directory: {e}"),
            )]
        }
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            (n.starts_with("BENCH_") || n.starts_with("METRICS_") || n.starts_with("SPANS_"))
                && std::path::Path::new(n)
                    .extension()
                    .is_some_and(|ext| ext.eq_ignore_ascii_case("json"))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        out.push(Regression::file(
            &baseline_dir.display().to_string(),
            "no BENCH_/METRICS_/SPANS_ baselines found",
        ));
        return out;
    }
    for name in names {
        let base_path = baseline_dir.join(&name);
        let fresh_path = fresh_dir.join(&name);
        let baseline = match std::fs::read_to_string(&base_path)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s))
        {
            Ok(v) => v,
            Err(e) => {
                out.push(Regression::file(&name, format!("baseline unreadable: {e}")));
                continue;
            }
        };
        let fresh = match std::fs::read_to_string(&fresh_path)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(&s))
        {
            Ok(v) => v,
            Err(e) => {
                out.push(Regression::file(
                    &name,
                    format!("fresh artifact missing or unreadable ({}): {e}", fresh_path.display()),
                ));
                continue;
            }
        };
        // `BENCH_repro_all.json` (a per-bin wall-time table, no `runs`)
        // passes through `diff_bench` with nothing to compare: the gate
        // only requires that the sweep wrote it and it parses.
        if name.starts_with("BENCH_") {
            out.extend(diff_bench(&name, &baseline, &fresh));
        } else if name.starts_with("METRICS_") {
            out.extend(diff_metrics(&name, &baseline, &fresh));
        } else {
            out.extend(diff_spans(&name, &baseline, &fresh));
        }
    }
    out
}

/// `SERVE_*.json` artifacts present in `baseline_dir`, sorted. The
/// open-loop load generator (`hal-serve`) leaves per-scenario latency
/// documents next to the perf artifacts; a baselines directory made by
/// copying `results/` wholesale therefore contains them. They are not
/// comparable as BENCH documents (no `runs`, no `events`),
/// so [`diff_dirs`] skips them — this helper lets the `diff` subcommand
/// say so out loud instead of silently ignoring files the user
/// committed on purpose. Latency gating is a separate ROADMAP item.
pub fn ungated_serve_artifacts(baseline_dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(baseline_dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            n.starts_with("SERVE_")
                && std::path::Path::new(n)
                    .extension()
                    .is_some_and(|ext| ext.eq_ignore_ascii_case("json"))
        })
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "bench": "t", "backend": "sim",
      "runs": [
        {"label": "a", "virtual_ns": 100, "events": 50, "wall_ns": 1000, "events_per_sec": 50000},
        {"label": "b", "virtual_ns": 200, "events": 80, "wall_ns": 2000, "events_per_sec": 40000}
      ],
      "total_events": 130, "total_wall_ns": 3000, "total_events_per_sec": 43333
    }"#;

    fn patched(src: &str, from: &str, to: &str) -> Json {
        Json::parse(&src.replace(from, to)).unwrap()
    }

    #[test]
    fn parser_round_trips_artifact_shapes() {
        let v = Json::parse(BENCH).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("t"));
        assert_eq!(v.get("total_events").and_then(Json::as_f64), Some(130.0));
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("label").and_then(Json::as_str), Some("a"));
        // Escapes and unicode survive.
        let s = Json::parse(r#"{"x": "a→b — \"q\""}"#).unwrap();
        assert_eq!(s.get("x").and_then(Json::as_str), Some("a→b — \"q\""));
        assert!(Json::parse("{\"x\": 1,}").is_err(), "trailing comma rejected");
        assert!(Json::parse("[1, 2] junk").is_err(), "trailing bytes rejected");
    }

    #[test]
    fn identical_artifacts_pass() {
        let b = Json::parse(BENCH).unwrap();
        assert!(diff_bench("BENCH_t.json", &b, &b).is_empty());
    }

    #[test]
    fn host_throughput_is_not_gated() {
        let base = Json::parse(BENCH).unwrap();
        // 100x slower on the host clock with every virtual fact intact:
        // not this gate's business (benchmark/noise.sh measures speed).
        let slow = patched(BENCH, "\"events_per_sec\": 50000", "\"events_per_sec\": 500");
        assert!(diff_bench("BENCH_t.json", &base, &slow).is_empty());
    }

    #[test]
    fn virtual_fact_drift_is_exact() {
        let base = Json::parse(BENCH).unwrap();
        let drifted = patched(BENCH, "\"events\": 50", "\"events\": 51");
        let regs = diff_bench("BENCH_t.json", &base, &drifted);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "events");
        let later = patched(BENCH, "\"virtual_ns\": 200", "\"virtual_ns\": 201");
        let regs = diff_bench("BENCH_t.json", &base, &later);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!((regs[0].metric.as_str(), regs[0].run.as_str()), ("virtual_ns", "b"));
    }

    #[test]
    fn live_artifacts_skip_exact_virtual_facts() {
        let live = |src: &str| src.replace("\"bench\": \"t\",", "\"bench\": \"t\", \"backend\": \"live\",");
        // Live-tagged artifacts carry host time in virtual_ns, so
        // run-to-run drift there must not trip the exact gate.
        let live_base = Json::parse(&live(BENCH)).unwrap();
        let drifted = Json::parse(&live(
            &BENCH
                .replace("\"virtual_ns\": 100, \"events\": 50,", "\"virtual_ns\": 117, \"events\": 55,"),
        ))
        .unwrap();
        assert!(
            diff_bench("BENCH_t.json", &live_base, &drifted).is_empty(),
            "live runs gate run presence only"
        );
        // A sim-tagged pair stays exact.
        let sim_base = Json::parse(BENCH).unwrap();
        let sim_drift = patched(BENCH, "\"events\": 50", "\"events\": 51");
        assert_eq!(diff_bench("BENCH_t.json", &sim_base, &sim_drift).len(), 1);
    }

    #[test]
    fn missing_run_is_a_regression() {
        let base = Json::parse(BENCH).unwrap();
        let fresh = patched(BENCH, "\"label\": \"b\"", "\"label\": \"renamed\"");
        let regs = diff_bench("BENCH_t.json", &base, &fresh);
        assert!(regs.iter().any(|r| r.run == "b" && r.metric == "run"), "{regs:?}");
    }

    #[test]
    fn serve_artifacts_are_skipped_not_diffed() {
        let dir = std::env::temp_dir().join(format!("hal-perf-serve-{}", std::process::id()));
        let bdir = dir.join("baselines");
        let fdir = dir.join("fresh");
        std::fs::create_dir_all(&bdir).unwrap();
        std::fs::create_dir_all(&fdir).unwrap();
        std::fs::write(bdir.join("BENCH_t.json"), BENCH).unwrap();
        std::fs::write(fdir.join("BENCH_t.json"), BENCH).unwrap();
        // A SERVE_ latency doc in the baselines dir (no `runs`, no
        // fresh counterpart) must not be treated
        // as a BENCH file — no "fresh artifact missing" regression.
        std::fs::write(
            bdir.join("SERVE_pipeline.json"),
            r#"{"scenario": "pipeline", "slo_ok": true, "p99_ms": 4.2}"#,
        )
        .unwrap();
        let regs = diff_dirs(&bdir, &fdir);
        assert!(regs.is_empty(), "SERVE_ baseline must be skipped: {regs:?}");
        assert_eq!(ungated_serve_artifacts(&bdir), vec!["SERVE_pipeline.json".to_string()]);
        assert!(ungated_serve_artifacts(&fdir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_dirs_end_to_end_with_synthetic_regression() {
        let dir = std::env::temp_dir().join(format!("hal-perf-test-{}", std::process::id()));
        let bdir = dir.join("baselines");
        let fdir = dir.join("fresh");
        std::fs::create_dir_all(&bdir).unwrap();
        std::fs::create_dir_all(&fdir).unwrap();
        std::fs::write(bdir.join("BENCH_t.json"), BENCH).unwrap();
        std::fs::write(bdir.join("METRICS_t.json"), METRICS).unwrap();
        std::fs::write(fdir.join("BENCH_t.json"), BENCH).unwrap();
        std::fs::write(fdir.join("METRICS_t.json"), METRICS).unwrap();
        assert!(diff_dirs(&bdir, &fdir).is_empty());
        // Doctor one exact fact in the baseline — exactly what ci.sh's
        // inertness self-test does.
        std::fs::write(
            bdir.join("BENCH_t.json"),
            BENCH.replace("\"events\": 50,", "\"events\": 750,"),
        )
        .unwrap();
        let regs = diff_dirs(&bdir, &fdir);
        assert!(
            regs.iter().any(|r| r.metric == "events"),
            "doctored baseline must be caught: {regs:?}"
        );
        // Missing fresh artifact is a regression, not a silent pass.
        std::fs::remove_file(fdir.join("METRICS_t.json")).unwrap();
        std::fs::write(bdir.join("BENCH_t.json"), BENCH).unwrap();
        let regs = diff_dirs(&bdir, &fdir);
        assert!(regs.iter().any(|r| r.artifact == "METRICS_t.json"), "{regs:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const METRICS: &str = r#"{
      "bench": "t", "backend": "sim",
      "runs": [
        {"label": "a", "metrics": {
          "cadence_ns": 1000000, "samples_dropped": 0,
          "nodes": [{"node": 0, "busy_ns": 500, "counters": {"kernel.msgs": 3}},
                    {"node": 1, "busy_ns": 700, "counters": {"kernel.msgs": 4}}]
        }}
      ]
    }"#;

    const SPANS: &str = r#"{
      "bench": "t", "backend": "sim",
      "runs": [
        {"label": "a",
         "spans": {"sample_ppm": 1000000, "msgs_minted": 100, "msgs_sampled": 100,
                   "complete": 100, "incomplete": 0},
         "critical_path": {"chains": 2, "critical_ns": 4200}}
      ]
    }"#;

    #[test]
    fn sim_metrics_and_spans_gate_exactly_with_a_diff_path() {
        let mbase = Json::parse(METRICS).unwrap();
        let sbase = Json::parse(SPANS).unwrap();
        assert!(diff_metrics("METRICS_t.json", &mbase, &mbase).is_empty());
        assert!(diff_spans("SPANS_t.json", &sbase, &sbase).is_empty());
        // Any drifted virtual fact trips the exact gate, and the message
        // names the path to it.
        let busy = patched(METRICS, "\"busy_ns\": 700", "\"busy_ns\": 717");
        let regs = diff_metrics("METRICS_t.json", &mbase, &busy);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains(".metrics.nodes[1].busy_ns (700 vs 717)"), "{regs:?}");
        let crit = patched(SPANS, "\"critical_ns\": 4200", "\"critical_ns\": 4300");
        let regs = diff_spans("SPANS_t.json", &sbase, &crit);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].detail.contains(".critical_path.critical_ns"), "{regs:?}");
        // A counter appearing only on one side is drift too.
        let extra = patched(METRICS, "\"kernel.msgs\": 4", "\"kernel.msgs\": 4, \"kernel.acks\": 1");
        assert_eq!(diff_metrics("METRICS_t.json", &mbase, &extra).len(), 1);
        // A missing run is a regression.
        let gone = patched(SPANS, "\"label\": \"a\"", "\"label\": \"renamed\"");
        let regs = diff_spans("SPANS_t.json", &sbase, &gone);
        assert!(regs.iter().any(|r| r.run == "a" && r.metric == "run"), "{regs:?}");
    }

    #[test]
    fn live_spans_gate_counts_within_tolerance_only() {
        let live = |src: &str| src.replace("\"backend\": \"sim\"", "\"backend\": \"live\"");
        let base = Json::parse(&live(SPANS)).unwrap();
        // Host-time wobble: counts off by 20% and a different critical
        // path must NOT trip the gate on live documents.
        let wobble = Json::parse(&live(
            &SPANS
                .replace("\"msgs_minted\": 100, \"msgs_sampled\": 100", "\"msgs_minted\": 120, \"msgs_sampled\": 118")
                .replace("\"critical_ns\": 4200", "\"critical_ns\": 9999"),
        ))
        .unwrap();
        assert!(diff_spans("SPANS_t.json", &base, &wobble).is_empty());
        // A collapsed sampler (counts off by far more than the ±50%
        // tolerance) still trips it.
        let dead = Json::parse(&live(
            &SPANS.replace("\"msgs_minted\": 100, \"msgs_sampled\": 100", "\"msgs_minted\": 100, \"msgs_sampled\": 2"),
        ))
        .unwrap();
        let regs = diff_spans("SPANS_t.json", &base, &dead);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].metric, "msgs_sampled");
        // Live metrics documents only gate run presence.
        let mlive = Json::parse(&live(METRICS)).unwrap();
        let mdrift = Json::parse(&live(&METRICS.replace("\"busy_ns\": 700", "\"busy_ns\": 1"))).unwrap();
        assert!(diff_metrics("METRICS_t.json", &mlive, &mdrift).is_empty());
    }

    #[test]
    fn diff_dirs_routes_metrics_and_spans_by_prefix() {
        let dir = std::env::temp_dir().join(format!("hal-perf-obs-{}", std::process::id()));
        let bdir = dir.join("baselines");
        let fdir = dir.join("fresh");
        std::fs::create_dir_all(&bdir).unwrap();
        std::fs::create_dir_all(&fdir).unwrap();
        std::fs::write(bdir.join("METRICS_t.json"), METRICS).unwrap();
        std::fs::write(bdir.join("SPANS_t.json"), SPANS).unwrap();
        std::fs::write(
            fdir.join("METRICS_t.json"),
            METRICS.replace("\"busy_ns\": 500", "\"busy_ns\": 501"),
        )
        .unwrap();
        std::fs::write(
            fdir.join("SPANS_t.json"),
            SPANS.replace("\"msgs_sampled\": 100", "\"msgs_sampled\": 99"),
        )
        .unwrap();
        let regs = diff_dirs(&bdir, &fdir);
        assert!(
            regs.iter().any(|r| r.artifact == "METRICS_t.json" && r.metric == "metrics"),
            "METRICS_ must route through diff_metrics: {regs:?}"
        );
        assert!(
            regs.iter().any(|r| r.artifact == "SPANS_t.json" && r.metric == "spans"),
            "SPANS_ must route through diff_spans: {regs:?}"
        );
        // Identical copies pass the whole gate.
        std::fs::write(fdir.join("METRICS_t.json"), METRICS).unwrap();
        std::fs::write(fdir.join("SPANS_t.json"), SPANS).unwrap();
        assert!(diff_dirs(&bdir, &fdir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
