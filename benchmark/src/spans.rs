//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer, written out as a Chrome trace when the run ends.
//!
//! A span has a name, host start/end (nanoseconds since the process
//! anchor), an id, the id of the span that caused it, and the id of the
//! operation (repetition or request) it belongs to. A layer's *self
//! time* is its span minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide time origin: every host timestamp in the benchmark —
/// span edges, request due times, sink arrival times — is nanoseconds
/// since this instant, so they are comparable across threads.
pub fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Host nanoseconds since [`anchor`].
pub fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `kernel.run`.
    pub name: &'static str,
    /// Start, ns since the anchor.
    pub start: u64,
    /// End, ns since the anchor.
    pub end: u64,
    /// 1-based id (index + 1).
    pub id: u32,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    /// Operation id shared by every span of one repetition/request.
    pub op: u64,
}

/// Handle returned by [`Recorder::begin`]; `None` when recording is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

/// Span recorder. Off by default: `begin`/`end` then cost one branch.
#[derive(Default)]
pub struct Recorder {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            ..Self::default()
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle only between operations");
        if on {
            // Room for a whole traced run, so the recorder itself does
            // not allocate (and get counted) while repetitions run.
            self.spans.reserve(1 << 16);
        }
        self.on = on;
    }

    /// Set the operation id stamped on subsequent spans.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            id,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Recorder::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end = end;
    }

    /// Record an already finished span (a sampled request, timed by the
    /// sink) under the innermost open span.
    pub fn complete(&mut self, name: &'static str, start: u64, end: u64, op: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            op,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval). Children may overlap one another —
/// sampled requests under one run span do.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: duration minus the part covered by its
/// direct children. Index `i` belongs to `spans[i]`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            match kids.get_mut(&s.id) {
                Some(c) => dur - covered(s.start, s.end, c),
                None => dur,
            }
        })
        .collect()
}

/// Per span name: (count, total self ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Mean self time per span of `name`, in nanoseconds (0 if none).
pub fn mean_self_ns(by_name: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match by_name.get(name) {
        Some(&(n, total)) if n > 0 => total as f64 / n as f64,
        _ => 0.0,
    }
}

/// Per-layer metric ← span whose mean self time (ms) it reports.
const SELF_MS_ROWS: [(&str, &str); 7] = [
    ("kernel.build_ms", "kernel.build"),
    ("kernel.bootstrap_ms", "kernel.bootstrap"),
    ("kernel.run_ms", "kernel.run"),
    ("kernel.report_ms", "kernel.report"),
    ("kernel.teardown_ms", "kernel.teardown"),
    ("kernel.live_init_ms", "kernel.live_init"),
    ("kernel.drain_ms", "kernel.drain"),
];

/// File every span row of a traced run (0 where the workload has no
/// such span).
pub fn insert_self_ms(
    layer: &mut BTreeMap<&'static str, f64>,
    by_name: &BTreeMap<&'static str, (u64, u64)>,
) {
    for (metric, span) in SELF_MS_ROWS {
        layer.insert(metric, mean_self_ns(by_name, span) / 1e6);
    }
}

/// Render as Chrome trace JSON (`chrome://tracing`, Perfetto): one
/// complete (`"ph":"X"`) event per span, microsecond timestamps, with
/// id / parent / op in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut s = String::with_capacity(64 + spans.len() * 120);
    let _ = write!(
        s,
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\"}},\"traceEvents\":["
    );
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Sampled requests overlap each other; spread them over a few
        // tracks so viewers that stack by tid keep them readable.
        let tid = if sp.name == "op.request" {
            1 + sp.op % 8
        } else {
            0
        };
        let _ = write!(
            s,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            sp.name,
            sp.name.split('.').next().unwrap_or(""),
            tid,
            sp.start as f64 / 1e3,
            sp.end.saturating_sub(sp.start) as f64 / 1e3,
            sp.id,
            sp.parent,
            sp.op
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u32, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", 0, 100, 1, 0),
            span("kernel.build", 10, 30, 2, 1),
            span("kernel.run", 30, 90, 3, 1),
            span("am.inject", 40, 50, 4, 3),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by = self_by_name(&spans);
        assert_eq!(by["op"], (1, 20));
        assert_eq!(by["kernel.run"], (1, 50));
        assert_eq!(mean_self_ns(&by, "kernel.build"), 20.0);
        assert_eq!(mean_self_ns(&by, "missing"), 0.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two sampled requests overlap on [20, 30): the parent's
        // covered part is the union [10, 40), not the sum.
        let spans = vec![
            span("run", 0, 100, 1, 0),
            span("op.request", 10, 30, 2, 1),
            span("op.request", 20, 40, 3, 1),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A request that was due before the run span opened.
        let spans = vec![span("run", 50, 100, 1, 0), span("op.request", 0, 60, 2, 1)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_of_one_operation_telescope_to_its_root() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let root = rec.begin("op");
        let a = rec.begin("kernel.build");
        rec.end(a);
        let b = rec.begin("kernel.run");
        let c = rec.begin("inner");
        rec.end(c);
        rec.end(b);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[3].parent, spans[2].id);
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].end - spans[0].start);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("op");
        rec.complete("op.request", 0, 1, 1);
        rec.end(s);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = vec![
            span("op", 0, 2_000, 1, 0),
            span("kernel.run", 500, 1_500, 2, 1),
        ];
        let json = chrome_trace("w", &spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"kernel.run\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"dur\":1.000"));
    }
}
