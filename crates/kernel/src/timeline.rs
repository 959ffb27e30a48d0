//! Execution timelines: per-node busy/idle spans recorded by the
//! simulated machine, with an ASCII renderer.
//!
//! The paper's performance arguments are ultimately about *overlap* —
//! pipelined Cholesky wins because nodes keep computing while other
//! iterations' columns are still in flight; alias creation wins because
//! the requester's continuation overlaps the remote work. A timeline
//! makes that overlap visible: set `timeline` in the machine's
//! [`crate::machine::ObserveOpts`] and render the result with
//! [`render_ascii`]. It is the simulator's own recorder, not a view of
//! the flight recorder: a span is a whole dispatcher step or packet
//! handler, timed by the machine around the kernel call, and every one
//! is kept.

use hal_am::NodeId;
use hal_des::VirtualTime;

/// What a node was doing during a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Running actor methods (a dispatcher step).
    Compute,
    /// Node-manager packet handling (the "stolen processor").
    Handler,
}

/// One busy interval on one node.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The node.
    pub node: NodeId,
    /// Start of the busy interval.
    pub start: VirtualTime,
    /// End of the busy interval.
    pub end: VirtualTime,
    /// What the node was doing.
    pub kind: SpanKind,
}

/// A recorded execution timeline.
#[derive(Default, Clone)]
pub struct Timeline {
    /// All busy spans, in recording order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Record a span (ignores empty ones).
    pub fn push(&mut self, node: NodeId, start: VirtualTime, end: VirtualTime, kind: SpanKind) {
        if end > start {
            self.spans.push(Span {
                node,
                start,
                end,
                kind,
            });
        }
    }

    /// Total busy time per node, in nanoseconds.
    pub fn busy_ns(&self, nodes: usize) -> Vec<u64> {
        let mut busy = vec![0u64; nodes];
        for s in &self.spans {
            busy[s.node as usize] += s.end.since(s.start).as_nanos();
        }
        busy
    }

    /// Utilization per node over `[0, makespan]` (0.0–1.0).
    pub fn utilization(&self, nodes: usize, makespan: VirtualTime) -> Vec<f64> {
        let total = makespan.as_nanos().max(1) as f64;
        self.busy_ns(nodes)
            .into_iter()
            .map(|b| (b as f64 / total).min(1.0))
            .collect()
    }
}

/// Render a per-node ASCII utilization chart: one row per node, `width`
/// time buckets; `#` ≥ 75% busy, `+` ≥ 25%, `.` < 25%.
pub fn render_ascii(tl: &Timeline, nodes: usize, makespan: VirtualTime, width: usize) -> String {
    assert!(width > 0);
    let total = makespan.as_nanos().max(1);
    let bucket_ns = total.div_ceil(width as u64).max(1);
    let mut busy = vec![vec![0u64; width]; nodes];
    for s in &tl.spans {
        let (a, b) = (s.start.as_nanos(), s.end.as_nanos().min(total));
        if a >= b {
            continue;
        }
        let first = (a / bucket_ns) as usize;
        let last = (((b - 1) / bucket_ns) as usize).min(width - 1);
        for (i, cell) in busy[s.node as usize]
            .iter_mut()
            .enumerate()
            .take(last + 1)
            .skip(first)
        {
            let lo = (i as u64) * bucket_ns;
            let hi = lo + bucket_ns;
            *cell += b.min(hi).saturating_sub(a.max(lo));
        }
    }
    let utils = tl.utilization(nodes, makespan);
    let mut out = String::new();
    for (n, row) in busy.iter().enumerate() {
        out.push_str(&format!("node {n:>3} |"));
        for &b in row {
            let frac = b as f64 / bucket_ns as f64;
            out.push(if frac >= 0.75 {
                '#'
            } else if frac >= 0.25 {
                '+'
            } else {
                '.'
            });
        }
        out.push_str(&format!("| {:5.1}%\n", utils[n] * 100.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> VirtualTime {
        VirtualTime::from_nanos(ns)
    }

    #[test]
    fn empty_spans_are_dropped() {
        let mut tl = Timeline::default();
        tl.push(0, t(5), t(5), SpanKind::Compute);
        assert!(tl.spans.is_empty());
    }

    #[test]
    fn busy_accumulates_per_node() {
        let mut tl = Timeline::default();
        tl.push(0, t(0), t(10), SpanKind::Compute);
        tl.push(0, t(20), t(25), SpanKind::Handler);
        tl.push(1, t(0), t(50), SpanKind::Compute);
        assert_eq!(tl.busy_ns(2), vec![15, 50]);
        let u = tl.utilization(2, t(100));
        assert!((u[0] - 0.15).abs() < 1e-9);
        assert!((u[1] - 0.50).abs() < 1e-9);
    }

    #[test]
    fn ascii_render_shape() {
        let mut tl = Timeline::default();
        tl.push(0, t(0), t(50), SpanKind::Compute); // first half busy
        let s = render_ascii(&tl, 2, t(100), 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("#####....."), "{s}");
        assert!(lines[1].contains(".........."), "{s}");
        assert!(lines[0].contains("50.0%"));
        assert!(lines[1].contains("0.0%"));
    }

    #[test]
    fn spans_crossing_buckets_split_correctly() {
        let mut tl = Timeline::default();
        // 100ns total, 4 buckets of 25ns; span covers 20..55: bucket 0
        // gets 5, bucket 1 gets 25, bucket 2 gets 5.
        tl.push(0, t(20), t(55), SpanKind::Compute);
        let s = render_ascii(&tl, 1, t(100), 4);
        assert!(s.contains(".#."), "{s}");
    }

    #[test]
    fn utilization_clamped() {
        let mut tl = Timeline::default();
        tl.push(0, t(0), t(200), SpanKind::Compute); // beyond makespan
        let u = tl.utilization(1, t(100));
        assert_eq!(u[0], 1.0);
    }
}
