//! Deterministic live-metrics registry: counters plus gauges sampled on
//! a virtual-time cadence.
//!
//! The flight recorder ([`crate::trace`]) answers "what happened to this
//! message"; the metrics registry answers "what did the node look like
//! while it happened" — pending-queue depth, name-table occupancy,
//! in-flight FIR chases, ready-queue length, per-link
//! retransmit/ack counts, forward-chain length distribution, and the
//! node's charged busy time (its utilization numerator).
//!
//! Everything here is driven by *virtual* time and per-node kernel
//! state, never host clocks, so a run's [`MetricsReport`] is
//! bit-identical for one seed: the simulator makes the same per-node
//! sequence of `step`/`deliver` calls at the same virtual clock values
//! on every host. Sampling is
//! allocation-light: one bounded `Vec<Sample>` per node (overflow is
//! counted, not stored) and a handful of integer gauges bumped inline.

use hal_am::NodeId;
use hal_des::Histogram;
use std::collections::BTreeMap;

/// One gauge snapshot, taken when the node's virtual clock first
/// crosses a cadence boundary. `at_ns` is the *boundary* (so sample
/// timestamps line up across nodes), the gauge values are the node
/// state at the crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The cadence boundary this sample represents, in virtual ns.
    pub at_ns: u64,
    /// Messages parked in pending queues (§6.1) on this node.
    pub pending_depth: u32,
    /// Name-table entries (key → descriptor bindings) on this node.
    pub name_entries: u32,
    /// FIR chases opened here and not yet answered (§4.3).
    pub inflight_firs: u32,
    /// Ready (scheduled) actors on this node.
    pub ready: u32,
    /// Messages parked for keys this node has never heard of (§5 alias
    /// traffic racing its creation).
    pub unknown_buffered: u32,
}

/// Per-link reliable-delivery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStat {
    /// Packets re-sent to this peer after a retransmit timeout.
    pub retransmits: u64,
    /// Cumulative acks sent to this peer.
    pub acks: u64,
}

/// Per-kernel metrics state. Boxed behind an `Option` in the kernel so
/// the disabled path costs one pointer test per hook, exactly like the
/// flight recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    node: NodeId,
    cadence_ns: u64,
    next_sample_at: u64,
    samples: Vec<Sample>,
    samples_dropped: u64,
    /// Live gauge: messages currently parked in pending queues here
    /// (maintained at park/rescan/migration sites).
    pub(crate) pending_depth: u32,
    /// Charged virtual busy time (every `charge` accumulates here) —
    /// the numerator of this node's utilization.
    pub(crate) busy_ns: u64,
    /// Per-peer reliable-layer counters.
    pub(crate) links: BTreeMap<NodeId, LinkStat>,
    /// Distribution of forward-chain lengths (location epochs observed
    /// when FIR replies land, §4.3): how long the migration chains
    /// behind chases actually were.
    pub(crate) chain_epochs: Histogram,
}

impl Metrics {
    /// Default gauge-sampling cadence: one sample per 100 µs of virtual
    /// time.
    pub const DEFAULT_CADENCE_NS: u64 = 100_000;
    /// Samples kept per node; crossings beyond this are counted in
    /// `samples_dropped` instead of stored.
    pub const MAX_SAMPLES: usize = 4096;

    /// Fresh metrics state for `node`.
    pub fn new(node: NodeId) -> Self {
        Metrics {
            node,
            cadence_ns: Self::DEFAULT_CADENCE_NS,
            next_sample_at: 0,
            samples: Vec::new(),
            samples_dropped: 0,
            pending_depth: 0,
            busy_ns: 0,
            links: BTreeMap::new(),
            chain_epochs: Histogram::default(),
        }
    }

    /// Record one gauge snapshot per cadence boundary crossed by
    /// `now_ns`. `template` carries the current gauge values; each
    /// emitted sample gets the boundary timestamp.
    #[inline]
    pub(crate) fn advance(&mut self, now_ns: u64, template: Sample) {
        while self.next_sample_at <= now_ns {
            if self.samples.len() < Self::MAX_SAMPLES {
                self.samples.push(Sample {
                    at_ns: self.next_sample_at,
                    ..template
                });
            } else {
                self.samples_dropped += 1;
            }
            self.next_sample_at += self.cadence_ns;
        }
    }

    /// Bump the retransmit counter for `peer`.
    pub(crate) fn link_retransmit(&mut self, peer: NodeId) {
        self.links.entry(peer).or_default().retransmits += 1;
    }

    /// Bump the ack counter for `peer`.
    pub(crate) fn link_ack(&mut self, peer: NodeId) {
        self.links.entry(peer).or_default().acks += 1;
    }

    /// The samples recorded so far (oldest first).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// One node's slice of a finished run's metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeMetrics {
    /// The node.
    pub node: NodeId,
    /// Gauge timeseries, oldest first.
    pub samples: Vec<Sample>,
    /// Cadence crossings beyond [`Metrics::MAX_SAMPLES`].
    pub samples_dropped: u64,
    /// Total charged virtual busy time on this node.
    pub busy_ns: u64,
    /// Named counters (e.g. `trace.dropped_events`, folded in by the
    /// machine at report time).
    pub counters: BTreeMap<String, u64>,
    /// Per-peer reliable-layer counters.
    pub links: BTreeMap<NodeId, LinkStat>,
    /// Forward-chain length distribution (log2 buckets).
    pub chain_epochs: Histogram,
}

/// The merged metrics of a whole run. Lives in
/// [`crate::SimReport::metrics`] when metrics were enabled; serialized
/// as `results/METRICS_<bin>.json` by the bench harness.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Sampling cadence shared by every node.
    pub cadence_ns: u64,
    /// Per-node metrics, ordered by node id.
    pub nodes: Vec<NodeMetrics>,
}

impl MetricsReport {
    /// Merge per-node metrics states into one report.
    pub fn merge<'a>(states: impl Iterator<Item = &'a Metrics>) -> Self {
        let mut nodes: Vec<NodeMetrics> = states
            .map(|m| NodeMetrics {
                node: m.node,
                samples: m.samples.clone(),
                samples_dropped: m.samples_dropped,
                busy_ns: m.busy_ns,
                counters: BTreeMap::new(),
                links: m.links.clone(),
                chain_epochs: m.chain_epochs.clone(),
            })
            .collect();
        nodes.sort_by_key(|n| n.node);
        MetricsReport {
            cadence_ns: Metrics::DEFAULT_CADENCE_NS,
            nodes,
        }
    }

    /// Per-node utilization: charged busy time over the run's makespan.
    pub fn utilization(&self, makespan_ns: u64) -> Vec<(NodeId, f64)> {
        self.nodes
            .iter()
            .map(|n| {
                let u = if makespan_ns == 0 {
                    0.0
                } else {
                    n.busy_ns as f64 / makespan_ns as f64
                };
                (n.node, u)
            })
            .collect()
    }

    /// Set a machine-wide named counter. Stored on the first node's
    /// slice (counters are summed across nodes on read).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if let Some(n) = self.nodes.first_mut() {
            n.counters.insert(name.to_string(), value);
        }
    }

    /// Sum of a named counter across nodes.
    pub fn counter(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.counters.get(name).copied().unwrap_or(0))
            .sum()
    }

    /// One-screen human summary: the last gauge snapshot per node plus
    /// utilization — what the console's `top` command prints.
    pub fn summary(&self, makespan_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "node   util%  pending  names  firs  ready  unknown  retx  acks\n",
        );
        for n in &self.nodes {
            let util = if makespan_ns == 0 {
                0.0
            } else {
                100.0 * n.busy_ns as f64 / makespan_ns as f64
            };
            let last = n.samples.last().copied().unwrap_or(Sample {
                at_ns: 0,
                pending_depth: 0,
                name_entries: 0,
                inflight_firs: 0,
                ready: 0,
                unknown_buffered: 0,
            });
            let (retx, acks) = n
                .links
                .values()
                .fold((0u64, 0u64), |(r, a), l| (r + l.retransmits, a + l.acks));
            let _ = writeln!(
                out,
                "{:<5} {:>6.1} {:>8} {:>6} {:>5} {:>6} {:>8} {:>5} {:>5}",
                n.node,
                util,
                last.pending_depth,
                last.name_entries,
                last.inflight_firs,
                last.ready,
                last.unknown_buffered,
                retx,
                acks
            );
        }
        if self.counter("trace.dropped_events") > 0 {
            let _ = writeln!(
                out,
                "trace ring dropped {} event(s) — histograms/spans are partial",
                self.counter("trace.dropped_events")
            );
        }
        if self.counter("metrics.dropped_samples") > 0 {
            let _ = writeln!(
                out,
                "metrics sampler dropped {} gauge sample(s) — timeseries are partial",
                self.counter("metrics.dropped_samples")
            );
        }
        let chains: Histogram = self.nodes.iter().fold(Histogram::default(), |mut h, n| {
            h.merge(&n.chain_epochs);
            h
        });
        if chains.count() > 0 {
            let _ = writeln!(
                out,
                "forward-chain lengths: {} chases, mean {:.2}, max {}",
                chains.count(),
                chains.mean(),
                chains.max()
            );
        }
        out
    }

    /// Serialize as JSON (dependency-free, like the bench records).
    /// Contains virtual-time facts only — byte-identical across reruns.
    pub fn to_json(&self, makespan_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut nodes = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                nodes.push_str(",\n");
            }
            let mut samples = String::new();
            for (j, s) in n.samples.iter().enumerate() {
                if j > 0 {
                    samples.push_str(", ");
                }
                let _ = write!(
                    samples,
                    "[{}, {}, {}, {}, {}, {}]",
                    s.at_ns,
                    s.pending_depth,
                    s.name_entries,
                    s.inflight_firs,
                    s.ready,
                    s.unknown_buffered
                );
            }
            let mut counters = String::new();
            for (j, (k, v)) in n.counters.iter().enumerate() {
                if j > 0 {
                    counters.push_str(", ");
                }
                let _ = write!(counters, "\"{k}\": {v}");
            }
            let mut links = String::new();
            for (j, (peer, l)) in n.links.iter().enumerate() {
                if j > 0 {
                    links.push_str(", ");
                }
                let _ = write!(
                    links,
                    "{{\"peer\": {peer}, \"retransmits\": {}, \"acks\": {}}}",
                    l.retransmits, l.acks
                );
            }
            let util = if makespan_ns == 0 {
                0.0
            } else {
                n.busy_ns as f64 / makespan_ns as f64
            };
            let chain_buckets = histogram_json(&n.chain_epochs);
            let _ = write!(
                nodes,
                "    {{\n      \"node\": {},\n      \"busy_ns\": {},\n      \"utilization\": {:.6},\n      \
                 \"samples_dropped\": {},\n      \"counters\": {{{}}},\n      \"links\": [{}],\n      \
                 \"chain_epochs\": {},\n      \
                 \"samples\": [{}]\n    }}",
                n.node, n.busy_ns, util, n.samples_dropped, counters, links, chain_buckets, samples
            );
        }
        format!(
            "{{\n  \"cadence_ns\": {},\n  \"makespan_ns\": {},\n  \
             \"sample_fields\": [\"at_ns\", \"pending_depth\", \"name_entries\", \"inflight_firs\", \"ready\", \"unknown_buffered\"],\n  \
             \"nodes\": [\n{}\n  ]\n}}\n",
            self.cadence_ns, makespan_ns, nodes
        )
    }
}

/// Serialize a log2 histogram: moments plus the non-empty buckets as
/// `[bucket_index, count]` pairs.
pub(crate) fn histogram_json(h: &Histogram) -> String {
    use std::fmt::Write as _;
    let mut buckets = String::new();
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !buckets.is_empty() {
            buckets.push_str(", ");
        }
        let _ = write!(buckets, "[{i}, {c}]");
    }
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.3}, \"log2_buckets\": [{}]}}",
        h.count(),
        h.sum(),
        h.max(),
        h.mean(),
        buckets
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Sample {
        Sample {
            at_ns: 0,
            pending_depth: 2,
            name_entries: 5,
            inflight_firs: 1,
            ready: 3,
            unknown_buffered: 0,
        }
    }

    #[test]
    fn advance_emits_one_sample_per_boundary() {
        let mut m = Metrics::new(0);
        m.advance(0, template()); // boundary 0
        assert_eq!(m.samples().len(), 1);
        m.advance(Metrics::DEFAULT_CADENCE_NS * 3 + 5, template());
        assert_eq!(m.samples().len(), 4); // boundaries 0, 1c, 2c, 3c
        assert_eq!(m.samples()[3].at_ns, Metrics::DEFAULT_CADENCE_NS * 3);
        // No boundary crossed: no new sample.
        m.advance(Metrics::DEFAULT_CADENCE_NS * 3 + 10, template());
        assert_eq!(m.samples().len(), 4);
    }

    #[test]
    fn sample_overflow_is_counted_not_stored() {
        let mut m = Metrics::new(0);
        let far = Metrics::DEFAULT_CADENCE_NS * (Metrics::MAX_SAMPLES as u64 + 10);
        m.advance(far, template());
        assert_eq!(m.samples().len(), Metrics::MAX_SAMPLES);
        assert_eq!(m.samples_dropped, 11);
    }

    #[test]
    fn report_json_and_utilization() {
        let mut m = Metrics::new(1);
        m.busy_ns = 500;
        m.link_ack(0);
        m.link_retransmit(0);
        m.chain_epochs.observe(3);
        m.advance(0, template());
        let mut rep = MetricsReport::merge([&m].into_iter());
        rep.nodes[0]
            .counters
            .insert("trace.dropped_events".into(), 7);
        let u = rep.utilization(1000);
        assert_eq!(u, vec![(1, 0.5)]);
        let json = rep.to_json(1000);
        assert!(json.contains("\"busy_ns\": 500"), "{json}");
        assert!(json.contains("\"retransmits\": 1"), "{json}");
        assert!(json.contains("trace.dropped_events"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let top = rep.summary(1000);
        assert!(top.contains("50.0"), "{top}");
        assert!(top.contains("dropped 7"), "{top}");
    }
}
