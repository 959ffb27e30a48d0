//! Critical-path analysis over message-lifecycle spans.
//!
//! The span reconstructor ([`crate::span`]) turns a flight-recorder
//! trace into a causal DAG: every [`MsgSpan`]'s `parent` is the span of
//! the message whose handler issued the send. This module walks that DAG
//! backwards from each chain terminal to find the **critical path** —
//! the longest causal chain in charged virtual time — and attributes
//! each hop's contribution to lifecycle stages (wire, queue, pending
//! wait, handler execution).
//!
//! The headline number answers the question every parallel-makespan
//! table begs: *how much of the run was a serial dependency chain that
//! no amount of nodes could have compressed?* By construction a chain's
//! total is `completion(terminal) − sent_at(root)`, both virtual
//! timestamps of real recorded events, so the critical path can never
//! exceed the makespan — the `ratio` against it is a well-defined
//! serial fraction.
//!
//! Everything here is derived from virtual-time facts, so
//! [`CriticalPathReport::to_json`] is byte-identical across reruns of
//! one seed.

use crate::span::{MsgSpan, SpanReport};
use hal_am::NodeId;
use hal_des::json::{self, Style::Block, Style::Inline, Writer};
use hal_des::{Map, Set, VirtualTime};

/// One hop (message) on a causal chain, with its stage attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The message span id.
    pub id: u64,
    /// Sending node.
    pub src: NodeId,
    /// Executing node (None if the message never landed in the trace).
    pub dst: Option<NodeId>,
    /// Send → enqueue virtual ns (includes FIR-chase buffering).
    pub wire_ns: u64,
    /// Enqueue → dispatch virtual ns.
    pub queue_ns: u64,
    /// Virtual ns parked in the pending queue (§6.1).
    pub pending_ns: u64,
    /// Charged handler virtual ns on the chain: the full `run_ns` for
    /// the terminal hop, time-until-the-child-send for inner hops.
    pub exec_ns: u64,
}

impl Hop {
    /// Total virtual ns this hop contributes to its chain's stages.
    pub fn total_ns(&self) -> u64 {
        self.wire_ns + self.queue_ns + self.pending_ns + self.exec_ns
    }
}

/// Stage totals summed over a chain's hops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Summed wire (send → enqueue) time.
    pub wire_ns: u64,
    /// Summed mail-queue wait.
    pub queue_ns: u64,
    /// Summed pending-queue residency.
    pub pending_ns: u64,
    /// Summed charged handler time.
    pub exec_ns: u64,
}

/// One causal chain, root hop first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// End-to-end virtual ns: `completion(terminal) − sent_at(root)`.
    pub total_ns: u64,
    /// Virtual time the root message was sent.
    pub started_at: VirtualTime,
    /// Virtual time the terminal handler completed.
    pub finished_at: VirtualTime,
    /// The hops, causally ordered (root first, terminal last).
    pub hops: Vec<Hop>,
    /// Per-stage attribution summed over hops. Inline fast-path
    /// execution can nest a child inside its parent's handler, so the
    /// stage sum may exceed `total_ns`; the chain endpoints, not the
    /// stage sum, are the ground truth.
    pub stages: StageTotals,
}

/// The top-k causal chains of one run, longest first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Chains, longest total first. Chains are disjoint: once a
    /// message is on a reported chain it is not reused as a terminal
    /// for a later one.
    pub chains: Vec<Chain>,
    /// Head-sampling rate of the source trace (parts per million;
    /// 1_000_000 = every span kept). Below full rate the chains cover
    /// only the sampled subset of the DAG.
    pub sample_ppm: u32,
    /// Messages minted by the source trace (sampled or not) — the
    /// exact-count denominator for scaling sampled observations.
    pub msgs_minted: u64,
    /// Messages whose spans were kept.
    pub msgs_sampled: u64,
}

impl CriticalPathReport {
    /// The critical path itself (the longest chain), if any.
    pub fn critical(&self) -> Option<&Chain> {
        self.chains.first()
    }

    /// Critical-path total over the makespan — the run's serial
    /// fraction. 0 when there are no chains.
    pub fn ratio(&self, makespan_ns: u64) -> f64 {
        match (self.critical(), makespan_ns) {
            (Some(c), m) if m > 0 => c.total_ns as f64 / m as f64,
            _ => 0.0,
        }
    }

    /// One-screen human summary of the top chains.
    pub fn summary(&self, makespan_ns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.chains.is_empty() {
            out.push_str("critical path: no spans (trace empty?)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "critical path: {} ns over {} hop(s) — {:.1}% of the {} ns makespan",
            self.chains[0].total_ns,
            self.chains[0].hops.len(),
            100.0 * self.ratio(makespan_ns),
            makespan_ns
        );
        for (i, c) in self.chains.iter().enumerate() {
            let _ = writeln!(
                out,
                "  #{:<2} {:>12} ns  hops {:>4}  wire {:>10}  queue {:>8}  pending {:>8}  exec {:>10}",
                i + 1,
                c.total_ns,
                c.hops.len(),
                c.stages.wire_ns,
                c.stages.queue_ns,
                c.stages.pending_ns,
                c.stages.exec_ns
            );
        }
        if self.sample_ppm < 1_000_000 && self.msgs_minted > 0 {
            let _ = writeln!(
                out,
                "  (spans head-sampled at {} ppm: {} of {} messages kept — \
                 chains cover the sampled subset of the DAG)",
                self.sample_ppm, self.msgs_sampled, self.msgs_minted
            );
        }
        out
    }

    /// The report as a JSON document (virtual-time facts only —
    /// byte-identical across reruns).
    pub fn to_json(&self, makespan_ns: u64) -> String {
        json::document(|w| self.write_json(w, makespan_ns))
    }

    /// Write the document's object into `w` at its current depth.
    pub fn write_json(&self, w: &mut Writer, makespan_ns: u64) {
        let critical_ns = self.critical().map_or(0, |c| c.total_ns);
        let fields = ["id", "src", "dst", "wire_ns", "queue_ns", "pending_ns", "exec_ns"];
        w.obj(Block, |w| {
            w.key("makespan_ns").int(makespan_ns).key("critical_ns").int(critical_ns);
            w.key("serial_fraction").float(self.ratio(makespan_ns), 6);
            w.key("hop_fields").strs(fields);
            w.key("chains").arr(Block, |w| {
                for c in &self.chains {
                    w.obj(Block, |w| write_chain(w, c));
                }
            });
        });
    }
}

/// One chain's members of the critical-path document.
fn write_chain(w: &mut Writer, c: &Chain) {
    w.key("total_ns").int(c.total_ns).key("started_at_ns").int(c.started_at.as_nanos());
    w.key("finished_at_ns").int(c.finished_at.as_nanos());
    let s = &c.stages;
    w.key("wire_ns").int(s.wire_ns).key("queue_ns").int(s.queue_ns);
    w.key("pending_ns").int(s.pending_ns).key("exec_ns").int(s.exec_ns);
    w.key("hops").arr(Inline, |w| {
        for h in &c.hops {
            w.arr(Inline, |w| {
                w.int(h.id).int(h.src);
                match h.dst {
                    Some(d) => w.int(d),
                    None => w.null(),
                };
                w.int(h.wire_ns).int(h.queue_ns).int(h.pending_ns).int(h.exec_ns);
            });
        }
    });
}

/// Walk the span DAG and return the top-`k` causal chains by total
/// charged virtual time, longest first.
///
/// Every executed message is a candidate terminal; its chain is the
/// unique parent walk back to a root (a span sent from outside any
/// handler, or one whose parent was lost to ring truncation — both are
/// roots for this purpose). Terminals already covered by a selected
/// chain are skipped, so the reported chains are disjoint.
pub fn critical_paths(spans: &SpanReport, k: usize) -> CriticalPathReport {
    let by_id: Map<u64, &MsgSpan> = spans.msgs.iter().map(|m| (m.id, m)).collect();
    // Rank candidate terminals by chain total, descending; id ascending
    // as the deterministic tie-break.
    let mut candidates: Vec<(u64, u64)> = spans
        .msgs
        .iter()
        .filter(|m| m.exec_end.is_some())
        .map(|m| {
            let root = walk_root(m, &by_id);
            let total = m
                .completion()
                .as_nanos()
                .saturating_sub(root.sent_at.as_nanos());
            (total, m.id)
        })
        .collect();
    candidates.sort_by_key(|&(total, id)| (std::cmp::Reverse(total), id));

    let mut used: Set<u64> = Set::default();
    let mut chains = Vec::new();
    for (total, id) in candidates {
        if chains.len() >= k {
            break;
        }
        if used.contains(&id) {
            continue;
        }
        let terminal = by_id[&id];
        let chain = build_chain(terminal, total, &by_id);
        if chain.hops.iter().any(|h| used.contains(&h.id)) {
            continue; // shares a prefix with a longer selected chain
        }
        used.extend(chain.hops.iter().map(|h| h.id));
        chains.push(chain);
    }
    CriticalPathReport {
        chains,
        sample_ppm: spans.sample_ppm,
        msgs_minted: spans.msgs_minted,
        msgs_sampled: spans.msgs_sampled,
    }
}

/// Follow parent links to the chain's root span. Parent ids that don't
/// resolve (untraced senders, ring truncation) terminate the walk; a
/// visited set guards against malformed cyclic input.
fn walk_root<'a>(m: &'a MsgSpan, by_id: &Map<u64, &'a MsgSpan>) -> &'a MsgSpan {
    let mut cur = m;
    let mut seen = Set::default();
    while cur.parent != 0 && seen.insert(cur.id) {
        match by_id.get(&cur.parent) {
            Some(p) => cur = p,
            None => break,
        }
    }
    cur
}

/// Materialize the chain ending at `terminal`, root hop first, with
/// per-hop stage attribution.
fn build_chain(terminal: &MsgSpan, total: u64, by_id: &Map<u64, &MsgSpan>) -> Chain {
    // Collect terminal → root, then reverse.
    let mut rev: Vec<&MsgSpan> = vec![terminal];
    let mut seen: Set<u64> = Set::from_iter([terminal.id]);
    let mut cur = terminal;
    while cur.parent != 0 {
        match by_id.get(&cur.parent) {
            Some(p) if seen.insert(p.id) => {
                rev.push(p);
                cur = p;
            }
            _ => break,
        }
    }
    rev.reverse();
    let mut stages = StageTotals::default();
    let mut hops = Vec::with_capacity(rev.len());
    for (i, m) in rev.iter().enumerate() {
        // Inner hops charge handler time only up to the moment they
        // issued the next hop's send — the rest of the handler ran off
        // the chain. The terminal charges its full run.
        let exec_ns = match rev.get(i + 1) {
            Some(child) => m.exec_start().map_or(0, |start| {
                child.sent_at.as_nanos().saturating_sub(start.as_nanos())
            }),
            None => m.run_ns,
        };
        let hop = Hop {
            id: m.id,
            src: m.src,
            dst: m.dst,
            wire_ns: m.wire_ns,
            queue_ns: m.queued_ns,
            pending_ns: m.pending_ns,
            exec_ns,
        };
        stages.wire_ns += hop.wire_ns;
        stages.queue_ns += hop.queue_ns;
        stages.pending_ns += hop.pending_ns;
        stages.exec_ns += hop.exec_ns;
        hops.push(hop);
    }
    Chain {
        total_ns: total,
        started_at: rev[0].sent_at,
        finished_at: terminal.completion(),
        hops,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeliveryPath;
    use crate::{AddrKey, DescriptorId};
    use hal_des::json::Json;

    fn key(i: u32) -> AddrKey {
        AddrKey { birthplace: 0, index: DescriptorId(i) }
    }

    /// A message span: sent at `sent`, wire `wire`, executed with
    /// `run` ns ending at `end`.
    #[allow(clippy::too_many_arguments)]
    fn span(id: u64, parent: u64, sent: u64, wire: u64, run: u64, end: u64) -> MsgSpan {
        MsgSpan {
            id,
            parent,
            src: 0,
            key: key(id as u32),
            sent_at: VirtualTime::from_nanos(sent),
            remote: false,
            delivered_at: Some(VirtualTime::from_nanos(sent + wire)),
            wire_ns: wire,
            path: Some(DeliveryPath::Local),
            dst: Some(1),
            queued_ns: 0,
            pending_ns: 0,
            exec_end: Some(VirtualTime::from_nanos(end)),
            run_ns: run,
            retransmits: 0,
        }
    }

    fn report(msgs: Vec<MsgSpan>) -> SpanReport {
        SpanReport { msgs, ..SpanReport::default() }
    }

    #[test]
    fn longest_chain_wins_and_telescopes() {
        // 1 → 2 → 3 is the long chain; 4 is a short independent one.
        let rep = report(vec![
            span(1, 0, 0, 10, 50, 100),   // handler 60..100, child sent at 70
            span(2, 1, 70, 10, 100, 200), // handler 100..200, child sent at 150
            span(3, 2, 150, 10, 40, 300), // terminal: completes at 300
            span(4, 0, 0, 5, 10, 20),
        ]);
        let cp = critical_paths(&rep, 2);
        assert_eq!(cp.chains.len(), 2);
        let c = cp.critical().unwrap();
        assert_eq!(c.total_ns, 300); // completion(3) − sent_at(1)
        assert_eq!(c.hops.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        // Inner hops charge exec only until the child send left.
        assert_eq!(c.hops[0].exec_ns, 20); // 70 − exec_start(1)=50
        assert_eq!(c.hops[1].exec_ns, 50); // 150 − exec_start(2)=100
        assert_eq!(c.hops[2].exec_ns, 40); // terminal run_ns
        assert_eq!(cp.chains[1].total_ns, 20);
        assert!(cp.ratio(600) > 0.49 && cp.ratio(600) < 0.51);
    }

    #[test]
    fn chains_are_disjoint() {
        // Two terminals sharing the same root: the shorter chain is
        // dropped rather than double-counting the shared prefix.
        let rep = report(vec![
            span(1, 0, 0, 10, 50, 100),
            span(2, 1, 70, 10, 100, 400),
            span(3, 1, 80, 10, 40, 200),
        ]);
        let cp = critical_paths(&rep, 5);
        assert_eq!(cp.chains.len(), 1);
        assert_eq!(cp.critical().unwrap().total_ns, 400);
    }

    #[test]
    fn unresolvable_parent_is_a_root() {
        let rep = report(vec![span(9, 777, 50, 10, 30, 120)]);
        let cp = critical_paths(&rep, 1);
        assert_eq!(cp.critical().unwrap().total_ns, 70); // 120 − 50
        assert_eq!(cp.critical().unwrap().hops.len(), 1);
    }

    #[test]
    fn json_is_balanced_and_bounded_by_makespan() {
        let rep = report(vec![span(1, 0, 0, 10, 50, 100), span(2, 1, 70, 10, 100, 200)]);
        let cp = critical_paths(&rep, 3);
        assert!(cp.critical().unwrap().total_ns <= 200);
        let json = cp.to_json(200);
        let doc = Json::parse(&json).expect("the report is JSON");
        let num = |v: Option<&Json>| v.and_then(Json::as_f64);
        assert_eq!(num(doc.get("critical_ns")), Some(200.0));
        assert_eq!(num(doc.get("serial_fraction")), Some(1.0));
        let chain = &doc.get("chains").and_then(Json::as_arr).unwrap()[0];
        let hops = chain.get("hops").and_then(Json::as_arr).unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(num(hops[1].as_arr().unwrap().get(2)), Some(1.0), "hop 2's dst");
        let again = cp.to_json(200);
        assert_eq!(json, again);
    }

    #[test]
    fn a_hop_that_never_landed_has_a_null_dst() {
        let mut lost = span(1, 0, 0, 10, 50, 100);
        lost.dst = None;
        let doc = Json::parse(&critical_paths(&report(vec![lost]), 1).to_json(100)).unwrap();
        let chain = &doc.get("chains").and_then(Json::as_arr).unwrap()[0];
        let hop = &chain.get("hops").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(hop.as_arr().unwrap()[2], Json::Null);
    }
}
