//! Message-lifecycle span reconstruction.
//!
//! The flight recorder ([`crate::trace`]) emits point events; this
//! module stitches them back into *spans* — one per application
//! message (send → wire → queue → pending wait → execute), one per
//! FIR-chase episode (§4.3), one per alias-based remote creation (§5)
//! — using the `span`/`parent` fields stamped on
//! [`TraceEvent`](crate::trace::TraceEvent)s.
//! The result is a causal DAG: each [`MsgSpan`]'s `parent` is the span
//! of the message whose handler issued the send, which is what the
//! critical-path analyzer ([`crate::critical_path`]) walks to find the
//! longest causal chain in charged virtual time.
//!
//! Everything here is derived from virtual-time facts, so
//! [`SpanReport::to_json`] is byte-identical across reruns of one seed.

use crate::addr::AddrKey;
use crate::metrics::write_histogram;
use crate::trace::{DeliveryPath, KernelEvent, TraceReport};
use hal_am::NodeId;
use hal_des::json::{self, Style::Block, Writer};
use hal_des::{Histogram, Map, VirtualTime};
use std::collections::BTreeMap;

/// One application message's reconstructed lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub struct MsgSpan {
    /// The message's trace id (doubles as its span id).
    pub id: u64,
    /// Span of the message whose handler issued this send (0 = sent
    /// from outside any handler, e.g. program bootstrap).
    pub parent: u64,
    /// The sending node.
    pub src: NodeId,
    /// Destination identity key.
    pub key: AddrKey,
    /// Virtual send time.
    pub sent_at: VirtualTime,
    /// The sender believed the receiver was remote.
    pub remote: bool,
    /// Virtual enqueue time at the receiver (None if the trace never
    /// saw the delivery — still in flight or lost to ring wrap).
    pub delivered_at: Option<VirtualTime>,
    /// Send → enqueue latency in virtual ns (includes FIR-chase
    /// buffering and forwarding, which is the point).
    pub wire_ns: u64,
    /// How it reached the receiver.
    pub path: Option<DeliveryPath>,
    /// The node that executed (or at least enqueued) it.
    pub dst: Option<NodeId>,
    /// Virtual ns between mail-queue enqueue and dispatch (0 for
    /// inline fast-path execution).
    pub queued_ns: u64,
    /// Total virtual ns spent parked in the pending queue (§6.1),
    /// summed over park episodes.
    pub pending_ns: u64,
    /// Virtual time the handler finished (None if never executed).
    pub exec_end: Option<VirtualTime>,
    /// Charged virtual ns of handler execution.
    pub run_ns: u64,
    /// Reliable-layer retransmits of the packet carrying this message.
    pub retransmits: u32,
}

impl MsgSpan {
    /// When this span's story ends: handler completion if executed,
    /// else enqueue, else the send itself.
    pub fn completion(&self) -> VirtualTime {
        self.exec_end
            .or(self.delivered_at)
            .unwrap_or(self.sent_at)
    }

    /// When the handler started executing (completion minus charged
    /// run time), if it executed.
    pub fn exec_start(&self) -> Option<VirtualTime> {
        self.exec_end
            .map(|t| VirtualTime::from_nanos(t.as_nanos().saturating_sub(self.run_ns)))
    }
}

/// One FIR-chase episode (§4.3): every hop of the forward chain shares
/// the span minted when the chase opened.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaseSpan {
    /// The chase's span id.
    pub span: u64,
    /// The message span that triggered the chase (0 if untraced).
    pub parent: u64,
    /// The chased identity key.
    pub key: AddrKey,
    /// Virtual time the first FIR left.
    pub opened_at: VirtualTime,
    /// Chase hops in causal order: (send time, from node, to node).
    pub hops: Vec<(VirtualTime, NodeId, NodeId)>,
    /// Latest time the reply propagated along the chain (None if the
    /// chase never resolved in the trace).
    pub resolved_at: Option<VirtualTime>,
    /// Messages that joined this chase instead of re-issuing an FIR.
    pub suppressed: u32,
}

/// One alias-based remote creation (§5): mint at the requester,
/// install at the target, resolve back at the requester.
#[derive(Clone, Debug, PartialEq)]
pub struct AliasSpan {
    /// The creation's span id.
    pub span: u64,
    /// The span of the handler that requested the creation.
    pub parent: u64,
    /// The alias key.
    pub key: AddrKey,
    /// The requesting node (where the alias was minted).
    pub requester: NodeId,
    /// The node asked to create the actor.
    pub target: NodeId,
    /// Virtual time the alias was minted — the requester continues
    /// immediately after this (the paper's 5.83 µs claim).
    pub minted_at: VirtualTime,
    /// Virtual time the actor was actually installed at the target.
    pub installed_at: Option<VirtualTime>,
    /// Virtual time the requester learned the real descriptor.
    pub resolved_at: Option<VirtualTime>,
}

/// All spans reconstructed from one run's trace, plus per-stage log2
/// latency histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanReport {
    /// Message spans, ordered by id.
    pub msgs: Vec<MsgSpan>,
    /// FIR-chase spans, ordered by span id.
    pub chases: Vec<ChaseSpan>,
    /// Alias-creation spans, ordered by span id.
    pub aliases: Vec<AliasSpan>,
    /// Lifecycle events whose send was never seen (lost to ring wrap).
    pub incomplete: u64,
    /// Head-sampling rate the trace ran at, in parts per million
    /// (1_000_000 = unsampled).
    pub sample_ppm: u32,
    /// Exact-count correction: message spans *minted* (every logical
    /// send, regardless of the sampling decision)…
    pub msgs_minted: u64,
    /// …and how many of those the head sampler kept. `msgs.len()`
    /// tracks the kept population; scale by `msgs_minted /
    /// msgs_sampled` to estimate unsampled totals.
    pub msgs_sampled: u64,
    /// Per-stage latency histograms: `wire.local` / `wire.remote` /
    /// `wire.migrated` (send → enqueue by path), `queue` (enqueue →
    /// dispatch), `pending` (per park episode), `execute` (charged
    /// handler time), `chase` (open → resolve), `alias.install` and
    /// `alias.resolve` (mint → install / mint → resolve).
    pub stages: BTreeMap<&'static str, Histogram>,
}

impl SpanReport {
    /// Reconstruct spans from a merged trace.
    pub fn build(trace: &TraceReport) -> Self {
        let mut rep = SpanReport {
            sample_ppm: trace.sample_ppm,
            msgs_minted: trace.msgs_minted,
            msgs_sampled: trace.msgs_sampled,
            ..SpanReport::default()
        };
        let mut msg_ix: Map<u64, usize> = Map::default();
        let mut chase_ix: Map<u64, usize> = Map::default();
        let mut alias_ix: Map<u64, usize> = Map::default();
        for e in &trace.events {
            match &e.event {
                KernelEvent::MessageSent { id, key, remote } => {
                    msg_ix.insert(*id, rep.msgs.len());
                    rep.msgs.push(MsgSpan {
                        id: *id,
                        parent: e.parent,
                        src: e.node,
                        key: *key,
                        sent_at: e.time,
                        remote: *remote,
                        delivered_at: None,
                        wire_ns: 0,
                        path: None,
                        dst: None,
                        queued_ns: 0,
                        pending_ns: 0,
                        exec_end: None,
                        run_ns: 0,
                        retransmits: 0,
                    });
                }
                KernelEvent::MessageDelivered { id, latency_ns, path } => {
                    if let Some(&i) = msg_ix.get(id) {
                        let m = &mut rep.msgs[i];
                        m.delivered_at = Some(e.time);
                        m.wire_ns = *latency_ns;
                        m.path = Some(*path);
                        m.dst = Some(e.node);
                    } else {
                        rep.incomplete += 1;
                    }
                    let stage = match path {
                        DeliveryPath::Local => "wire.local",
                        DeliveryPath::Remote => "wire.remote",
                        DeliveryPath::Migrated => "wire.migrated",
                    };
                    rep.observe(stage, *latency_ns);
                }
                KernelEvent::MessageExecuted { id, queued_ns, run_ns } => {
                    if let Some(&i) = msg_ix.get(id) {
                        let m = &mut rep.msgs[i];
                        m.exec_end = Some(e.time);
                        m.queued_ns = *queued_ns;
                        m.run_ns = *run_ns;
                        m.dst = Some(e.node);
                    } else {
                        rep.incomplete += 1;
                    }
                    rep.observe("queue", *queued_ns);
                    rep.observe("execute", *run_ns);
                }
                KernelEvent::PendingRescanned { id, residency_ns } => {
                    if let Some(&i) = msg_ix.get(id) {
                        rep.msgs[i].pending_ns += residency_ns;
                    }
                    rep.observe("pending", *residency_ns);
                }
                KernelEvent::Retransmit { .. } if e.span != 0 => {
                    if let Some(&i) = msg_ix.get(&e.span) {
                        rep.msgs[i].retransmits += 1;
                    } else {
                        rep.incomplete += 1;
                    }
                }
                KernelEvent::FirSent { key, to } if e.span != 0 => {
                    let i = *chase_ix.entry(e.span).or_insert_with(|| {
                        rep.chases.push(ChaseSpan {
                            span: e.span,
                            parent: e.parent,
                            key: *key,
                            opened_at: e.time,
                            hops: Vec::new(),
                            resolved_at: None,
                            suppressed: 0,
                        });
                        rep.chases.len() - 1
                    });
                    rep.chases[i].hops.push((e.time, e.node, *to));
                }
                KernelEvent::FirSuppressed { .. } if e.span != 0 => {
                    if let Some(&i) = chase_ix.get(&e.span) {
                        rep.chases[i].suppressed += 1;
                    }
                }
                KernelEvent::FirReplyPropagated { .. } if e.span != 0 => {
                    if let Some(&i) = chase_ix.get(&e.span) {
                        let c = &mut rep.chases[i];
                        c.resolved_at = Some(c.resolved_at.map_or(e.time, |t| t.max(e.time)));
                    }
                }
                KernelEvent::AliasCreated { key, target } if e.span != 0 => {
                    alias_ix.insert(e.span, rep.aliases.len());
                    rep.aliases.push(AliasSpan {
                        span: e.span,
                        parent: e.parent,
                        key: *key,
                        requester: e.node,
                        target: *target,
                        minted_at: e.time,
                        installed_at: None,
                        resolved_at: None,
                    });
                }
                KernelEvent::ActorCreated { .. } if e.span != 0 => {
                    if let Some(&i) = alias_ix.get(&e.span) {
                        let a = &mut rep.aliases[i];
                        a.installed_at = Some(e.time);
                        let d = e.time.as_nanos().saturating_sub(a.minted_at.as_nanos());
                        rep.observe("alias.install", d);
                    }
                }
                KernelEvent::AliasResolved { .. } if e.span != 0 => {
                    if let Some(&i) = alias_ix.get(&e.span) {
                        let a = &mut rep.aliases[i];
                        a.resolved_at = Some(e.time);
                        let d = e.time.as_nanos().saturating_sub(a.minted_at.as_nanos());
                        rep.observe("alias.resolve", d);
                    }
                }
                _ => {}
            }
        }
        for c in &rep.chases {
            if let Some(t) = c.resolved_at {
                rep.stages
                    .entry("chase")
                    .or_default()
                    .observe(t.as_nanos().saturating_sub(c.opened_at.as_nanos()));
            }
        }
        rep.msgs.sort_by_key(|m| m.id);
        rep.chases.sort_by_key(|c| c.span);
        rep.aliases.sort_by_key(|a| a.span);
        // Rebuilding moved entries invalidated nothing: indices were
        // only used during the single pass above.
        rep
    }

    fn observe(&mut self, stage: &'static str, value: u64) {
        self.stages.entry(stage).or_default().observe(value);
    }

    /// One stage's histogram (empty when nothing was observed).
    pub fn stage(&self, name: &str) -> Histogram {
        self.stages.get(name).cloned().unwrap_or_default()
    }

    /// FIR hops per chase episode — the length of §4.3's forward chains.
    pub fn chain_lengths(&self) -> Histogram {
        let mut h = Histogram::default();
        for c in &self.chases {
            h.observe(c.hops.len() as u64);
        }
        h
    }

    /// The latency rows of the flight-recorder summary: delivery by path,
    /// FIR chain length, alias resolution, pending-queue residency.
    pub fn latency_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{:<26} {:>8} {:>12} {:>12} {:>12}\n{}\n",
            "histogram", "count", "mean", "max", "unit", "-".repeat(74)
        );
        let rows = [
            ("delivery.local", self.stage("wire.local"), "ns"),
            ("delivery.remote", self.stage("wire.remote"), "ns"),
            ("delivery.migrated", self.stage("wire.migrated"), "ns"),
            ("fir.chain_length", self.chain_lengths(), "hops"),
            ("alias.resolution", self.stage("alias.resolve"), "ns"),
            ("pending.residency", self.stage("pending"), "ns"),
        ];
        for (name, h, unit) in rows {
            let (count, mean, max) = (h.count(), h.mean(), h.max());
            let _ = writeln!(out, "{name:<26} {count:>8} {mean:>12.1} {max:>12} {unit:>12}");
        }
        out
    }

    /// Look up a message span by id.
    pub fn msg(&self, id: u64) -> Option<&MsgSpan> {
        self.msgs
            .binary_search_by_key(&id, |m| m.id)
            .ok()
            .map(|i| &self.msgs[i])
    }

    /// The per-stage aggregates as a JSON document (counts, moments,
    /// log2 buckets — not every span; the raw spans stay in memory for
    /// the critical-path pass). Virtual-time facts only, so the output
    /// is byte-identical across reruns.
    pub fn to_json(&self) -> String {
        json::document(|w| self.write_json(w))
    }

    /// Write the document's object into `w` at its current depth.
    pub fn write_json(&self, w: &mut Writer) {
        let msgs = |f: fn(&MsgSpan) -> bool| self.msgs.iter().filter(|m| f(m)).count();
        let retx: u64 = self.msgs.iter().map(|m| u64::from(m.retransmits)).sum();
        let chase_hops: usize = self.chases.iter().map(|c| c.hops.len()).sum();
        let resolved_chases = self.chases.iter().filter(|c| c.resolved_at.is_some()).count();
        let resolved_aliases = self.aliases.iter().filter(|a| a.resolved_at.is_some()).count();
        w.obj(Block, |w| {
            w.key("messages").int(self.msgs.len());
            w.key("delivered").int(msgs(|m| m.delivered_at.is_some()));
            w.key("executed").int(msgs(|m| m.exec_end.is_some()));
            w.key("parked").int(msgs(|m| m.pending_ns > 0)).key("retransmits").int(retx);
            w.key("chases").int(self.chases.len()).key("chases_resolved").int(resolved_chases);
            w.key("chase_hops").int(chase_hops).key("aliases").int(self.aliases.len());
            w.key("aliases_resolved").int(resolved_aliases);
            w.key("incomplete").int(self.incomplete).key("sample_ppm").int(self.sample_ppm);
            w.key("msgs_minted").int(self.msgs_minted).key("msgs_sampled").int(self.msgs_sampled);
            w.key("stages").obj(Block, |w| {
                for (name, h) in &self.stages {
                    w.key(name);
                    write_histogram(w, h);
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DescriptorId;
    use crate::trace::TraceEvent;

    fn key(i: u32) -> AddrKey {
        AddrKey { birthplace: 0, index: DescriptorId(i) }
    }

    fn at(ns: u64, node: NodeId, event: KernelEvent) -> TraceEvent {
        TraceEvent::at(VirtualTime::from_nanos(ns), node, event)
    }

    fn build(events: Vec<TraceEvent>) -> SpanReport {
        SpanReport::build(&TraceReport {
            events,
            ..TraceReport::default()
        })
    }

    #[test]
    fn message_lifecycle_reconstructs() {
        let rep = build(vec![
            at(100, 0, KernelEvent::MessageSent { id: 9, key: key(1), remote: true })
                .with_span(9)
                .with_parent(4),
            at(700, 1, KernelEvent::MessageDelivered {
                id: 9,
                latency_ns: 600,
                path: DeliveryPath::Remote,
            })
            .with_span(9),
            at(1_000, 1, KernelEvent::MessageExecuted { id: 9, queued_ns: 100, run_ns: 200 })
                .with_span(9),
        ]);
        assert_eq!(rep.msgs.len(), 1);
        let m = rep.msg(9).unwrap();
        assert_eq!(m.parent, 4);
        assert_eq!((m.src, m.dst), (0, Some(1)));
        assert_eq!(m.wire_ns, 600);
        assert_eq!(m.queued_ns, 100);
        assert_eq!(m.run_ns, 200);
        assert_eq!(m.completion().as_nanos(), 1_000);
        assert_eq!(m.exec_start().unwrap().as_nanos(), 800);
        assert_eq!(rep.stages["wire.remote"].count(), 1);
        assert_eq!(rep.stages["execute"].sum(), 200);
        assert_eq!(rep.incomplete, 0);
    }

    #[test]
    fn chase_span_collects_hops_in_order() {
        let rep = build(vec![
            at(10, 0, KernelEvent::FirSent { key: key(2), to: 1 }).with_span(77).with_parent(9),
            at(30, 1, KernelEvent::FirSent { key: key(2), to: 2 }).with_span(77),
            at(40, 0, KernelEvent::FirSuppressed { key: key(2) }).with_span(77),
            at(90, 0, KernelEvent::FirReplyPropagated {
                key: key(2),
                node: 2,
                askers: 1,
                released: 2,
            })
            .with_span(77),
        ]);
        assert_eq!(rep.chases.len(), 1);
        let c = &rep.chases[0];
        assert_eq!(c.parent, 9);
        assert_eq!(c.hops.len(), 2);
        assert_eq!((c.hops[0].1, c.hops[0].2), (0, 1));
        assert_eq!((c.hops[1].1, c.hops[1].2), (1, 2));
        assert_eq!(c.suppressed, 1);
        assert_eq!(c.resolved_at.unwrap().as_nanos(), 90);
        assert_eq!(rep.stages["chase"].sum(), 80);
    }

    /// One chase is one episode however its replies interleave with its
    /// hops: a relay answering its asker while the chain is still growing
    /// does not cut it in two.
    #[test]
    fn fir_chain_counts_hops_per_episode() {
        let hop = |ns, node, k, to, span| {
            at(ns, node, KernelEvent::FirSent { key: key(k), to }).with_span(span)
        };
        let reply = |ns, node| {
            let event = KernelEvent::FirReplyPropagated { key: key(1), node: 3, askers: 1, released: 0 };
            at(ns, node, event).with_span(5)
        };
        let rep = build(vec![
            hop(10, 0, 1, 1, 5),
            hop(20, 1, 1, 2, 5),
            reply(30, 1),
            hop(40, 2, 1, 3, 5),
            reply(50, 0),
            // Another key's chase: one hop, never answered.
            hop(60, 0, 2, 1, 6),
        ]);
        let chain = rep.chain_lengths();
        assert_eq!((chain.count(), chain.max(), chain.sum()), (2, 3, 4));
        let table = rep.latency_table();
        for row in ["delivery.local", "delivery.remote", "delivery.migrated", "alias.resolution"] {
            assert!(table.contains(row), "{table}");
        }
        assert!(table.contains("fir.chain_length                  2          2.0            3"), "{table}");
    }

    #[test]
    fn alias_span_orders_mint_install_resolve() {
        let rep = build(vec![
            at(5, 0, KernelEvent::AliasCreated { key: key(3), target: 2 }).with_span(50),
            at(25, 2, KernelEvent::ActorCreated { key: key(3) }).with_span(50),
            at(45, 0, KernelEvent::AliasResolved { key: key(3), latency_ns: 40 }).with_span(50),
        ]);
        assert_eq!(rep.aliases.len(), 1);
        let a = &rep.aliases[0];
        assert_eq!((a.requester, a.target), (0, 2));
        assert_eq!(a.minted_at.as_nanos(), 5);
        assert_eq!(a.installed_at.unwrap().as_nanos(), 25);
        assert_eq!(a.resolved_at.unwrap().as_nanos(), 45);
        assert_eq!(rep.stages["alias.install"].sum(), 20);
        assert_eq!(rep.stages["alias.resolve"].sum(), 40);
    }

    #[test]
    fn retransmit_counts_onto_message_span() {
        let rep = build(vec![
            at(1, 0, KernelEvent::MessageSent { id: 6, key: key(4), remote: true }).with_span(6),
            at(9, 0, KernelEvent::Retransmit { peer: 1, seq: 0 }).with_span(6),
            at(15, 0, KernelEvent::Retransmit { peer: 1, seq: 0 }).with_span(6),
        ]);
        assert_eq!(rep.msg(6).unwrap().retransmits, 2);
    }

    #[test]
    fn orphan_events_count_as_incomplete() {
        let rep = build(vec![at(
            7,
            1,
            KernelEvent::MessageDelivered { id: 99, latency_ns: 5, path: DeliveryPath::Local },
        )]);
        assert_eq!(rep.msgs.len(), 0);
        assert_eq!(rep.incomplete, 1);
    }

    #[test]
    fn json_is_balanced_and_deterministic() {
        let events = vec![
            at(100, 0, KernelEvent::MessageSent { id: 9, key: key(1), remote: false }).with_span(9),
            at(120, 0, KernelEvent::MessageDelivered {
                id: 9,
                latency_ns: 20,
                path: DeliveryPath::Local,
            })
            .with_span(9),
        ];
        let a = build(events.clone()).to_json();
        let b = build(events).to_json();
        assert_eq!(a, b);
        let doc = hal_des::json::Json::parse(&a).expect("the report is JSON");
        assert_eq!(doc.get("messages").and_then(|v| v.as_f64()), Some(1.0));
        let local = doc.get("stages").and_then(|s| s.get("wire.local"));
        assert_eq!(local.and_then(|h| h.get("sum")).and_then(|v| v.as_f64()), Some(20.0));
    }
}
