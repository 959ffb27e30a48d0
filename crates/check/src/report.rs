//! Typed check results: violation kinds, counts, offending event
//! windows, and the `results/CHECK_<bin>.json` serialization.

use hal_des::json::{self, Style::Block, Style::Inline, Writer};
use std::collections::BTreeMap;

/// Every invariant the checker can see broken, one kind per rule.
///
/// The paper section cited on each variant is the place the invariant
/// is *stated*; DESIGN.md §10 is the catalog of how each one is
/// mechanized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// A message id was enqueued at a receiver more than once (§4.3
    /// demands exactly-once delivery through migrations and chases).
    DoubleDelivery,
    /// A delivery was recorded for a message id that was never sent
    /// (only reported when the trace ring did not wrap).
    DeliveryWithoutSend,
    /// A message was delivered through a key before any creation event
    /// for that key (§5: the name must exist before traffic lands).
    DeliveryBeforeCreation,
    /// An alias resolved (§5 background `NameInfo`) without the alias
    /// ever being minted, or causally before its mint.
    AliasResolvedWithoutCreate,
    /// An FIR chase re-traversed the same directed hop with no reply in
    /// between: forward chains must make progress for chases to
    /// terminate (§4.3, Fig. 3). A request path may legitimately
    /// *revisit* a node — unknown keys fall back to the birthplace, and
    /// duplicate suppression parks the request there — but re-sending
    /// along an already-walked hop means suppression failed to break a
    /// cycle and the chase is orbiting.
    ForwardChainCycle,
    /// A node sent a second FIR for a key while one was already
    /// outstanding — §4.3's duplicate suppression failed.
    DuplicateFirNotSuppressed,
    /// An FIR chase was opened but no reply ever closed it (dropped
    /// FIR reply / wedged chase).
    UnansweredFir,
    /// An FIR reply propagated at a node without that node's name
    /// table being repaired, or a migration never repaired the
    /// birthplace table (§4.3: the chain and the birthplace learn the
    /// new location).
    NameTableNotRepaired,
    /// The reliable layer released the same (link, seq) twice —
    /// exactly-once per sequence number is the layer's contract.
    DuplicateRelDelivery,
    /// A message entered a pending queue (§6.1) and was never
    /// re-enabled: trace-level form pairs `PendingEnqueued` with
    /// `PendingRescanned`; audit-level form counts messages still parked
    /// at end of run.
    StrandedPending,
    /// A join continuation (§6.2) was created but never fired.
    UnresolvedJoin,
    /// Messages were still parked for a key the node never learned
    /// (§5 alias traffic whose creation never landed).
    UndeliverableParked,
    /// Behavior ids are not dense `0..n`: id assignment depends on
    /// registration order, and a gap means nodes could disagree on the
    /// program image.
    BehaviorIdGap,
    /// Two behavior ids share a debug name, making the id↔name mapping
    /// ambiguous across program versions.
    DuplicateBehaviorName,
    /// Two variants of one message protocol share a selector — decode
    /// would be ambiguous.
    DuplicateMessageTag,
    /// A protocol's selectors do not cover `0..=max` — an encodable
    /// tag in the hole has no decode arm.
    MessageTagGap,
}

impl ViolationKind {
    /// Stable short name (JSON field, summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::DoubleDelivery => "DoubleDelivery",
            ViolationKind::DeliveryWithoutSend => "DeliveryWithoutSend",
            ViolationKind::DeliveryBeforeCreation => "DeliveryBeforeCreation",
            ViolationKind::AliasResolvedWithoutCreate => "AliasResolvedWithoutCreate",
            ViolationKind::ForwardChainCycle => "ForwardChainCycle",
            ViolationKind::DuplicateFirNotSuppressed => "DuplicateFirNotSuppressed",
            ViolationKind::UnansweredFir => "UnansweredFir",
            ViolationKind::NameTableNotRepaired => "NameTableNotRepaired",
            ViolationKind::DuplicateRelDelivery => "DuplicateRelDelivery",
            ViolationKind::StrandedPending => "StrandedPending",
            ViolationKind::UnresolvedJoin => "UnresolvedJoin",
            ViolationKind::UndeliverableParked => "UndeliverableParked",
            ViolationKind::BehaviorIdGap => "BehaviorIdGap",
            ViolationKind::DuplicateBehaviorName => "DuplicateBehaviorName",
            ViolationKind::DuplicateMessageTag => "DuplicateMessageTag",
            ViolationKind::MessageTagGap => "MessageTagGap",
        }
    }
}

/// One broken invariant, with enough context to chase it down.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable description of the specific instance.
    pub detail: String,
    /// The offending event window: rendered trace events around the
    /// violation (empty for audit- or program-level findings).
    pub window: Vec<String>,
}

/// The result of running checker passes over one labeled run (or a
/// whole bin's worth of runs — violations accumulate).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckReport {
    /// What was checked (bench bin name, console label, ...).
    pub subject: String,
    /// Labels of the individual runs or passes folded into this report.
    pub passes: Vec<String>,
    /// Everything that broke.
    pub violations: Vec<Violation>,
    /// Trace events examined across all passes.
    pub events_checked: u64,
    /// True when any examined trace had ring wraparound: liveness and
    /// pairing checks that need a complete window were downgraded.
    pub trace_truncated: bool,
    /// Non-fatal anomalies a pass chose to surface. Warnings never make
    /// a report unclean.
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// Empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        CheckReport {
            subject: subject.into(),
            ..Default::default()
        }
    }

    /// Record a violation.
    pub fn violation(&mut self, kind: ViolationKind, detail: impl Into<String>) {
        self.violations.push(Violation {
            kind,
            detail: detail.into(),
            window: Vec::new(),
        });
    }

    /// Record a violation with its offending event window.
    pub fn violation_with_window(
        &mut self,
        kind: ViolationKind,
        detail: impl Into<String>,
        window: Vec<String>,
    ) {
        self.violations.push(Violation {
            kind,
            detail: detail.into(),
            window,
        });
    }

    /// Record a non-fatal warning (does not affect [`CheckReport::is_clean`]).
    pub fn warn(&mut self, detail: impl Into<String>) {
        self.warnings.push(detail.into());
    }

    /// True when no invariant broke (warnings don't count).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts grouped by kind, sorted by kind name.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.kind.name()).or_insert(0) += 1;
        }
        out
    }

    /// One-screen human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "check {}: {} pass(es), {} events, {}",
            self.subject,
            self.passes.len(),
            self.events_checked,
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!("{} VIOLATION(S)", self.violations.len())
            }
        );
        if self.trace_truncated {
            let _ = writeln!(
                out,
                "  (trace ring wrapped: pairing/liveness trace checks downgraded; audit checks exact)"
            );
        }
        for (name, n) in self.counts() {
            let _ = writeln!(out, "  {name:<26} {n:>6}");
        }
        if !self.warnings.is_empty() {
            let _ = writeln!(out, "  {} warning(s) (non-fatal):", self.warnings.len());
            for w in self.warnings.iter().take(10) {
                let _ = writeln!(out, "  ~ {w}");
            }
            if self.warnings.len() > 10 {
                let _ = writeln!(out, "  ... and {} more", self.warnings.len() - 10);
            }
        }
        for v in self.violations.iter().take(10) {
            let _ = writeln!(out, "  - [{}] {}", v.kind.name(), v.detail);
            for line in v.window.iter().take(5) {
                let _ = writeln!(out, "      {line}");
            }
        }
        if self.violations.len() > 10 {
            let _ = writeln!(out, "  ... and {} more", self.violations.len() - 10);
        }
        out
    }

    /// The `CHECK_<bin>.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.obj(Block, |w| {
                w.key("subject").str(&self.subject).key("clean").bool(self.is_clean());
                w.key("passes").strs(&self.passes);
                w.key("events_checked").int(self.events_checked);
                w.key("trace_truncated").bool(self.trace_truncated);
                w.key("warnings").strs(&self.warnings);
                w.key("violation_counts").obj(Inline, |w| counts(w, self.counts()));
                w.key("violations").arr(Block, |w| {
                    for v in &self.violations {
                        w.obj(Inline, |w| {
                            w.key("kind").str(v.kind.name()).key("detail").str(&v.detail);
                            w.key("window").strs(&v.window);
                        });
                    }
                });
            });
        })
    }
}

/// Push a kind-name → count map as object members.
pub(crate) fn counts(w: &mut Writer, counts: BTreeMap<&str, u64>) {
    for (name, n) in counts {
        w.key(name).int(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_des::json::Json;

    #[test]
    fn json_shape_and_counts() {
        let mut r = CheckReport::new("unit");
        assert!(r.is_clean());
        r.violation(ViolationKind::DoubleDelivery, "id 7 delivered twice");
        r.violation_with_window(
            ViolationKind::StrandedPending,
            "id 9 parked forever",
            vec!["t=5 node=0 PendingEnqueued".into()],
        );
        assert!(!r.is_clean());
        assert_eq!(r.counts()["DoubleDelivery"], 1);
        let doc = Json::parse(&r.to_json()).expect("the report is JSON");
        assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
        let counts = doc.get("violation_counts").unwrap();
        assert_eq!(counts.get("DoubleDelivery").and_then(Json::as_f64), Some(1.0));
        let violations = doc.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(violations.len(), 2);
        let window = violations[1].get("window").and_then(Json::as_arr).unwrap();
        assert_eq!(window[0].as_str(), Some("t=5 node=0 PendingEnqueued"));
    }
}
