//! hal-lint: the static message-protocol analyzer.
//!
//! Where the trace/audit passes check what a run *did*, this pass checks
//! what a program *declares* — without executing anything. Its input is
//! the [`LintSpec`] a harness assembles from compile-time facts: every
//! protocol's [`ProtocolDecl`] (the `messages!` macro's `DECL` const,
//! carrying the tag table and the per-variant `=> [Dest, ...]` send
//! annotations), which behavior handles which protocol, which protocols
//! the driver injects (roots), and any declared wait-for gates. From
//! those it builds the protocol-level message-flow graph and reports:
//!
//! * **[`LintKind::UnknownDestinationProtocol`]** — a send annotation,
//!   handler registration, or root names a protocol nobody declared
//!   (typo, or a protocol dropped without updating its senders).
//! * **[`LintKind::UnhandledSelector`]** — traffic can reach a protocol
//!   (it is a root, or a reachable variant sends to it) but no behavior
//!   handles it: every such message would hit `decode`'s unknown-
//!   selector panic or park forever.
//! * **[`LintKind::DeadBehavior`]** — a behavior handles a protocol no
//!   root can reach through the flow graph: registered but unreachable
//!   code (often a stale registration after a workload reshape).
//! * **[`LintKind::WaitForCycle`]** — the declared wait-for gates form
//!   a cycle: every selector on it waits for another, a static deadlock
//!   candidate the §6.1 constraint machinery cannot re-enable.
//! * **[`LintKind::DuplicateMessageTag`]** / **[`LintKind::MessageTagGap`]**
//!   — the tag-table checks ([`crate::check_tags`]), folded in so a bare
//!   `--lint` run still validates every declared table.
//!
//! Everything lands in a [`LintReport`], serialized to
//! `results/LINT_<bin>.json` by the bench harness under `--lint`. The
//! report is built from sorted containers and carries no host facts, so
//! its bytes are identical across runs and hosts.

use crate::report::{counts, CheckReport};
use hal_des::json::{self, Style::Block, Style::Inline};
use hal_kernel::ProtocolDecl;
use std::collections::{BTreeMap, BTreeSet};

/// Everything the static pass knows about a program, assembled by the
/// harness from compile-time declarations.
#[derive(Clone, Debug, Default)]
pub struct LintSpec {
    /// Every protocol the program uses (the `messages!` `DECL` consts).
    pub protocols: Vec<ProtocolDecl>,
    /// `(behavior name, protocol name)`: the behavior's dispatch decodes
    /// that protocol.
    pub handlers: Vec<(String, String)>,
    /// Protocols the driver injects from outside any handler (bootstrap
    /// sends): the flow-graph entry points.
    pub roots: Vec<String>,
    /// Declared wait-for edges between selectors, as
    /// `("Proto::Variant", "Proto::Variant")` pairs: handling the first
    /// blocks until the second arrives.
    pub gates: Vec<(String, String)>,
}

impl LintSpec {
    /// Empty spec.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Every defect the static pass can report (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// A send annotation, handler, or root names an undeclared protocol.
    UnknownDestinationProtocol,
    /// A reachable protocol has no handling behavior.
    UnhandledSelector,
    /// A behavior handles a protocol unreachable from every root.
    DeadBehavior,
    /// The wait-for gates form a cycle — a static deadlock candidate.
    WaitForCycle,
    /// Two variants of one protocol share a selector.
    DuplicateMessageTag,
    /// A protocol's selectors do not cover `0..=max`.
    MessageTagGap,
}

impl LintKind {
    /// Stable short name (JSON field, summaries).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintKind::UnknownDestinationProtocol => "UnknownDestinationProtocol",
            LintKind::UnhandledSelector => "UnhandledSelector",
            LintKind::DeadBehavior => "DeadBehavior",
            LintKind::WaitForCycle => "WaitForCycle",
            LintKind::DuplicateMessageTag => "DuplicateMessageTag",
            LintKind::MessageTagGap => "MessageTagGap",
        }
    }
}

/// One static defect, with enough context to chase it down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Which rule fired.
    pub kind: LintKind,
    /// Human-readable description of the specific instance.
    pub detail: String,
}

/// The result of running the static pass over one program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// What was linted (bench bin name, console label, ...).
    pub subject: String,
    /// Declared protocol names, sorted.
    pub protocols: Vec<String>,
    /// Registered behavior names, sorted.
    pub behaviors: Vec<String>,
    /// Root protocol names, sorted.
    pub roots: Vec<String>,
    /// Protocols reachable from the roots through send edges, sorted.
    pub reachable: Vec<String>,
    /// Everything that is statically wrong.
    pub findings: Vec<LintFinding>,
    /// Non-fatal observations (never make the report unclean).
    pub warnings: Vec<String>,
}

impl LintReport {
    /// Empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        LintReport {
            subject: subject.into(),
            ..Default::default()
        }
    }

    /// Record a finding.
    pub fn finding(&mut self, kind: LintKind, detail: impl Into<String>) {
        self.findings.push(LintFinding {
            kind,
            detail: detail.into(),
        });
    }

    /// Record a non-fatal warning.
    pub fn warn(&mut self, detail: impl Into<String>) {
        self.warnings.push(detail.into());
    }

    /// True when the static pass found nothing wrong.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Finding counts grouped by kind, sorted by kind name.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for f in &self.findings {
            *out.entry(f.kind.name()).or_insert(0) += 1;
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
            "lint {}: {} protocol(s), {} behavior(s), {} root(s), {}",
            self.subject,
            self.protocols.len(),
            self.behaviors.len(),
            self.roots.len(),
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!("{} FINDING(S)", self.findings.len())
            }
        );
        for (name, n) in self.counts() {
            let _ = writeln!(out, "  {name:<26} {n:>6}");
        }
        for w in self.warnings.iter().take(10) {
            let _ = writeln!(out, "  ~ {w}");
        }
        for f in self.findings.iter().take(10) {
            let _ = writeln!(out, "  - [{}] {}", f.kind.name(), f.detail);
        }
        if self.findings.len() > 10 {
            let _ = writeln!(out, "  ... and {} more", self.findings.len() - 10);
        }
        out
    }

    /// The `LINT_<bin>.json` document. Every container is sorted, so the
    /// bytes are deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.obj(Block, |w| {
                w.key("subject").str(&self.subject).key("clean").bool(self.is_clean());
                w.key("protocols").strs(&self.protocols).key("behaviors").strs(&self.behaviors);
                w.key("roots").strs(&self.roots).key("reachable").strs(&self.reachable);
                w.key("warnings").strs(&self.warnings);
                w.key("finding_counts").obj(Inline, |w| counts(w, self.counts()));
                w.key("findings").arr(Block, |w| {
                    for f in &self.findings {
                        w.obj(Inline, |w| {
                            w.key("kind").str(f.kind.name()).key("detail").str(&f.detail);
                        });
                    }
                });
            });
        })
    }
}

/// Run the whole static pass over `spec` and return the report.
///
/// The pass is pure and deterministic: same spec, same report bytes.
#[must_use]
pub fn run_lint(subject: &str, spec: &LintSpec) -> LintReport {
    let mut out = LintReport::new(subject);

    // Deduplicate protocol declarations by name (several runs in one bin
    // note the same protocol); conflicting re-declarations are real
    // program-image bugs, not note-order noise.
    let mut decls: BTreeMap<&str, &ProtocolDecl> = BTreeMap::new();
    for d in &spec.protocols {
        match decls.get(d.name) {
            None => {
                decls.insert(d.name, d);
            }
            Some(prev) if *prev != d => out.finding(
                LintKind::UnknownDestinationProtocol,
                format!("protocol {} declared twice with different tables", d.name),
            ),
            Some(_) => {}
        }
    }
    out.protocols = decls.keys().map(|s| (*s).to_string()).collect();

    // Tag-table checks, folded in from the protocol checker so a bare
    // --lint run still validates every declared table.
    for d in decls.values() {
        let mut tags = CheckReport::new(d.name);
        crate::check_tags(d.name, d.tags, &mut tags);
        for v in tags.violations {
            let kind = match v.kind {
                crate::ViolationKind::DuplicateMessageTag => LintKind::DuplicateMessageTag,
                _ => LintKind::MessageTagGap,
            };
            out.finding(kind, v.detail);
        }
    }

    // Handlers: behavior -> protocol, sorted + deduped.
    let handlers: BTreeSet<(&str, &str)> = spec
        .handlers
        .iter()
        .map(|(b, p)| (b.as_str(), p.as_str()))
        .collect();
    out.behaviors = handlers
        .iter()
        .map(|(b, _)| (*b).to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let handled: BTreeSet<&str> = handlers.iter().map(|&(_, p)| p).collect();
    for &(behavior, proto) in &handlers {
        if !decls.contains_key(proto) {
            out.finding(
                LintKind::UnknownDestinationProtocol,
                format!("behavior {behavior:?} handles undeclared protocol {proto}"),
            );
        }
    }

    // Roots, sorted + deduped.
    let roots: BTreeSet<&str> = spec.roots.iter().map(String::as_str).collect();
    out.roots = roots.iter().map(|s| (*s).to_string()).collect();
    for &r in &roots {
        if !decls.contains_key(r) {
            out.finding(
                LintKind::UnknownDestinationProtocol,
                format!("root protocol {r} is not declared"),
            );
        }
    }

    // Send edges: every annotated destination must be declared.
    for d in decls.values() {
        for (variant, dests) in d.sends {
            for dest in *dests {
                if !decls.contains_key(dest) {
                    out.finding(
                        LintKind::UnknownDestinationProtocol,
                        format!(
                            "{}::{variant} declares a send to undeclared protocol {dest}",
                            d.name
                        ),
                    );
                }
            }
        }
    }

    // Reachability over the protocol flow graph, from the roots. Only
    // edges out of *handled* protocols propagate: an unhandled protocol
    // never runs its handler, so its annotations send nothing.
    let mut reachable: BTreeSet<&str> = roots
        .iter()
        .copied()
        .filter(|r| decls.contains_key(r))
        .collect();
    let mut frontier: Vec<&str> = reachable.iter().copied().collect();
    while let Some(p) = frontier.pop() {
        if !handled.contains(p) {
            continue;
        }
        let Some(d) = decls.get(p) else { continue };
        for (_, dests) in d.sends {
            for dest in *dests {
                if decls.contains_key(*dest) && reachable.insert(dest) {
                    frontier.push(dest);
                }
            }
        }
    }
    out.reachable = reachable.iter().map(|s| (*s).to_string()).collect();

    // Unhandled selectors: traffic can reach the protocol, nobody
    // decodes it. Reported per inbound edge so the fix site is named.
    for &r in &roots {
        if decls.contains_key(r) && !handled.contains(r) {
            out.finding(
                LintKind::UnhandledSelector,
                format!("root protocol {r} has no handling behavior"),
            );
        }
    }
    for p in reachable.iter().copied().filter(|p| handled.contains(p)) {
        let Some(d) = decls.get(p) else { continue };
        for (variant, dests) in d.sends {
            for dest in *dests {
                if decls.contains_key(*dest) && !handled.contains(*dest) {
                    out.finding(
                        LintKind::UnhandledSelector,
                        format!(
                            "{p}::{variant} sends to protocol {dest}, which no behavior handles"
                        ),
                    );
                }
            }
        }
    }

    // Dead behaviors: handling a protocol no root reaches.
    for &(behavior, proto) in &handlers {
        if decls.contains_key(proto) && !reachable.contains(proto) {
            out.finding(
                LintKind::DeadBehavior,
                format!(
                    "behavior {behavior:?} handles protocol {proto}, \
                     which is unreachable from the roots"
                ),
            );
        }
    }

    check_gates(spec, &decls, &mut out);
    out
}

/// Validate the declared wait-for edges and report every cycle once.
fn check_gates(spec: &LintSpec, decls: &BTreeMap<&str, &ProtocolDecl>, out: &mut LintReport) {
    let known = |sel: &str| -> bool {
        match sel.split_once("::") {
            Some((proto, variant)) => decls
                .get(proto)
                .is_some_and(|d| d.tags.iter().any(|(v, _)| *v == variant)),
            None => false,
        }
    };
    // Sorted, deduped adjacency so traversal order (and therefore the
    // reported cycle representative) is deterministic.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in &spec.gates {
        for sel in [from.as_str(), to.as_str()] {
            if !known(sel) {
                out.warn(format!(
                    "wait-for gate references unknown selector {sel} \
                     (expected \"Proto::Variant\" of a declared protocol)"
                ));
            }
        }
        adj.entry(from.as_str()).or_default().insert(to.as_str());
    }

    // Three-color DFS; a back edge closes a cycle, reported from the
    // stack and normalized (rotated to its smallest node) so each cycle
    // appears exactly once no matter where the DFS entered it.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    let mut seen_cycles: BTreeSet<Vec<&str>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut stack: Vec<(&str, Vec<&str>)> = vec![(start, Vec::new())];
        let mut path: Vec<&str> = Vec::new();
        while let Some((node, _)) = stack.last().cloned() {
            match color.get(node).copied().unwrap_or(0) {
                0 => {
                    color.insert(node, 1);
                    path.push(node);
                    let succs: Vec<&str> = adj
                        .get(node)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    stack.last_mut().expect("node on stack").1.clone_from(&succs);
                    for succ in succs {
                        match color.get(succ).copied().unwrap_or(0) {
                            1 => {
                                // Back edge: the cycle is the path suffix
                                // from `succ`.
                                let pos = path
                                    .iter()
                                    .position(|&n| n == succ)
                                    .expect("grey node is on the path");
                                let mut cycle: Vec<&str> = path[pos..].to_vec();
                                let min = cycle
                                    .iter()
                                    .enumerate()
                                    .min_by_key(|(_, n)| **n)
                                    .map_or(0, |(i, _)| i);
                                cycle.rotate_left(min);
                                if seen_cycles.insert(cycle.clone()) {
                                    out.finding(
                                        LintKind::WaitForCycle,
                                        format!(
                                            "wait-for cycle: {} -> {}",
                                            cycle.join(" -> "),
                                            cycle[0]
                                        ),
                                    );
                                }
                            }
                            0 => stack.push((succ, Vec::new())),
                            _ => {}
                        }
                    }
                }
                1 => {
                    color.insert(node, 2);
                    path.pop();
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(
        name: &'static str,
        tags: &'static [(&'static str, u32)],
        sends: &'static [(&'static str, &'static [&'static str])],
    ) -> ProtocolDecl {
        ProtocolDecl { name, tags, sends }
    }

    /// A well-formed two-protocol program: root drives `Work`, whose
    /// handler fans out to itself and replies through `Reply`.
    fn clean_spec() -> LintSpec {
        LintSpec {
            protocols: vec![
                decl(
                    "Work",
                    &[("Start", 0), ("Step", 1)],
                    &[("Start", &["Work", "Reply"]), ("Step", &["Reply"])],
                ),
                decl("Reply", &[("Done", 0)], &[("Done", &[])]),
            ],
            handlers: vec![
                ("worker".into(), "Work".into()),
                ("collector".into(), "Reply".into()),
            ],
            roots: vec!["Work".into()],
            gates: vec![("Work::Start".into(), "Reply::Done".into())],
        }
    }

    #[test]
    fn clean_program_is_clean() {
        let r = run_lint("unit", &clean_spec());
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.protocols, vec!["Reply", "Work"]);
        assert_eq!(r.reachable, vec!["Reply", "Work"]);
        assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    }

    #[test]
    fn unknown_destination_is_reported() {
        let mut spec = clean_spec();
        spec.protocols[0] = decl(
            "Work",
            &[("Start", 0), ("Step", 1)],
            &[("Start", &["Wrok"]), ("Step", &[])], // typo'd destination
        );
        let r = run_lint("unit", &spec);
        let f = r
            .findings
            .iter()
            .find(|f| f.kind == LintKind::UnknownDestinationProtocol)
            .expect("typo found");
        assert!(f.detail.contains("Work::Start"), "{}", f.detail);
        assert!(f.detail.contains("Wrok"), "{}", f.detail);
    }

    #[test]
    fn unhandled_selector_is_reported() {
        let mut spec = clean_spec();
        spec.handlers.retain(|(b, _)| b != "collector");
        let r = run_lint("unit", &spec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == LintKind::UnhandledSelector
                    && f.detail.contains("Reply")),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn unhandled_root_is_reported() {
        let mut spec = clean_spec();
        spec.handlers.clear();
        let r = run_lint("unit", &spec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == LintKind::UnhandledSelector
                    && f.detail.contains("root protocol Work")),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn dead_behavior_is_reported() {
        let mut spec = clean_spec();
        // Nothing sends Orphan, but a behavior handles it.
        spec.protocols.push(decl("Orphan", &[("Nop", 0)], &[("Nop", &[])]));
        spec.handlers.push(("orphan".into(), "Orphan".into()));
        let r = run_lint("unit", &spec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == LintKind::DeadBehavior && f.detail.contains("orphan")),
            "{}",
            r.summary()
        );
    }

    #[test]
    fn unhandled_protocol_does_not_propagate_sends() {
        // Work -> Reply -> Tail, but Reply is unhandled: Tail's handler
        // is dead (Reply's handler never runs, so nothing sends Tail),
        // and Reply itself is an unhandled selector.
        let spec = LintSpec {
            protocols: vec![
                decl("Work", &[("Start", 0)], &[("Start", &["Reply"])]),
                decl("Reply", &[("Done", 0)], &[("Done", &["Tail"])]),
                decl("Tail", &[("End", 0)], &[("End", &[])]),
            ],
            handlers: vec![
                ("worker".into(), "Work".into()),
                ("tail".into(), "Tail".into()),
            ],
            roots: vec!["Work".into()],
            gates: Vec::new(),
        };
        let r = run_lint("unit", &spec);
        assert!(r.findings.iter().any(|f| f.kind == LintKind::UnhandledSelector));
        assert!(
            r.findings
                .iter()
                .any(|f| f.kind == LintKind::DeadBehavior && f.detail.contains("tail")),
            "{}",
            r.summary()
        );
        assert!(!r.reachable.contains(&"Tail".to_string()));
    }

    #[test]
    fn wait_for_cycle_is_reported_once() {
        let mut spec = clean_spec();
        spec.gates = vec![
            ("Work::Start".into(), "Reply::Done".into()),
            ("Reply::Done".into(), "Work::Step".into()),
            ("Work::Step".into(), "Work::Start".into()),
        ];
        let r = run_lint("unit", &spec);
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.kind == LintKind::WaitForCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{}", r.summary());
        assert!(cycles[0].detail.contains("Reply::Done"), "{}", cycles[0].detail);
    }

    #[test]
    fn gate_on_unknown_selector_warns() {
        let mut spec = clean_spec();
        spec.gates.push(("Work::Nope".into(), "Reply::Done".into()));
        let r = run_lint("unit", &spec);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(
            r.warnings.iter().any(|w| w.contains("Work::Nope")),
            "{:?}",
            r.warnings
        );
    }

    #[test]
    fn tag_table_defects_fold_in() {
        let spec = LintSpec {
            protocols: vec![decl(
                "Bad",
                &[("A", 0), ("B", 0), ("C", 2)], // duplicate 0, hole at 1
                &[("A", &[]), ("B", &[]), ("C", &[])],
            )],
            handlers: vec![("bad".into(), "Bad".into())],
            roots: vec!["Bad".into()],
            gates: Vec::new(),
        };
        let r = run_lint("unit", &spec);
        assert!(r.findings.iter().any(|f| f.kind == LintKind::DuplicateMessageTag));
        assert!(r.findings.iter().any(|f| f.kind == LintKind::MessageTagGap));
    }

    #[test]
    fn json_is_deterministic_under_note_order() {
        let spec = clean_spec();
        let mut flipped = clean_spec();
        flipped.protocols.reverse();
        flipped.handlers.reverse();
        let a = run_lint("unit", &spec).to_json();
        let b = run_lint("unit", &flipped).to_json();
        assert_eq!(a, b);
        let doc = hal_des::json::Json::parse(&a).expect("the report is JSON");
        assert_eq!(doc.get("clean"), Some(&hal_des::json::Json::Bool(true)));
    }
}
