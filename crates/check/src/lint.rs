//! The static message-protocol lint: one `hal-check` pass over what a
//! program *declares*.
//!
//! Where the trace/audit passes check what a run *did*, this pass checks
//! the program without executing anything. Its input is the
//! [`LintSpec`] a harness assembles from compile-time facts: every
//! protocol's [`ProtocolDecl`] (the `messages!` macro's `DECL` const,
//! carrying the tag table and the per-variant `=> [Dest, ...]` send
//! annotations), which behavior handles which protocol, which protocols
//! the driver injects (roots), and any declared wait-for gates. From
//! those it builds the protocol-level message-flow graph, records it as
//! the report's [`Flow`], and reports into the same [`CheckReport`] as
//! every other pass:
//!
//! * **[`ViolationKind::UnknownDestinationProtocol`]** — a send
//!   annotation, handler registration, or root names a protocol nobody
//!   declared (typo, or a protocol dropped without updating its senders).
//! * **[`ViolationKind::UnhandledSelector`]** — traffic can reach a
//!   protocol (it is a root, or a reachable variant sends to it) but no
//!   behavior handles it: every such message would hit `decode`'s
//!   unknown-selector panic or park forever.
//! * **[`ViolationKind::DeadBehavior`]** — a behavior handles a protocol
//!   no root can reach through the flow graph: registered but
//!   unreachable code (often a stale registration after a workload
//!   reshape).
//! * **[`ViolationKind::WaitForCycle`]** — the declared wait-for gates
//!   form a cycle: every selector on it waits for another, a static
//!   deadlock candidate the §6.1 constraint machinery cannot re-enable.
//! * the tag-table checks ([`crate::check_tags`]), run once per distinct
//!   declared protocol.
//!
//! Findings are violations with an empty window. Everything is built
//! from sorted containers and carries no host facts, so the report's
//! bytes are identical across runs and hosts.

use crate::report::{CheckReport, Flow, ViolationKind};
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

/// Run the whole static pass over `spec` into `out` as its `lint` pass.
///
/// The pass is pure and deterministic: same spec, same report bytes.
pub fn run_lint(spec: &LintSpec, out: &mut CheckReport) {
    out.passes.push("lint".to_string());
    let mut flow = Flow::default();

    // Deduplicate protocol declarations by name (several runs in one bin
    // note the same protocol); conflicting re-declarations are real
    // program-image bugs, not note-order noise.
    let mut decls: BTreeMap<&str, &ProtocolDecl> = BTreeMap::new();
    for d in &spec.protocols {
        match decls.get(d.name) {
            None => {
                decls.insert(d.name, d);
            }
            Some(prev) if *prev != d => out.violation(
                ViolationKind::UnknownDestinationProtocol,
                format!("protocol {} declared twice with different tables", d.name),
            ),
            Some(_) => {}
        }
    }
    flow.protocols = decls.keys().map(|s| (*s).to_string()).collect();

    // Tag-table checks, once per distinct declared protocol.
    for d in decls.values() {
        crate::check_tags(d.name, d.tags, out);
    }

    // Handlers: behavior -> protocol, sorted + deduped.
    let handlers: BTreeSet<(&str, &str)> = spec
        .handlers
        .iter()
        .map(|(b, p)| (b.as_str(), p.as_str()))
        .collect();
    flow.behaviors = handlers
        .iter()
        .map(|(b, _)| (*b).to_string())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let handled: BTreeSet<&str> = handlers.iter().map(|&(_, p)| p).collect();
    for &(behavior, proto) in &handlers {
        if !decls.contains_key(proto) {
            out.violation(
                ViolationKind::UnknownDestinationProtocol,
                format!("behavior {behavior:?} handles undeclared protocol {proto}"),
            );
        }
    }

    // Roots, sorted + deduped.
    let roots: BTreeSet<&str> = spec.roots.iter().map(String::as_str).collect();
    flow.roots = roots.iter().map(|s| (*s).to_string()).collect();
    for &r in &roots {
        if !decls.contains_key(r) {
            out.violation(
                ViolationKind::UnknownDestinationProtocol,
                format!("root protocol {r} is not declared"),
            );
        }
    }

    // Send edges: every annotated destination must be declared.
    for d in decls.values() {
        for (variant, dests) in d.sends {
            for dest in *dests {
                if !decls.contains_key(dest) {
                    out.violation(
                        ViolationKind::UnknownDestinationProtocol,
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
    flow.reachable = reachable.iter().map(|s| (*s).to_string()).collect();

    // Unhandled selectors: traffic can reach the protocol, nobody
    // decodes it. Reported per inbound edge so the fix site is named.
    for &r in &roots {
        if decls.contains_key(r) && !handled.contains(r) {
            out.violation(
                ViolationKind::UnhandledSelector,
                format!("root protocol {r} has no handling behavior"),
            );
        }
    }
    for p in reachable.iter().copied().filter(|p| handled.contains(p)) {
        let Some(d) = decls.get(p) else { continue };
        for (variant, dests) in d.sends {
            for dest in *dests {
                if decls.contains_key(*dest) && !handled.contains(*dest) {
                    out.violation(
                        ViolationKind::UnhandledSelector,
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
            out.violation(
                ViolationKind::DeadBehavior,
                format!(
                    "behavior {behavior:?} handles protocol {proto}, \
                     which is unreachable from the roots"
                ),
            );
        }
    }

    check_gates(spec, &decls, out);
    out.flow = Some(flow);
}

/// Validate the declared wait-for edges and report every cycle once.
fn check_gates(spec: &LintSpec, decls: &BTreeMap<&str, &ProtocolDecl>, out: &mut CheckReport) {
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
                                    out.violation(
                                        ViolationKind::WaitForCycle,
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
    use crate::Violation;

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

    fn lint(spec: &LintSpec) -> CheckReport {
        let mut r = CheckReport::new("unit");
        run_lint(spec, &mut r);
        r
    }

    /// The first violation of `kind` whose detail contains `needle`.
    fn found<'a>(r: &'a CheckReport, kind: ViolationKind, needle: &str) -> &'a Violation {
        r.violations
            .iter()
            .find(|v| v.kind == kind && v.detail.contains(needle))
            .unwrap_or_else(|| panic!("no {} naming {needle}:\n{}", kind.name(), r.summary()))
    }

    #[test]
    fn clean_program_is_clean() {
        let r = lint(&clean_spec());
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.passes, ["lint", "tags:Reply", "tags:Work"]);
        let flow = r.flow.as_ref().expect("the lint records its flow facts");
        assert_eq!(flow.protocols, vec!["Reply", "Work"]);
        assert_eq!(flow.reachable, vec!["Reply", "Work"]);
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
        let r = lint(&spec);
        let v = found(&r, ViolationKind::UnknownDestinationProtocol, "Wrok");
        assert!(v.detail.contains("Work::Start"), "{}", v.detail);
        assert!(v.window.is_empty(), "a static finding has no event window");
    }

    #[test]
    fn unhandled_selector_is_reported() {
        let mut spec = clean_spec();
        spec.handlers.retain(|(b, _)| b != "collector");
        found(&lint(&spec), ViolationKind::UnhandledSelector, "Reply");
    }

    #[test]
    fn unhandled_root_is_reported() {
        let mut spec = clean_spec();
        spec.handlers.clear();
        found(&lint(&spec), ViolationKind::UnhandledSelector, "root protocol Work");
    }

    #[test]
    fn dead_behavior_is_reported() {
        let mut spec = clean_spec();
        // Nothing sends Orphan, but a behavior handles it.
        spec.protocols.push(decl("Orphan", &[("Nop", 0)], &[("Nop", &[])]));
        spec.handlers.push(("orphan".into(), "Orphan".into()));
        found(&lint(&spec), ViolationKind::DeadBehavior, "orphan");
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
        let r = lint(&spec);
        found(&r, ViolationKind::UnhandledSelector, "Reply");
        found(&r, ViolationKind::DeadBehavior, "tail");
        assert!(!r.flow.unwrap().reachable.contains(&"Tail".to_string()));
    }

    #[test]
    fn wait_for_cycle_is_reported_once() {
        let mut spec = clean_spec();
        spec.gates = vec![
            ("Work::Start".into(), "Reply::Done".into()),
            ("Reply::Done".into(), "Work::Step".into()),
            ("Work::Step".into(), "Work::Start".into()),
        ];
        let r = lint(&spec);
        let cycles: Vec<_> =
            r.violations.iter().filter(|v| v.kind == ViolationKind::WaitForCycle).collect();
        assert_eq!(cycles.len(), 1, "{}", r.summary());
        assert!(cycles[0].detail.contains("Reply::Done"), "{}", cycles[0].detail);
    }

    #[test]
    fn gate_on_unknown_selector_warns() {
        let mut spec = clean_spec();
        spec.gates.push(("Work::Nope".into(), "Reply::Done".into()));
        let r = lint(&spec);
        assert!(r.is_clean(), "{}", r.summary());
        assert!(r.warnings.iter().any(|w| w.contains("Work::Nope")), "{:?}", r.warnings);
    }

    #[test]
    fn tag_table_defects_fold_in() {
        let bad = decl(
            "Bad",
            &[("A", 0), ("B", 0), ("C", 2)], // duplicate 0, hole at 1
            &[("A", &[]), ("B", &[]), ("C", &[])],
        );
        // Declared twice (two runs of one harness note it twice): the
        // table is checked once.
        let spec = LintSpec {
            protocols: vec![bad, bad],
            handlers: vec![("bad".into(), "Bad".into())],
            roots: vec!["Bad".into()],
            gates: Vec::new(),
        };
        let r = lint(&spec);
        assert_eq!(r.passes.iter().filter(|p| *p == "tags:Bad").count(), 1, "{:?}", r.passes);
        assert_eq!(r.counts()["DuplicateMessageTag"], 1, "{}", r.summary());
        assert_eq!(r.counts()["MessageTagGap"], 1, "{}", r.summary());
    }

    #[test]
    fn json_is_deterministic_under_note_order() {
        let spec = clean_spec();
        let mut flipped = clean_spec();
        flipped.protocols.reverse();
        flipped.handlers.reverse();
        let a = lint(&spec).to_json();
        assert_eq!(a, lint(&flipped).to_json());
        let doc = hal_des::json::Json::parse(&a).expect("the report is JSON");
        assert_eq!(doc.get("clean"), Some(&hal_des::json::Json::Bool(true)));
        let flow = doc.get("flow").expect("the flow object");
        let behaviors = flow.get("behaviors").and_then(hal_des::json::Json::as_arr).unwrap();
        assert_eq!(behaviors.len(), 2);
    }
}
