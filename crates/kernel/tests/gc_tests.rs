//! Distributed garbage collection (§9 future work): end-to-end tests of
//! the coordinator-driven mark & sweep over locality descriptors.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    Behavior, BehaviorId, BehaviorRegistry, MachineConfig, MailAddr, Msg, SimMachine, Value,
};
use std::sync::Arc;

/// Holds up to two acquaintance addresses, settable by message, and
/// declares them for GC tracing.
struct Holder {
    refs: Vec<MailAddr>,
}
impl Behavior for Holder {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        // selector 0: adopt every Addr argument as an acquaintance.
        self.refs = msg.args.iter().map(|v| v.as_addr()).collect();
    }
    fn acquaintances(&self) -> Vec<MailAddr> {
        self.refs.clone()
    }
    fn name(&self) -> &'static str {
        "holder"
    }
}
fn make_holder(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Holder { refs: Vec::new() })
}

fn registry() -> Arc<BehaviorRegistry> {
    let mut reg = BehaviorRegistry::new();
    reg.register(BehaviorId(0), "holder", make_holder);
    Arc::new(reg)
}

fn new_holder(ctx: &mut Ctx<'_>) -> MailAddr {
    ctx.create_local(Box::new(Holder { refs: Vec::new() }))
}

#[test]
fn unreferenced_actors_are_collected() {
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    m.with_ctx(0, |ctx| {
        for _ in 0..10 {
            new_holder(ctx); // garbage: never pinned, never referenced
        }
        let kept = new_holder(ctx);
        ctx.pin(kept);
    });
    m.run().unwrap();
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 10);
    assert_eq!(r.live, 1);
}

#[test]
fn reference_chains_keep_actors_alive_across_nodes() {
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    // a (node 0, pinned) -> b (node 2) -> c (node 3); d is garbage.
    m.with_ctx(3, |ctx| {
        let c = new_holder(ctx);
        ctx.report("c", Value::Addr(c));
    });
    let c_addr = match m.report().value("c") {
        Some(Value::Addr(a)) => *a,
        _ => unreachable!(),
    };
    m.with_ctx(2, |ctx| {
        let b = new_holder(ctx);
        ctx.send(b, 0, vec![Value::Addr(c_addr)]); // b adopts c
        ctx.report("b", Value::Addr(b));
    });
    let b_addr = match m.report().value("b") {
        Some(Value::Addr(a)) => *a,
        _ => unreachable!(),
    };
    m.with_ctx(0, |ctx| {
        let a = new_holder(ctx);
        ctx.send(a, 0, vec![Value::Addr(b_addr)]); // a adopts b
        ctx.pin(a);
        new_holder(ctx); // garbage on node 0
    });
    m.run().unwrap();
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 1, "only the unreferenced actor is freed");
    assert_eq!(r.live, 3, "the pinned chain a->b->c survives");
    assert!(r.rounds >= 1, "cross-node marks need at least one extra round");
}

/// One pinned root on node 0 holds `per` actors on every other node. Its
/// mark batches race the spanning tree: one may land before the node's
/// `GcBegin`, and one of four or more keys travels the bulk protocol and
/// may land after the next `GcRoundGo`. Neither may cost a reachable actor.
#[test]
fn marks_racing_the_rounds_keep_remote_acquaintances_alive() {
    for nodes in [2, 3, 4, 8, 16] {
        for per in [1, 4, 16] {
            let mut m = SimMachine::new(MachineConfig::new(nodes), registry());
            let mut held = Vec::new();
            for n in 1..nodes as u16 {
                for _ in 0..per {
                    held.push(Value::Addr(m.with_ctx(n, new_holder)));
                }
            }
            m.with_ctx(0, |ctx| {
                let root = new_holder(ctx);
                ctx.send(root, 0, held);
                ctx.pin(root);
            });
            m.run().unwrap();
            let r = m.collect_garbage().unwrap();
            let what = format!("{nodes} nodes x {per} per node");
            assert_eq!(r.freed, 0, "{what}: a reachable actor was freed");
            assert_eq!(r.live, 1 + per * (nodes as u64 - 1), "{what}");
        }
    }
}

#[test]
fn unpinning_makes_a_whole_chain_collectable() {
    let mut m = SimMachine::new(MachineConfig::new(2), registry());
    let a = m.with_ctx(0, |ctx| {
        let c = new_holder(ctx);
        let b = new_holder(ctx);
        ctx.send(b, 0, vec![Value::Addr(c)]);
        let a = new_holder(ctx);
        ctx.send(a, 0, vec![Value::Addr(b)]);
        ctx.pin(a);
        a
    });
    m.run().unwrap();
    let r1 = m.collect_garbage().unwrap();
    assert_eq!(r1.freed, 0);
    assert_eq!(r1.live, 3);

    m.with_ctx(0, |ctx| ctx.unpin(a));
    let r2 = m.collect_garbage().unwrap();
    assert_eq!(r2.freed, 3, "dropping the root frees the whole chain");
    assert_eq!(r2.live, 0);
}

#[test]
fn actors_with_queued_messages_are_roots() {
    // An actor with pending mail must never be collected even if nothing
    // references it: the message will still be processed.
    struct Gate {
        opened: bool,
    }
    impl Behavior for Gate {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            match msg.selector {
                0 => self.opened = true,
                1 => ctx.report("gate_alive", Value::Int(self.opened as i64)),
                _ => unreachable!(),
            }
        }
        fn enabled(&self, selector: u32, _args: &[Value]) -> bool {
            selector != 1 || self.opened
        }
    }
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    let g = m.with_ctx(0, |ctx| {
        let g = ctx.create_local(Box::new(Gate { opened: false }));
        // The probe parks in the pending queue (disabled until opened).
        ctx.send(g, 1, vec![]);
        g
    });
    m.run().unwrap();
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 0, "actor with a pending message is a root");
    assert_eq!(m.kernel(0).mail_cells().0, 1, "the parked probe survived the sweep");

    // Open the gate; the parked probe fires; everything still works.
    m.with_ctx(0, |ctx| ctx.send(g, 0, vec![]));
    let rep = m.run().unwrap();
    assert_eq!(rep.value("gate_alive"), Some(&Value::Int(1)));

    // With its queues empty the gate is garbage, and the sweep (which
    // asserts a swept actor holds no mail) frees it without a cell left.
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 1);
    assert_eq!(m.kernel(0).mail_cells().0, 0);
}

#[test]
fn group_members_survive_collection() {
    let mut reg = BehaviorRegistry::new();
    reg.register(BehaviorId(0), "holder", make_holder);
    let mut m = SimMachine::new(MachineConfig::new(4), Arc::new(reg));
    m.with_ctx(0, |ctx| {
        ctx.grpnew(BehaviorId(0), 12, vec![]);
        new_holder(ctx); // garbage
    });
    m.run().unwrap();
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 1);
    assert_eq!(r.live, 12, "group members stay reachable via the group id");
}

#[test]
fn collection_is_stable_under_repetition() {
    let mut m = SimMachine::new(MachineConfig::new(3), registry());
    m.with_ctx(0, |ctx| {
        let keep = new_holder(ctx);
        ctx.pin(keep);
        for _ in 0..5 {
            new_holder(ctx);
        }
    });
    m.run().unwrap();
    assert_eq!(m.collect_garbage().unwrap().freed, 5);
    assert_eq!(m.collect_garbage().unwrap().freed, 0, "second collection finds nothing");
    assert_eq!(m.collect_garbage().unwrap().live, 1);
}

#[test]
fn migrated_actors_are_traced_at_their_current_home() {
    struct Mover;
    impl Behavior for Mover {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.migrate(1);
        }
    }
    let mut m = SimMachine::new(MachineConfig::new(2), registry());
    m.with_ctx(0, |ctx| {
        let mover = ctx.create_local(Box::new(Mover));
        ctx.send(mover, 0, vec![]); // migrates 0 -> 1
        let holder = new_holder(ctx);
        ctx.send(holder, 0, vec![Value::Addr(mover)]); // holder -> mover
        ctx.pin(holder);
    });
    m.run().unwrap();
    let r = m.collect_garbage().unwrap();
    assert_eq!(r.freed, 0, "the migrated referent is found via its forward chain");
    assert_eq!(r.live, 2);
}

#[test]
#[should_panic(expected = "dangling local mail address")]
fn sending_to_a_collected_actor_fails_loudly() {
    // Use-after-free semantics: a mail address that survives its actor's
    // collection is a program error and must not be silent.
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    let ghost = m.with_ctx(0, new_holder);
    m.run().unwrap();
    assert_eq!(m.collect_garbage().unwrap().freed, 1);
    m.with_ctx(0, |ctx| ctx.send(ghost, 0, vec![]));
    m.run().unwrap();
}
