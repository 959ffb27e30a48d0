//! End-to-end tests of the simulated machine: every §4–§7 mechanism
//! exercised through the public kernel API.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    Behavior, BehaviorId, BehaviorRegistry, ContRef, MachineConfig, MailAddr, Msg, SimMachine,
    Value,
};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Test behaviors
// ---------------------------------------------------------------------

/// Echo: replies to any request with its argument + 1.
struct Echo;
impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let x = msg.args[0].as_int();
        ctx.reply(Value::Int(x + 1));
    }
    fn name(&self) -> &'static str {
        "echo"
    }
}
fn make_echo(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Echo)
}

/// Ping-pong: bounces a counter back and forth `limit` times, then
/// reports and stops.
struct Pinger {
    limit: i64,
}
impl Behavior for Pinger {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let n = msg.args[0].as_int();
        let peer = msg.args[1].as_addr();
        if n >= self.limit {
            ctx.report("rounds", Value::Int(n));
            ctx.stop();
        } else {
            let me = ctx.me();
            ctx.send(peer, 0, vec![Value::Int(n + 1), Value::Addr(me)]);
        }
    }
    fn name(&self) -> &'static str {
        "pinger"
    }
}
fn make_pinger(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Pinger {
        limit: args[0].as_int(),
    })
}

/// A counter with a synchronization constraint: `get` (selector 1) is
/// disabled until the count reaches a threshold.
struct GatedCounter {
    count: i64,
    threshold: i64,
}
impl Behavior for GatedCounter {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => self.count += 1,
            1 => {
                ctx.report("gated_count", Value::Int(self.count));
                ctx.stop();
            }
            _ => unreachable!(),
        }
    }
    fn enabled(&self, selector: u32, _args: &[Value]) -> bool {
        selector != 1 || self.count >= self.threshold
    }
    fn name(&self) -> &'static str {
        "gated-counter"
    }
}

/// A nomad that migrates along a scripted path of nodes, counting hops,
/// then reports where it ended and how many messages it got afterwards.
struct Nomad {
    hops: Vec<u16>,
    received_after: i64,
}
impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            // "walk": migrate to the next scripted node.
            0 => {
                if let Some(next) = self.hops.pop() {
                    let me = ctx.me();
                    // keep walking after arrival
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                } else {
                    ctx.report("nomad_settled_on", Value::Int(ctx.node() as i64));
                }
            }
            // "probe": a message that must find the nomad wherever it is.
            1 => {
                self.received_after += 1;
                ctx.report("nomad_probed_on", Value::Int(ctx.node() as i64));
                if let Some(ContRef::Actor { .. }) | Some(ContRef::Join { .. }) = msg.customer {
                    ctx.reply(Value::Int(self.received_after));
                }
            }
            _ => unreachable!(),
        }
    }
    fn name(&self) -> &'static str {
        "nomad"
    }
}

/// Group member: answers a broadcast by reporting its index; member 0
/// stops the machine when poked directly.
struct Member {
    index: i64,
}
impl Behavior for Member {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => ctx.report("member_saw_bcast", Value::Int(self.index)),
            1 => ctx.reply(Value::Int(self.index * 10)),
            _ => unreachable!(),
        }
    }
    fn name(&self) -> &'static str {
        "member"
    }
}
fn make_member(args: &[Value]) -> Box<dyn Behavior> {
    // grpnew appends [Group(id), Int(index), Int(count)] to init args.
    let index = args[args.len() - 2].as_int();
    Box::new(Member { index })
}

/// Sends `n` probe messages (selector 1) to a target address when poked.
struct Spray {
    target: MailAddr,
    n: i64,
}
impl Behavior for Spray {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        for _ in 0..self.n {
            ctx.send(self.target, 1, vec![]);
        }
    }
    fn name(&self) -> &'static str {
        "spray"
    }
}
fn make_spray(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Spray {
        target: args[0].as_addr(),
        n: args[1].as_int(),
    })
}

fn registry() -> Arc<BehaviorRegistry> {
    let mut reg = BehaviorRegistry::new();
    reg.register(BehaviorId(1), "echo", make_echo);
    reg.register(BehaviorId(2), "pinger", make_pinger);
    reg.register(BehaviorId(3), "member", make_member);
    reg.register(BehaviorId(4), "spray", make_spray);
    Arc::new(reg)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn local_ping_pong_on_one_node() {
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    m.with_ctx(0, |ctx| {
        let a = ctx.create_local(Box::new(Pinger { limit: 10 }));
        let b = ctx.create_local(Box::new(Pinger { limit: 10 }));
        ctx.send(a, 0, vec![Value::Int(0), Value::Addr(b)]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("rounds"), Some(&Value::Int(10)));
    assert!(r.makespan.as_nanos() > 0);
}

#[test]
fn cross_node_ping_pong() {
    let mut m = SimMachine::new(MachineConfig::new(2), registry());
    m.with_ctx(0, |ctx| {
        let a = ctx.create_local(Box::new(Pinger { limit: 20 }));
        let b = ctx.create_on(1, BehaviorId(2), vec![Value::Int(20)]);
        ctx.send(a, 0, vec![Value::Int(0), Value::Addr(b)]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("rounds"), Some(&Value::Int(20)));
    assert!(r.stats.get("msgs.remote") >= 19, "messages crossed nodes");
    assert!(r.stats.get("net.packets") > 0);
}

#[test]
fn remote_creation_uses_alias_and_hides_latency() {
    let cfg = MachineConfig::new(2);
    let req_cost = cfg.cost.remote_creation_request;
    let mut m = SimMachine::new(cfg, registry());
    // The requester's clock advances by only the request cost (5.83 us),
    // not the full round trip: that is the §5 latency-hiding claim.
    let before = m.kernel(0).clock;
    m.with_ctx(0, |ctx| {
        let remote = ctx.create_on(1, BehaviorId(1), vec![]);
        assert!(remote.is_alias(), "remote creation returns an alias");
        assert_eq!(remote.key.birthplace, 0, "alias born at the requester");
        assert_eq!(remote.default_route(), 1, "alias routes to creation node");
    });
    let apparent = m.kernel(0).clock.since(before);
    assert_eq!(
        apparent.as_nanos(),
        req_cost.as_nanos() + m.kernel(0).config().cost.net_send_overhead.as_nanos(),
        "requester pays exactly 5.83us (request + injection), creation happens in the background"
    );
    assert_eq!(apparent.as_nanos(), 5_830, "the paper's 5.83us apparent cost");
    let r = m.run().unwrap();
    assert_eq!(r.stats.get("actors.remote_created"), 1);
    // The actual creation completed at ~20.83us on the remote node (§5).
    let actual = r
        .stats
        .histogram("create.remote_actual_ns")
        .expect("creation observed")
        .max();
    assert_eq!(actual, 20_830, "the paper's 20.83us actual creation latency");
}

#[test]
fn messages_to_alias_before_creation_are_delivered() {
    // Send through the alias immediately — the message races the Create
    // request and must be parked and delivered in order.
    let mut m = SimMachine::new(MachineConfig::new(2), registry());
    m.with_ctx(0, |ctx| {
        let remote = ctx.create_on(1, BehaviorId(1), vec![]);
        let jc = ctx.create_reply_join(Box::new(|ctx, v| {
            ctx.report("echoed", v);
            ctx.stop();
        }));
        ctx.request(remote, 0, vec![Value::Int(41)], ctx.cont_slot(jc, 0));
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("echoed"), Some(&Value::Int(42)));
}

#[test]
fn join_continuation_collects_multiple_replies() {
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    m.with_ctx(0, |ctx| {
        // Three echo servers on three different nodes.
        let servers: Vec<MailAddr> = (1..4)
            .map(|n| ctx.create_on(n, BehaviorId(1), vec![]))
            .collect();
        let jc = ctx.create_join(
            4,
            vec![(0, Value::Int(100))], // one slot pre-known (Fig. 4)
            Box::new(|ctx, vals| {
                let sum: i64 = vals.iter().map(|v| v.as_int()).sum();
                ctx.report("join_sum", Value::Int(sum));
                ctx.stop();
            }),
        );
        for (i, s) in servers.iter().enumerate() {
            ctx.request(*s, 0, vec![Value::Int(i as i64)], ctx.cont_slot(jc, (i + 1) as u16));
        }
    });
    let r = m.run().unwrap();
    // 100 + (0+1) + (1+1) + (2+1) = 106
    assert_eq!(r.value("join_sum"), Some(&Value::Int(106)));
    assert_eq!(r.stats.get("joins.fired"), 1);
}

#[test]
fn synchronization_constraint_defers_until_enabled() {
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    m.with_ctx(0, |ctx| {
        let c = ctx.create_local(Box::new(GatedCounter {
            count: 0,
            threshold: 3,
        }));
        // `get` first: it must wait in the pending queue until three
        // increments have landed.
        ctx.send(c, 1, vec![]);
        for _ in 0..3 {
            ctx.send(c, 0, vec![]);
        }
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("gated_count"), Some(&Value::Int(3)));
    assert!(r.stats.get("sync.deferred") >= 1, "get was deferred");
    assert!(r.stats.get("sync.resumed") >= 1, "get was resumed from pendq");
}

#[test]
fn migration_chain_is_chased_by_fir() {
    // Nomad walks 0 -> 1 -> 2 -> 3; probes sent from node 0 with stale
    // information must chase it via FIR and arrive exactly once.
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    let nomad = m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: vec![3, 2, 1], // popped back to front
            received_after: 0,
        }));
        ctx.send(nomad, 0, vec![]); // start walking
        nomad
    });
    let _walk = m.run().unwrap(); // run until the nomad settles on node 3

    // Now probe from node 0 — its descriptor may be stale.
    let mut probes = 0;
    m.with_ctx(0, |ctx| {
        ctx.send(nomad, 1, vec![]);
        probes += 1;
    });
    let r = m.run().unwrap();
    assert_eq!(probes, 1);
    assert_eq!(
        r.value("nomad_settled_on"),
        Some(&Value::Int(3)),
        "walked the full path"
    );
    assert_eq!(
        r.value("nomad_probed_on"),
        Some(&Value::Int(3)),
        "probe chased the nomad to its final node"
    );
    assert_eq!(r.stats.get("migrations.out"), 3);
    assert_eq!(r.stats.get("migrations.in"), 3);
}

#[test]
fn probes_racing_migration_are_chased_and_delivered_exactly_once() {
    // Fire probes *while* the nomad is walking: they hit unconfirmed
    // forward pointers and must be chased (FIR) or forwarded, arriving
    // exactly once each.
    let cfg = MachineConfig::builder(4).metrics().build().unwrap();
    let mut m = SimMachine::new(cfg, registry());
    m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: vec![1, 3, 2, 1, 3, 2], // six hops, popped back to front
            received_after: 0,
        }));
        ctx.send(nomad, 0, vec![]); // start walking
        // A prober on another node sprays probes that race the walk —
        // they chase the nomad through stale forward pointers.
        let spray = ctx.create_on(1, BehaviorId(4), vec![Value::Addr(nomad), Value::Int(5)]);
        ctx.send(spray, 0, vec![]);
    });
    let r = m.run().unwrap();
    assert_eq!(
        r.values("nomad_probed_on").len(),
        5,
        "every probe delivered exactly once despite six migrations"
    );
    assert_eq!(r.stats.get("migrations.out"), 6);
    assert!(
        r.stats.get("fir.sent") + r.stats.get("deliver.forwarded") >= 1,
        "at least one probe had to chase the nomad (fir.sent={}, forwarded={})",
        r.stats.get("fir.sent"),
        r.stats.get("deliver.forwarded")
    );
    // Every located chase left its forward-chain length in the registry
    // (the live twin is `live_tests::threaded_migration_roundtrip`).
    let metrics = r.metrics.as_ref().expect("metrics were requested");
    let chains: u64 = metrics.nodes.iter().map(|n| n.chain_epochs.count()).sum();
    assert!(chains > 0);
    assert_eq!(chains, r.stats.get("fir.found"));
}

#[test]
fn birthplace_learns_migrations_so_later_sends_skip_the_chain() {
    // After the walk settles and gossip quiesces, the birthplace holds a
    // *confirmed* pointer to the final node: a fresh probe from the
    // birthplace must reach the nomad with no FIR at all.
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    let nomad = m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: vec![3, 2, 1],
            received_after: 0,
        }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    let walk = m.run().unwrap();
    let fir_during_walk = walk.stats.get("fir.sent");

    m.with_ctx(0, |ctx| ctx.send(nomad, 1, vec![]));
    let r = m.run().unwrap();
    assert_eq!(r.value("nomad_probed_on"), Some(&Value::Int(3)));
    assert_eq!(
        r.stats.get("fir.sent"),
        fir_during_walk,
        "birthplace had confirmed info (§4.3 caching): no FIR for the probe"
    );
}

#[test]
fn group_broadcast_reaches_every_member() {
    let p = 4;
    let count = 16u32;
    let mut m = SimMachine::new(MachineConfig::new(p), registry());
    m.with_ctx(0, |ctx| {
        let g = ctx.grpnew(BehaviorId(3), count, vec![]);
        ctx.broadcast(g, 0, vec![]);
    });
    let r = m.run().unwrap();
    let mut indices: Vec<i64> = r
        .values("member_saw_bcast")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    indices.sort_unstable();
    assert_eq!(
        indices,
        (0..count as i64).collect::<Vec<_>>(),
        "every member saw the broadcast exactly once"
    );
    assert_eq!(r.stats.get("groups.members_created"), count as u64);
}

#[test]
fn group_member_point_to_point_via_home_node() {
    let mut m = SimMachine::new(MachineConfig::new(4), registry());
    m.with_ctx(0, |ctx| {
        let g = ctx.grpnew(BehaviorId(3), 8, vec![]);
        let jc = ctx.create_join(
            2,
            vec![],
            Box::new(|ctx, vals| {
                ctx.report("m3", vals[0].clone());
                ctx.report("m7", vals[1].clone());
                ctx.stop();
            }),
        );
        ctx.request_member(g, 3, 1, vec![], ctx.cont_slot(jc, 0));
        ctx.request_member(g, 7, 1, vec![], ctx.cont_slot(jc, 1));
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("m3"), Some(&Value::Int(30)));
    assert_eq!(r.value("m7"), Some(&Value::Int(70)));
}

#[test]
fn load_balancing_spreads_ready_work() {
    // Create a pile of self-contained workers on node 0 only; with load
    // balancing on, other nodes should steal some.
    struct Worker;
    impl Behavior for Worker {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            // Simulate real compute so victims stay busy long enough for
            // thieves to poll.
            ctx.charge(hal_des::VirtualDuration::from_micros(200));
            ctx.report("worker_ran_on", Value::Int(ctx.node() as i64));
        }
    }
    let cfg = MachineConfig::builder(4).load_balancing(true).build().unwrap();
    let mut m = SimMachine::new(cfg, registry());
    m.with_ctx(0, |ctx| {
        for _ in 0..64 {
            let w = ctx.create_local(Box::new(Worker));
            ctx.send(w, 0, vec![]);
        }
    });
    let r = m.run().unwrap();
    let nodes_used: std::collections::HashSet<i64> = r
        .values("worker_ran_on")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    assert_eq!(r.values("worker_ran_on").len(), 64, "all workers ran");
    assert!(
        nodes_used.len() > 1,
        "stealing moved work off node 0 (used: {nodes_used:?})"
    );
    assert!(r.stats.get("steal.granted") > 0);
    assert_eq!(r.stats.get("migrations.in"), r.stats.get("steal.granted"));
}

#[test]
fn determinism_same_seed_same_everything() {
    let run = |seed: u64| {
        let cfg = MachineConfig::builder(4).load_balancing(true).seed(seed).build().unwrap();
        let mut m = SimMachine::new(cfg, registry());
        m.with_ctx(0, |ctx| {
            let a = ctx.create_local(Box::new(Pinger { limit: 50 }));
            let b = ctx.create_on(2, BehaviorId(2), vec![Value::Int(50)]);
            ctx.send(a, 0, vec![Value::Int(0), Value::Addr(b)]);
        });
        let r = m.run().unwrap();
        (r.makespan, r.events, r.stats.get("net.packets"))
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed => bit-identical run");
    // Different virtual outcomes are *allowed* for different seeds, but
    // the computation result must still be right — covered elsewhere.
}

#[test]
fn fast_path_inline_dispatch_executes_on_senders_stack() {
    struct Caller {
        target: MailAddr,
    }
    impl Behavior for Caller {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            let took_fast = ctx.send_fast(self.target, 0, vec![Value::Int(5)]);
            ctx.report("fast", Value::Int(took_fast as i64));
            ctx.stop();
        }
    }
    struct Sink;
    impl Behavior for Sink {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            ctx.report("sink_got", msg.args[0].clone());
        }
    }
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    m.with_ctx(0, |ctx| {
        let sink = ctx.create_local(Box::new(Sink));
        let caller = ctx.create_local(Box::new(Caller { target: sink }));
        ctx.send(caller, 0, vec![]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("fast"), Some(&Value::Int(1)), "fast path taken");
    assert_eq!(r.value("sink_got"), Some(&Value::Int(5)));
    assert_eq!(r.stats.get("fast.inline"), 1);
}

#[test]
fn become_changes_behavior() {
    struct First;
    impl Behavior for First {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.report("phase", Value::Int(1));
            ctx.become_behavior(Box::new(Second));
        }
    }
    struct Second;
    impl Behavior for Second {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.report("phase", Value::Int(2));
            ctx.stop();
        }
    }
    let mut m = SimMachine::new(MachineConfig::new(1), registry());
    m.with_ctx(0, |ctx| {
        let a = ctx.create_local(Box::new(First));
        ctx.send(a, 0, vec![]);
        ctx.send(a, 0, vec![]);
    });
    let r = m.run().unwrap();
    let phases: Vec<i64> = r.values("phase").into_iter().map(|v| v.as_int()).collect();
    assert_eq!(phases, vec![1, 2], "become swapped the behavior");
}

#[test]
fn bulk_messages_use_three_phase_protocol() {
    struct BigSink;
    impl Behavior for BigSink {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let len = msg.args[0].as_bytes().len() as i64;
            ctx.report("bytes", Value::Int(len));
            ctx.stop();
        }
    }
    let mut m = SimMachine::new(MachineConfig::new(2), registry());
    let sink = m.with_ctx(1, |ctx| ctx.create_local(Box::new(BigSink)));
    m.with_ctx(0, |ctx| {
        let payload = hal_am::Bytes::from(vec![7u8; 100_000]);
        ctx.send(sink, 0, vec![Value::Bytes(payload)]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("bytes"), Some(&Value::Int(100_000)));
    assert!(
        r.stats.get("net.bulk_requests") >= 1,
        "large payload went through the 3-phase protocol"
    );
}

#[test]
fn makespan_reflects_network_latency() {
    // A single remote message's end-to-end virtual time must exceed the
    // pure link latency.
    let cfg = MachineConfig::new(2);
    let latency = cfg.link.latency;
    let mut m = SimMachine::new(cfg, registry());
    struct Stop;
    impl Behavior for Stop {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.stop();
        }
    }
    let a = m.with_ctx(1, |ctx| ctx.create_local(Box::new(Stop)));
    m.with_ctx(0, |ctx| ctx.send(a, 0, vec![]));
    let r = m.run().unwrap();
    assert!(r.makespan.as_nanos() >= latency.as_nanos());
}
