//! The live machine runs the identical kernel code with real OS threads
//! and channels — these tests check cross-thread behavior and that
//! results agree with the simulator.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    Behavior, BehaviorId, BehaviorRegistry, Machine, MachineConfig, Msg, SimReport, Value,
};
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        ctx.reply(Value::Int(msg.args[0].as_int() + 1));
    }
}
fn make_echo(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Echo)
}

fn registry() -> Arc<BehaviorRegistry> {
    let mut reg = BehaviorRegistry::new();
    reg.register(BehaviorId(1), "echo", make_echo);
    Arc::new(reg)
}

/// Bootstrap a live machine on node 0 and run it until an actor stops it.
/// `timeout` passing first is `MachineError::WallTimeout`, which fails
/// the test here.
fn run_live(
    cfg: MachineConfig,
    timeout: Duration,
    bootstrap: impl FnOnce(&mut Ctx<'_>),
) -> SimReport {
    let mut m = Machine::live(cfg, registry());
    m.with_ctx(0, bootstrap);
    m.drain(timeout).expect("machine stopped cleanly")
}

#[test]
fn threaded_cross_node_call_return() {
    let r = run_live(MachineConfig::new(4), Duration::from_secs(20), |ctx| {
        let servers: Vec<_> = (1..4u16)
            .map(|n| ctx.create_on(n, BehaviorId(1), vec![]))
            .collect();
        let jc = ctx.create_join(
            3,
            vec![],
            Box::new(|ctx, vals| {
                let sum: i64 = vals.iter().map(|v| v.as_int()).sum();
                ctx.report("sum", Value::Int(sum));
                ctx.stop();
            }),
        );
        for (i, s) in servers.iter().enumerate() {
            ctx.request(*s, 0, vec![Value::Int(10 * i as i64)], ctx.cont_slot(jc, i as u16));
        }
    });
    // (0+1) + (10+1) + (20+1) = 33
    assert_eq!(r.value("sum"), Some(&Value::Int(33)));
    assert_eq!(r.stats.get("actors.remote_created"), 3);
    // The join fired after the last reply: nothing is left over.
    assert!(r.audit.is_clean(), "{:?}", r.audit);
}

#[test]
fn threaded_migration_roundtrip() {
    const HOPS: i64 = 30;
    /// Hops around the ring on selector 0. Before each hop it leaves a
    /// `Prober` behind, which runs right after the actor has left and so
    /// finds an unconfirmed forward pointer: its probe (selector 1) has to
    /// chase. Stops once it has landed and every probe has caught up.
    struct Hopper {
        remaining: i64,
        probed: i64,
    }
    struct Prober(hal_kernel::MailAddr);
    impl Behavior for Prober {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.send(self.0, 1, vec![]);
        }
    }
    impl Behavior for Hopper {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.selector == 1 {
                self.probed += 1;
            } else if self.remaining > 0 {
                self.remaining -= 1;
                let next = ((ctx.node() as usize + 1) % ctx.nodes()) as u16;
                let me = ctx.me();
                ctx.send(me, 0, vec![]);
                let prober = ctx.create_local(Box::new(Prober(me)));
                ctx.send(prober, 0, vec![]);
                ctx.migrate(next);
            }
            if self.remaining == 0 && self.probed == HOPS {
                ctx.report("landed_on", Value::Int(ctx.node() as i64));
                ctx.stop();
            }
        }
    }
    let cfg = MachineConfig::builder(3).metrics().build().unwrap();
    let r = run_live(cfg, Duration::from_secs(20), |ctx| {
        let h = ctx.create_local(Box::new(Hopper {
            remaining: HOPS,
            probed: 0,
        }));
        ctx.send(h, 0, vec![]);
    });
    // 30 hops around a 3-ring starting at 0 ends back on node 0.
    assert_eq!(r.value("landed_on"), Some(&Value::Int(0)));
    assert_eq!(r.stats.get("migrations.out"), HOPS as u64);
    // Every located chase left its forward-chain length in the registry.
    let metrics = r.metrics.as_ref().expect("metrics were requested");
    let chains: u64 = metrics.nodes.iter().map(|n| n.chain_epochs.count()).sum();
    let found = r.stats.get("fir.found");
    assert!(found > 0, "no probe had to chase: {:?}", r.stats);
    assert_eq!(chains, found);
}

#[test]
fn threaded_load_balancing_steals() {
    struct Worker;
    impl Behavior for Worker {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            // Busy-work so the victim stays loaded while thieves poll.
            std::thread::sleep(Duration::from_millis(2));
            let done = msg.args[0].as_int();
            ctx.report("ran_on", Value::Int(ctx.node() as i64));
            if done == 1 {
                ctx.stop();
            }
        }
    }
    let n_workers = 32;
    let r = run_live(
        MachineConfig::builder(4).load_balancing(true).build().unwrap(),
        Duration::from_secs(30),
        |ctx| {
            // A completion counter actor would be cleaner; simplest: the
            // last worker stops the machine. Workers run in queue order,
            // but stealing reorders — so give every worker a "done" flag
            // and stop on the last *created* one only after a delay.
            for i in 0..n_workers {
                let w = ctx.create_local(Box::new(Worker));
                let last = i64::from(i == n_workers - 1);
                ctx.send(w, 0, vec![Value::Int(last)]);
            }
        },
    );
    // The run may stop before every report lands (stop is immediate);
    // what matters: multiple nodes participated.
    let nodes: std::collections::HashSet<i64> = r
        .reports
        .iter()
        .filter(|(k, _)| k == "ran_on")
        .map(|(_, v)| v.as_int())
        .collect();
    assert!(
        nodes.len() > 1,
        "work stealing moved workers across threads: {nodes:?}"
    );
}

#[test]
fn sim_and_live_agree_on_results() {
    use hal_kernel::SimMachine;
    let boot = |ctx: &mut Ctx<'_>| {
        let s = ctx.create_on(1, BehaviorId(1), vec![]);
        let jc = ctx.create_reply_join(Box::new(|ctx, v| {
            ctx.report("v", v);
            ctx.stop();
        }));
        ctx.request(s, 0, vec![Value::Int(99)], ctx.cont_slot(jc, 0));
    };
    let mut sim = SimMachine::new(MachineConfig::new(2), registry());
    sim.with_ctx(0, boot);
    let rs = sim.run().unwrap();
    let rl = run_live(MachineConfig::new(2), Duration::from_secs(20), boot);
    assert_eq!(rs.value("v"), rl.value("v"));
    assert_eq!(rs.value("v"), Some(&Value::Int(100)));
    assert!(rs.audit.is_clean() && rl.audit.is_clean());
}
