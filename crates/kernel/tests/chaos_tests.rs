//! Chaos-subsystem tests at the kernel level: the FIR watchdog under a
//! link outage, typed machine errors, and config validation.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    BackendKind, Behavior, BehaviorId, BehaviorRegistry, ConfigError, FaultPlan, LinkOutage,
    MachineConfig, MachineError, Msg, NodePause, SimMachine, Value,
};
use hal_des::VirtualTime;
use std::sync::Arc;

/// Walks a fixed hop list, then reports every probe it receives.
struct Nomad {
    hops: Vec<u16>,
    probes: i64,
}
impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                if let Some(next) = self.hops.pop() {
                    let me = ctx.me();
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                }
            }
            1 => {
                self.probes += 1;
                ctx.report("probe_delivered", Value::Int(self.probes));
                ctx.report("probed_on", Value::Int(ctx.node() as i64));
            }
            _ => unreachable!(),
        }
    }
}

fn empty_registry() -> Arc<BehaviorRegistry> {
    Arc::new(BehaviorRegistry::new())
}

#[test]
fn lost_fir_reply_is_reissued_by_watchdog() {
    // An actor born on node 1 migrates once to node 2; the reverse link
    // 2 -> 1 is dead for the first 2ms. The dead link eats the
    // migration announcement (so node 1 is left with an *unconfirmed*
    // forward pointer and must FIR) and then every `FirFound` reply.
    // With the reliable layer off, only the FIR watchdog can unwedge
    // the parked probe: it must re-issue the chase every `fir_timeout`
    // until the outage lifts. Flow control is off so the migration
    // image travels as one eager packet on the healthy 1 -> 2 link —
    // the outage touches nothing but the announcement and the replies.
    let outage_end = VirtualTime::from_nanos(2_000_000);
    let faults = FaultPlan::none().with_reliable(false).with_outage(LinkOutage {
        src: 2,
        dst: 1,
        from: VirtualTime::from_nanos(0),
        until: outage_end,
    });
    let cfg = MachineConfig::builder(3)
        .faults(faults)
        .flow_control(false)
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());

    // Phase 1: the hop (its announcement back to node 1 is eaten).
    let nomad = m.with_ctx(1, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: vec![2],
            probes: 0,
        }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    let walk = m.run().unwrap();
    assert_eq!(walk.stats.get("migrations.in"), 1, "the hop completed");

    // Phase 2: a probe routed via the birthplace parks behind the FIR
    // chase whose replies the outage keeps eating.
    m.with_ctx(0, |ctx| {
        ctx.send(nomad, 1, vec![]);
    });
    let r = m.run().unwrap();

    assert_eq!(
        r.values("probe_delivered").len(),
        1,
        "the parked probe must eventually be delivered exactly once"
    );
    assert_eq!(
        r.value("probed_on"),
        Some(&Value::Int(2)),
        "probe chased the nomad to its new node"
    );
    assert!(
        r.stats.get("fir.reissued") >= 1,
        "the watchdog must have re-issued the wedged chase (reissued = {})",
        r.stats.get("fir.reissued")
    );
    assert!(
        r.makespan >= outage_end,
        "delivery cannot complete before the outage lifts"
    );
}

/// Every chase under a link-fault plan arms an FIR watchdog, and one
/// whose reply came first expires as a stale FIR timer — not as a
/// retransmit timer, of which a plan that only reorders, with the
/// reliable layer off, arms none.
#[test]
fn answered_fir_watchdogs_expire_as_fir_timers() {
    let faults = FaultPlan::none().with_reorder(0.1).with_reliable(false);
    let cfg = MachineConfig::builder(8).faults(faults).build().unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());
    let hops: Vec<u16> = (0..40).map(|i| (i % 7 + 1) as u16).collect();
    let nomad = m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    // Probes race the walk from another node: stale guesses, FIR chases.
    m.with_ctx(4, |ctx| {
        for _ in 0..30 {
            ctx.send(nomad, 1, vec![]);
        }
    });
    let r = m.run().unwrap();
    assert_eq!(r.values("probe_delivered").len(), 30, "nothing is lost, so all arrive");
    assert!(r.stats.get("fir.sent") > 0, "the probes had to chase");
    assert_eq!(r.stats.get("rel.timers_expired"), 0, "{:?}", r.stats);
    assert!(r.stats.get("fir.timers_expired") > 0, "{:?}", r.stats);
}

#[test]
fn unknown_behavior_is_a_typed_error() {
    let mut m = SimMachine::new(MachineConfig::new(2), empty_registry());
    m.with_ctx(0, |ctx| {
        ctx.create_on(1, BehaviorId(42), vec![]);
    });
    let err = m.run().unwrap_err();
    assert!(
        matches!(err, MachineError::UnknownBehavior { behavior: BehaviorId(42), node: 1 }),
        "expected UnknownBehavior, got: {err}"
    );
}

#[test]
fn builder_rejects_bad_configs() {
    assert!(matches!(
        MachineConfig::builder(0).build().unwrap_err(),
        ConfigError::ZeroNodes
    ));
    assert!(matches!(
        MachineConfig::builder(2).quantum(0).build().unwrap_err(),
        ConfigError::ZeroQuantum
    ));
    assert!(matches!(
        MachineConfig::builder(2)
            .faults(FaultPlan::none().with_drop(1.5))
            .build()
            .unwrap_err(),
        ConfigError::BadFaultRate { which: "drop" }
    ));
    assert!(matches!(
        MachineConfig::builder(2)
            .faults(FaultPlan::none().with_duplicate(f64::NAN))
            .build()
            .unwrap_err(),
        ConfigError::BadFaultRate { which: "duplicate" }
    ));
    // Live runs no fault plan at all: not a lossy link, and not a pause
    // window either, which would shift a host-anchored clock.
    let pause = NodePause {
        node: 1,
        from: VirtualTime::ZERO,
        until: VirtualTime::from_nanos(1_000_000),
    };
    for plan in [FaultPlan::none().with_drop(0.1), FaultPlan::none().with_pause(pause)] {
        assert!(matches!(
            MachineConfig::builder(2)
                .backend(BackendKind::Live)
                .faults(plan)
                .build()
                .unwrap_err(),
            ConfigError::LiveFaultsUnsupported
        ));
    }
}

#[test]
fn config_error_converts_into_machine_error() {
    let e: MachineError = ConfigError::ZeroNodes.into();
    assert!(matches!(e, MachineError::Config(ConfigError::ZeroNodes)));
    assert!(e.to_string().contains("at least one node"));
}

#[test]
fn builder_matches_hand_built_config() {
    // The builder is the only config spelling left after the PR-3 shim
    // deprecation window: it must agree with direct field assignment.
    let mut by_hand = MachineConfig::new(4);
    by_hand.seed = 9;
    by_hand.load_balancing = true;
    by_hand.flow_control = false;
    by_hand.max_events = 3;
    let built = MachineConfig::builder(4)
        .seed(9)
        .load_balancing(true)
        .flow_control(false)
        .max_events(3)
        .build()
        .unwrap();
    assert_eq!(by_hand.seed, built.seed);
    assert_eq!(by_hand.load_balancing, built.load_balancing);
    assert_eq!(by_hand.flow_control, built.flow_control);
    assert_eq!(by_hand.max_events, built.max_events);
    assert_eq!(by_hand.nodes, built.nodes);
}
