//! Chaos-subsystem tests at the kernel level: an FIR reply lost to a
//! link outage, typed machine errors, and config validation.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    BackendKind, Behavior, BehaviorId, BehaviorRegistry, ConfigError, FaultPlan, LinkOutage,
    MachineConfig, MachineError, MailAddr, Msg, NodePause, SimMachine, Value,
};
use hal_des::{VirtualDuration, VirtualTime};
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

/// On its kick, spends `charge_us` of CPU, then sends two probes.
struct Prober {
    nomad: MailAddr,
    charge_us: u64,
}
impl Behavior for Prober {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.charge(VirtualDuration::from_nanos(self.charge_us * 1_000));
        ctx.send(self.nomad, 1, vec![]);
        ctx.send(self.nomad, 1, vec![]);
    }
}

#[test]
fn lost_fir_reply_is_recovered_by_retransmit() {
    // An actor born on node 1 migrates once to node 2; the reverse link
    // 2 -> 1 is dead for the first 2ms. The dead link eats the
    // migration announcement (so node 1 is left with an *unconfirmed*
    // forward pointer and must FIR) and then the `FirFound` reply. The
    // reliable layer re-sends both until the outage lifts, so the chase
    // opened by the first probe closes after it, and the second probe
    // joins that chase. Flow control is off so the migration image
    // travels as one eager packet on the healthy 1 -> 2 link — the
    // outage touches nothing but the announcement and the reply. The
    // probes race the outage inside one run: a run drains only once
    // the retransmit got through.
    let outage_end = VirtualTime::from_nanos(2_000_000);
    for charge_us in [50, 200, 500] {
        let faults = FaultPlan::none().with_outage(LinkOutage {
            src: 2,
            dst: 1,
            from: VirtualTime::ZERO,
            until: outage_end,
        });
        let cfg = MachineConfig::builder(3)
            .faults(faults)
            .flow_control(false)
            .build()
            .unwrap();
        let mut m = SimMachine::new(cfg, empty_registry());
        let nomad = m.with_ctx(1, |ctx| {
            let nomad = ctx.create_local(Box::new(Nomad {
                hops: vec![2],
                probes: 0,
            }));
            ctx.send(nomad, 0, vec![]);
            nomad
        });
        m.with_ctx(0, |ctx| {
            let prober = ctx.create_local(Box::new(Prober { nomad, charge_us }));
            ctx.send(prober, 0, vec![]);
        });
        let r = m.run().unwrap();
        assert_eq!(r.stats.get("migrations.in"), 1, "the hop completed");
        assert_eq!(
            r.values("probe_delivered").len(),
            2,
            "both probes must be delivered exactly once"
        );
        assert_eq!(
            r.values("probed_on"),
            vec![&Value::Int(2); 2],
            "the probes chased the nomad to its new node"
        );
        assert_eq!(r.stats.get("fir.sent"), 1, "one chase");
        assert_eq!(r.stats.get("fir.suppressed"), 1, "the second probe joined it");
        assert!(r.stats.get("rel.retransmits") > 0, "the reply was re-sent");
        assert!(
            r.makespan >= outage_end,
            "delivery cannot complete before the outage lifts"
        );
    }
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
    // A retransmit timeout must outlast one crossing of the link.
    let hasty = FaultPlan {
        rto: VirtualDuration::from_nanos(1_000),
        ..FaultPlan::none().with_drop(0.1)
    };
    assert!(matches!(
        MachineConfig::builder(2).faults(hasty).build().unwrap_err(),
        ConfigError::TimeoutTooShort { min_ns: 3_600 }
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
