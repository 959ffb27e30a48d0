//! FIR edge cases, checked end to end: real simulations (migrating
//! actors, link outages, chaos faults) whose flight-recorder traces are
//! fed through the protocol checker. The checker must hold its
//! invariants — forward chains acyclic after repeated migration,
//! duplicate chases suppressed under an outage, the birthplace repaired
//! after a chase — without false positives.

use hal::prelude::*;
use hal_kernel::{KernelEvent, LinkOutage, SimMachine};
use hal_check::{CheckReport, ViolationKind};
use hal_des::{VirtualDuration, VirtualTime};
use hal_kernel::kernel::Ctx;
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
                ctx.report("probed_on", Value::Int(i64::from(ctx.node())));
            }
            _ => unreachable!(),
        }
    }
}

fn empty_registry() -> Arc<BehaviorRegistry> {
    Arc::new(BehaviorRegistry::new())
}

/// Run the checker over a finished simulation and return the report.
fn checked(label: &str, r: &SimReport) -> CheckReport {
    let mut report = CheckReport::new(label);
    hal_check::check_sim_report(label, r, &mut report);
    report
}

fn assert_clean(report: &CheckReport) {
    assert!(report.is_clean(), "checker found violations:\n{}", report.summary());
}

#[test]
fn forward_chains_stay_acyclic_after_repeated_migration() {
    // A nomad walks 1 -> 2 -> 3 -> 4 -> 5; a probe from node 0 then
    // chases it through the birthplace's forward knowledge. The request
    // path may revisit nodes, but the checker must see no re-traversed
    // hop (no orbit) and a repaired table behind every reply.
    let cfg = MachineConfig::builder(6).trace().build().unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());
    let nomad = m.with_ctx(1, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: vec![5, 4, 3, 2], probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    let walk = m.run().unwrap();
    assert_eq!(walk.stats.get("migrations.in"), 4, "all four hops completed");

    m.with_ctx(0, |ctx| ctx.send(nomad, 1, vec![]));
    let r = m.run().unwrap();
    assert_eq!(r.value("probed_on"), Some(&Value::Int(5)), "probe caught the nomad");
    assert_clean(&checked("acyclic_after_migration", &r));
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
fn duplicate_fir_suppression_under_link_outage() {
    // The reverse link 2 -> 1 is dead for 2ms: it eats the migration
    // announcement and then the FirFound reply, so the chase stays open
    // until the reliable layer's retransmit gets through after the
    // outage. Two probes target the nomad while the chase is open — the
    // second must join the running chase (FirSuppressed), never open a
    // competing one, and the checker must not mistake a re-sent copy
    // of the FIR or its reply for a duplicate chase or a cycle. The
    // probes race the outage inside one run, as a run drains only once
    // the retransmit got through.
    let faults = FaultPlan::none().with_outage(LinkOutage {
        src: 2,
        dst: 1,
        from: VirtualTime::ZERO,
        until: VirtualTime::from_nanos(2_000_000),
    });
    let cfg = MachineConfig::builder(3)
        .faults(faults)
        .flow_control(false)
        .trace()
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());
    let nomad = m.with_ctx(1, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: vec![2], probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    m.with_ctx(0, |ctx| {
        let prober = ctx.create_local(Box::new(Prober { nomad, charge_us: 200 }));
        ctx.send(prober, 0, vec![]);
    });
    let r = m.run().unwrap();

    assert_eq!(r.values("probe_delivered").len(), 2, "both probes delivered exactly once");
    assert_eq!(r.values("probed_on"), vec![&Value::Int(2); 2], "both on the nomad's node");
    assert_eq!(r.stats.get("fir.sent"), 1, "one chase");
    assert_eq!(r.stats.get("fir.suppressed"), 1, "the second probe joined the running chase");
    assert!(r.stats.get("rel.retransmits") > 0, "the outage was crossed by retransmit");
    let report = checked("suppression_under_outage", &r);
    assert!(
        !report.violations.iter().any(|v| v.kind == ViolationKind::DuplicateFirNotSuppressed),
        "retransmitted chase misread as duplicate:\n{}",
        report.summary()
    );
    assert_clean(&report);
}

#[test]
fn birthplace_repaired_after_chase() {
    // After the walk and a successful chase, §4.3 requires the new
    // location "cached in its birthplace node as well as in the old
    // node": the trace must show the birthplace's table repaired, and
    // the checker's migration audit must agree.
    let cfg = MachineConfig::builder(4).trace().build().unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());
    let nomad = m.with_ctx(1, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: vec![3, 2], probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        nomad
    });
    m.run().unwrap();

    m.with_ctx(0, |ctx| ctx.send(nomad, 1, vec![]));
    let r = m.run().unwrap();
    assert_eq!(r.value("probed_on"), Some(&Value::Int(3)));

    let trace = r.trace.as_ref().expect("tracing was enabled");
    let birthplace_repairs = trace
        .events
        .iter()
        .filter(|e| {
            e.node == 1
                && matches!(&e.event,
                    KernelEvent::NameRepaired { key, node, .. }
                        if key.birthplace == 1 && *node == 3)
        })
        .count();
    assert!(
        birthplace_repairs >= 1,
        "the birthplace's name table never learned the final location"
    );
    assert_clean(&checked("birthplace_repaired", &r));
}

/// A fleet of nomads walking pseudo-random tours while a sprayer keeps
/// probes in flight — enough concurrent chases, parks, and repairs to
/// exercise every trace invariant.
fn busy_run(faults: FaultPlan) -> SimReport {
    let cfg = MachineConfig::builder(8)
        .seed(42)
        .faults(faults)
        .trace()
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, empty_registry());
    let nomads: Vec<_> = (0..4u16)
        .map(|i| {
            let born = 1 + (2 * i) % 7;
            m.with_ctx(born, |ctx| {
                let hops = (0..4u16).map(|h| ((i + h) * 3) % 8).collect();
                let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
                ctx.send(nomad, 0, vec![]);
                nomad
            })
        })
        .collect();
    m.run().unwrap();
    for (i, nomad) in (0u16..).zip(nomads.iter()) {
        let prober = (7 - i) % 8;
        m.with_ctx(prober, |ctx| {
            ctx.send(*nomad, 1, vec![]);
            ctx.send(*nomad, 1, vec![]);
        });
    }
    m.run().unwrap()
}

#[test]
fn clean_runs_fault_free() {
    let r = busy_run(FaultPlan::none());
    assert_eq!(r.values("probe_delivered").len(), 8, "every probe lands once");
    assert_clean(&checked("fault_free", &r));
}

#[test]
fn clean_runs_under_drop_faults() {
    // 10% drop/reorder (5% duplicate) with the reliable layer on: the
    // protocol invariants must hold through retransmits and holdback.
    let r = busy_run(FaultPlan::chaos(0.10));
    assert_eq!(r.values("probe_delivered").len(), 8, "exactly-once survived chaos");
    assert_clean(&checked("chaos10", &r));
}
