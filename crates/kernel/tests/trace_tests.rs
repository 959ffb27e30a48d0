//! Flight-recorder integration tests: forced migration produces the
//! expected FIR event sequence, and recorded events agree with the
//! kernel's own counters.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    Behavior, BehaviorId, BehaviorRegistry, DeliveryPath, KernelEvent, MachineConfig, MailAddr,
    Msg, SimMachine, TraceReport, Value,
};
use hal_des::json::Json;
use std::sync::Arc;

const SPRAY: BehaviorId = BehaviorId(1);

/// Walks a fixed list of hops, bouncing a self-message ahead of each
/// migration so it keeps moving; counts probes it absorbs along the way.
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
                ctx.report("probe", Value::Int(self.probes));
            }
            _ => unreachable!(),
        }
    }
}

/// Fires `n` probes at `target` when poked.
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
}
fn make_spray(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Spray {
        target: args[0].as_addr(),
        n: args[1].as_int(),
    })
}

/// A migration race on 8 nodes with tracing enabled: the nomad walks
/// `chain` hops while `probes` messages from another node chase it.
fn chase_run(chain: usize, probes: i64) -> (hal_kernel::SimReport, TraceReport) {
    let p = 8usize;
    let mut registry = BehaviorRegistry::new();
    registry.register(SPRAY, "spray", make_spray);
    let mut m = SimMachine::new(
        MachineConfig::builder(p).seed(5).trace().build().unwrap(),
        Arc::new(registry),
    );
    m.with_ctx(0, |ctx| {
        let hops: Vec<u16> = (0..chain).rev().map(|i| ((i % (p - 1)) + 1) as u16).collect();
        let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(4, SPRAY, vec![Value::Addr(nomad), Value::Int(probes)]);
        ctx.send(s, 0, vec![]);
    });
    let r = m.run().unwrap();
    let trace = r.trace.clone().expect("tracing was enabled");
    (r, trace)
}

#[test]
fn forced_migration_produces_fir_event_sequence() {
    let (report, trace) = chase_run(16, 20);
    assert_eq!(report.values("probe").len(), 20, "exactly-once delivery");

    // The recorder saw the chase machinery fire.
    let fir_sent: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.event, KernelEvent::FirSent { .. }))
        .collect();
    let replies: Vec<_> = trace
        .events
        .iter()
        .filter(|e| matches!(e.event, KernelEvent::FirReplyPropagated { .. }))
        .collect();
    let migrations = trace.count("ActorMigrated");
    assert!(!fir_sent.is_empty(), "a 16-hop chase must send FIRs");
    assert!(!replies.is_empty(), "every chase episode ends in a reply");
    assert_eq!(migrations, 16, "one ActorMigrated event per hop");

    // Sequence: the first FIR precedes the first reply propagation
    // (events are merged in (time, node) order), and some reply released
    // buffered messages — the park-then-release path of §4.3.
    assert!(
        fir_sent[0].time <= replies[0].time,
        "FirSent at {} must precede FirReplyPropagated at {}",
        fir_sent[0].time,
        replies[0].time
    );
    let released: u32 = replies
        .iter()
        .map(|e| match e.event {
            KernelEvent::FirReplyPropagated { released, .. } => released,
            _ => unreachable!(),
        })
        .sum();
    assert!(released > 0, "chases with racing probes must release buffered messages");

    // Messages that waited out the chase are delivered on the Migrated
    // path, after the chase started.
    let migrated_deliveries: Vec<_> = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                KernelEvent::MessageDelivered {
                    path: DeliveryPath::Migrated,
                    ..
                }
            )
        })
        .collect();
    assert!(!migrated_deliveries.is_empty());
    assert!(migrated_deliveries[0].time >= fir_sent[0].time);

    // And the span fold sees them on the migrated column.
    let spans = hal_kernel::SpanReport::build(&trace);
    assert_eq!(spans.stage("wire.migrated").count(), migrated_deliveries.len() as u64);
    assert!(spans.chain_lengths().count() > 0, "chase episodes have a chain length");
}

#[test]
fn fir_suppressed_counter_matches_emitted_events() {
    let (report, trace) = chase_run(16, 20);
    assert_eq!(
        report.stats.get("fir.suppressed"),
        trace.count("FirSuppressed") as u64,
        "every fir.suppressed stat bump must emit exactly one FirSuppressed event"
    );
    // The race is tuned so suppression actually happens — a zero/zero
    // pass would be vacuous.
    assert!(report.stats.get("fir.suppressed") > 0);
}

#[test]
fn tracing_disabled_records_nothing() {
    let p = 4usize;
    let mut registry = BehaviorRegistry::new();
    registry.register(SPRAY, "spray", make_spray);
    let mut m = SimMachine::new(MachineConfig::builder(p).seed(5).build().unwrap(), Arc::new(registry));
    m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: vec![1, 2], probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(2, SPRAY, vec![Value::Addr(nomad), Value::Int(5)]);
        ctx.send(s, 0, vec![]);
    });
    let r = m.run().unwrap();
    assert!(r.trace.is_none(), "no recorder when tracing is off");
    for n in 0..p {
        assert!(m.kernel(n as u16).recorder().is_none());
    }
}

#[test]
fn chrome_export_is_wellformed() {
    let (_, trace) = chase_run(8, 10);
    let doc = Json::parse(&trace.chrome_json()).expect("the trace is JSON");
    assert_eq!(doc.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let text = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
    let named = |name: &str| events.iter().filter(|e| text(e, "name").as_deref() == Some(name)).count();
    let nodes: std::collections::BTreeSet<u16> = trace.events.iter().map(|e| e.node).collect();
    assert_eq!(named("thread_name"), nodes.len(), "per-node metadata present");
    assert!(trace.count("FirSent") > 0);
    assert_eq!(named("FirSent"), trace.count("FirSent"));
    let slices: Vec<&Json> = events.iter().filter(|e| text(e, "ph").as_deref() == Some("X")).collect();
    assert_eq!(slices.len(), trace.count("MessageDelivered"), "deliveries are duration slices");
    assert!(slices.iter().all(|e| e.get("dur").and_then(Json::as_f64).is_some()));
}
