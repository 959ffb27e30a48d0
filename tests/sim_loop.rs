//! The simulator loop's observable semantics, pinned.
//!
//! `SimMachine::run` is one sequential loop whose poll gating, window
//! indexing and event counting decide every steal column and event count
//! in `results/`. The fault-free constants below were taken at the commit
//! before the windowed parallel executor was removed (PR 17) and must not
//! move: a drift here is a change of simulation semantics, not noise.
//! The chaos chase's constants also pin the reliable layer's retransmit
//! policy (per-link RTT estimate, restart on progress, fast retransmit);
//! they were re-taken when that policy replaced the fixed timeout.
//!
//! The rest of the file covers the regimes that one loop now owns
//! alone: a zero-lookahead link with load balancing on, the event valve
//! on both kinds of link, and a machine stopped with packets in flight
//! and run again.

use hal::prelude::*;
use hal_am::LinkModel;
use hal_kernel::SimMachine;
use hal_workloads::chase::{self, ChaseConfig};
use hal_workloads::fib::{self, FibConfig, Placement};

/// fib(16) loaded on a fresh machine. With `stop` off the program never
/// halts the machine, so `run` returns only at quiescence.
fn fib_machine(cfg: MachineConfig, placement: Placement, stop: bool) -> SimMachine {
    let mut program = Program::new();
    let id = fib::register(&mut program);
    let mut m = SimMachine::new(cfg, program.build());
    let fib_cfg = FibConfig {
        n: 16,
        grain: 4,
        placement,
    };
    m.with_ctx(0, |ctx| fib::bootstrap_opts(ctx, id, fib_cfg, stop));
    m
}

/// Eight nodes, load balancing on.
fn stealing() -> MachineConfigBuilder {
    MachineConfig::builder(8).seed(1234).load_balancing(true)
}

#[test]
fn fib_with_stealing_is_pinned() {
    let r = fib_machine(stealing().build().unwrap(), Placement::Local, true)
        .run()
        .unwrap();
    assert_eq!(r.value("fib"), Some(&Value::Int(987)));
    assert_eq!(r.events, 2_576, "events");
    assert_eq!(r.makespan.as_nanos(), 4_393_048, "makespan");
    assert_eq!(r.stats.get("steal.granted"), 145, "steal hits");
    assert_eq!(r.stats.get("steal.polls"), 382, "steal polls");
    assert_eq!(r.actors_created, 898, "actors created");
}

/// Every message a node queued — mail, pending, or behind a running
/// actor — lives in that node's mail slab until processed or shipped
/// with a migrating actor: a drained run leaves every slab empty.
#[test]
fn a_drained_run_leaves_no_message_in_any_mail_slab() {
    let cfg = MachineConfig::builder(4).seed(7).load_balancing(true).build().unwrap();
    let mut m = fib_machine(cfg, Placement::Local, false);
    let r = m.run().unwrap();
    assert_eq!(r.value("fib"), Some(&Value::Int(987)));
    assert!(r.stats.get("steal.granted") > 0, "actors migrated with their queues");
    for node in 0..4 {
        let (held, allocated) = m.kernel(node).mail_cells();
        assert_eq!(held, 0, "node {node} still holds {held} of {allocated} cells");
        assert!(allocated > 0, "node {node} queued nothing");
    }
}

/// The observability documents are facts of the run, not of the host:
/// two same-seed runs give byte-equal `SPANS_` and `METRICS_` payloads
/// (what lets ci.sh hold `results/` to a fresh sweep with `cmp`).
#[test]
fn spans_and_metrics_documents_are_byte_equal_across_reruns() {
    let documents = || {
        let cfg = stealing().trace().metrics().build().unwrap();
        let r = fib_machine(cfg, Placement::Local, true).run().unwrap();
        let spans = hal_kernel::SpanReport::build(r.trace.as_ref().expect("trace was on"));
        let metrics = r.metrics.as_ref().expect("metrics were on");
        assert!(!spans.msgs.is_empty() && !metrics.nodes.is_empty());
        (spans.to_json(), metrics.to_json(r.makespan.as_nanos()))
    };
    assert_eq!(documents(), documents());
}

// ---- migration chase (the Fig. 3 pattern): a nomad walks a hop chain
// while a sprayer's probes race it through FIR chases and forwards ----

/// The chase at a 15 % chaos rate, pinned. The reliable layer is the
/// only thing that recovers a lost packet, FIRs and their replies
/// included, so every count below is the chase's own traffic plus what
/// retransmit paid for the losses; a change to the fault layer, the
/// reliable layer or the chase moves them.
#[test]
fn chase_under_chaos_is_pinned() {
    const PROBES: i64 = 20;
    let cfg = MachineConfig::builder(8)
        .seed(42)
        .faults(FaultPlan::chaos(0.15))
        .build()
        .unwrap();
    let (_, r) = chase::run_sim(cfg, ChaseConfig::fig3(8, PROBES));
    let seq: Vec<i64> = r
        .values("probe_delivered")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    assert_eq!(seq, (1..=PROBES).collect::<Vec<_>>(), "exactly once, in order");
    assert_eq!(r.events, 439, "events");
    assert_eq!(r.makespan.as_nanos(), 2_581_656, "makespan");
    assert_eq!(r.stats.get("net.fault_dropped"), 62, "packets the fault layer ate");
    assert_eq!(r.stats.get("rel.retransmits"), 78, "packets the reliable layer re-sent");
    assert_eq!(r.stats.get("steal.granted"), 0, "steal hits (balancing is off)");
    assert_eq!(r.actors_created, 10, "actors created");
}

#[test]
fn instant_link_with_stealing_computes_quiesces_and_reruns_identically() {
    for placement in [Placement::Local, Placement::Random] {
        let run = || {
            let cfg = stealing().link(LinkModel::instant()).build().unwrap();
            // Nothing stops this machine: `run` must come back on its own
            // once the computation drains — idle nodes polling each other
            // over a free link must not keep it alive — and leave a
            // machine the collector accepts as quiescent.
            let mut m = fib_machine(cfg, placement, false);
            let r = m.run().unwrap();
            m.collect_garbage()
                .unwrap_or_else(|e| panic!("{placement:?}: not quiescent after the run: {e}"));
            r
        };
        let first = run();
        assert_eq!(first.value("fib"), Some(&Value::Int(987)), "{placement:?}");
        assert!(
            first.stats.get("steal.granted") > 0,
            "{placement:?}: no work was stolen, so balancing never ran on the instant link"
        );
        assert_eq!(first, run(), "{placement:?}: rerun diverged");
    }
}

/// Holds every address it is sent and declares them to the collector.
struct Holder {
    refs: Vec<MailAddr>,
}
impl Behavior for Holder {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        self.refs = msg.args.iter().map(Value::as_addr).collect();
    }
    fn acquaintances(&self) -> Vec<MailAddr> {
        self.refs.clone()
    }
}

#[test]
fn a_collection_with_marks_to_every_node_reruns_identically() {
    // A pinned root on node 0 holds one actor on each of the other 15
    // nodes, so its first mark round sends 15 `GcMark` batches; the order
    // they leave in decides when each lands.
    const NODES: u16 = 16;
    let run = || {
        let mut m = SimMachine::new(MachineConfig::new(NODES as usize), Program::new().build());
        let holder = |ctx: &mut Ctx<'_>| ctx.create_local(Box::new(Holder { refs: vec![] }));
        let held: Vec<Value> = (1..NODES).map(|n| Value::Addr(m.with_ctx(n, holder))).collect();
        m.with_ctx(0, |ctx| {
            let root = holder(ctx);
            ctx.send(root, 0, held);
            ctx.pin(root);
        });
        m.run().unwrap();
        let gc = m.collect_garbage().unwrap();
        assert_eq!((gc.freed, gc.live), (0, u64::from(NODES)), "acquaintances survive");
        m.report()
    };
    let first = run();
    for rerun in 1..5 {
        let again = run();
        assert_eq!(
            (again.makespan, &again.node_clocks, again.events),
            (first.makespan, &first.node_clocks, first.events),
            "rerun {rerun} diverged after the collection"
        );
        assert_eq!(again, first, "rerun {rerun}");
    }
}

#[test]
fn event_valve_blows_at_the_limit_on_both_kinds_of_link() {
    const LIMIT: u64 = 2_000;
    for link in [LinkModel::cm5(), LinkModel::instant()] {
        let cfg = stealing().link(link).max_events(LIMIT).build().unwrap();
        let mut m = fib_machine(cfg, Placement::Local, true);
        assert_eq!(m.run().unwrap_err(), MachineError::MaxEvents { limit: LIMIT });
        assert_eq!(m.report().events, LIMIT, "the loop stops on the limit, not past it");
    }
}

// ---- stop with packets in flight, then run again ----

struct StopAfterSend {
    target: MailAddr,
}
impl Behavior for StopAfterSend {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.send(self.target, 0, vec![]);
        ctx.stop();
    }
}

struct Receiver;
impl Behavior for Receiver {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.report("got", Value::Int(1));
    }
}

#[test]
fn packets_in_flight_at_a_stop_stay_pending_and_a_second_run_resumes_them() {
    let mut program = Program::new();
    let receiver = program.behavior("receiver", |_: &[Value]| Box::new(Receiver) as Box<dyn Behavior>);
    let mut m = SimMachine::new(MachineConfig::new(2), program.build());
    m.with_ctx(0, |ctx| {
        let r = ctx.create_on(1, receiver, vec![]);
        let s = ctx.create_local(Box::new(StopAfterSend { target: r }));
        ctx.send(s, 0, vec![]);
    });
    let r1 = m.run().unwrap();
    assert!(r1.values("got").is_empty(), "the probe cannot have crossed the link yet");
    assert_eq!(
        m.collect_garbage().unwrap_err(),
        MachineError::NotQuiescent,
        "the probe and the Halt behind it are still in flight"
    );
    // The first resumed run ends when the Halt that chased the probe
    // lands, possibly before the receiver was dispatched; the second
    // finishes whatever that left.
    let mut resume = || {
        for n in 0..2 {
            m.kernel_mut(n).stopped = false;
        }
        m.run().unwrap()
    };
    resume();
    let last = resume();
    assert_eq!(last.values("got").len(), 1, "the pending probe was delivered exactly once");
    assert!(last.events > r1.events);
    m.collect_garbage().expect("drained and quiescent");
}
