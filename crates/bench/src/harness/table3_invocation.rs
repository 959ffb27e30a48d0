//! Table 3 reproduction: comparable method-invocation costs.
//!
//! The paper compares "the sum of the time for locality check and the
//! time for function invocation" against ABCL/onAP1000 and Concert (all
//! minimum values). We cannot rerun those systems; the honest analog is
//! the *invocation-cost ladder* inside this runtime — the same three
//! mechanisms whose relative costs justify compiler-controlled static
//! dispatch (§6.3):
//!
//! 1. generic message send (locality check + enqueue + dispatch +
//!    method invocation),
//! 2. compiler fast path (locality check + inline static dispatch on the
//!    sender's stack),
//! 3. a plain function call (the floor).
//!
//! Reported in simulated CM-5 µs. What the same three paths cost on the
//! host is the `benchmark/` ledger's business (`kernel.send_local_ns`,
//! `kernel.send_fast_ns`), not this table's.

use hal::prelude::*;
use hal_kernel::{SimMachine, SpanReport};
use crate::out::Session;
use crate::us;
use hal_workloads::synth::{self, SynthMsg};

struct Sink {
    hits: u64,
}
impl Behavior for Sink {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {
        self.hits += 1;
    }
}

/// Print Table 3 and export the traced cross-check run.
pub fn run(s: &mut Session) {
    s.note_protocol(&SynthMsg::DECL, &["probe"]);
    s.banner(
        "Table 3: comparable method-invocation costs",
        "generic send vs compiler fast path (locality check + static dispatch) vs plain call.\n\
         Simulated us use the CM-5 cost model.",
    );

    let cost = CostModel::cm5();
    // Simulated costs of each rung (what the machine charges end to end
    // for one local invocation).
    let generic_us = (cost.locality_check.as_nanos()
        + cost.local_send.as_nanos()
        + cost.constraint_check.as_nanos() * 2
        + cost.dispatch.as_nanos()
        + cost.method_invoke.as_nanos()) as f64;
    let fast_us = (cost.locality_check.as_nanos()
        + cost.local_send_fast.as_nanos()
        + cost.method_invoke.as_nanos()) as f64;
    let call_us = cost.method_invoke.as_nanos() as f64;

    // The fast path must really be taken inline on a local receiver:
    // run it and count.
    let mut program = Program::new();
    let _probe = synth::register(&mut program);
    let iters = if s.quick() { 20_000u64 } else { 200_000 };
    let mut m = SimMachine::new(MachineConfig::new(1), program.build());
    let sink = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Sink { hits: 0 })));
    m.with_ctx(0, |ctx| {
        for i in 0..iters {
            let (sel, args) = SynthMsg::Echo { v: i as i64 }.encode();
            ctx.send_fast(sink, sel, args);
        }
    });
    let fast_taken = m.report().stats.get("fast.inline");

    s.header(&["mechanism", "sim (us)"], &[44, 14]);
    for (mechanism, ns) in [
        ("generic local send (queue + dispatch)", generic_us),
        ("fast path: locality check + static dispatch", fast_us),
        ("plain function call", call_us),
    ] {
        s.row(&[&mechanism, &us(ns)]);
    }
    s.say(format!(
        "\nfast path taken inline {fast_taken} / {iters} times.\n\
         shape: on the CM-5 scale the ladder is ~13x (generic) / ~5x (fast)\n\
         over a plain call, motivating \u{a7}6.3's compiler-controlled static\n\
         dispatch."
    ));

    // Flight-recorder cross-check: a traced generic-send run whose
    // per-message delivery latency should sit at the locality-check +
    // local-send cost the table above derives analytically.
    let mut program = Program::new();
    let _probe = synth::register(&mut program);
    let mut m = SimMachine::new(
        s.machine(1).trace().build().unwrap(),
        program.build(),
    );
    let sink = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Sink { hits: 0 })));
    m.with_ctx(0, |ctx| {
        for i in 0..1000i64 {
            let (sel, args) = SynthMsg::Echo { v: i }.encode();
            ctx.send(sink, sel, args);
        }
    });
    let r = m.run().unwrap();
    s.note_run("traced generic sends", &r);
    let trace = r.trace.expect("tracing was enabled");
    let local = SpanReport::build(&trace).stage("wire.local");
    s.say(format!(
        "\nflight recorder: {} local deliveries, mean latency {:.0} ns (sim)",
        local.count(),
        local.mean()
    ));
    let path = s.export_trace(&trace);
    s.say(format!("chrome trace written to {path}"));
}
