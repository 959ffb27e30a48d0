//! Visualizing *why* local synchronization wins: per-node utilization
//! timelines for the Table 1 Cholesky variants.
//!
//! BP (pipelined, local sync) keeps every node busy — iteration i+1's
//! cmods overlap iteration i's tail. Seq (global sync) shows the
//! staircase of idle nodes waiting for each iteration's barrier.

use hal::prelude::*;
use hal_kernel::SimMachine;
use crate::out::Session;
use hal_kernel::timeline::render_ascii;
use hal_workloads::cholesky::{self, CholeskyConfig, Variant};

fn show(s: &mut Session, variant: Variant) {
    let p = 8;
    let cfg = CholeskyConfig {
        n: 64,
        variant,
        per_flop_ns: 140,
        seed: 77,
    };
    let mut program = Program::new();
    let id = cholesky::register(&mut program);
    let mut m = SimMachine::new(
        s.machine(p).seed(9).timeline().build().unwrap(),
        program.build(),
    );
    m.with_ctx(0, |ctx| cholesky::bootstrap(ctx, id, cfg, false));
    let report = m.run().unwrap();
    s.note_run(format!("timeline cholesky {variant:?}"), &report);
    s.say(format!("-- {variant:?}: {} --", report.makespan));
    s.say(render_ascii(m.timeline(), p, report.makespan, 72).trim_end());
    let utils = m.timeline().utilization(p, report.makespan);
    let mean = utils.iter().sum::<f64>() / p as f64;
    s.say(format!("mean utilization {:.1}%\n", mean * 100.0));
}

/// Print the three timelines.
pub fn run(s: &mut Session) {
    s.note_protocol(
        &cholesky::ChMsg::DECL,
        &["chol-column", "chol-coordinator", "chol-collector"],
    );
    s.banner(
        "Timelines: Cholesky n=64 on 8 nodes ('#' busy, '+' partial, '.' idle)",
        "the overlap argument behind Table 1, made visible",
    );
    show(s, Variant::BP);
    show(s, Variant::Bcast);
    show(s, Variant::Seq);
    s.say(
        "shape: the pipelined variant fills the chart; the globally\n\
         synchronized ones leave idle stripes between iterations.",
    );
}
