//! Table 1 reproduction: Cholesky decomposition variants on the
//! simulated CM-5.
//!
//! Paper: "Columns BP and CP represent execution times for the
//! implementations which start the execution of iteration i+1 before the
//! execution of iteration i has completed by only using local
//! synchronization. Columns Seq and Bcast show the numbers obtained by
//! completing the execution of iteration i before starting that of the
//! iteration i+1." Plus §6.5: "without flow control the pipelined
//! version of Cholesky Decomposition did not deliver the expected
//! performance."
//!
//! Expected shape: BP/CP (pipelined, local sync) beat Seq/Bcast (global
//! sync); disabling flow control degrades the pipelined variant.

use crate::out::Session;
use crate::ms;
use hal_workloads::cholesky::{run_sim, ChMsg, CholeskyConfig, Variant};

fn chol(s: &mut Session, n: usize, p: usize, variant: Variant, flow: bool) -> f64 {
    let cfg = CholeskyConfig {
        n,
        variant,
        per_flop_ns: 140,
        seed: 42,
    };
    let machine = s.machine(p).flow_control(flow).seed(7).build().unwrap();
    let label = format!("cholesky n={n} p={p} {variant:?} fc={flow}");
    let (_, report) = s.recorded(label, run_sim(machine, cfg, false));
    report.makespan.as_secs_f64()
}

/// Print Table 1.
pub fn run(s: &mut Session) {
    s.note_protocol(&ChMsg::DECL, &["chol-column", "chol-coordinator", "chol-collector"]);
    // Global ordering: a column told to cdiv has applied every earlier
    // finished column first (declared wait-for edge; acyclic).
    s.note_gate("ChMsg::DoColumn", "ChMsg::Update");
    s.banner(
        "Table 1: Cholesky decomposition (msec) on the simulated CM-5",
        "BP/CP = pipelined with local synchronization (block/cyclic mapping);\n\
         Seq/Bcast = iteration i completes before i+1 starts.\n\
         'BP noFC' = the \u{a7}6.5 ablation: BP with bulk flow control disabled.",
    );
    s.header(&["n", "P", "BP", "CP", "Seq", "Bcast", "BP noFC"], &[5, 4, 10, 10, 10, 10, 10]);
    let sizes: &[usize] = if s.quick() { &[64] } else { &[64, 128, 256] };
    for &n in sizes {
        for &p in &[4usize, 8, 16, 32] {
            if p > n {
                continue;
            }
            let bp = chol(s, n, p, Variant::BP, true);
            let cp = chol(s, n, p, Variant::CP, true);
            let seq = chol(s, n, p, Variant::Seq, true);
            let bc = chol(s, n, p, Variant::Bcast, true);
            let bp_nofc = chol(s, n, p, Variant::BP, false);
            s.row(&[&n, &p, &ms(bp), &ms(cp), &ms(seq), &ms(bc), &ms(bp_nofc)]);
        }
    }
    s.say(
        "\nshape checks: pipelined (BP/CP) < global (Seq/Bcast) at every P;\n\
         cyclic (CP) <= block (BP) at larger P (better tail balance);\n\
         BP-without-flow-control >= BP.",
    );
}
