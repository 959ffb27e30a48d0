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

use hal::MachineConfig;
use hal_bench::{banner, cell, header, ms, out, row};
use hal_workloads::cholesky::{run_sim, CholeskyConfig, Variant};

fn run(n: usize, p: usize, variant: Variant, flow: bool) -> f64 {
    let cfg = CholeskyConfig {
        n,
        variant,
        per_flop_ns: 140,
        seed: 42,
    };
    let machine = MachineConfig::builder(p)
        .flow_control(flow)
        .seed(7)
        .observe(out::observe_opts())
        .backend(out::backend())
        .build()
        .unwrap();
    let label = format!("cholesky n={n} p={p} {variant:?} fc={flow}");
    let (_, report) = out::recorded(label, || run_sim(machine, cfg, false));
    report.makespan.as_secs_f64()
}

fn main() {
    out::note_protocol(&hal_workloads::cholesky::ChMsg::DECL);
    out::note_handler("chol-column", "ChMsg");
    out::note_handler("chol-coordinator", "ChMsg");
    out::note_handler("chol-collector", "ChMsg");
    out::note_root("ChMsg");
    // Global ordering: a column told to cdiv has applied every earlier
    // finished column first (declared wait-for edge; acyclic).
    out::note_gate("ChMsg::DoColumn", "ChMsg::Update");
    banner(
        "Table 1: Cholesky decomposition (msec) on the simulated CM-5",
        "BP/CP = pipelined with local synchronization (block/cyclic mapping);\n\
         Seq/Bcast = iteration i completes before i+1 starts.\n\
         'BP noFC' = the \u{a7}6.5 ablation: BP with bulk flow control disabled.",
    );
    let widths = [5usize, 4, 10, 10, 10, 10, 10];
    header(&["n", "P", "BP", "CP", "Seq", "Bcast", "BP noFC"], &widths);
    let sizes: &[usize] = if out::quick() { &[64] } else { &[64, 128, 256] };
    for &n in sizes {
        for &p in &[4usize, 8, 16, 32] {
            if p > n {
                continue;
            }
            let bp = run(n, p, Variant::BP, true);
            let cp = run(n, p, Variant::CP, true);
            let seq = run(n, p, Variant::Seq, true);
            let bc = run(n, p, Variant::Bcast, true);
            let bp_nofc = run(n, p, Variant::BP, false);
            row(
                &[
                    cell(n),
                    cell(p),
                    ms(bp),
                    ms(cp),
                    ms(seq),
                    ms(bc),
                    ms(bp_nofc),
                ],
                &widths,
            );
        }
    }
    println!(
        "\nshape checks: pipelined (BP/CP) < global (Seq/Bcast) at every P;\n\
         cyclic (CP) <= block (BP) at larger P (better tail balance);\n\
         BP-without-flow-control >= BP."
    );
    out::finish("table1_cholesky");
}
