//! Table 5 reproduction: systolic matrix multiplication times and
//! MFLOPS on the simulated CM-5.
//!
//! Paper: 1024×1024 matrices on a √P×√P processor array, local
//! synchronization only; "the performance peaks at 434 MFlops for
//! 1024 by 1024 matrix on 64 node partition of the CM-5."

use crate::out::Session;
use crate::secs;
use hal_workloads::matmul::{run_sim, MatmulConfig};

/// Print Table 5.
pub fn run(s: &mut Session) {
    s.note_protocol(&hal_workloads::matmul::MmMsg::DECL, &["mm-member", "mm-collector"]);
    // §6.1 constraint: block deliveries wait for the member's Start
    // (declared wait-for edges; acyclic).
    s.note_gate("MmMsg::ABlock", "MmMsg::Start");
    s.note_gate("MmMsg::BBlock", "MmMsg::Start");
    s.banner(
        "Table 5: systolic matrix multiplication (virtual seconds / MFLOPS)",
        "Cannon's algorithm, one block actor per grid cell, block = n / sqrt(P);\n\
         per-node kernel calibrated to the CM-5's ~7 MFLOPS sustained.",
    );
    s.header(&["n", "P", "block", "time (s)", "MFLOPS"], &[6, 4, 7, 12, 10]);
    let mut peak = 0.0f64;
    let sizes: &[usize] = if s.quick() {
        &[256]
    } else {
        &[256, 512, 1024]
    };
    for &n in sizes {
        for &grid in &[2usize, 4, 8] {
            let p = grid * grid;
            if n / grid < 16 {
                continue;
            }
            let cfg = MatmulConfig {
                grid,
                block: n / grid,
                per_flop_ns: 135,
                seed_a: 7,
                seed_b: 8,
            };
            let machine = s.machine(p).seed(99).build().unwrap();
            let label = format!("matmul n={n} p={p}");
            let (_fro, report) = s.recorded(label, run_sim(machine, cfg, false));
            let t = report.makespan.as_secs_f64();
            let flops = 2.0 * (n as f64).powi(3);
            let mflops = flops / t / 1e6;
            peak = peak.max(mflops);
            s.row(&[&n, &p, &(n / grid), &secs(t), &format!("{mflops:.0}")]);
        }
    }
    s.say(format!(
        "\npeak = {peak:.0} MFLOPS (paper: 434 MFLOPS at n=1024, P=64).\n\
         shape: MFLOPS grow with P and with n (bigger blocks amortize\n\
         communication), peaking at the largest configuration."
    ));
}
