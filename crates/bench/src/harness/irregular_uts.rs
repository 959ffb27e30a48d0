//! Extension experiment: unbalanced tree search under dynamic load
//! balancing — quantifying the paper's introductory claim that location
//! transparency + migration are "essential for scalable execution of
//! dynamic, irregular applications".
//!
//! Unlike fib, UTS subtree sizes are heavy-tailed and unpredictable:
//! static placement cannot help, so the runtime's receiver-initiated
//! random polling is the only source of parallelism.

use crate::out::Session;
use hal_workloads::uts::{run_sim, sequential_size, UtsConfig};

/// Print the UTS table.
pub fn run(s: &mut Session) {
    s.note_protocol(&hal_workloads::uts::UtsMsg::DECL, &["uts"]);
    s.banner(
        "Extension: unbalanced tree search (UTS), virtual ms",
        "all actors created locally; only \u{a7}7.2 random polling distributes the tree",
    );
    s.header(
        &["seed", "nodes", "P", "noLB (ms)", "LB (ms)", "steals", "speedup"],
        &[6, 8, 4, 12, 12, 9, 9],
    );
    let seeds: &[u64] = if s.quick() { &[11] } else { &[11, 23] };
    for &seed in seeds {
        let cfg = UtsConfig::standard(seed);
        let size = sequential_size(&cfg);
        for &p in &[1usize, 4, 16, 64] {
            let machine = s.machine(p).seed(1);
            let (s0, r0) = s.recorded(
                format!("uts seed={seed} p={p} noLB"),
                run_sim(machine.clone().build().unwrap(), cfg),
            );
            assert_eq!(s0, size);
            let nolb_ns = r0.makespan.as_nanos();
            let (lb_ns, steals) = if p > 1 {
                let (s1, r1) = s.recorded(
                    format!("uts seed={seed} p={p} LB"),
                    run_sim(machine.load_balancing(true).build().unwrap(), cfg),
                );
                assert_eq!(s1, size);
                (r1.makespan.as_nanos(), r1.stats.get("steal.granted"))
            } else {
                (nolb_ns, 0)
            };
            s.row(&[
                &seed,
                &size,
                &p,
                &format!("{:.2}", nolb_ns as f64 / 1e6),
                &format!("{:.2}", lb_ns as f64 / 1e6),
                &steals,
                &format!("{:.1}x", nolb_ns as f64 / lb_ns as f64),
            ]);
        }
    }
    s.say(
        "\nshape: without balancing the tree never leaves node 0 (speedup 1.0 at\n\
         every P); with it, speedup tracks P until the tree's parallelism or\n\
         steal latency saturates — the paper's motivating scenario.",
    );
}
