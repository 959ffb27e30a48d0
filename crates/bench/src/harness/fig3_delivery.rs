//! Figure 3 reproduction: the message send & delivery algorithm under
//! migration.
//!
//! Fig. 3 is the flowchart of §4's generic send — locality check from
//! local information, best-guess routing, FIR chases along forward
//! chains, duplicate-FIR suppression, and table repair along the chain.
//! This harness exercises that machinery quantitatively: a nomad actor
//! walks k hops while probes race it, and we report how many FIRs,
//! forwards, and parked messages each chain length costs, plus the
//! effect of the birthplace cache once gossip settles.

use crate::out::Session;
use hal_workloads::chase::{self, ChaseConfig, ChaseMsg};

/// Print the Fig. 3 table and export the deepest chase's trace.
pub fn run(s: &mut Session) {
    s.note_protocol(&ChaseMsg::DECL, &["nomad", "spray"]);
    s.banner(
        "Figure 3: message delivery under migration (8 nodes, 20 racing probes)",
        "FIRs chase migrated actors along forward chains; duplicates are\n\
         suppressed; confirmed locations forward directly; every probe is\n\
         delivered exactly once.",
    );
    s.header(
        &["hops", "delivered", "FIRs", "suppressed", "forwards", "packets"],
        &[7, 11, 9, 11, 10, 9],
    );
    let mut deepest_trace = None;
    let chains: &[usize] = if s.quick() {
        &[0, 2, 8]
    } else {
        &[0, 1, 2, 4, 8, 16]
    };
    for &chain in chains {
        // The nomad walks `chain` hops around the ring 1,2,3,... (avoiding
        // repeats until necessary); the prober on node 4 races the walk.
        let machine = s.machine(8).seed(5).trace().build().unwrap();
        let (delivered, r) = s.recorded(
            format!("fig3 chain={chain} probes=20"),
            chase::run_sim(machine, ChaseConfig::fig3(chain, 20)),
        );
        assert_eq!(delivered, 20, "exactly-once delivery violated");
        let stat = |name| r.stats.get(name);
        s.row(&[
            &chain,
            &delivered,
            &stat("fir.sent"),
            &stat("fir.suppressed"),
            &stat("deliver.forwarded"),
            &stat("net.packets"),
        ]);
        deepest_trace = r.trace; // keep the longest-chain run's recording
    }
    s.say(
        "\nshape: chase work (FIRs + forwards) grows with chain length while\n\
         every message is still delivered exactly once; suppression keeps\n\
         the FIR count well below the probe count.",
    );

    // Flight-recorder export for the deepest chase.
    let trace = deepest_trace.expect("tracing was enabled");
    s.say(format!(
        "\nflight recorder ({}-hop run):\n{}",
        chains.last().expect("non-empty chain list"),
        trace.summary()
    ));
    let path = s.export_trace(&trace);
    s.say(format!("chrome trace written to {path} (open in chrome://tracing or Perfetto)"));
}
