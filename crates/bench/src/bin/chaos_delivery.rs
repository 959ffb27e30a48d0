//! Chaos harness: exactly-once delivery under seeded link faults.
//!
//! The migration-chase workload from `fig3_delivery` runs again, but
//! with the fault plan live: every link drops, duplicates, and reorders
//! packets with probability `rate`, and the reliable-delivery layer
//! (per-link sequence numbers, cumulative acks, timeout retransmit —
//! DESIGN.md §"Fault injection & reliable delivery") must still deliver
//! every racing probe exactly once to an actor that keeps migrating out
//! from under them. Columns show what the reliability layer paid:
//! retransmissions, duplicates suppressed at the receiver, and raw
//! packets the fault layer ate.
//!
//! Faults are decided inside the DES from the master seed, so a given
//! `(seed, rate)` run is fully reproducible: stdout is byte-identical
//! across reruns.

use hal::prelude::*;
use hal_kernel::SimMachine;
use hal_bench::{banner, cell, header, out, row};

struct Nomad {
    hops: Vec<u16>,
    probes: i64,
}
impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                if let Some(next) = self.hops.pop() {
                    let me = ctx.me();
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                }
            }
            1 => {
                self.probes += 1;
                ctx.report("probe_delivered", Value::Int(self.probes));
            }
            _ => unreachable!(),
        }
    }
}

struct Spray {
    target: MailAddr,
    n: i64,
}
impl Behavior for Spray {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        for _ in 0..self.n {
            ctx.send(self.target, 1, vec![]);
        }
    }
}

fn make_spray(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Spray {
        target: args[0].as_addr(),
        n: args[1].as_int(),
    })
}

struct ChaosRun {
    delivered: u64,
    retransmits: u64,
    dup_suppressed: u64,
    dropped: u64,
    duplicated: u64,
    fir_reissued: u64,
}

fn run(rate: f64, chain: usize, probes: i64) -> ChaosRun {
    let p = 8usize;
    let mut program = Program::new();
    let spray = program.behavior("spray", make_spray);
    let cfg = MachineConfig::builder(p)
        .seed(5)
        .faults(FaultPlan::chaos(rate))
        .observe(out::observe_opts())
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, program.build());
    m.with_ctx(0, |ctx| {
        let hops: Vec<u16> = (0..chain).rev().map(|i| ((i % (p - 1)) + 1) as u16).collect();
        let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(4, spray, vec![Value::Addr(nomad), Value::Int(probes)]);
        ctx.send(s, 0, vec![]);
    });
    let r = m.run().unwrap();
    let c = ChaosRun {
        delivered: r.values("probe_delivered").len() as u64,
        retransmits: r.stats.get("rel.retransmits"),
        dup_suppressed: r.stats.get("rel.dup_dropped"),
        dropped: r.stats.get("net.fault_dropped"),
        duplicated: r.stats.get("net.fault_duplicated"),
        fir_reissued: r.stats.get("fir.reissued"),
    };
    out::note_run_with(
        format!("chaos rate={rate}"),
        &r,
        &[
            ("delivered", c.delivered),
            ("retransmits", c.retransmits),
            ("duplicates_suppressed", c.dup_suppressed),
            ("link_dropped", c.dropped),
            ("link_duplicated", c.duplicated),
            ("fir_reissued", c.fir_reissued),
        ],
    );
    c
}

fn main() {
    banner(
        "Chaos: exactly-once delivery under seeded link faults (8 nodes)",
        "Every link drops/duplicates/reorders packets at the given rate\n\
         while 40 probes chase an actor through an 8-hop migration walk.\n\
         The reliable layer retransmits on timeout and suppresses\n\
         duplicates by per-link sequence number; delivery stays exactly\n\
         once at every rate.",
    );
    let widths = [7usize, 11, 9, 12, 9, 9, 9];
    header(
        &["rate", "delivered", "retx", "dup-suppr", "dropped", "dup'd", "FIR-rtx"],
        &widths,
    );
    let rates: &[f64] = if out::quick() {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.01, 0.05, 0.10, 0.20]
    };
    let probes = 40i64;
    for &rate in rates {
        let c = run(rate, 8, probes);
        assert_eq!(
            c.delivered, probes as u64,
            "exactly-once delivery violated at fault rate {rate}"
        );
        row(
            &[
                format!("{rate:.2}"),
                cell(c.delivered),
                cell(c.retransmits),
                cell(c.dup_suppressed),
                cell(c.dropped),
                cell(c.duplicated),
                cell(c.fir_reissued),
            ],
            &widths,
        );
    }
    println!(
        "\nshape: the fault-free row pays zero overhead (the fault layer is\n\
         compiled out of the hot path when the plan is empty); as the rate\n\
         climbs, retransmissions and suppressed duplicates grow while the\n\
         delivered count never moves."
    );
    out::finish("chaos_delivery");
}
