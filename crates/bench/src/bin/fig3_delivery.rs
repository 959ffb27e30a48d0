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

use hal::prelude::*;
use hal_kernel::{SimMachine, TraceReport};
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

fn run(chain: usize, probes: i64) -> (u64, u64, u64, u64, u64, Option<TraceReport>) {
    let p = 8usize;
    let mut program = Program::new();
    let spray = program.behavior("spray", make_spray);
    let mut m = SimMachine::new(
        MachineConfig::builder(p)
            .seed(5)
            .observe(out::observe_opts().trace(true))
            .build()
            .unwrap(),
        program.build(),
    );
    m.with_ctx(0, |ctx| {
        // Walk `chain` hops around the ring 1,2,3,... (avoiding repeats
        // until necessary).
        let hops: Vec<u16> = (0..chain).rev().map(|i| ((i % (p - 1)) + 1) as u16).collect();
        let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        // Prober on another node races the walk.
        let s = ctx.create_on(4, spray, vec![Value::Addr(nomad), Value::Int(probes)]);
        ctx.send(s, 0, vec![]);
    });
    let r = m.run().unwrap();
    out::note_run(format!("fig3 chain={chain} probes={probes}"), &r);
    let delivered = r.values("probe_delivered").len() as u64;
    (
        delivered,
        r.stats.get("fir.sent"),
        r.stats.get("fir.suppressed"),
        r.stats.get("deliver.forwarded"),
        r.stats.get("net.packets"),
        r.trace,
    )
}

fn main() {
    banner(
        "Figure 3: message delivery under migration (8 nodes, 20 racing probes)",
        "FIRs chase migrated actors along forward chains; duplicates are\n\
         suppressed; confirmed locations forward directly; every probe is\n\
         delivered exactly once.",
    );
    let widths = [7usize, 11, 9, 11, 10, 9];
    header(
        &["hops", "delivered", "FIRs", "suppressed", "forwards", "packets"],
        &widths,
    );
    let mut deepest_trace: Option<TraceReport> = None;
    let chains: &[usize] = if out::quick() {
        &[0, 2, 8]
    } else {
        &[0, 1, 2, 4, 8, 16]
    };
    for &chain in chains {
        let (delivered, firs, supp, fwd, pkts, trace) = run(chain, 20);
        assert_eq!(delivered, 20, "exactly-once delivery violated");
        deepest_trace = trace; // keep the longest-chain run's recording
        row(
            &[
                cell(chain),
                cell(delivered),
                cell(firs),
                cell(supp),
                cell(fwd),
                cell(pkts),
            ],
            &widths,
        );
    }
    println!(
        "\nshape: chase work (FIRs + forwards) grows with chain length while\n\
         every message is still delivered exactly once; suppression keeps\n\
         the FIR count well below the probe count."
    );

    // Flight-recorder export for the deepest chase.
    let trace = deepest_trace.expect("tracing was enabled");
    println!(
        "\nflight recorder ({}-hop run):\n{}",
        chains.last().expect("non-empty chain list"),
        trace.summary()
    );
    let path = "results/fig3_delivery_trace.json";
    if let Err(e) = trace.write_chrome(path) {
        eprintln!("fig3_delivery: trace export to {path} failed: {e}");
        std::process::exit(1);
    }
    println!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    out::finish("fig3_delivery");
}
