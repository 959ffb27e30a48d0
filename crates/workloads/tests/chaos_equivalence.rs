//! Chaos integration: the migration-chase workload under seeded
//! drop/duplicate/reorder faults must still deliver every probe exactly
//! once (the reliable layer's contract), reach the same final actor
//! state as the fault-free run, and stay bit-identical across reruns —
//! fault draws are a function of the seed and the admission order.

use hal::prelude::*;
use hal_kernel::{SimMachine, SimReport};

const SEEDS: [u64; 3] = [1, 0x5EED, 42];
const RATES: [f64; 2] = [0.05, 0.15];
const CHAIN: usize = 8;
const PROBES: i64 = 20;

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

fn run_chase(seed: u64, rate: f64) -> SimReport {
    let p = 8usize;
    let mut program = Program::new();
    let spray = program.behavior("spray", |args: &[Value]| {
        Box::new(Spray {
            target: args[0].as_addr(),
            n: args[1].as_int(),
        }) as Box<dyn Behavior>
    });
    let cfg = MachineConfig::builder(p)
        .seed(seed)
        .faults(FaultPlan::chaos(rate))
        .build()
        .unwrap();
    let mut m = SimMachine::new(cfg, program.build());
    m.with_ctx(0, |ctx| {
        let hops: Vec<u16> = (0..CHAIN).rev().map(|i| ((i % (p - 1)) + 1) as u16).collect();
        let nomad = ctx.create_local(Box::new(Nomad { hops, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(4, spray, vec![Value::Addr(nomad), Value::Int(PROBES)]);
        ctx.send(s, 0, vec![]);
    });
    m.run().unwrap()
}

/// The nomad's reported probe sequence — its externally visible final
/// state (`probes` counts every delivery, duplicates included, so
/// equality with the fault-free run *is* the exactly-once property).
fn probe_seq(r: &SimReport) -> Vec<i64> {
    r.values("probe_delivered").into_iter().map(|v| v.as_int()).collect()
}

#[test]
fn chase_under_faults_delivers_exactly_once() {
    for seed in SEEDS {
        let clean = run_chase(seed, 0.0);
        assert_eq!(
            probe_seq(&clean),
            (1..=PROBES).collect::<Vec<_>>(),
            "fault-free baseline broken (seed {seed})"
        );
        for rate in RATES {
            let faulty = run_chase(seed, rate);
            assert!(
                faulty.stats.get("net.fault_dropped") > 0,
                "rate {rate} dropped nothing — the plan is not live (seed {seed})"
            );
            assert_eq!(
                probe_seq(&faulty),
                probe_seq(&clean),
                "final actor state diverged from the fault-free run \
                 (seed {seed}, rate {rate})"
            );
        }
    }
}

#[test]
fn chase_under_faults_reruns_identically() {
    for seed in SEEDS {
        for rate in RATES {
            let first = run_chase(seed, rate);
            assert!(first.events > 0);
            assert_eq!(
                first,
                run_chase(seed, rate),
                "chaos rerun diverged (seed {seed}, rate {rate})"
            );
        }
    }
}
