//! Ablation switches change *performance*, never *semantics*: every
//! workload must compute identical results under every combination of
//! disabled mechanisms. (The benches measure the cost; these tests pin
//! the meaning.)

use hal::prelude::*;
use hal_kernel::SimMachine;
use hal::OptFlags;
use hal_workloads::cholesky::{self, CholeskyConfig, Variant};
use hal_workloads::fib::{self, FibConfig, Placement};
use hal_workloads::matmul::{self, MatmulConfig};

fn all_flag_variants() -> Vec<OptFlags> {
    let on = OptFlags::default();
    vec![
        on,
        OptFlags { aliases: false, ..on },
        OptFlags { name_caching: false, ..on },
        OptFlags { collective_bcast: false, ..on },
        OptFlags { fir_chase: false, ..on },
        OptFlags {
            aliases: false,
            name_caching: false,
            collective_bcast: false,
            fir_chase: false,
        },
    ]
}

#[test]
fn fib_result_invariant_under_all_ablations() {
    for (i, opt) in all_flag_variants().into_iter().enumerate() {
        for flow in [true, false] {
            let (v, _) = fib::run_sim(
                MachineConfig::builder(4)
                    .opt(opt)
                    .flow_control(flow)
                    .load_balancing(true).build().unwrap(),
                FibConfig {
                    n: 15,
                    grain: 4,
                    placement: Placement::Local,
                },
            );
            assert_eq!(v, hal_baselines::fib_iter(15), "variant {i}, flow={flow}");
        }
    }
}

#[test]
fn cholesky_result_invariant_under_all_ablations() {
    let reference = {
        let mut a = hal_baselines::random_spd(16, 8);
        hal_baselines::cholesky_seq(&mut a, 16);
        let mut fro = 0.0;
        for i in 0..16 {
            for j in 0..=i {
                fro += a[i * 16 + j] * a[i * 16 + j];
            }
        }
        fro.sqrt()
    };
    for (i, opt) in all_flag_variants().into_iter().enumerate() {
        let (fro, _) = cholesky::run_sim(
            MachineConfig::builder(4).opt(opt).build().unwrap(),
            CholeskyConfig {
                n: 16,
                variant: Variant::BP,
                per_flop_ns: 10,
                seed: 8,
            },
            false,
        );
        assert!((fro - reference).abs() < 1e-9, "variant {i}: {fro} vs {reference}");
    }
}

#[test]
fn matmul_result_invariant_under_all_ablations() {
    let mut expect = None;
    for (i, opt) in all_flag_variants().into_iter().enumerate() {
        let (fro, _) = matmul::run_sim(
            MachineConfig::builder(4).opt(opt).build().unwrap(),
            MatmulConfig {
                grid: 2,
                block: 6,
                per_flop_ns: 10,
                seed_a: 5,
                seed_b: 6,
            },
            false,
        );
        match expect {
            None => expect = Some(fro),
            Some(e) => assert!((fro - e).abs() < 1e-9, "variant {i}"),
        }
    }
}

#[test]
fn migration_chases_deliver_exactly_once_without_fir() {
    // The whole-message-forwarding alternative must still be exactly-once.
    // Not `hal_workloads::chase`: this nomad walks the ring, so it returns to
    // its birthplace (node 0) twice, which is a kernel path of its own.
    struct Nomad {
        hops: i64,
        probes: i64,
    }
    impl Behavior for Nomad {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            match msg.selector {
                0 => {
                    if self.hops > 0 {
                        self.hops -= 1;
                        let me = ctx.me();
                        let next = ((ctx.node() as usize + 1) % ctx.nodes()) as u16;
                        ctx.send(me, 0, vec![]);
                        ctx.migrate(next);
                    }
                }
                1 => {
                    self.probes += 1;
                    ctx.report("probe", Value::Int(self.probes));
                }
                _ => unreachable!(),
            }
        }
    }
    struct Spray {
        target: MailAddr,
    }
    impl Behavior for Spray {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            for _ in 0..10 {
                ctx.send(self.target, 1, vec![]);
            }
        }
    }
    fn make_spray(args: &[Value]) -> Box<dyn Behavior> {
        Box::new(Spray {
            target: args[0].as_addr(),
        })
    }

    let mut program = Program::new();
    let spray = program.behavior("spray", make_spray);
    let opt = OptFlags {
        fir_chase: false,
        ..OptFlags::default()
    };
    let mut m = SimMachine::new(MachineConfig::builder(6).opt(opt).build().unwrap(), program.build());
    m.with_ctx(0, |ctx| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: 12, probes: 0 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(3, spray, vec![Value::Addr(nomad)]);
        ctx.send(s, 0, vec![]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.values("probe").len(), 10, "exactly-once even when forwarding whole messages");
    assert!(r.stats.get("fir.sent") == 0, "no FIRs in the ablated mode");
    assert!(r.stats.get("deliver.forwarded_whole") > 0, "whole messages were forwarded");
}

#[test]
fn timeline_recording_is_consistent_with_makespan() {
    let mut program = Program::new();
    let id = fib::register(&mut program);
    let mut m = SimMachine::new(
        MachineConfig::builder(4).timeline().load_balancing(true).build().unwrap(),
        program.build(),
    );
    m.with_ctx(0, |ctx| {
        fib::bootstrap(
            ctx,
            id,
            FibConfig {
                n: 16,
                grain: 6,
                placement: Placement::Local,
            },
        )
    });
    let r = m.run().unwrap();
    let tl = m.timeline();
    assert!(!tl.spans.is_empty(), "spans were recorded");
    for s in &tl.spans {
        assert!(s.end > s.start);
        assert!(
            s.end.as_nanos() <= r.makespan.as_nanos(),
            "span beyond makespan"
        );
        assert!((s.node as usize) < 4);
    }
    let utils = tl.utilization(4, r.makespan);
    assert!(utils.iter().all(|&u| (0.0..=1.0).contains(&u)));
    assert!(utils[0] > 0.0, "node 0 did work");
}
