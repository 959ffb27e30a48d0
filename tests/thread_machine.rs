//! Live-backend integration: groups, broadcasts, collectives, and the
//! workloads under genuine OS-thread concurrency — the same programs the
//! simulator runs, one real kernel thread per node, with no shared-memory
//! shortcuts available.

use hal::collectives::{self, Op};
use hal::prelude::*;
use hal_kernel::group::members_on;

/// Run `program` on `nodes` live kernel threads until it stops itself.
/// A machine nobody stops ends as `MachineError::WallTimeout` at the
/// default wall budget, a panicking node as `NodePanicked`; either fails
/// the test here. Every program below stops only once its last message
/// has been consumed, so the quiescence audit must come back clean too.
fn run_live(nodes: usize, program: Program, bootstrap: impl FnOnce(&mut Ctx<'_>)) -> SimReport {
    let cfg = MachineConfig::builder(nodes)
        .backend(BackendKind::Live)
        .build()
        .unwrap();
    let report = hal::try_run(cfg, program, bootstrap).expect("machine stopped cleanly");
    assert!(report.audit.is_clean(), "{:?}", report.audit);
    report
}

#[test]
fn groups_and_broadcast_across_threads() {
    struct Member {
        index: i64,
        reply_to: MailAddr,
    }
    impl Behavior for Member {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.send(self.reply_to, 0, vec![Value::Int(self.index)]);
        }
    }
    fn make_member(args: &[Value]) -> Box<dyn Behavior> {
        let n = args.len();
        Box::new(Member {
            reply_to: args[0].as_addr(),
            index: args[n - 2].as_int(),
        })
    }
    struct Counter {
        expected: i64,
        sum: i64,
        seen: i64,
    }
    impl Behavior for Counter {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            self.sum += msg.args[0].as_int();
            self.seen += 1;
            if self.seen == self.expected {
                ctx.report("sum", Value::Int(self.sum));
                ctx.stop();
            }
        }
    }

    let count = 24u32;
    let mut program = Program::new();
    let member = program.behavior("member", make_member);
    let report = run_live(4, program, move |ctx| {
        let counter = ctx.create_local(Box::new(Counter {
            expected: count as i64,
            sum: 0,
            seen: 0,
        }));
        let g = ctx.grpnew(member, count, vec![Value::Addr(counter)]);
        ctx.broadcast(g, 0, vec![]);
    });
    let expect: i64 = (0..count as i64).sum();
    assert_eq!(report.value("sum"), Some(&Value::Int(expect)));
}

#[test]
fn tree_reduction_across_threads() {
    let nodes = 3usize;
    let mut program = Program::new();
    let combiner = collectives::register(&mut program);
    let report = run_live(nodes, program, move |ctx| {
        let jc = ctx.create_reply_join(Box::new(|ctx, v| {
            ctx.report("reduced", v);
            ctx.stop();
        }));
        let locals = vec![2usize; nodes];
        let combiners =
            collectives::tree_reduce(ctx, combiner, Op::SumInt, &locals, ctx.cont_slot(jc, 0));
        for (node, c) in combiners.iter().enumerate() {
            for i in 0..2 {
                collectives::contribute(ctx, *c, (node * 10 + i) as i64);
            }
        }
    });
    let expect: i64 = (0..nodes).flat_map(|n| (0..2).map(move |i| (n * 10 + i) as i64)).sum();
    assert_eq!(report.value("reduced"), Some(&Value::Int(expect)));
}

#[test]
fn cholesky_bp_runs_threaded() {
    use hal_workloads::cholesky::{self, CholeskyConfig, Variant};
    let mut program = Program::new();
    let id = cholesky::register(&mut program);
    let cfg = CholeskyConfig {
        n: 12,
        variant: Variant::BP,
        per_flop_ns: 10,
        seed: 31,
    };
    let report = run_live(3, program, move |ctx| {
        cholesky::bootstrap(ctx, id, cfg, false)
    });
    // Same matrix as the simulator would factor: compare norms.
    let mut a = hal_baselines::random_spd(12, 31);
    hal_baselines::cholesky_seq(&mut a, 12);
    let mut fro = 0.0;
    for i in 0..12 {
        for j in 0..=i {
            fro += a[i * 12 + j] * a[i * 12 + j];
        }
    }
    let got = report.value("chol_fro").expect("completed").as_float();
    assert!((got - fro.sqrt()).abs() < 1e-9);
}

#[test]
fn member_ranges_cover_thread_partition() {
    // The same block mapping drives both backends; sanity-check the
    // partition used by the live group test above.
    let count = 24u32;
    let p = 4usize;
    let total: usize = (0..p)
        .map(|n| members_on(n as u16, count, p, Mapping::Block).count())
        .sum();
    assert_eq!(total, count as usize);
}

#[test]
fn chase_agrees_on_sim_and_live() {
    use hal_workloads::chase::{self, ChaseConfig};
    // The nomad stops the machine at its last probe: the live runtime
    // has no quiescence detection, and the same program drives both.
    // On live that stop can land while an FIR reply is still propagating
    // back along the chain (or before the walk's last hop), so open FIRs
    // are the one audit row a truncated live chase may leave; nothing may
    // be stranded, buffered for an unknown key, or waiting on a join. The
    // simulator's stop is deterministic and its audit is clean outright.
    let cfg = ChaseConfig {
        chain: 8,
        probes: 20,
        prober_node: 3,
        stop_after_last_probe: true,
    };
    let on = |backend| {
        let machine = MachineConfig::builder(4).backend(backend).build().unwrap();
        let (delivered, report) = chase::run_sim(machine, cfg);
        let a = &report.audit;
        assert_eq!(
            (a.stranded_pending(), a.unknown_buffered(), a.unresolved_joins()),
            (0, 0, 0),
            "{backend}: {a:?}"
        );
        (delivered, a.is_clean())
    };
    assert_eq!(on(BackendKind::Sim), (20, true));
    assert_eq!(on(BackendKind::Live).0, 20);
}
