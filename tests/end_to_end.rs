//! Cross-crate integration: the paper's workloads running end to end on
//! both substrates, validated against the sequential baselines.

use hal::prelude::*;
use hal_workloads::cholesky::{self, CholeskyConfig, Variant};
use hal_workloads::fib::{self, FibConfig, Placement};
use hal_workloads::matmul::{self, MatmulConfig};
use std::time::Duration;

#[test]
fn fib_correct_across_partition_sizes() {
    for p in [1usize, 2, 5, 16] {
        let (v, _) = fib::run_sim(
            MachineConfig::builder(p).load_balancing(p > 1).build().unwrap(),
            FibConfig {
                n: 15,
                grain: 4,
                placement: Placement::Local,
            },
        );
        assert_eq!(v, hal_baselines::fib_iter(15), "P={p}");
    }
}

#[test]
fn fib_identical_result_under_all_placements() {
    for placement in [Placement::Local, Placement::RoundRobin, Placement::Random] {
        let (v, _) = fib::run_sim(
            MachineConfig::new(4),
            FibConfig {
                n: 14,
                grain: 3,
                placement,
            },
        );
        assert_eq!(v, hal_baselines::fib_iter(14), "{placement:?}");
    }
}

#[test]
fn fib_threaded_matches_simulated() {
    let mut program = Program::new();
    let id = fib::register(&mut program);
    let cfg = FibConfig {
        n: 16,
        grain: 6,
        placement: Placement::RoundRobin,
    };
    let live = MachineConfig::builder(3)
        .backend(BackendKind::Live)
        .build()
        .unwrap();
    // A machine nobody stops would come back as `WallTimeout` here.
    let r = hal::try_run(live, program, move |ctx| fib::bootstrap(ctx, id, cfg))
        .expect("machine stopped cleanly");
    let value = r.value("fib").unwrap().as_int() as u64;
    assert_eq!(value, hal_baselines::fib_iter(16));
    let (simulated, _) = fib::run_sim(MachineConfig::new(3), cfg);
    assert_eq!(value, simulated);
    // The root's continuation stops the machine after the last reply.
    assert!(r.audit.is_clean(), "{:?}", r.audit);
}

/// The live backend is event-driven: a job submitted to an idle node
/// rings that node's doorbell, so it runs one thread wake-up later — not
/// at the next tick of an idle poll (which used to cost ≈ 550 µs here).
#[test]
fn live_job_reaches_an_idle_node_within_a_wakeup() {
    use hal_kernel::{BehaviorRegistry, Machine};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    let mut m = Machine::live(MachineConfig::new(2), Arc::new(BehaviorRegistry::new()));
    m.init().unwrap();
    let waits = Arc::new(Mutex::new(Vec::new()));
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..60 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        std::thread::sleep(Duration::from_micros(1_000 + (x >> 33) % 2_000));
        let (sent, waits) = (Instant::now(), Arc::clone(&waits));
        m.submit(1, Box::new(move |_| waits.lock().unwrap().push(sent.elapsed())))
            .unwrap();
    }
    m.submit(0, Box::new(|ctx| ctx.stop())).unwrap();
    let report = m.drain(Duration::from_secs(10)).unwrap();
    let mut waits = waits.lock().unwrap().clone();
    assert_eq!(waits.len(), 60, "every job ran exactly once");
    waits.sort();
    assert!(
        waits[30] < Duration::from_micros(400),
        "median submit -> run on an idle node: {:?}",
        waits[30]
    );
    assert!(report.stats.get("live.wake_job") >= 30, "{:?}", report.stats);
}

/// Replies to every request with its own argument.
struct Echo;

impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, mut msg: Msg) {
        ctx.reply(msg.args.pop().unwrap_or(Value::Unit));
    }
}

/// On its one kick-off message, chains `trips` `call_then` round trips
/// to `echo`, then stops the machine.
struct Caller {
    echo: MailAddr,
    trips: i64,
}

fn round_trip(ctx: &mut Ctx<'_>, echo: MailAddr, left: i64) {
    hal::call_then(ctx, echo, 0, vec![Value::Int(left)], move |ctx, v| {
        assert_eq!(v, Value::Int(left));
        if left > 1 {
            round_trip(ctx, echo, left - 1);
        } else {
            ctx.stop();
        }
    });
}

impl Behavior for Caller {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        round_trip(ctx, self.echo, self.trips);
    }
}

/// The local message path keeps its books without locks or searches; this
/// pins that the books stay exact. On one live node, N local call/return
/// round trips must report their closed-form counts, and the node's
/// metrics cell — bumped by plain load/store from the kernel thread —
/// must agree after drain with the kernel's own counter, with the drained
/// report, and with the charges the same program incurs on the simulator.
/// The two backends' metrics documents have one shape: the same keys, and
/// samples on strictly increasing cadence boundaries.
#[test]
fn live_local_round_trips_are_counted_exactly() {
    use std::sync::atomic::Ordering;
    const TRIPS: i64 = 20_000;
    let run = |backend| {
        let cfg = MachineConfig::builder(1)
            .backend(backend)
            .observe(ObserveOpts::none().metrics(true))
            .build()
            .unwrap();
        let mut m = Machine::from_config(cfg, Program::new().build());
        m.with_ctx(0, |ctx| {
            let echo = ctx.create_local(Box::new(Echo));
            let caller = ctx.create_local(Box::new(Caller { echo, trips: TRIPS }));
            ctx.send(caller, 0, vec![]);
        });
        let report = m.run().unwrap();
        (m, report)
    };
    let (m, live) = run(BackendKind::Live);
    let trips = TRIPS as u64;
    // One request per trip plus the kick-off; replies fill the join
    // directly and are not sends.
    assert_eq!(live.stats.get("msgs.local"), trips + 1);
    assert_eq!(live.stats.get("msgs.processed"), trips + 1);
    assert_eq!(live.stats.get("joins.fired"), trips);
    assert_eq!(live.stats.get("msgs.remote"), 0);

    let hub = m.telemetry();
    let cell = &hub.cells()[0];
    let processed = cell.get(hal_kernel::Counter::MsgsProcessed);
    let busy = cell.busy_ns.load(Ordering::Relaxed);
    assert_eq!(processed, trips + 1, "cell lost or gained dispatches");
    let drained = &live.metrics.as_ref().expect("live metrics").nodes[0];
    assert_eq!(drained.counters["msgs.processed"], processed, "the node's cell, under its report name");
    assert_eq!(drained.busy_ns, busy);

    let (_, sim) = run(BackendKind::Sim);
    assert_eq!(sim.stats.get("msgs.processed"), trips + 1);
    let charged = sim.metrics.as_ref().expect("sim metrics").nodes[0].busy_ns;
    assert_eq!(busy, charged, "live cell vs the simulator's sum of charges");

    // Keys are plain identifiers; the backend-specific entries of
    // "counters" have dotted names and drop out.
    let keys = |r: &hal_kernel::SimReport| -> std::collections::BTreeSet<String> {
        let json = r.metrics.as_ref().unwrap().to_json(r.makespan.as_nanos());
        let parts: Vec<&str> = json.split('"').collect();
        let is_key = |w: &&[&str]| {
            w[1].starts_with(':') && w[0].chars().all(|c| c.is_ascii_alphabetic() || c == '_')
        };
        parts.windows(2).filter(is_key).map(|w| w[0].to_string()).collect()
    };
    assert_eq!(keys(&live), keys(&sim));
    assert!(keys(&sim).contains("chain_epochs"), "{:?}", keys(&sim));
    for report in [&live, &sim] {
        let metrics = report.metrics.as_ref().unwrap();
        let at: Vec<u64> = metrics.nodes[0].samples.iter().map(|s| s.at_ns).collect();
        assert!(!at.is_empty());
        assert!(at.iter().all(|t| t % metrics.cadence_ns == 0), "{at:?}");
        assert!(at.windows(2).all(|w| w[0] < w[1]), "{at:?}");
    }
}

#[test]
fn all_cholesky_variants_agree_with_each_other() {
    let fro: Vec<f64> = Variant::all()
        .into_iter()
        .map(|variant| {
            let (fro, _) = cholesky::run_sim(
                MachineConfig::new(4),
                CholeskyConfig {
                    n: 16,
                    variant,
                    per_flop_ns: 100,
                    seed: 11,
                },
                false,
            );
            fro
        })
        .collect();
    for w in fro.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-9,
            "variants disagree: {fro:?}"
        );
    }
}

#[test]
fn cholesky_result_independent_of_partition_size() {
    let run = |p| {
        cholesky::run_sim(
            MachineConfig::new(p),
            CholeskyConfig {
                n: 20,
                variant: Variant::BP,
                per_flop_ns: 100,
                seed: 5,
            },
            false,
        )
        .0
    };
    let f1 = run(1);
    for p in [2usize, 3, 7, 20] {
        assert!((run(p) - f1).abs() < 1e-9, "P={p}");
    }
}

#[test]
fn matmul_result_independent_of_seed_machine_and_grid_shape() {
    // Same matrices via (grid, block) pairs with equal n must agree.
    let f_a = matmul::run_sim(
        MachineConfig::builder(4).seed(1).build().unwrap(),
        MatmulConfig {
            grid: 2,
            block: 12,
            per_flop_ns: 50,
            seed_a: 3,
            seed_b: 4,
        },
        false,
    )
    .0;
    let f_b = matmul::run_sim(
        MachineConfig::builder(16).seed(77).build().unwrap(),
        MatmulConfig {
            grid: 2,
            block: 12,
            per_flop_ns: 50,
            seed_a: 3,
            seed_b: 4,
        },
        false,
    )
    .0;
    assert!((f_a - f_b).abs() < 1e-9);
}

#[test]
fn pipelined_cholesky_beats_global_sync_at_scale() {
    // The Table 1 headline, as a guarded regression test.
    let run = |variant| {
        cholesky::run_sim(
            MachineConfig::new(8),
            CholeskyConfig {
                n: 48,
                variant,
                per_flop_ns: 120,
                seed: 9,
            },
            false,
        )
        .1
        .makespan
    };
    let bp = run(Variant::BP);
    let seq = run(Variant::Seq);
    let bcast = run(Variant::Bcast);
    assert!(bp < seq, "BP {bp} !< Seq {seq}");
    assert!(bp < bcast, "BP {bp} !< Bcast {bcast}");
}

#[test]
fn load_balancing_scales_fib_with_partition_size() {
    let run = |p| {
        fib::run_sim(
            MachineConfig::builder(p).load_balancing(true).seed(3).build().unwrap(),
            FibConfig {
                n: 20,
                grain: 8,
                placement: Placement::Local,
            },
        )
        .1
        .makespan
    };
    let t1 = run(1);
    let t8 = run(8);
    assert!(
        t8.as_nanos() * 3 < t1.as_nanos(),
        "8 nodes should be >3x faster: {t8} vs {t1}"
    );
}

#[test]
fn matmul_scaling_with_nodes() {
    let run = |p| {
        matmul::run_sim(
            MachineConfig::new(p),
            MatmulConfig {
                grid: 4,
                block: 24,
                per_flop_ns: 100,
                seed_a: 1,
                seed_b: 2,
            },
            false,
        )
        .1
        .makespan
    };
    let t1 = run(1);
    let t16 = run(16);
    assert!(
        t16.as_nanos() * 4 < t1.as_nanos(),
        "16 nodes should be >4x faster: {t16} vs {t1}"
    );
}

#[test]
fn fib_33_reproduces_the_papers_849_seconds_on_one_node() {
    // The paper's two fib(33) anchors, end to end: the call tree is
    // 11,405,773 actors' worth of work, and an optimized C version takes
    // 8.49 s on one 33 MHz SPARC — which is exactly what the cost model
    // charges when the runtime elides creations below the grain.
    let (v, r) = fib::run_sim(
        MachineConfig::new(1),
        FibConfig {
            n: 33,
            grain: 20,
            placement: Placement::Local,
        },
    );
    assert_eq!(v, hal_baselines::fib_iter(33));
    assert_eq!(hal_baselines::call_tree_nodes(33), 11_405_773);
    let secs = r.makespan.as_secs_f64();
    assert!(
        (8.4..8.8).contains(&secs),
        "1-node virtual time {secs:.3}s should sit just above the paper's 8.49s C time"
    );
}

#[test]
fn fib_33_scales_on_64_nodes_with_load_balancing() {
    let (v, r) = fib::run_sim(
        MachineConfig::builder(64).load_balancing(true).build().unwrap(),
        FibConfig {
            n: 33,
            grain: 20,
            placement: Placement::Local,
        },
    );
    assert_eq!(v, hal_baselines::fib_iter(33));
    let secs = r.makespan.as_secs_f64();
    assert!(
        secs < 8.49 / 20.0,
        "64 nodes should be >20x faster than the 1-node 8.49s: got {secs:.3}s"
    );
}

/// Cholesky BP, n = 48 on 8 nodes, pinned: the group fan-out, the
/// collective broadcasts, the bulk protocol under them and the input
/// generator may get faster, never different.
#[test]
fn cholesky_bp_is_pinned() {
    let cfg = CholeskyConfig {
        n: 48,
        variant: Variant::BP,
        per_flop_ns: 100,
        seed: 7,
    };
    let (fro, r) = cholesky::run_sim(MachineConfig::new(8), cfg, false);
    assert_eq!(r.events, 3_149, "events");
    assert_eq!(r.makespan.as_nanos(), 4_879_080, "makespan");
    assert_eq!(fro.to_bits(), 0x404b_9f51_ded3_8371, "chol_fro = {fro}");
}
