//! Fibonacci with dynamic load balancing on the *live* backend — the
//! same kernel code as the simulator, but with one OS thread per node,
//! real channels and host time (the "networks of workstations" mode the
//! paper's conclusions point toward).
//!
//! Run with: `cargo run --release --example fib_threads`

use hal::prelude::*;
use hal_workloads::fib::{self, FibConfig, Placement};
use std::time::Instant;

fn main() {
    let n = 24u64;
    let nodes = 4;

    let mut program = Program::new();
    let fib_id = fib::register(&mut program);

    let cfg = MachineConfig::builder(nodes)
        .backend(BackendKind::Live)
        .load_balancing(true)
        .build()
        .unwrap();
    let start = Instant::now();
    // A run nobody stops comes back as `MachineError::WallTimeout`.
    let report = hal::try_run(cfg, program, move |ctx| {
        fib::bootstrap(
            ctx,
            fib_id,
            FibConfig {
                n,
                grain: 8,
                placement: Placement::Local,
            },
        );
    })
    .expect("machine stopped cleanly");
    let wall = start.elapsed();

    let v = report.value("fib").expect("completed").as_int() as u64;
    println!("fib({n})                = {v}");
    println!("expected              = {}", hal_baselines::fib_iter(n));
    println!("wall clock            = {wall:?}");
    println!("actors created        = {}", report.actors_created);
    println!("work stolen (actors)  = {}", report.stats.get("steal.granted"));
    println!("migrations in-flight  = {}", report.stats.get("migrations.in"));
    assert_eq!(v, hal_baselines::fib_iter(n));
    assert!(report.audit.is_clean(), "{:?}", report.audit);
}
