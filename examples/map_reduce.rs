//! Map-reduce with actor groups and tree reduction: `grpnew` spreads a
//! worker per partition slot, a spanning-tree broadcast (§6.4) starts
//! the map phase, and the reduction collective (the broadcast tree run
//! in reverse) folds the partial results — no global synchronization
//! anywhere, just counters.
//!
//! The job: count primes below N, split across 32 workers on 8 nodes.
//!
//! Run with: `cargo run --release --example map_reduce`

use hal::collectives::{self, Op};
use hal::prelude::*;

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// A map worker: counts primes in its slice and contributes the count
/// to its node's combiner.
struct Worker {
    index: u64,
    count: u64,
    limit: u64,
}

impl Behavior for Worker {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        // Start: args carry the combiner addresses, one per node.
        let combiners: Vec<MailAddr> = msg.args.iter().map(|v| v.as_addr()).collect();
        let lo = self.limit * self.index / self.count;
        let hi = self.limit * (self.index + 1) / self.count;
        let primes = (lo..hi).filter(|&x| is_prime(x)).count() as i64;
        // Charge the map work to the virtual clock (~40ns per trial
        // division on the 33MHz SPARC would be generous; keep it simple).
        ctx.charge(hal_des::VirtualDuration::from_nanos((hi - lo) * 500));
        collectives::contribute(ctx, combiners[ctx.node() as usize], primes);
    }
    fn name(&self) -> &'static str {
        "map-worker"
    }
}

fn make_worker(args: &[Value]) -> Box<dyn Behavior> {
    // grpnew appends [Group, Int(index), Int(count)].
    let n = args.len();
    Box::new(Worker {
        limit: args[0].as_int() as u64,
        index: args[n - 2].as_int() as u64,
        count: args[n - 1].as_int() as u64,
    })
}

fn main() {
    let nodes = 8usize;
    let workers = 32u32;
    let limit = 50_000u64;

    let mut program = Program::new();
    let worker = program.behavior("map-worker", make_worker);
    let combiner = collectives::register(&mut program);

    let report = hal::run(MachineConfig::new(nodes), program, move |ctx| {
        let jc = ctx.create_reply_join(Box::new(|ctx, v| {
            ctx.report("primes", v);
            ctx.stop();
        }));
        // One combiner per node; each expects that node's worker count.
        let per_node: Vec<usize> = (0..nodes)
            .map(|n| {
                hal_kernel::group::members_on(n as u16, workers, nodes, Mapping::Block).count()
            })
            .collect();
        let combiners =
            collectives::tree_reduce(ctx, combiner, Op::SumInt, &per_node, ctx.cont_slot(jc, 0));
        // Map phase: create the worker group and broadcast Start with
        // the combiner directory.
        let g = ctx.grpnew(worker, workers, vec![Value::Int(limit as i64)]);
        let args: Vec<Value> = combiners.into_iter().map(Value::Addr).collect();
        ctx.broadcast(g, 0, args);
    });

    let got = report.value("primes").expect("job completed").as_int() as u64;
    let expect = (0..limit).filter(|&x| is_prime(x)).count() as u64;
    println!("primes below {limit}     : {got}");
    println!("sequential check        : {expect}");
    println!("virtual time            : {}", report.makespan);
    println!(
        "workers {workers} on {nodes} nodes; broadcast down the spanning tree, \
         reduction back up it"
    );
    assert_eq!(got, expect);
}
