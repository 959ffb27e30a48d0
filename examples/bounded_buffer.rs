//! The classic bounded buffer, synchronized *only* by §6.1 disabling
//! conditions — the paper's "modular specification of local
//! synchronization constraints".
//!
//! `put` is disabled at capacity and `get` when empty; the kernel parks
//! disabled messages in the pending queue and redelivers them as the
//! buffer's state changes. Producers and consumers on different nodes
//! hammer one buffer actor with no locks, no acks, no retries — the
//! constraint *is* the synchronization.
//!
//! Run with: `cargo run --release --example bounded_buffer`

use hal::prelude::*;
use hal_kernel::ContRef;
use std::collections::VecDeque;

const PUT: Selector = 0;
const GET: Selector = 1;

struct Buffer {
    items: VecDeque<i64>,
    capacity: usize,
    puts: u64,
    gets: u64,
}

impl Behavior for Buffer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            PUT => {
                self.items.push_back(msg.args[0].as_int());
                self.puts += 1;
                assert!(self.items.len() <= self.capacity, "constraint violated");
            }
            GET => {
                let v = self.items.pop_front().expect("constraint violated");
                self.gets += 1;
                ctx.reply(Value::Int(v));
            }
            _ => unreachable!(),
        }
    }

    /// The entire synchronization specification of the program.
    fn enabled(&self, selector: Selector, _args: &[Value]) -> bool {
        match selector {
            PUT => self.items.len() < self.capacity,
            GET => !self.items.is_empty(),
            _ => true,
        }
    }

    fn name(&self) -> &'static str {
        "bounded-buffer"
    }
}

/// Produces `n` items into the buffer, pacing itself only by virtual
/// compute (no flow-control handshake — the buffer's constraint absorbs
/// bursts).
struct Producer {
    buffer: MailAddr,
    n: i64,
    base: i64,
}
impl Behavior for Producer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        for i in 0..self.n {
            ctx.send(self.buffer, PUT, vec![Value::Int(self.base + i)]);
        }
    }
}

/// Requests `n` items; sums the replies; reports and (if last) stops.
struct Consumer {
    buffer: MailAddr,
    left: i64,
    sum: i64,
    last: bool,
}
impl Behavior for Consumer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            // kick: issue all requests; replies come back on selector 1.
            0 => {
                let me = ctx.me();
                for _ in 0..self.left {
                    ctx.request(
                        self.buffer,
                        GET,
                        vec![],
                        ContRef::Actor {
                            addr: me,
                            selector: 1,
                        },
                    );
                }
            }
            1 => {
                self.sum += msg.args[0].as_int();
                self.left -= 1;
                if self.left == 0 {
                    ctx.report("consumed_sum", Value::Int(self.sum));
                    if self.last {
                        ctx.stop();
                    }
                }
            }
            _ => unreachable!(),
        }
    }
}

fn make_producer(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Producer {
        buffer: args[0].as_addr(),
        n: args[1].as_int(),
        base: args[2].as_int(),
    })
}
fn make_consumer(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Consumer {
        buffer: args[0].as_addr(),
        left: args[1].as_int(),
        sum: 0,
        last: args[2].as_int() != 0,
    })
}

fn main() {
    let per_side = 40i64;
    let mut program = Program::new();
    let producer = program.behavior("producer", make_producer);
    let consumer = program.behavior("consumer", make_consumer);

    let report = hal::run(MachineConfig::new(5), program, |ctx| {
        let buffer = ctx.create_local(Box::new(Buffer {
            items: VecDeque::new(),
            capacity: 4,
            puts: 0,
            gets: 0,
        }));
        // Two producers and two consumers on distinct nodes.
        for (node, base) in [(1u16, 0i64), (2, 1000)] {
            let p = ctx.create_on(
                node,
                producer,
                vec![Value::Addr(buffer), Value::Int(per_side), Value::Int(base)],
            );
            ctx.send(p, 0, vec![]);
        }
        for (node, last) in [(3u16, 0i64), (4, 1)] {
            let c = ctx.create_on(
                node,
                consumer,
                vec![Value::Addr(buffer), Value::Int(per_side), Value::Int(last)],
            );
            ctx.send(c, 0, vec![]);
        }
    });

    let sums: Vec<i64> = report
        .values("consumed_sum")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    let total: i64 = sums.iter().sum();
    let expect: i64 = (0..per_side).sum::<i64>() + (0..per_side).map(|i| 1000 + i).sum::<i64>();
    println!("consumers received sums : {sums:?} (total {total})");
    println!("expected total          : {expect}");
    println!(
        "messages deferred by constraints: {} (each later resumed: {})",
        report.stats.get("sync.deferred"),
        report.stats.get("sync.resumed"),
    );
    println!("virtual time            : {}", report.makespan);
    assert_eq!(total, expect, "every item produced is consumed exactly once");
    assert!(report.stats.get("sync.deferred") > 0, "constraints did real work");
}
