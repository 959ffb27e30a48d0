//! Quickstart: define a behavior, create actors across nodes, do a
//! call/return, and read the result back from the machine report.
//!
//! Run with: `cargo run --release --example quickstart`

use hal::prelude::*;

/// A greeter actor: replies to `greet(n)` with `n * 2 + 1`.
struct Greeter;

impl Behavior for Greeter {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                let n = msg.args[0].as_int();
                // `reply` answers the customer continuation carried by
                // the request message (§6.2).
                ctx.reply(Value::Int(n * 2 + 1));
            }
            _ => unreachable!(),
        }
    }
    fn name(&self) -> &'static str {
        "greeter"
    }
}

fn make_greeter(_args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Greeter)
}

fn main() {
    // A "program" is the registry of behaviors every node loads.
    let mut program = Program::new();
    let greeter = program.behavior("greeter", make_greeter);

    // Four simulated CM-5 nodes.
    let report = hal::run(MachineConfig::new(4), program, |ctx| {
        // Create one greeter on every node. Remote creations return an
        // *alias* immediately (§5) — no round trip.
        let greeters: Vec<MailAddr> = (0..4u16)
            .map(|node| ctx.create_on(node, greeter, vec![]))
            .collect();

        // Ask all four in parallel; the join continuation fires when the
        // last reply lands.
        let mut join = JoinBuilder::new();
        for (i, g) in greeters.iter().enumerate() {
            join = join.call(*g, 0, vec![Value::Int(i as i64)]);
        }
        join.then(ctx, |ctx, vals| {
            let sum: i64 = vals.iter().map(|v| v.as_int()).sum();
            ctx.report("sum", Value::Int(sum));
            ctx.stop();
        });
    });

    // (0*2+1) + (1*2+1) + (2*2+1) + (3*2+1) = 16
    let sum = report.value("sum").expect("machine completed").as_int();
    println!("sum of greetings        : {sum}");
    println!("virtual execution time  : {}", report.makespan);
    println!("actors created          : {}", report.actors_created);
    println!("network packets         : {}", report.stats.get("net.packets"));
    assert_eq!(sum, 16);
}
