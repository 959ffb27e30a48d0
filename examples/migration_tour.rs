//! Location transparency on tour: an actor migrates around the
//! partition while another keeps messaging it by the *same* mail
//! address. Shows the §4.3 machinery at work — FIR chases, duplicate
//! suppression, forwarding, and name-table repair.
//!
//! A relentless migrator is the adversarial case for the paper's "best
//! guess" tables (they assume "migration is a relatively infrequent
//! event"): the chase trails the tourist by one hop and the probes are
//! all delivered — exactly once — as it slows down. The run records the
//! flight recorder (`.trace()`), and every FIR sent, suppressed and
//! answered is printed from it in time order.
//!
//! Run with: `cargo run --release --example migration_tour`

use hal::prelude::*;
use hal_kernel::{ContRef, KernelEvent};

/// Wanders the partition: on each `hop` message it migrates to the next
/// node; `probe` messages must find it wherever it currently lives.
struct Tourist {
    hops_left: i64,
    probes_seen: i64,
}

impl Behavior for Tourist {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            // hop
            0 => {
                if self.hops_left > 0 {
                    self.hops_left -= 1;
                    // Linger a while at each stop so probes race the tour.
                    ctx.charge(hal_des::VirtualDuration::from_micros(300));
                    let me = ctx.me();
                    let next = ((ctx.node() as usize + 1) % ctx.nodes()) as u16;
                    ctx.send(me, 0, vec![]); // keep touring after arrival
                    ctx.migrate(next);
                } else {
                    ctx.report("tour_ended_on", Value::Int(ctx.node() as i64));
                }
            }
            // probe
            1 => {
                self.probes_seen += 1;
                // Record where and when the probe caught us.
                let at = ctx.now().as_micros() as i64;
                ctx.report("probe", Value::Int(ctx.node() as i64));
                ctx.report("probe_at_us", Value::Int(at));
                if let Some(cont) = ctx.customer() {
                    ctx.reply_to(cont, Value::Int(self.probes_seen));
                }
            }
            _ => unreachable!(),
        }
    }
    fn name(&self) -> &'static str {
        "tourist"
    }
}

/// Sends a probe, waits for the reply, sends the next — until `left`
/// probes have been acknowledged, then stops the machine.
struct Prober {
    target: MailAddr,
    left: i64,
}

impl Behavior for Prober {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            // kick / reply-received
            0 => {
                if self.left == 0 {
                    ctx.stop();
                    return;
                }
                self.left -= 1;
                let me = ctx.me();
                ctx.request(
                    self.target,
                    1,
                    vec![],
                    ContRef::Actor {
                        addr: me,
                        selector: 0,
                    },
                );
            }
            _ => unreachable!(),
        }
    }
    fn name(&self) -> &'static str {
        "prober"
    }
}

fn make_prober(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Prober {
        target: args[0].as_addr(),
        left: args[1].as_int(),
    })
}

fn main() {
    let nodes = 8;
    let hops = 24i64;
    let probes = 12i64;

    let mut program = Program::new();
    let prober = program.behavior("prober", make_prober);

    let cfg = MachineConfig::builder(nodes).trace().build().unwrap();
    let report = hal::run(cfg, program, |ctx| {
        let tourist = ctx.create_local(Box::new(Tourist {
            hops_left: hops,
            probes_seen: 0,
        }));
        ctx.send(tourist, 0, vec![]); // start the tour
        // The prober lives three nodes away and chases by mail address.
        let p = ctx.create_on(3, prober, vec![Value::Addr(tourist), Value::Int(probes)]);
        ctx.send(p, 0, vec![]);
    });

    let caught_on: Vec<i64> = report
        .values("probe")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    let caught_at: Vec<i64> = report
        .values("probe_at_us")
        .into_iter()
        .map(|v| v.as_int())
        .collect();
    let trace = report.trace.as_ref().expect("built with .trace()");
    for e in &trace.events {
        let what = match &e.event {
            KernelEvent::FirSent { key, to } => format!("FIR for {key:?} sent to node {to}"),
            KernelEvent::FirSuppressed { key } => {
                format!("message for {key:?} joined the running chase")
            }
            KernelEvent::FirReplyPropagated {
                key,
                node,
                askers,
                released,
            } => format!(
                "{key:?} found on node {node}: {askers} asker(s) answered, {released} message(s) released"
            ),
            _ => continue,
        };
        println!("[{}] node {}: {what}", e.time, e.node);
    }
    println!("caught at (us)         : {caught_at:?}");
    println!("tourist hopped {hops} times across {nodes} nodes");
    println!("probes delivered       : {} / {probes}", caught_on.len());
    println!("caught on nodes        : {caught_on:?}");
    println!("migrations             : {}", report.stats.get("migrations.out"));
    println!("FIR chases sent        : {}", report.stats.get("fir.sent"));
    println!("FIRs suppressed (dup)  : {}", report.stats.get("fir.suppressed"));
    println!("direct forwards        : {}", report.stats.get("deliver.forwarded"));
    println!("virtual time           : {}", report.makespan);
    assert_eq!(caught_on.len() as i64, probes, "exactly-once delivery");
}
