//! `sim_chase` actors: a nomad that keeps migrating while sprayers on
//! other nodes probe its stale birth address with call/return — the
//! paper's §4.3 delivery algorithm (name-table miss, FIR chase, forward
//! chain, table repair) as the dominant cost.

use hal::prelude::*;
use hal_kernel::NodeId;

/// Nomad selector: take the next hop.
pub const HOP: Selector = 0;
/// Nomad selector: answer a call/return probe.
pub const PROBE: Selector = 1;
const START: Selector = 0;
const DONE: Selector = 0;

/// Migrates to each node of `hops` in turn (last element first),
/// answering probes wherever it happens to be.
pub struct Nomad {
    /// Remaining destinations, popped from the back.
    pub hops: Vec<NodeId>,
    /// Probes answered so far; every reply carries the running count.
    pub served: i64,
    /// Told once the walk is over.
    pub done: MailAddr,
}

impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            HOP => match self.hops.pop() {
                Some(next) => {
                    // The next HOP is addressed to this actor's own
                    // (about to be stale) address and follows it.
                    let me = ctx.me();
                    ctx.send(me, HOP, vec![]);
                    ctx.migrate(next);
                }
                None => ctx.send(self.done, DONE, vec![Value::Int(0), Value::Int(0)]),
            },
            PROBE => {
                self.served += 1;
                ctx.reply(Value::Int(self.served));
            }
            other => unreachable!("nomad received selector {other}"),
        }
    }

    fn name(&self) -> &'static str {
        "chase-nomad"
    }

    fn acquaintances(&self) -> Vec<MailAddr> {
        vec![self.done]
    }
}

/// Keeps exactly one probe outstanding against `target` until `probes`
/// replies have come back.
pub struct Sprayer {
    /// The nomad's birth address — stale after its first hop.
    pub target: MailAddr,
    /// Replies to collect.
    pub probes: i64,
    /// Told when the last reply is in.
    pub done: MailAddr,
}

/// Issue one probe; its reply issues the next. `replies` and `high`
/// (the largest served count seen) ride along in the continuation, so
/// a lost or duplicated reply shows up in the totals.
fn probe(ctx: &mut Ctx<'_>, target: MailAddr, left: i64, replies: i64, high: i64, done: MailAddr) {
    hal::call_then(ctx, target, PROBE, vec![], move |ctx, v| {
        let (replies, high) = (replies + 1, high.max(v.as_int()));
        if left > 1 {
            probe(ctx, target, left - 1, replies, high, done);
        } else {
            ctx.send(done, DONE, vec![Value::Int(replies), Value::Int(high)]);
        }
    });
}

impl Behavior for Sprayer {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        assert_eq!(msg.selector, START, "sprayer only receives START");
        probe(ctx, self.target, self.probes, 0, 0, self.done);
    }

    fn name(&self) -> &'static str {
        "chase-sprayer"
    }

    fn acquaintances(&self) -> Vec<MailAddr> {
        vec![self.target, self.done]
    }
}

/// Counts the nomad's and every sprayer's DONE, then reports the totals
/// and stops the machine.
pub struct Coordinator {
    /// DONE messages still expected (sprayers + the nomad).
    pub waiting: usize,
    /// Sum of replies the sprayers collected.
    pub replies: i64,
    /// Largest served count any reply carried.
    pub served: i64,
}

impl Behavior for Coordinator {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        assert_eq!(msg.selector, DONE, "coordinator only receives DONE");
        self.replies += msg.args[0].as_int();
        self.served = self.served.max(msg.args[1].as_int());
        self.waiting -= 1;
        if self.waiting == 0 {
            ctx.report("chase_replies", Value::Int(self.replies));
            ctx.report("chase_served", Value::Int(self.served));
            ctx.stop();
        }
    }

    fn name(&self) -> &'static str {
        "chase-coordinator"
    }
}

/// Wire the chase onto a staged machine: coordinator and nomad on node
/// 0, one sprayer on each node of `sprayer_nodes`.
pub fn bootstrap(m: &mut hal::Machine, hops: &[NodeId], sprayer_nodes: &[NodeId], probes: i64) {
    let (nomad, done) = m.with_ctx(0, |ctx| {
        let done = ctx.create_local(Box::new(Coordinator {
            waiting: sprayer_nodes.len() + 1,
            replies: 0,
            served: 0,
        }));
        let nomad = ctx.create_local(Box::new(Nomad {
            hops: hops.iter().rev().copied().collect(),
            served: 0,
            done,
        }));
        ctx.send(nomad, HOP, vec![]);
        (nomad, done)
    });
    for &node in sprayer_nodes {
        m.with_ctx(node, |ctx| {
            let s = ctx.create_local(Box::new(Sprayer {
                target: nomad,
                probes,
                done,
            }));
            ctx.send(s, START, vec![]);
        });
    }
}
