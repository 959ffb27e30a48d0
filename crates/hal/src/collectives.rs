//! Collective operations built from actor primitives: tree reduction.
//!
//! The paper's runtime provides broadcast over a hypercube-like minimum
//! spanning tree (§6.4); reduction is its mirror image — per-node
//! combiner actors accumulate local contributions and fold subtree
//! results *up* the same binomial tree (rank `j`'s parent is
//! `j & (j-1)`, clearing the lowest set bit). `log P` message depth,
//! `P - 1` cross-node messages, no global synchronization — each
//! combiner fires when its own counter fills, the same local-constraint
//! discipline as everything else in HAL.

use crate::value::IntoValue;
use hal_kernel::kernel::Ctx;
use hal_kernel::{Behavior, BehaviorId, ContRef, MailAddr, Msg, Value};

/// Reduction operators over message values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Integer sum.
    SumInt,
    /// Float sum.
    SumFloat,
    /// Integer minimum.
    MinInt,
    /// Integer maximum.
    MaxInt,
}

impl Op {
    fn encode(self) -> i64 {
        match self {
            Op::SumInt => 0,
            Op::SumFloat => 1,
            Op::MinInt => 2,
            Op::MaxInt => 3,
        }
    }
    fn decode(v: i64) -> Self {
        match v {
            0 => Op::SumInt,
            1 => Op::SumFloat,
            2 => Op::MinInt,
            3 => Op::MaxInt,
            other => panic!("bad op code {other}"),
        }
    }

    /// The operator's identity element.
    pub fn identity(self) -> Value {
        match self {
            Op::SumInt => Value::Int(0),
            Op::SumFloat => Value::Float(0.0),
            Op::MinInt => Value::Int(i64::MAX),
            Op::MaxInt => Value::Int(i64::MIN),
        }
    }

    /// Combine two values.
    pub fn combine(self, a: &Value, b: &Value) -> Value {
        match self {
            Op::SumInt => Value::Int(a.as_int() + b.as_int()),
            Op::SumFloat => Value::Float(a.as_float() + b.as_float()),
            Op::MinInt => Value::Int(a.as_int().min(b.as_int())),
            Op::MaxInt => Value::Int(a.as_int().max(b.as_int())),
        }
    }
}

/// The contribution selector combiners listen on (send local values
/// here).
pub const CONTRIBUTE: u32 = 0;

/// Where a finished combiner delivers its subtree result.
enum Upstream {
    /// Non-root: forward to the parent combiner.
    Parent(MailAddr),
    /// Root: answer the reduction's continuation.
    Done(ContRef),
}

/// Per-node combiner actor.
struct Combiner {
    op: Op,
    expected: usize,
    received: usize,
    acc: Value,
    upstream: Upstream,
}

impl Behavior for Combiner {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        debug_assert_eq!(msg.selector, CONTRIBUTE);
        self.acc = self.op.combine(&self.acc, &msg.args[0]);
        self.received += 1;
        assert!(
            self.received <= self.expected,
            "combiner overflow: {} contributions, expected {}",
            self.received,
            self.expected
        );
        if self.received == self.expected {
            let result = std::mem::replace(&mut self.acc, self.op.identity());
            match &self.upstream {
                Upstream::Parent(p) => ctx.send(*p, CONTRIBUTE, vec![result]),
                Upstream::Done(cont) => ctx.reply_to(*cont, result),
            }
        }
    }
    fn name(&self) -> &'static str {
        "combiner"
    }
}

/// Factory for combiners created on remote nodes (init:
/// `[op, expected, parent_addr]`).
fn make_combiner(args: &[Value]) -> Box<dyn Behavior> {
    let op = Op::decode(args[0].as_int());
    Box::new(Combiner {
        op,
        expected: args[1].as_int() as usize,
        received: 0,
        acc: op.identity(),
        upstream: Upstream::Parent(args[2].as_addr()),
    })
}

/// Register the combiner behavior (once per program).
pub fn register(program: &mut crate::Program) -> BehaviorId {
    program.behavior("combiner", make_combiner)
}

/// Set up a partition-wide tree reduction: one combiner per node, each
/// expecting `local_contributions[n]` values on [`CONTRIBUTE`], folding
/// up the binomial tree rooted on this node; the final result answers
/// `done`. Returns the per-node combiner addresses (index = node id).
///
/// Nodes expecting zero contributions still participate as interior
/// tree nodes when they have children; pure leaves with nothing to
/// contribute still send the identity so counters stay simple.
pub fn tree_reduce(
    ctx: &mut Ctx<'_>,
    combiner: BehaviorId,
    op: Op,
    local_contributions: &[usize],
    done: ContRef,
) -> Vec<MailAddr> {
    let p = ctx.nodes();
    assert_eq!(local_contributions.len(), p);
    let root = ctx.node();
    // Create in rank order so each combiner's parent already exists.
    // Rank r lives on node (r + root) % p; parent rank = r & (r-1).
    let mut by_rank: Vec<MailAddr> = Vec::with_capacity(p);
    for rank in 0..p {
        let node = hal_am::bcast::absolute_id(rank, root, p);
        let children = hal_am::bcast::children_ranks(rank, p).len();
        // Every node contributes at least the identity, so expected =
        // local (min 1) + children.
        let expected = local_contributions[node as usize].max(1) + children;
        let addr = if rank == 0 {
            ctx.create_local(Box::new(Combiner {
                op,
                expected,
                received: 0,
                acc: op.identity(),
                upstream: Upstream::Done(done),
            }))
        } else {
            let parent_rank = rank & (rank - 1);
            let parent = by_rank[parent_rank];
            ctx.create_on(
                node,
                combiner,
                vec![
                    Value::Int(op.encode()),
                    Value::Int(expected as i64),
                    Value::Addr(parent),
                ],
            )
        };
        by_rank.push(addr);
    }
    // Re-index by node id and emit identity contributions for nodes
    // with no local values.
    let mut by_node = vec![by_rank[0]; p];
    for (rank, addr) in by_rank.iter().enumerate() {
        let node = hal_am::bcast::absolute_id(rank, root, p);
        by_node[node as usize] = *addr;
    }
    for (node, addr) in by_node.iter().enumerate() {
        if local_contributions[node] == 0 {
            ctx.send(*addr, CONTRIBUTE, vec![op.identity()]);
        }
    }
    by_node
}

/// Convenience: contribute a value to a combiner.
pub fn contribute(ctx: &mut Ctx<'_>, combiner: MailAddr, v: impl IntoValue) {
    ctx.send(combiner, CONTRIBUTE, vec![v.into_value()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn run_reduction(p: usize, per_node: usize, op: Op) -> Value {
        let mut program = Program::new();
        let combiner = register(&mut program);
        let report = crate::run(MachineConfig::new(p), program, |ctx| {
            let jc = ctx.create_reply_join(Box::new(|ctx, v| {
                ctx.report("reduced", v);
                ctx.stop();
            }));
            let locals = vec![per_node; p];
            let combiners = tree_reduce(ctx, combiner, op, &locals, ctx.cont_slot(jc, 0));
            // Contribute node*10 + i from each node (via plain sends —
            // contributions normally come from worker actors).
            for (node, c) in combiners.iter().enumerate() {
                for i in 0..per_node {
                    contribute(ctx, *c, (node * 10 + i) as i64);
                }
            }
        });
        report.value("reduced").expect("reduction completed").clone()
    }

    #[test]
    fn sum_over_partition() {
        for p in [1usize, 2, 5, 8] {
            let expect: i64 = (0..p).flat_map(|n| (0..3).map(move |i| (n * 10 + i) as i64)).sum();
            assert_eq!(run_reduction(p, 3, Op::SumInt), Value::Int(expect), "p={p}");
        }
    }

    #[test]
    fn min_and_max() {
        assert_eq!(run_reduction(6, 2, Op::MaxInt), Value::Int(51));
        assert_eq!(run_reduction(6, 2, Op::MinInt), Value::Int(0));
    }

    #[test]
    fn nodes_without_contributions_participate() {
        let mut program = Program::new();
        let combiner = register(&mut program);
        let report = crate::run(MachineConfig::new(4), program, |ctx| {
            let jc = ctx.create_reply_join(Box::new(|ctx, v| {
                ctx.report("reduced", v);
                ctx.stop();
            }));
            // Only node 2 contributes.
            let combiners =
                tree_reduce(ctx, combiner, Op::SumInt, &[0, 0, 1, 0], ctx.cont_slot(jc, 0));
            contribute(ctx, combiners[2], 99i64);
        });
        assert_eq!(report.value("reduced"), Some(&Value::Int(99)));
    }

    #[test]
    fn op_algebra() {
        assert_eq!(Op::SumInt.combine(&Value::Int(2), &Value::Int(3)), Value::Int(5));
        assert_eq!(
            Op::SumFloat.combine(&Value::Float(0.5), &Value::Float(0.25)),
            Value::Float(0.75)
        );
        assert_eq!(Op::MinInt.combine(&Op::MinInt.identity(), &Value::Int(7)), Value::Int(7));
        assert_eq!(Op::MaxInt.combine(&Op::MaxInt.identity(), &Value::Int(-7)), Value::Int(-7));
    }
}
