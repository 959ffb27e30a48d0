//! Call/return sugar: the join-continuation builder (§6.2).
//!
//! "The HAL compiler transforms a request send to an asynchronous send
//! and separates out its continuation through dependence analysis.
//! Message sends which have no dependence among them are grouped together
//! to share the same continuation."
//!
//! [`JoinBuilder`] is the hand-written form of that transformation:
//! collect the independent request sends, state the continuation, and the
//! builder wires the reply slots.

use crate::value::IntoValue;
use hal_kernel::kernel::Ctx;
use hal_kernel::{ContRef, MailAddr, Selector, Value};

/// One pending request to be issued under a shared join continuation.
type Call = (MailAddr, Selector, Vec<Value>);

/// Builder for a group of `request` sends sharing one continuation.
///
/// ```ignore
/// JoinBuilder::new()
///     .call(left,  FIB, vec![Value::Int(n - 1)])
///     .call(right, FIB, vec![Value::Int(n - 2)])
///     .known(Value::Addr(customer))
///     .then(ctx, |ctx, vals| { /* vals[0], vals[1] are the replies,
///                                 vals[2] the known value */ });
/// ```
#[derive(Default)]
pub struct JoinBuilder {
    calls: Vec<Call>,
    known: Vec<Value>,
}

impl JoinBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a request whose reply fills the next slot.
    pub fn call(mut self, to: MailAddr, selector: Selector, args: Vec<Value>) -> Self {
        self.calls.push((to, selector, args));
        self
    }

    /// Attach a value already known at continuation-creation time
    /// (Fig. 4's pre-filled argument slots). Known values occupy the
    /// slots *after* all replies, in the order added.
    pub fn known(mut self, v: impl IntoValue) -> Self {
        self.known.push(v.into_value());
        self
    }

    /// Issue every request and register the continuation. `f` receives
    /// the slot values: replies first (in call order), then known values.
    ///
    /// # Panics
    /// Panics if no calls were added — a join with nothing to wait for
    /// should be ordinary straight-line code.
    pub fn then(
        self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut Ctx<'_>, Vec<Value>) + Send + 'static,
    ) {
        let n_calls = self.calls.len();
        assert!(n_calls > 0, "JoinBuilder::then with no calls");
        let arity = n_calls + self.known.len();
        assert!(arity <= u16::MAX as usize, "join arity overflow");
        let jc = if arity == 1 {
            // One reply and nothing known: the one-slot kind.
            ctx.create_reply_join(Box::new(move |ctx, v| f(ctx, vec![v])))
        } else {
            let prefilled = self
                .known
                .into_iter()
                .enumerate()
                .map(|(i, v)| ((n_calls + i) as u16, v))
                .collect();
            ctx.create_join(arity as u16, prefilled, Box::new(f))
        };
        for (i, (to, sel, args)) in self.calls.into_iter().enumerate() {
            let cont = ctx.cont_slot(jc, i as u16);
            ctx.request(to, sel, args, cont);
        }
    }
}

/// Convenience: a single request whose reply runs `f` — the simplest
/// call/return shape. The reply moves straight into `f` through a
/// one-slot join (no slot vector), and no [`JoinBuilder`] call list is
/// built for the single call.
///
/// `#[inline]` so the instance sits in its caller's codegen unit: left
/// to placement, a build could move it into another unit and lose the
/// inlining at the call site with no change to either function.
#[inline]
pub fn call_then(
    ctx: &mut Ctx<'_>,
    to: MailAddr,
    selector: Selector,
    args: Vec<Value>,
    f: impl FnOnce(&mut Ctx<'_>, Value) + Send + 'static,
) {
    let jc = ctx.create_reply_join(Box::new(f));
    let cont = ctx.cont_slot(jc, 0);
    ctx.request(to, selector, args, cont);
}

/// Reply shorthand used by server behaviors: answer the customer of the
/// current message if there is one (no-op otherwise).
pub fn maybe_reply(ctx: &mut Ctx<'_>, value: Value) {
    if let Some(cont) = ctx.customer() {
        ctx.reply_to(cont, value);
    }
}

/// A stored continuation reference plus helpers — lets a server park a
/// customer and answer later (e.g. after its own sub-requests resolve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SavedCustomer(pub ContRef);

impl SavedCustomer {
    /// Capture the current message's customer.
    ///
    /// # Panics
    /// Panics if there is none — servers that promise replies must be
    /// called with `request`.
    pub fn take(ctx: &Ctx<'_>) -> Self {
        SavedCustomer(ctx.customer().expect("message carried no customer"))
    }

    /// Answer the saved customer.
    pub fn reply(self, ctx: &mut Ctx<'_>, value: Value) {
        ctx.reply_to(self.0, value);
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    /// Replies to every request with its own argument.
    struct Echo;

    impl Behavior for Echo {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, mut msg: Msg) {
            ctx.reply(msg.args.pop().unwrap_or(Value::Unit));
        }
    }

    fn echo_program() -> (Program, BehaviorId) {
        let mut program = Program::new();
        let echo = program.behavior("echo", |_| Box::new(Echo) as Box<dyn Behavior>);
        (program, echo)
    }

    #[test]
    fn call_then_to_a_remote_target_fires_once_with_the_reply() {
        let (program, echo) = echo_program();
        // No `stop`: the run ends drained, so a second firing would show.
        let report = crate::run(MachineConfig::new(2), program, move |ctx| {
            let far = ctx.create_on(1, echo, vec![]);
            call_then(ctx, far, 0, vec![Value::Int(7)], |ctx, v| {
                ctx.report("got", v)
            });
        });
        assert_eq!(report.values("got"), vec![&Value::Int(7)]);
        assert_eq!(report.stats.get("joins.fired"), 1);
        assert_eq!(report.stats.get("replies.remote"), 1);
    }

    #[test]
    fn nine_call_join_fills_slots_in_call_order() {
        let (program, echo) = echo_program();
        let report = crate::run(MachineConfig::new(3), program, move |ctx| {
            // Targets at three distances, so replies arrive out of call order.
            let mut join = JoinBuilder::new();
            for i in 0..9i64 {
                let target = ctx.create_on((i % 3) as u16, echo, vec![]);
                join = join.call(target, 0, vec![Value::Int(i)]);
            }
            join.known(Value::Int(-1)).then(ctx, |ctx, vals| {
                for v in vals {
                    ctx.report("slot", v);
                }
            });
        });
        let slots: Vec<i64> = report.values("slot").iter().map(|v| v.as_int()).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, -1]);
        assert_eq!(report.stats.get("joins.fired"), 1);
    }
}
