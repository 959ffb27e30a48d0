//! Synthetic micro-workloads driving the Table 2/3 primitive-cost
//! harnesses: probes that exercise exactly one runtime path each so the
//! harness can read its cost off the virtual clock.

use hal::messages;
use hal::prelude::*;

messages! {
    /// Probe protocol.
    pub enum SynthMsg {
        /// Do nothing (measures dispatch + invoke overhead).
        Nop {} = 0,
        /// Reply with the argument (measures call/return).
        Echo { v: i64 } = 1,
        /// Create `k` local children, then reply Unit-like 0.
        CreateLocal { k: i64 } = 2,
        /// Create `k` children on `node`, then reply 0.
        CreateRemote { k: i64, node: i64 } = 3,
        /// Send `k` messages to `target`, then reply 0.
        SendStorm { k: i64, target: MailAddr } = 4 => [SynthMsg],
    }
}

/// A probe actor exercising individual kernel primitives.
pub struct Probe {
    /// Behavior id for child creations.
    pub behavior: BehaviorId,
}

impl Behavior for Probe {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match SynthMsg::take(msg) {
            SynthMsg::Nop {} => {}
            SynthMsg::Echo { v } => hal::maybe_reply(ctx, Value::Int(v)),
            SynthMsg::CreateLocal { k } => {
                for _ in 0..k {
                    let b = self.behavior;
                    ctx.create_local(Box::new(Probe { behavior: b }));
                }
                hal::maybe_reply(ctx, Value::Int(0));
            }
            SynthMsg::CreateRemote { k, node } => {
                for _ in 0..k {
                    ctx.create_on(
                        node as u16,
                        self.behavior,
                        vec![Value::Int(self.behavior.0 as i64)],
                    );
                }
                hal::maybe_reply(ctx, Value::Int(0));
            }
            SynthMsg::SendStorm { k, target } => {
                for i in 0..k {
                    let (sel, args) = SynthMsg::Echo { v: i }.encode();
                    ctx.send(target, sel, args);
                }
                hal::maybe_reply(ctx, Value::Int(0));
            }
        }
    }

    fn name(&self) -> &'static str {
        "probe"
    }
}

/// Probe factory (init args: `[Int(own behavior id)]`).
pub fn make_probe(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Probe {
        behavior: BehaviorId(args[0].as_int() as u32),
    })
}

/// Register the probe behavior.
pub fn register(program: &mut Program) -> BehaviorId {
    program.behavior("probe", make_probe)
}

/// A do-nothing behavior with a no-argument factory — used to measure
/// the paper's "remote creation with no initialization message".
pub struct Nil;

impl Behavior for Nil {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
    fn name(&self) -> &'static str {
        "nil"
    }
}

/// Nil factory (ignores args).
pub fn make_nil(_args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Nil)
}

/// Register the nil behavior.
pub fn register_nil(program: &mut Program) -> BehaviorId {
    program.behavior("nil", make_nil)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_primitives_run() {
        let mut program = Program::new();
        let id = register(&mut program);
        let report = hal::run(MachineConfig::new(2), program, |ctx| {
            let p = ctx.create_on(0, id, vec![Value::Int(id.0 as i64)]);
            let (sel, args) = SynthMsg::CreateLocal { k: 5 }.encode();
            ctx.send(p, sel, args);
            let (sel, args) = SynthMsg::CreateRemote { k: 3, node: 1 }.encode();
            ctx.send(p, sel, args);
        });
        // 1 root + 5 local + 3 remote probes.
        assert_eq!(report.actors_created, 9);
        assert_eq!(report.stats.get("actors.remote_created"), 3);
    }

    #[test]
    fn echo_roundtrip() {
        let mut program = Program::new();
        let id = register(&mut program);
        let report = hal::run(MachineConfig::new(2), program, |ctx| {
            let p = ctx.create_on(1, id, vec![Value::Int(id.0 as i64)]);
            let (sel, args) = SynthMsg::Echo { v: 7 }.encode();
            hal::call_then(ctx, p, sel, args, |ctx, v| {
                ctx.report("echo", v);
                ctx.stop();
            });
        });
        assert_eq!(report.value("echo"), Some(&Value::Int(7)));
    }
}
