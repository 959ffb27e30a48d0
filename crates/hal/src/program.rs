//! Program assembly: behavior registration and machine construction.
//!
//! The HAL front-end loaded compiled executables into every kernel; a
//! [`Program`] is this reproduction's executable image — a set of
//! behavior factories with stable ids, installable into simulated or
//! live machines.

use hal_kernel::kernel::Ctx;
use hal_kernel::{
    BehaviorId, BehaviorRegistry, FactoryFn, Machine, MachineConfig, MachineError, SimReport,
};
use std::sync::Arc;

/// A program: named behaviors with deterministic ids.
///
/// Ids are assigned in registration order, so the same registration
/// sequence yields the same ids on every node and across sim/live
/// machines — exactly like loading one executable everywhere.
#[derive(Default)]
pub struct Program {
    registry: BehaviorRegistry,
    next_id: u32,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a behavior factory; returns its id for `create_on` /
    /// `grpnew` calls.
    pub fn behavior(&mut self, name: &'static str, factory: FactoryFn) -> BehaviorId {
        let id = BehaviorId(self.next_id);
        self.next_id += 1;
        self.registry.register(id, name, factory);
        id
    }

    /// The registry built so far — the protocol checker's static
    /// program pass (`hal-check::check_registry`) reads this before the
    /// program is consumed by a machine.
    pub fn registry(&self) -> &BehaviorRegistry {
        &self.registry
    }

    /// Freeze into a shareable registry.
    pub fn build(self) -> Arc<BehaviorRegistry> {
        Arc::new(self.registry)
    }
}

/// Build a machine for `cfg.backend` (the simulator unless the
/// configuration says [`hal_kernel::BackendKind::Live`]), bootstrap it
/// on node 0 before anything runs, and run it to completion — the entry
/// point every harness uses. A live machine is bootstrapped while
/// staged, before its node threads spawn, and drains with the default
/// wall budget.
///
/// # Panics
/// Panics on a [`MachineError`] (livelock valve, bad node id, unknown
/// behavior, wall timeout); use [`try_run`] for the typed error.
pub fn run(
    cfg: MachineConfig,
    program: Program,
    bootstrap: impl FnOnce(&mut Ctx<'_>),
) -> SimReport {
    match try_run(cfg, program, bootstrap) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// [`run`] with machine failures surfaced as typed [`MachineError`]
/// values.
pub fn try_run(
    cfg: MachineConfig,
    program: Program,
    bootstrap: impl FnOnce(&mut Ctx<'_>),
) -> Result<SimReport, MachineError> {
    let mut m = Machine::from_config(cfg, program.build());
    m.with_ctx(0, bootstrap);
    m.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hal_kernel::{Behavior, Msg, Value};

    struct Nop;
    impl Behavior for Nop {
        fn dispatch(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
    }
    fn make_nop(_: &[Value]) -> Box<dyn Behavior> {
        Box::new(Nop)
    }

    #[test]
    fn ids_assigned_in_order() {
        let mut p = Program::new();
        let a = p.behavior("a", make_nop);
        let b = p.behavior("b", make_nop);
        assert_eq!(a, BehaviorId(0));
        assert_eq!(b, BehaviorId(1));
        let reg = p.build();
        assert_eq!(reg.name(a), Some("a"));
        assert_eq!(reg.name(b), Some("b"));
    }

    #[test]
    fn run_bootstraps_and_drains() {
        struct Reporter;
        impl Behavior for Reporter {
            fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
                ctx.report("done", Value::Int(1));
            }
        }
        let p = Program::new();
        let r = run(MachineConfig::new(1), p, |ctx| {
            let a = ctx.create_local(Box::new(Reporter));
            ctx.send(a, 0, vec![]);
        });
        assert_eq!(r.value("done"), Some(&Value::Int(1)));
    }
}
