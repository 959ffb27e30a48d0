//! Behavior registry — the program-load module's analog (§3).
//!
//! On the CM-5 the HAL runtime dynamically loaded user executables into
//! each kernel; a remote creation request then named a behavior template
//! inside the loaded program. We model the load step by registering
//! behavior **factories** under stable [`BehaviorId`]s before the machine
//! starts; every node shares the same registry, just as every node loaded
//! the same executable. Multiple "programs" can register disjoint
//! behavior sets into one registry — the kernel "does not discriminate
//! between actors created by different programs".
//!
//! Factories are plain function pointers (`fn`), not closures: behavior
//! construction state must travel in the creation message's argument
//! values, exactly as it would on real distributed-memory hardware.

use crate::actor::Behavior;
use crate::addr::BehaviorId;
use crate::message::Value;
use hal_des::Map;

/// A behavior constructor: builds a fresh behavior from creation-message
/// arguments.
pub type FactoryFn = fn(&[Value]) -> Box<dyn Behavior>;

/// Registry mapping behavior ids to factories.
#[derive(Default, Clone)]
pub struct BehaviorRegistry {
    factories: Map<u32, (&'static str, FactoryFn)>,
}

impl BehaviorRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `factory` under `id` with a debug `name`.
    ///
    /// # Panics
    /// Panics if `id` is already taken — two programs claiming one id is
    /// a link error, caught at "load" time.
    pub fn register(&mut self, id: BehaviorId, name: &'static str, factory: FactoryFn) {
        let prev = self.factories.insert(id.0, (name, factory));
        assert!(
            prev.is_none(),
            "behavior id {} registered twice (second name: {name})",
            id.0
        );
    }

    /// Instantiate behavior `id` with `args`, or `None` for unknown ids.
    /// The kernel's network paths use this to turn a bad creation
    /// request into a typed [`crate::MachineError::UnknownBehavior`].
    pub fn try_create(&self, id: BehaviorId, args: &[Value]) -> Option<Box<dyn Behavior>> {
        self.factories.get(&id.0).map(|(_, factory)| factory(args))
    }

    /// Instantiate behavior `id` with `args`.
    ///
    /// # Panics
    /// Panics on unknown ids — a creation request for an unloaded
    /// behavior is a protocol error.
    pub fn create(&self, id: BehaviorId, args: &[Value]) -> Box<dyn Behavior> {
        self.try_create(id, args)
            .unwrap_or_else(|| panic!("unknown behavior id {}", id.0))
    }

    /// Debug name of a behavior id.
    pub fn name(&self, id: BehaviorId) -> Option<&'static str> {
        self.factories.get(&id.0).map(|(n, _)| *n)
    }

    /// Every `(id, name)` pair, sorted by id — the loaded program image
    /// the protocol checker's static pass inspects.
    pub fn entries(&self) -> Vec<(BehaviorId, &'static str)> {
        let mut out: Vec<_> = self
            .factories
            .iter()
            .map(|(id, (name, _))| (BehaviorId(*id), *name))
            .collect();
        out.sort_by_key(|(id, _)| id.0);
        out
    }

    /// Number of registered behaviors.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True when no behaviors are registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Msg;

    struct Counter {
        start: i64,
    }
    impl Behavior for Counter {
        fn dispatch(&mut self, _ctx: &mut crate::kernel::Ctx<'_>, _msg: Msg) {}
        fn name(&self) -> &'static str {
            "counter"
        }
    }
    fn make_counter(args: &[Value]) -> Box<dyn Behavior> {
        Box::new(Counter {
            start: args[0].as_int(),
        })
    }

    #[test]
    fn register_and_create() {
        let mut reg = BehaviorRegistry::new();
        reg.register(BehaviorId(1), "counter", make_counter);
        let b = reg.create(BehaviorId(1), &[Value::Int(42)]);
        assert_eq!(b.name(), "counter");
        assert_eq!(reg.name(BehaviorId(1)), Some("counter"));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn factory_receives_args() {
        let mut reg = BehaviorRegistry::new();
        reg.register(BehaviorId(7), "counter", make_counter);
        // Indirect check through construction succeeding; direct state
        // checks happen in kernel tests where behaviors are exercised.
        let _ = reg.create(BehaviorId(7), &[Value::Int(-5)]);
        let c = Counter { start: -5 };
        assert_eq!(c.start, -5);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = BehaviorRegistry::new();
        reg.register(BehaviorId(1), "a", make_counter);
        reg.register(BehaviorId(1), "b", make_counter);
    }

    #[test]
    #[should_panic(expected = "unknown behavior id")]
    fn unknown_id_panics() {
        let reg = BehaviorRegistry::new();
        reg.create(BehaviorId(9), &[]);
    }
}
