//! # hal — the language-layer facade over the HAL runtime kernel
//!
//! HAL (Houck & Agha) is the actor language whose runtime Kim & Agha's
//! SC '95 paper describes. The language itself compiled to C; here the
//! typed Rust API plays the compiler's role:
//!
//! * [`messages!`] generates marshalling between typed message enums and
//!   the untyped wire (the compiler's type-inference-driven marshalling);
//! * [`callret::JoinBuilder`] is the `request`/`reply` transformation —
//!   independent sends grouped under one join continuation (§6.2);
//! * [`program::Program`] assembles behavior factories into the loadable
//!   image every node shares;
//! * `Ctx::send_fast` (re-exported from the kernel) is the
//!   compiler-controlled static dispatch fast path (§6.3) — call it when
//!   the receiver's type and location are statically plausible, exactly
//!   as the HAL compiler emitted it when type inference succeeded.
//!
//! ```
//! use hal::prelude::*;
//!
//! struct Greeter;
//! impl Behavior for Greeter {
//!     fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
//!         ctx.reply(Value::Int(msg.args[0].as_int() * 2));
//!     }
//! }
//!
//! let program = Program::new();
//! let report = run(MachineConfig::builder(2).build().unwrap(), program, |ctx| {
//!     let g = ctx.create_local(Box::new(Greeter));
//!     call_then(ctx, g, 0, vec![Value::Int(21)], |ctx, v| {
//!         ctx.report("answer", v);
//!         ctx.stop();
//!     });
//! });
//! assert_eq!(report.value("answer"), Some(&Value::Int(42)));
//! ```

#![warn(missing_docs)]

pub mod callret;
pub mod collectives;
pub mod messages;
pub mod program;
pub mod sync;
pub mod value;

pub use callret::{call_then, maybe_reply, JoinBuilder, SavedCustomer};
pub use program::{run, try_run, Program};

// The handful of kernel names harness code reaches for at the crate
// root (`hal::MachineConfig`, `hal::Machine`, ...). Everything a
// *workload* needs lives in [`prelude`]; kernel internals beyond this
// list are imported from `hal_kernel` explicitly.
pub use hal_kernel::{
    BackendKind, Job, Machine, MachineConfig, MachineConfigBuilder, MachineError, ObserveOpts,
    OptFlags, SimMachine, SimReport,
};
// `Msg`/`Selector`/`Value`/`ProtocolDecl` must stay at the root: the
// `messages!` macro expands `$crate::Msg` etc. in downstream crates.
pub use hal_kernel::{Msg, ProtocolDecl, Selector, Value};

/// The single documented entry point: everything a workload module
/// needs, and nothing that is really a kernel internal. Diagnostics
/// types (trace events, chaos fault windows, the concrete machines)
/// are imported from `hal_kernel` by the harnesses that poke at them.
pub mod prelude {
    pub use crate::callret::{call_then, maybe_reply, JoinBuilder, SavedCustomer};
    pub use crate::program::{run, try_run, Program};
    pub use crate::sync::{BoundedCounter, Gates};
    pub use crate::value::{FromValue, IntoValue};
    pub use hal_kernel::kernel::Ctx;
    pub use hal_kernel::{
        BackendKind, Behavior, BehaviorId, BehaviorRegistry, ConfigError, CostModel, FaultPlan,
        GroupId, Job, Machine, MachineConfig, MachineConfigBuilder, MachineError, MailAddr,
        Mapping, Msg, ObserveOpts, OptFlags, Selector, SimReport, Value,
    };
}
