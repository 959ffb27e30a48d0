//! # hal-kernel — the HAL runtime kernel
//!
//! The primary contribution of Kim & Agha, *Efficient Support of Location
//! Transparency in Concurrent Object-Oriented Programming Languages*
//! (SC '95): a runtime system for a fine-grained actor language that
//! supports **location transparency**, **dynamic placement**, and
//! **migration** with tolerable overhead.
//!
//! Module map (mirrors the paper's Fig. 2 kernel structure):
//!
//! | Paper concept | Module |
//! |---|---|
//! | mail addresses & aliases (§4.1, §5) | [`addr`] |
//! | locality descriptors (§4.1) | [`descriptor`] |
//! | distributed name table (§4.2) | [`name_server`] |
//! | local synchronization constraints (§6.1) | [`actor`] (queues) + `kernel/sched.rs` |
//! | join continuations (§6.2, Fig. 4) | [`join`] |
//! | collective broadcast scheduling (§6.4) | [`group`] |
//! | random-polling load balancing (§7.2) | [`balance`] |
//! | program load module (§3) | [`registry`] |
//! | CM-5 cost calibration | [`cost`] |
//! | flight recorder (observability) | [`trace`] |
//! | lifecycle spans, critical path, metrics registry & `top` | [`span`] + [`critical_path`] + [`metrics`] |
//! | the partition itself | [`machine`] (simulated), [`live`] (live threads) |
//!
//! The [`kernel`] module is the per-node [`Kernel`], one file per paper
//! section. It does no I/O: what it sends goes to an outbox
//! ([`Outbound`]) that the machine drains after each call.
//!
//! | Paper concept | File under `kernel/` |
//! |---|---|
//! | the kernel of Fig. 2: state, configuration, accessors, trace helpers | `mod.rs` |
//! | communication glue: outbox, small/bulk split, minimal flow control (§6.5), reliable layer + timers; packet entry and the node manager's dispatch (§3) | `transport.rs` |
//! | FIR message delivery and name-table repair (§4.3, Fig. 3) — state in [`fir`] | `delivery.rs` |
//! | remote creation latency hiding (§5), `create_on` | `creation.rs` |
//! | scheduling: step, quantum, pending rescan, compiler-controlled fast path (§6.1–6.3) — ready queue in [`dispatch`]; join fill/reply | `sched.rs` |
//! | groups and broadcast (§2.2, §6.4) | `groups.rs` |
//! | migration and work stealing (§4.3, §7.2) | `migrate.rs` |
//! | distributed garbage collection (§9) — state in [`gc`] | `collect.rs` |
//! | the actor interface "exported to the compiler": [`Ctx`] | `ctx.rs` |
//!
//! The [`backend`] module is the handle above all of it: [`Machine`], a
//! two-arm enum over the simulated and the live machine — the only two
//! runtimes there are.

#![warn(missing_docs)]

pub mod actor;
pub mod addr;
pub mod audit;
pub mod backend;
pub mod balance;
pub mod cost;
pub mod critical_path;
pub mod descriptor;
pub mod dispatch;
pub mod error;
#[cfg(feature = "model")]
pub mod model_port;
pub mod sync;
pub mod fir;
pub mod gc;
pub mod group;
pub mod join;
pub mod kernel;
pub mod live;
pub mod machine;
pub mod message;
pub mod metrics;
pub mod name_server;
pub mod registry;
pub mod span;
pub mod timeline;
pub mod trace;
pub mod wire;

pub use actor::{ActorRecord, Behavior};
pub use audit::{MachineAudit, NodeAudit};
pub use backend::{BackendKind, Job, Machine};
pub use addr::{
    ActorId, AddrKey, BehaviorId, DescriptorId, GroupId, JcId, MailAddr, Mapping, Selector,
};
pub use cost::CostModel;
pub use error::{ConfigError, MachineError};
pub use kernel::{Ctx, Kernel, OptFlags, Outbound};
pub use live::LiveMachine;
pub use machine::{MachineConfig, MachineConfigBuilder, ObserveOpts, SimMachine, SimReport};
pub use hal_am::{Bytes, FaultPlan, LinkOutage, NodeId, NodePause};
pub use message::{ContRef, Msg, ProtocolDecl, Target, Value};
pub use registry::{BehaviorRegistry, FactoryFn};
pub use gc::GcReport;
pub use metrics::{Counter, Folded, Metrics, MetricsReport, NodeCell, TelemetryHub};
pub use span::{AliasSpan, ChaseSpan, MsgSpan, SpanReport};
pub use trace::{DeliveryPath, KernelEvent, TraceEvent, TraceReport};
pub use wire::{ActorImage, KMsg};
