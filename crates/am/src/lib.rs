//! # hal-am — active-message layer (CMAM substitute)
//!
//! The communication module of the HAL runtime (Kim & Agha, SC '95, §3)
//! was built on **CMAM**, the CM-5 active-message layer of von Eicken et
//! al.: unbuffered small messages carrying a handler and a few words, a
//! three-phase protocol for bulk data, and point-to-point sends composed
//! into a hypercube-like spanning tree for broadcast.
//!
//! This crate reproduces that layer over two interchangeable substrates:
//!
//! * [`sim::SimNetwork`] — deterministic delivery through the
//!   discrete-event engine (`hal-des`), with a CM-5-calibrated
//!   latency/bandwidth model, per-link FIFO, and injection serialization.
//!   All paper-table benchmarks run here.
//! * [`thread`] — one OS thread per node over `std::sync::mpsc`
//!   channels, used by examples and concurrency tests.
//!
//! Protocol state machines are substrate-independent and pure:
//!
//! * [`bulk::BulkSender`] + [`flow::FlowControl`] — the three-phase bulk
//!   transfer with the paper's minimal flow control (§6.5): one active
//!   transfer per receiving node;
//! * [`bcast`] — the binomial spanning-tree broadcast schedule (§6.4).

#![warn(missing_docs)]

pub mod bcast;
pub mod bulk;
pub mod bytes;
pub mod fault;
pub mod flow;
pub mod packet;
pub mod reliable;
pub mod sim;
pub mod thread;

pub use bulk::BulkSender;
pub use bytes::Bytes;
pub use fault::{FaultPlan, LinkOutage, NodePause};
pub use flow::{FlowControl, Grant};
pub use packet::{AmEnvelope, BulkTag, NodeId, Packet, RelPayload, MAX_SMALL_BYTES, REL_HEADER};
pub use reliable::{RelReceiver, RelSender, Resend, RetxDecision, RxOutcome, SendTicket, RETX_BATCH};
pub use sim::{Admitted, DupCloneFailed, Fate, LinkModel, LinkState, NetCounter, SimNetwork};
pub use thread::{thread_network, thread_network_bounded, ThreadEndpoint};
