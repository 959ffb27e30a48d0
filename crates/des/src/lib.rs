//! # hal-des — deterministic discrete-event simulation engine
//!
//! The substrate that stands in for the Thinking Machines **CM-5** in this
//! reproduction of Kim & Agha, *Efficient Support of Location Transparency
//! in Concurrent Object-Oriented Programming Languages* (SC '95).
//!
//! The paper's evaluation ran on real CM-5 partitions (33 MHz SPARC nodes,
//! a fat-tree network, and the CMAM active-message layer). We do not have
//! that hardware, so the benchmark substrate is a discrete-event simulator:
//!
//! * [`clock::VirtualTime`] — integer-nanosecond virtual clocks, one per
//!   simulated node;
//! * [`event::EventQueue`] — a total ordering over simulation events with
//!   deterministic FIFO tie-breaking;
//! * [`rng`] — tiny self-contained deterministic RNGs (SplitMix64, PCG32)
//!   so that runs are bit-reproducible for a fixed seed;
//! * [`stats`] — counters/histograms the bench harnesses read back;
//! * [`json`] — the workspace's one JSON writer and reader;
//! * [`table`] — the runtime's one hash table ([`Map`], [`Set`]).
//!
//! The actor kernel (`hal-kernel`) charges each runtime primitive a cost
//! from a CM-5-calibrated cost model against its node's virtual clock, and
//! the network layer (`hal-am`) schedules packet deliveries through the
//! event queue. The resulting virtual times reproduce the *shape* of the
//! paper's tables deterministically on a single host CPU.

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;

pub use clock::{VirtualDuration, VirtualTime};
pub use event::EventQueue;
pub use rng::{Pcg32, SplitMix64};
pub use stats::{Histogram, StatSet};
pub use table::{Map, Set};
