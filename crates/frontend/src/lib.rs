//! # hal-frontend — the partition-manager front-end (Fig. 1)
//!
//! "The runtime system consists of a front-end which runs on the
//! partition manager and a set of runtime kernels which run on the
//! processing elements. … Users are provided with a simple command
//! interpreter which communicates with the front-end to load the
//! executables. In addition to dynamic loading of user's executables,
//! the front-end processes all I/O requests from the kernels running on
//! the nodes. The runtime system is designed to concurrently execute
//! multiple programs on the same partition."
//!
//! [`Console`] is that command interpreter: it holds a partition
//! configuration, a catalog of loadable programs (the workload crate's
//! behaviors — our executables), runs one *or several concurrently* on
//! a simulated partition, and prints the values actors report (the
//! kernels' "I/O requests"). `hal-console` is the interactive binary;
//! [`Console::execute`] drives the same interpreter from scripts and
//! tests.
//!
//! [`serve`] is the front-end's other face: an open-loop load generator
//! (`hal-serve`) that offers requests to a multi-node actor pipeline at
//! a configured rate — on the deterministic simulator or on the live
//! thread backend — and reports p50/p99/p999 latency against a declared
//! SLO in `results/SERVE_<scenario>.json`.

#![warn(missing_docs)]

pub mod command;
pub mod console;
pub mod serve;

pub use command::{Command, ProgramSpec};
pub use console::Console;
pub use serve::{ServeConfig, ServeOutcome, Slo};
