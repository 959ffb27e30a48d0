//! Typed errors for the public kernel API.
//!
//! Historically every misuse of the machine — a bad node id, an unknown
//! behavior id arriving over the wire, a `max_events` livelock abort —
//! was a `panic!` deep inside the kernel. Harness code (benches, the
//! console, integration tests) could not distinguish "the simulation is
//! wrong" from "the simulation found a bug". [`MachineError`] makes
//! these outcomes values: [`crate::SimMachine::run`] returns
//! `Result<SimReport, MachineError>` and configuration problems are
//! caught at build time by [`ConfigError`] via
//! [`crate::MachineConfig::builder`].

use crate::addr::BehaviorId;
use hal_am::NodeId;
use std::fmt;

/// A typed failure from a [`crate::SimMachine`] run (or from garbage
/// collection / configuration on its public paths).
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The event loop exceeded `max_events` — almost always a livelock
    /// (e.g. two actors bouncing a message forever).
    MaxEvents {
        /// The configured event budget that was exhausted.
        limit: u64,
    },
    /// A create request named a behavior id the registry doesn't know.
    UnknownBehavior {
        /// The unregistered behavior id.
        behavior: BehaviorId,
        /// The node that tried to instantiate it.
        node: NodeId,
    },
    /// A packet or request named a node outside the partition.
    InvalidNode {
        /// The out-of-range node id.
        node: NodeId,
        /// The partition size.
        nodes: usize,
    },
    /// Garbage collection was requested while the machine still had
    /// undelivered messages or scheduled work.
    NotQuiescent,
    /// The distributed GC protocol did not converge.
    GcIncomplete {
        /// Human-readable description of what never arrived.
        missing: String,
    },
    /// The machine was built from an invalid configuration.
    Config(ConfigError),
    /// A backend operation was invoked in a state that cannot serve it
    /// (e.g. a bootstrap closure handed to a live machine whose node
    /// threads already started, or a job submitted after completion).
    BackendState {
        /// What was attempted, for the error message.
        what: &'static str,
    },
    /// The live backend's wall-clock budget elapsed before every node
    /// stopped — the live analog of the `max_events` livelock valve.
    WallTimeout {
        /// How long the machine waited, in milliseconds.
        waited_ms: u64,
    },
    /// A live node thread panicked (a behaviour or a submitted job
    /// unwound). Its peers were aborted; the run has no report.
    NodePanicked {
        /// The node whose thread unwound (the lowest, if several did).
        node: NodeId,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::MaxEvents { limit } => {
                write!(f, "SimMachine exceeded max_events = {limit} (livelock?)")
            }
            MachineError::UnknownBehavior { behavior, node } => {
                write!(f, "unknown behavior id {} on node {node}", behavior.0)
            }
            MachineError::InvalidNode { node, nodes } => {
                write!(f, "node id {node} out of range for a {nodes}-node partition")
            }
            MachineError::NotQuiescent => {
                write!(f, "garbage collection requires a quiescent machine")
            }
            MachineError::GcIncomplete { missing } => {
                write!(f, "garbage collection did not converge: {missing}")
            }
            MachineError::Config(e) => write!(f, "invalid configuration: {e}"),
            MachineError::BackendState { what } => {
                write!(f, "backend cannot {what} in its current state")
            }
            MachineError::WallTimeout { waited_ms } => {
                write!(
                    f,
                    "live machine did not stop within its {waited_ms} ms wall budget"
                )
            }
            MachineError::NodePanicked { node, message } => {
                write!(f, "live node {node} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ConfigError> for MachineError {
    fn from(e: ConfigError) -> Self {
        MachineError::Config(e)
    }
}

/// A validation failure from [`crate::MachineConfig::builder`]'s
/// `build()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The partition must have at least one node.
    ZeroNodes,
    /// Node ids are `u16`, so the partition cannot exceed that space.
    TooManyNodes {
        /// The requested partition size.
        nodes: usize,
    },
    /// The scheduling quantum must be positive.
    ZeroQuantum,
    /// A fault probability was outside `[0, 1]` (or not finite).
    BadFaultRate {
        /// Which probability field was rejected.
        which: &'static str,
    },
    /// A live-backend configuration carried a chaos fault plan (link
    /// faults or node pauses) — fault injection lives in the simulated
    /// link layer and clock, so a live run would silently ignore it.
    LiveFaultsUnsupported,
    /// The fault plan's retransmit timeout `rto` is shorter than the
    /// link lookahead (injection overhead + latency): it would expire
    /// before the packet it guards could have crossed the link even once.
    TimeoutTooShort {
        /// The minimum allowed value in nanoseconds.
        min_ns: u64,
    },
    /// The span head-sampling rate exceeds 1_000_000 parts per million
    /// (i.e. more than 100%).
    BadSampleRate {
        /// The rejected rate in parts per million.
        ppm: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "a partition needs at least one node"),
            ConfigError::TooManyNodes { nodes } => {
                write!(f, "{nodes} nodes exceed the u16 node-id space")
            }
            ConfigError::ZeroQuantum => write!(f, "the scheduling quantum must be positive"),
            ConfigError::BadFaultRate { which } => {
                write!(f, "fault probability `{which}` must be in [0, 1]")
            }
            ConfigError::LiveFaultsUnsupported => {
                write!(f, "the live backend cannot inject faults (simulation-only)")
            }
            ConfigError::TimeoutTooShort { min_ns } => {
                write!(f, "`rto` must be at least {min_ns} ns (the link lookahead)")
            }
            ConfigError::BadSampleRate { ppm } => {
                write!(f, "span sample rate {ppm} ppm exceeds 1000000 (100%)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        assert_eq!(
            MachineError::MaxEvents { limit: 10 }.to_string(),
            "SimMachine exceeded max_events = 10 (livelock?)"
        );
        assert_eq!(
            ConfigError::ZeroNodes.to_string(),
            "a partition needs at least one node"
        );
        assert!(
            MachineError::from(ConfigError::ZeroQuantum)
                .to_string()
                .contains("quantum")
        );
    }
}
