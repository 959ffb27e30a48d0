//! End-of-run quiescence audit: the ground truth behind the protocol
//! checker's liveness pass.
//!
//! The flight recorder ([`crate::trace`]) shows what *happened*; this
//! module reports what is *left over* once a machine drains — messages
//! stranded in pending queues because their synchronization constraint
//! (§6.1) never re-enabled, join continuations (§6.2) that never fired,
//! FIR chases (§4.3) whose replies never arrived, and alias traffic (§5)
//! still parked for a name the node never learned. A quiescent machine
//! that finished its program cleanly has zeros everywhere.
//!
//! The audit is computed from live kernel state, not from the trace
//! ring, so it stays exact even when the bounded ring wrapped. It rides
//! inside every [`crate::SimReport`] (it is cheap and deterministic, so
//! the same-seed bit-identity guarantee extends to it).

use crate::addr::AddrKey;
use hal_am::NodeId;

/// What one node still owes the protocol at the end of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeAudit {
    /// The audited node.
    pub node: NodeId,
    /// Messages still sitting in pending queues (§6.1 constraints that
    /// never re-enabled).
    pub stranded_pending: u64,
    /// Identity keys of the actors holding those stranded messages.
    pub stranded_keys: Vec<AddrKey>,
    /// Join continuations created but never fired (§6.2).
    pub unresolved_joins: u64,
    /// FIR chases still waiting for a reply (§4.3).
    pub outstanding_firs: u64,
    /// Messages parked for keys this node never learned (§5 alias
    /// traffic whose creation never landed).
    pub unknown_buffered: u64,
}

impl NodeAudit {
    /// True when this node ended with no protocol debt.
    pub fn is_clean(&self) -> bool {
        self.stranded_pending == 0
            && self.unresolved_joins == 0
            && self.outstanding_firs == 0
            && self.unknown_buffered == 0
    }
}

/// The whole machine's end-of-run audit, plus the behavior-registry
/// image for the checker's static program pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineAudit {
    /// Per-node leftovers, in node order.
    pub nodes: Vec<NodeAudit>,
    /// `(id, name)` for every registered behavior, sorted by id — the
    /// loaded program image every node shares.
    pub behaviors: Vec<(u32, String)>,
}

impl MachineAudit {
    /// True when every node ended with no protocol debt.
    pub fn is_clean(&self) -> bool {
        self.nodes.iter().all(NodeAudit::is_clean)
    }

    /// Total messages stranded in pending queues, machine-wide.
    pub fn stranded_pending(&self) -> u64 {
        self.nodes.iter().map(|n| n.stranded_pending).sum()
    }

    /// Total join continuations that never fired, machine-wide.
    pub fn unresolved_joins(&self) -> u64 {
        self.nodes.iter().map(|n| n.unresolved_joins).sum()
    }

    /// Total FIR chases still open, machine-wide.
    pub fn outstanding_firs(&self) -> u64 {
        self.nodes.iter().map(|n| n.outstanding_firs).sum()
    }

    /// Total messages parked for unknown keys, machine-wide.
    pub fn unknown_buffered(&self) -> u64 {
        self.nodes.iter().map(|n| n.unknown_buffered).sum()
    }
}
