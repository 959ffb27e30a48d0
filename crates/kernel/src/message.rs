//! Actor messages: values, envelopes, and continuation references.
//!
//! "All actor messages have a destination mail address and a method
//! selector. Many of them may also contain a continuation address." (§3)
//! The envelope type here carries exactly those three parts; the
//! *continuation address* is a [`ContRef`] — either a join-continuation
//! slot (the compiled form of `request`, §6.2) or an ordinary actor
//! address to `reply` to.

use crate::addr::{AddrKey, GroupId, JcId, MailAddr, Selector};
use hal_am::Bytes;
use hal_am::NodeId;

/// A first-class value that can travel in a message.
///
/// HAL is untyped at the wire level; this enum is the closest Rust
/// equivalent of its tagged message words. `Bytes` carries bulk payloads
/// (matrix blocks, migration images) by reference-counted buffer, which
/// models the CM-5's bulk transfer without copying inside the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// No value (unit).
    Unit,
    /// Signed integer word.
    Int(i64),
    /// Floating-point word.
    Float(f64),
    /// A mail address (enables dynamic communication topologies).
    Addr(MailAddr),
    /// A group identifier (result of `grpnew`).
    Group(GroupId),
    /// Bulk binary payload.
    Bytes(Bytes),
}

impl Value {
    /// Size of this value on the wire, for the cost model and the
    /// small/bulk split.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Value::Unit => 0,
            Value::Int(_) | Value::Float(_) | Value::Group(_) => 8,
            Value::Addr(_) => 16,
            Value::Bytes(b) => b.len(),
        }
    }

    /// Extract an integer, panicking with a useful message otherwise.
    /// Workload code uses these accessors at message-decode boundaries.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    /// Extract a float.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(x) => *x,
            other => panic!("expected Float, got {other:?}"),
        }
    }

    /// Extract a mail address.
    pub fn as_addr(&self) -> MailAddr {
        match self {
            Value::Addr(a) => *a,
            other => panic!("expected Addr, got {other:?}"),
        }
    }

    /// Extract a group id.
    pub fn as_group(&self) -> GroupId {
        match self {
            Value::Group(g) => *g,
            other => panic!("expected Group, got {other:?}"),
        }
    }

    /// Extract a bulk payload (cheap clone — `Bytes` is refcounted).
    pub fn as_bytes(&self) -> Bytes {
        match self {
            Value::Bytes(b) => b.clone(),
            other => panic!("expected Bytes, got {other:?}"),
        }
    }

    /// Move the bulk payload out — the receiver owns the value, so no
    /// refcount is touched.
    pub fn into_bytes(self) -> Bytes {
        match self {
            Value::Bytes(b) => b,
            other => panic!("expected Bytes, got {other:?}"),
        }
    }
}

/// Where a reply should go: the "continuation address" of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContRef {
    /// A join-continuation slot on `node` (§6.2): the reply fills
    /// `slot` of continuation `jc` and decrements its counter.
    Join {
        /// Node hosting the continuation.
        node: NodeId,
        /// Continuation id on that node.
        jc: JcId,
        /// Which argument slot the reply value fills.
        slot: u16,
    },
    /// An ordinary actor: the reply is delivered as a normal message
    /// with the given selector.
    Actor {
        /// The actor to reply to.
        addr: MailAddr,
        /// Selector the reply message invokes.
        selector: Selector,
    },
}

/// A message envelope: selector, arguments, and optional continuation.
#[derive(Clone, Debug, PartialEq)]
pub struct Msg {
    /// Method selector.
    pub selector: Selector,
    /// Argument values.
    pub args: Vec<Value>,
    /// Reply destination, if this is a `request`-style send.
    pub customer: Option<ContRef>,
    /// Flight-recorder metadata, stamped by the kernel at send time
    /// when tracing is enabled ([`crate::trace`]). Simulation metadata
    /// only: it never counts toward [`Msg::wire_bytes`].
    pub trace: Option<crate::trace::TraceTag>,
}

impl Msg {
    /// A plain asynchronous message.
    pub fn new(selector: Selector, args: Vec<Value>) -> Self {
        Msg {
            selector,
            args,
            customer: None,
            trace: None,
        }
    }

    /// A request carrying a continuation reference.
    pub fn request(selector: Selector, args: Vec<Value>, customer: ContRef) -> Self {
        Msg {
            selector,
            args,
            customer: Some(customer),
            trace: None,
        }
    }

    /// Wire size: selector + per-arg sizes + continuation reference.
    pub fn wire_bytes(&self) -> usize {
        let args: usize = self.args.iter().map(Value::wire_bytes).sum();
        4 + args + if self.customer.is_some() { 12 } else { 0 }
    }
}

/// A delivery target as it appears on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Target {
    /// A mail address key, with an optional cached descriptor index on
    /// the destination node ("subsequent messages are sent with the
    /// cached address, making name table look-up in the receiving node
    /// unnecessary", §4.1). `route_hint` reproduces the full address's
    /// routing metadata for nodes that have never seen the actor.
    Addr {
        /// Identity key.
        key: AddrKey,
        /// Descriptor index on the receiving node, if the sender has it
        /// cached.
        dst_desc: Option<crate::addr::DescriptorId>,
        /// Fallback route (birthplace or alias creation node).
        route_hint: NodeId,
    },
    /// Member `index` of `group`, resolved at the member's home node.
    Member {
        /// The group.
        group: GroupId,
        /// Member index within the group.
        index: u32,
    },
}

/// A protocol's static declaration, as emitted by the `messages!` macro:
/// the tag table plus the per-variant destination-protocol annotations.
///
/// This is the unit the static lint pass consumes. `tags` and `sends`
/// are parallel arrays in variant declaration order; `sends[i].1` lists
/// the *names* of the protocols that handling variant `i` may send to
/// (an empty list means the handler is a sink for that selector).
/// Destinations are names rather than types so protocols defined in
/// different crates can reference each other without a dependency edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolDecl {
    /// The protocol (enum) name.
    pub name: &'static str,
    /// `(variant name, selector)` per variant, in declaration order.
    pub tags: &'static [(&'static str, Selector)],
    /// `(variant name, destination protocol names)` per variant, in
    /// declaration order — the statically declared message-flow edges.
    pub sends: &'static [(&'static str, &'static [&'static str])],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DescriptorId;

    #[test]
    fn value_wire_sizes() {
        assert_eq!(Value::Unit.wire_bytes(), 0);
        assert_eq!(Value::Int(5).wire_bytes(), 8);
        assert_eq!(Value::Float(1.0).wire_bytes(), 8);
        assert_eq!(Value::Addr(MailAddr::ordinary(0, DescriptorId(0))).wire_bytes(), 16);
        assert_eq!(Value::Bytes(Bytes::from(vec![0u8; 100])).wire_bytes(), 100);
    }

    #[test]
    fn msg_wire_size_includes_continuation() {
        let plain = Msg::new(1, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(plain.wire_bytes(), 4 + 16);
        let req = Msg::request(
            1,
            vec![Value::Int(1)],
            ContRef::Join {
                node: 0,
                jc: crate::addr::JcId(0),
                slot: 0,
            },
        );
        assert_eq!(req.wire_bytes(), 4 + 8 + 12);
    }

    #[test]
    fn accessors_extract_values() {
        assert_eq!(Value::Int(-3).as_int(), -3);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        let a = MailAddr::ordinary(1, DescriptorId(2));
        assert_eq!(Value::Addr(a).as_addr(), a);
        let g = GroupId::new(1, 2, 4, crate::addr::Mapping::Block);
        assert_eq!(Value::Group(g).as_group(), g);
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn accessor_type_mismatch_panics() {
        Value::Float(1.0).as_int();
    }
}
