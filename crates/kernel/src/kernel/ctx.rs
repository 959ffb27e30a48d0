//! The actor interface (Fig. 2's top layer): [`Ctx`], what a behavior can
//! ask of the kernel during a method, and the bootstrap context machines
//! hand to harness code.

use super::Kernel;
use crate::actor::Behavior;
use crate::addr::{ActorId, BehaviorId, GroupId, JcId, MailAddr, Mapping, Selector};
use crate::join::{JoinFn, ReplyFn};
use crate::message::{ContRef, Msg, Value};
use crate::name_server::Resolution;
use crate::wire::KMsg;
use hal_am::NodeId;
use hal_des::{VirtualDuration, VirtualTime};

/// Who is currently executing.
pub(super) enum Ident {
    /// An actor method.
    Actor {
        /// Its slab id.
        aid: ActorId,
        /// Its primary address.
        addr: MailAddr,
    },
    /// A join continuation body.
    Continuation,
    /// Machine bootstrap code.
    System,
}

/// The actor interface (Fig. 2's top layer): everything a behavior can
/// ask of the kernel during a method execution.
pub struct Ctx<'a> {
    k: &'a mut Kernel,
    ident: Ident,
    customer: Option<ContRef>,
    pub(super) become_to: Option<Box<dyn Behavior>>,
    pub(super) migrate_to: Option<NodeId>,
}

impl<'a> Ctx<'a> {
    /// A context for `ident` on `k`, with nothing requested yet.
    pub(super) fn new(k: &'a mut Kernel, ident: Ident, customer: Option<ContRef>) -> Self {
        Ctx { k, ident, customer, become_to: None, migrate_to: None }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.k.me
    }

    /// Partition size.
    pub fn nodes(&self) -> usize {
        self.k.cfg.nodes
    }

    /// Current virtual time on this node.
    pub fn now(&self) -> VirtualTime {
        self.k.clock
    }

    /// Charge user compute time to the node clock (simulation of the
    /// method body's real work, e.g. a block matrix multiply).
    pub fn charge(&mut self, d: VirtualDuration) {
        self.k.charge(d);
    }

    /// The executing actor's mail address.
    ///
    /// # Panics
    /// Panics when called from a continuation or bootstrap context.
    pub fn me(&self) -> MailAddr {
        match self.ident {
            Ident::Actor { addr, .. } => addr,
            _ => panic!("Ctx::me outside an actor method"),
        }
    }

    /// The reply destination of the current message, if it was a request.
    pub fn customer(&self) -> Option<ContRef> {
        self.customer
    }

    /// Asynchronous send (the actor `send` primitive).
    pub fn send(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>) {
        self.k.send_to_addr(to, Msg::new(selector, args));
    }

    /// Compiler fast path (§6.3): inline local dispatch when legal, else
    /// the generic send. Returns whether the inline path ran.
    pub fn send_fast(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>) -> bool {
        self.k.send_fast(to, Msg::new(selector, args))
    }

    /// `request`: asynchronous send whose reply fills `cont`.
    pub fn request(&mut self, to: MailAddr, selector: Selector, args: Vec<Value>, cont: ContRef) {
        self.k
            .send_to_addr(to, Msg::request(selector, args, cont));
    }

    /// `reply`: answer the current message's customer.
    ///
    /// # Panics
    /// Panics if the current message carried no continuation.
    pub fn reply(&mut self, value: Value) {
        let cont = self
            .customer
            .take()
            .expect("reply without a customer continuation");
        self.k.send_reply(cont, value);
    }

    /// Answer an explicit continuation reference (for forwarded or stored
    /// customers).
    pub fn reply_to(&mut self, cont: ContRef, value: Value) {
        self.k.send_reply(cont, value);
    }

    /// Create a join continuation with `arity` slots, `prefilled` known
    /// values, and body `func` (§6.2). Combine with [`Ctx::cont_slot`] to
    /// build reply targets. A join awaiting one reply and knowing nothing
    /// else is [`Ctx::create_reply_join`].
    ///
    /// # Panics
    /// Panics if `arity` is 1.
    pub fn create_join(
        &mut self,
        arity: u16,
        prefilled: Vec<(u16, Value)>,
        func: JoinFn,
    ) -> JcId {
        let creator = self.creator();
        self.k.joins.create(arity, prefilled, func, creator)
    }

    /// Create a one-slot join continuation: the reply to slot 0 of the
    /// returned id moves straight into `func`, with no slot storage.
    pub fn create_reply_join(&mut self, func: ReplyFn) -> JcId {
        let creator = self.creator();
        self.k.joins.create_reply(func, creator)
    }

    /// The actor creating a continuation here, if any.
    fn creator(&self) -> Option<ActorId> {
        match self.ident {
            Ident::Actor { aid, .. } => Some(aid),
            _ => None,
        }
    }

    /// A continuation reference filling `slot` of `jc` on this node.
    pub fn cont_slot(&self, jc: JcId, slot: u16) -> ContRef {
        ContRef::Join {
            node: self.k.me,
            jc,
            slot,
        }
    }

    /// `new`: create an actor on this node from a behavior object.
    pub fn create_local(&mut self, behavior: Box<dyn Behavior>) -> MailAddr {
        self.k.create_local(behavior)
    }

    /// `new @ node`: create an actor on `node` (alias latency hiding when
    /// remote, §5). Placement is explicit, as HAL allows ("placement
    /// specification for dynamically created objects").
    pub fn create_on(&mut self, node: NodeId, behavior: BehaviorId, init: Vec<Value>) -> MailAddr {
        if node == self.k.me {
            let b = self.k.registry.create(behavior, &init);
            self.k.create_local(b)
        } else {
            self.k.create_remote(node, behavior, init)
        }
    }

    /// `grpnew`: create a group of `count` actors of `behavior` spread
    /// over the partition; returns immediately with the group id. Each
    /// member's factory receives `init ++ [Group(id), Int(index),
    /// Int(count)]`.
    pub fn grpnew(&mut self, behavior: BehaviorId, count: u32, init: Vec<Value>) -> GroupId {
        self.k.grpnew(behavior, count, init, Mapping::Block)
    }

    /// `grpnew` with an explicit member-distribution mapping (Table 1's
    /// block vs cyclic column placement).
    pub fn grpnew_mapped(
        &mut self,
        behavior: BehaviorId,
        count: u32,
        init: Vec<Value>,
        mapping: Mapping,
    ) -> GroupId {
        self.k.grpnew(behavior, count, init, mapping)
    }

    /// Broadcast to every member of `group` (§6.4).
    pub fn broadcast(&mut self, group: GroupId, selector: Selector, args: Vec<Value>) {
        self.k.broadcast(group, Msg::new(selector, args));
    }

    /// Send to one member of a group by index.
    pub fn send_member(&mut self, group: GroupId, index: u32, selector: Selector, args: Vec<Value>) {
        self.k
            .deliver_member(group, index, Msg::new(selector, args));
    }

    /// Send a request to one member of a group.
    pub fn request_member(
        &mut self,
        group: GroupId,
        index: u32,
        selector: Selector,
        args: Vec<Value>,
        cont: ContRef,
    ) {
        self.k
            .deliver_member(group, index, Msg::request(selector, args, cont));
    }

    /// `become`: replace this actor's behavior after the current method
    /// returns.
    pub fn become_behavior(&mut self, behavior: Box<dyn Behavior>) {
        assert!(
            matches!(self.ident, Ident::Actor { .. }),
            "become outside an actor method"
        );
        self.become_to = Some(behavior);
    }

    /// Ask the kernel to migrate this actor to `node` after the current
    /// method returns.
    pub fn migrate(&mut self, node: NodeId) {
        assert!(
            matches!(self.ident, Ident::Actor { .. }),
            "migrate outside an actor method"
        );
        self.migrate_to = Some(node);
    }

    /// Post a named result for the harness to read from the machine
    /// report.
    pub fn report(&mut self, key: impl Into<String>, value: Value) {
        self.k.reports.push((key.into(), value));
    }

    /// Record one sample into the run's histogram `name`, which the
    /// machine report's `stats.histogram(name)` holds merged over every
    /// node.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.k.observe(name, value);
    }

    /// Stop the whole machine: sets the local stop flag and broadcasts
    /// Halt to every other node.
    pub fn stop(&mut self) {
        self.k.stopped = true;
        for n in 0..self.k.cfg.nodes as NodeId {
            if n != self.k.me {
                self.k.net_send(n, KMsg::Halt);
            }
        }
    }

    /// Pin a *local* actor as a garbage-collection root (the analog of
    /// an address held outside the actor system). Panics if the actor
    /// does not live on this node.
    pub fn pin(&mut self, addr: MailAddr) {
        match self.k.names.resolve(addr.key) {
            Resolution::Local(aid) => {
                self.k.gc.pinned.insert(aid);
            }
            other => panic!("pin of non-local actor ({other:?})"),
        }
    }

    /// Remove a pin (the external reference was dropped); the actor
    /// becomes collectable if nothing else reaches it.
    pub fn unpin(&mut self, addr: MailAddr) {
        if let Resolution::Local(aid) = self.k.names.resolve(addr.key) {
            self.k.gc.pinned.remove(&aid);
        }
    }
}

/// Run a closure in a bootstrap (`System`) context against a kernel —
/// how machines let harness code create the initial actors.
pub fn with_system_ctx<R>(kernel: &mut Kernel, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
    let mut ctx = Ctx::new(kernel, Ident::System, None);
    let r = f(&mut ctx);
    debug_assert!(ctx.become_to.is_none());
    debug_assert!(ctx.migrate_to.is_none());
    r
}
