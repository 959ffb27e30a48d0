//! Actor creation (§5): local `new`, remote creation behind an alias, and
//! what becomes deliverable once a key turns local.

use super::Kernel;
use crate::actor::{ActorRecord, Behavior};
use crate::addr::{ActorId, AddrKey, BehaviorId, DescriptorId, MailAddr};
use crate::error::MachineError;
use crate::message::Value;
use crate::metrics::Counter;
use crate::name_server::Resolution;
use crate::trace::KernelEvent;
use crate::wire::KMsg;
use hal_am::NodeId;

impl Kernel {
    // ------------------------------------------------------------------
    // Creation (§5)
    // ------------------------------------------------------------------

    /// Install a behavior as a new local actor; returns its id and
    /// ordinary mail address.
    pub(super) fn install_actor(&mut self, behavior: Box<dyn Behavior>) -> (ActorId, MailAddr) {
        let aid = self.actors.insert(ActorRecord::new(behavior));
        let d = self.names.alloc_local(aid, 0);
        let addr = MailAddr::ordinary(self.me, d);
        let rec = self.actors.get_mut(aid).expect("just inserted");
        rec.addr = addr;
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::ActorCreated { key: addr.key });
        }
        (aid, addr)
    }

    /// Local creation: the `new` primitive when the target is this node.
    pub(super) fn create_local(&mut self, behavior: Box<dyn Behavior>) -> MailAddr {
        self.charge(self.cfg.cost.local_creation);
        let (_aid, addr) = self.install_actor(behavior);
        addr
    }

    /// Remote creation with alias-based latency hiding (§5): mint the
    /// alias, fire off the request, and return immediately.
    pub(super) fn create_remote(
        &mut self,
        node: NodeId,
        behavior: BehaviorId,
        init: Vec<Value>,
    ) -> MailAddr {
        debug_assert_ne!(node, self.me);
        self.charge(self.cfg.cost.remote_creation_request);
        if !self.cfg.opt.aliases {
            // Ablation: no aliases means the creating actor must wait
            // for the new actor's real mail address to come back — a
            // full round trip of stall on top of the request cost (§5's
            // rejected alternative on stock hardware).
            self.charge(self.cfg.cost.remote_creation_rtt_stall);
            self.count(Counter::ActorsRemoteBlocking);
        }
        self.count(Counter::ActorsRemoteRequests);
        let d = self.names.alloc_remote(node, None, 0);
        let alias = MailAddr::alias(self.me, d, node, behavior);
        let mut span = 0;
        if let Some(r) = self.recorder.as_deref_mut() {
            // Open an alias-creation span: mint (here) → install (at
            // the target) → resolve (the NameInfo landing back here),
            // parented by the requesting handler's message. Under head
            // sampling an unsampled episode keeps span 0: the raw event
            // still lands (latency histograms stay exact) but the span
            // builder never opens it.
            span = r.next_msg_id();
            if !r.span_sampled(span) {
                span = 0;
            }
            let parent = r.current_span;
            r.alias_born.insert(alias.key, self.clock);
            if span != 0 {
                r.alias_span.insert(alias.key, span);
            }
            let event = KernelEvent::AliasCreated { key: alias.key, target: node };
            self.trace_event_span(event, span, parent);
        }
        self.net_send(
            node,
            KMsg::Create {
                alias: alias.key,
                behavior,
                init,
                requester: self.me,
                span,
            },
        );
        alias
    }

    /// Remote side of a creation request. `span` is the requester's
    /// alias-creation span (0 when tracing is off there).
    pub(super) fn handle_create(
        &mut self,
        alias: AddrKey,
        behavior: BehaviorId,
        init: Vec<Value>,
        requester: NodeId,
        span: u64,
    ) {
        self.charge(self.cfg.cost.remote_creation_work);
        let Some(b) = self.registry.try_create(behavior, &init) else {
            self.fail(MachineError::UnknownBehavior {
                behavior,
                node: self.me,
            });
            return;
        };
        let (aid, addr) = self.install_actor(b);
        // Register the alias alongside the ordinary address ("registers
        // the actor in its local name table with the received alias").
        let d = addr.key.index;
        self.names.bind(alias, d);
        if self.recorder.is_some() {
            // The alias key now names a live actor too — deliveries
            // through it are legitimate from this point on. Carries the
            // requester's span: this is the "install" leg of the alias
            // lifecycle (mint → install → resolve).
            self.trace_event_span(KernelEvent::ActorCreated { key: alias }, span, 0);
        }
        self.actors
            .get_mut(aid)
            .expect("just installed")
            .aliases
            .push(alias);
        self.flush_unknown(alias, aid);
        self.flush_unknown(addr.key, aid);
        self.complete_local_fir(alias, d, 0);
        self.complete_local_fir(addr.key, d, 0);
        // Cache our descriptor index back at the requester ("as
        // background processing").
        // Observe the moment the actor exists — the paper's "actual
        // creation" latency (20.83 us end to end).
        self.observe("create.remote_actual_ns", self.clock.as_nanos());
        self.net_send(
            requester,
            KMsg::NameInfo {
                key: alias,
                node: self.me,
                index: d,
                epoch: 0,
            },
        );
        self.count(Counter::ActorsRemoteCreated);
    }

    /// Deliver any messages parked for a previously unknown key.
    pub(super) fn flush_unknown(&mut self, key: AddrKey, aid: ActorId) {
        if let Some(msgs) = self.unknown_buffer.remove(&key) {
            self.unknown_buffered -= msgs.len() as u32;
            for msg in msgs {
                self.enqueue_local(aid, msg);
            }
        }
    }

    /// If this node was chasing `key` with an FIR, the chase ends here:
    /// the actor just became local. Answer askers, deliver parked mail.
    pub(super) fn complete_local_fir(
        &mut self,
        key: AddrKey,
        index: DescriptorId,
        epoch: u32,
    ) {
        if let Some(pending) = self.firs.complete(key) {
            let me = self.me;
            // The chase ends here because the actor became local: same
            // terminal event as a reply arriving, so the checker sees
            // every opened chase close.
            self.trace_chase_closed(key, me, &pending);
            for asker in pending.askers {
                self.net_send(asker, KMsg::FirFound { key, node: me, index, epoch });
            }
            if !pending.buffered.is_empty() {
                if let Resolution::Local(aid) = self.names.resolve(key) {
                    for msg in pending.buffered {
                        self.enqueue_local(aid, msg);
                    }
                } else {
                    unreachable!("complete_local_fir on non-local key");
                }
            }
        }
    }
}
