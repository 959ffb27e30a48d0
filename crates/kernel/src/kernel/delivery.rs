//! Message delivery (§4.3, Fig. 3): the generic send, the receiving node
//! manager, forwarding vs. the FIR chase, and name-table repair.

use super::Kernel;
use crate::addr::{ActorId, AddrKey, DescriptorId, MailAddr};
use crate::descriptor::Locality;
use crate::fir::FirPending;
use crate::message::{Msg, Target};
use crate::metrics::Counter;
use crate::name_server::Resolution;
use crate::trace::{KernelEvent, TraceTag};
use crate::wire::KMsg;
use hal_am::NodeId;

impl Kernel {
    // ------------------------------------------------------------------
    // Message delivery (Fig. 3)
    // ------------------------------------------------------------------

    /// Send `msg` to mail address `to` from this node (the generic send
    /// of Fig. 3, sender side).
    pub(super) fn send_to_addr(&mut self, to: MailAddr, mut msg: Msg) {
        self.charge(self.cfg.cost.locality_check);
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, false);
                }
                self.charge(self.cfg.cost.local_send);
                self.count(Counter::MsgsLocal);
                self.enqueue_local(aid, msg);
            }
            Resolution::Remote { node, remote_index } => {
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, true);
                }
                if self.firs.is_pending(to.key) {
                    // We already know our guess is stale; park with the
                    // FIR instead of bouncing off the old node again.
                    if let Some(tag) = msg.trace.as_mut() {
                        tag.flags |= TraceTag::CHASED;
                    }
                    self.firs.buffer(to.key, msg);
                    self.count(Counter::FirBufferedAtSend);
                    return;
                }
                self.count(Counter::MsgsRemote);
                let dst_desc = remote_index.filter(|_| self.cfg.opt.name_caching);
                self.send_deliver(node, to.key, dst_desc, to.default_route(), msg);
            }
            Resolution::Unknown => {
                // First contact: allocate a best-guess descriptor toward
                // the default route and send there (§4.1).
                assert!(
                    to.key.birthplace != self.cfg.me,
                    "dangling local mail address {:?}",
                    to
                );
                if self.recorder.is_some() {
                    self.trace_stamp_send(&mut msg, to.key, true);
                }
                let route = to.default_route();
                let d = self.names.alloc_remote(route, None, 0);
                self.names.bind(to.key, d);
                self.count(Counter::MsgsRemote);
                self.count(Counter::NameFirstContact);
                self.send_deliver(route, to.key, None, route, msg);
            }
        }
    }

    /// Ship `msg` for the actor `key` to `node`, naming the descriptor we
    /// believe it has there, if any.
    fn send_deliver(
        &mut self,
        node: NodeId,
        key: AddrKey,
        dst_desc: Option<DescriptorId>,
        route_hint: NodeId,
        msg: Msg,
    ) {
        let target = Target::Addr { key, dst_desc, route_hint };
        self.net_send(node, KMsg::Deliver { target, msg });
    }

    /// Receiver side of the generic send (Fig. 3): the node manager
    /// locates the actor or starts an FIR chase.
    pub(super) fn handle_deliver(&mut self, src: NodeId, target: Target, msg: Msg) {
        match target {
            Target::Addr {
                key,
                dst_desc,
                route_hint,
            } => {
                // Cached-descriptor fast path: no name-table lookup.
                if let Some(d) = dst_desc {
                    if self.names.descriptor_live(d) {
                        match self.names.descriptor(d).locality {
                            Locality::Local(aid) => {
                                self.count(Counter::DeliverCachedHit);
                                self.enqueue_local(aid, msg);
                                return;
                            }
                            Locality::Remote { node, remote_index } => {
                                // Migrated away since the sender cached us.
                                self.count(Counter::DeliverCachedStale);
                                self.forward_or_chase(key, msg, node, remote_index);
                                return;
                            }
                        }
                    }
                }
                self.charge(self.cfg.cost.name_lookup);
                match self.names.resolve(key) {
                    Resolution::Local(aid) => {
                        // Reply with our descriptor index so the sender
                        // skips our name table next time (§4.1).
                        if self.cfg.opt.name_caching
                            && dst_desc.is_none()
                            && src != self.cfg.me
                            && self.advised.insert((src, key))
                        {
                            let d = self.names.descriptor_for(key).expect("just resolved");
                            let epoch = self.actor_epoch(aid);
                            self.net_send(
                                src,
                                KMsg::NameInfo {
                                    key,
                                    node: self.cfg.me,
                                    index: d,
                                    epoch,
                                },
                            );
                        }
                        self.enqueue_local(aid, msg);
                    }
                    Resolution::Remote { node, remote_index } => {
                        self.count(Counter::DeliverMigrated);
                        self.forward_or_chase(key, msg, node, remote_index);
                    }
                    Resolution::Unknown => {
                        // Alias traffic racing the creation request, or a
                        // chase overtaking a migration: park until the
                        // key becomes known.
                        assert!(
                            key.birthplace != self.cfg.me || route_hint != self.cfg.me,
                            "undeliverable message to dangling key {key:?}"
                        );
                        self.count(Counter::DeliverUnknownParked);
                        self.unknown_buffer.entry(key).or_default().push(msg);
                        self.unknown_buffered += 1;
                    }
                }
            }
            Target::Member { group, index } => self.deliver_member(group, index, msg),
        }
    }

    /// A message arrived here for an actor that has moved on. If our
    /// information is *confirmed* (we hold the descriptor index on the
    /// believed node — i.e. that node itself told us the actor arrived),
    /// the location is known and the message is forwarded directly
    /// (§4.3: "once the location is known, the original message is sent
    /// directly to the node where the receiver resides"). Confirmed
    /// pointers are strictly epoch-increasing, so forwarding is acyclic.
    /// Unconfirmed history pointers trigger the FIR chase instead.
    fn forward_or_chase(
        &mut self,
        key: AddrKey,
        mut msg: Msg,
        node: NodeId,
        remote_index: Option<DescriptorId>,
    ) {
        // Any message that lands here is behind a migration: its
        // eventual delivery should count in the `migrated` latency
        // column.
        if let Some(tag) = msg.trace.as_mut() {
            tag.flags |= TraceTag::CHASED;
        }
        if !self.cfg.opt.fir_chase {
            // Ablation: forward the entire message along the chain (§4.3's
            // rejected alternative — bulk payloads traverse every hop).
            self.count(Counter::DeliverForwardedWhole);
            self.send_deliver(node, key, remote_index, node, msg);
        } else if self.firs.is_pending(key) {
            // A chase is already running; join it.
            self.count(Counter::FirSuppressed);
            let span = self.chase_span(key);
            self.trace_event_span(KernelEvent::FirSuppressed { key }, span, 0);
            self.firs.buffer(key, msg);
        } else if remote_index.is_some() {
            self.count(Counter::DeliverForwarded);
            self.send_deliver(node, key, remote_index, node, msg);
        } else {
            self.fir_chase(key, msg, node);
        }
    }

    /// Park `msg` and send an FIR toward `next_hop` (§4.3: "instead of
    /// forwarding the entire message the node manager sends a special
    /// forwarding information request"). The caller has checked that no
    /// chase for `key` is outstanding here.
    fn fir_chase(&mut self, key: AddrKey, msg: Msg, next_hop: NodeId) {
        self.charge(self.cfg.cost.fir_handle);
        let fresh = self.firs.need_location(key);
        debug_assert!(fresh, "a chase for {key:?} was already running");
        self.count(Counter::FirSent);
        // Open a chase span: every hop of this episode (here and on
        // relaying nodes) shares it, parented by the message that
        // triggered the chase.
        let (span, parent) = match self.recorder.as_deref_mut() {
            Some(r) => {
                // Head sampling: an unsampled chase episode travels with
                // span 0 — the protocol events still land in the ring,
                // but the span builder (which keys on span != 0) never
                // opens an episode.
                let span = r.next_msg_id();
                let span = if r.span_sampled(span) { span } else { 0 };
                let parent = msg.trace.filter(|t| r.span_sampled(t.id)).map_or(0, |t| t.id);
                (span, parent)
            }
            None => (0, 0),
        };
        self.relay_fir(key, next_hop, span, parent);
        self.firs.buffer(key, msg);
    }

    /// Send the FIR for `key` one hop on under the episode's `span`, and
    /// remember the span so this node's later events join it.
    fn relay_fir(&mut self, key: AddrKey, to: NodeId, span: u64, parent: u64) {
        if span != 0 {
            if let Some(r) = self.recorder.as_deref_mut() {
                r.chase_span.insert(key, span);
            }
        }
        self.trace_event_span(KernelEvent::FirSent { key, to }, span, parent);
        self.net_send(to, KMsg::Fir { key, span });
        self.arm_fir_watchdog(key);
    }

    /// An FIR arrived from `src` looking for `key`. `span` is the chase
    /// episode's span id, adopted by every relay so all hops of one
    /// chase share a single span.
    pub(super) fn handle_fir(&mut self, src: NodeId, key: AddrKey, span: u64) {
        self.charge(self.cfg.cost.fir_handle);
        self.count(Counter::FirHandled);
        let next = match self.names.resolve(key) {
            Resolution::Local(aid) => {
                let index = self.names.descriptor_for(key).expect("just resolved");
                let epoch = self.actor_epoch(aid);
                self.net_send(src, KMsg::FirFound { key, node: self.cfg.me, index, epoch });
                return;
            }
            Resolution::Remote { node, .. } => node,
            Resolution::Unknown => {
                // We know nothing (e.g. the actor is migrating toward us
                // and the FIR overtook the bulk transfer). Park the
                // question: if the actor arrives here, install completes
                // the FIR; otherwise fall back to the birthplace chain.
                assert!(
                    key.birthplace != self.cfg.me,
                    "FIR for dangling local key {key:?}"
                );
                key.birthplace
            }
        };
        // The asker is owed the reply either way; the chase goes one hop
        // further only if none is running here already.
        let relay = !self.firs.is_pending(key) && self.firs.need_location(key);
        self.firs.add_asker(key, src);
        if relay {
            self.relay_fir(key, next, span, 0);
        }
    }

    /// Under a plan with link faults an FIR (or its reply) can be eaten
    /// by the link; arm a watchdog so the chase is re-issued instead of
    /// wedging the buffered messages forever.
    fn arm_fir_watchdog(&mut self, key: AddrKey) {
        if self.chaos_on() {
            self.arm_timer(self.cfg.faults.fir_timeout, KMsg::FirTimer { key });
        }
    }

    /// The FIR reply: repair our table, release parked messages, and
    /// propagate back along the chain.
    pub(super) fn handle_fir_found(
        &mut self,
        key: AddrKey,
        node: NodeId,
        index: DescriptorId,
        epoch: u32,
    ) {
        self.charge(self.cfg.cost.fir_handle);
        if self.firs.is_pending(key) && self.believes_later(key, epoch) {
            // An answer to an FIR from an earlier episode (often one the
            // watchdog re-issued) that this node has outgrown: the actor
            // passed through here, or gossip named a later hop, since it
            // was asked. Closing the open chase with it would send the
            // parked mail back down the chain; ask again from the newer
            // belief instead.
            let span = self.chase_span(key);
            self.trace_event_span(KernelEvent::FirStale { key, epoch }, span, 0);
            self.reissue_fir(key, span);
            return;
        }
        self.count(Counter::FirFound);
        self.repair_descriptor(key, node, index, epoch);
        if let Some(m) = self.metrics.as_deref_mut() {
            // The located epoch is the forward-chain length behind this
            // chase — the paper's "how far did the actor get" number.
            m.chain_epochs.observe(u64::from(epoch));
        }
        if let Some(pending) = self.firs.complete(key) {
            self.trace_chase_closed(key, node, &pending);
            for asker in pending.askers {
                self.net_send(asker, KMsg::FirFound { key, node, index, epoch });
            }
            for msg in pending.buffered {
                // "Once the location is known, the original message is
                // sent directly to the node where the receiver resides."
                self.count(Counter::FirFlushed);
                self.send_deliver(node, key, Some(index), node, msg);
            }
        }
    }

    /// True when this node holds a forward pointer for `key` from a
    /// later hop than `epoch`.
    fn believes_later(&mut self, key: AddrKey, epoch: u32) -> bool {
        let Some(d) = self.names.descriptor_for(key) else {
            return false;
        };
        let desc = self.names.descriptor(d);
        matches!(desc.locality, Locality::Remote { .. }) && desc.epoch > epoch
    }

    /// Send the open chase for `key` one hop on again, from current
    /// knowledge: our best guess if we have one, else the birthplace
    /// (which always learns of migrations, §4.3). Returns false when
    /// there is nowhere to send it (the actor is here).
    pub(super) fn reissue_fir(&mut self, key: AddrKey, span: u64) -> bool {
        let next = match self.names.resolve(key) {
            Resolution::Remote { node, .. } => node,
            Resolution::Local(_) => return false,
            Resolution::Unknown => key.birthplace,
        };
        if next == self.cfg.me {
            return false;
        }
        self.net_send(next, KMsg::Fir { key, span });
        true
    }

    /// The chase for `key` ends on this node, with the actor found on
    /// `node`: close this node's share of the episode's span.
    pub(super) fn trace_chase_closed(&mut self, key: AddrKey, node: NodeId, pending: &FirPending) {
        let recorder = self.recorder.as_deref_mut();
        let span = recorder.and_then(|r| r.chase_span.remove(&key)).unwrap_or(0);
        let askers = pending.askers.len() as u32;
        let released = pending.buffered.len() as u32;
        let event = KernelEvent::FirReplyPropagated { key, node, askers, released };
        self.trace_event_span(event, span, 0);
    }

    /// The location epoch of a local actor (its migration hop count).
    fn actor_epoch(&self, aid: ActorId) -> u32 {
        self.actors.get(aid).map(|r| r.hops).unwrap_or(0)
    }

    /// Location gossip: update our descriptor for `key` unless we hold
    /// newer information. Local knowledge is authoritative, and gossip
    /// from an older epoch never overwrites a newer belief — this keeps
    /// forward chains strictly epoch-increasing, so FIR chases terminate
    /// even under arbitrarily reordered gossip.
    pub(super) fn repair_descriptor(&mut self, key: AddrKey, node: NodeId, index: DescriptorId, epoch: u32) {
        let repaired = match self.names.descriptor_for(key) {
            Some(d) => {
                let desc = self.names.descriptor_mut(d);
                match desc.locality {
                    Locality::Local(_) => false, // authoritative; ignore gossip
                    Locality::Remote { .. } => {
                        if epoch >= desc.epoch {
                            desc.locality = Locality::Remote {
                                node,
                                remote_index: Some(index),
                            };
                            desc.epoch = epoch;
                            true
                        } else {
                            false
                        }
                    }
                }
            }
            None => {
                let d = self.names.alloc_remote(node, Some(index), epoch);
                self.names.bind(key, d);
                true
            }
        };
        if repaired && self.recorder.is_some() {
            self.trace_event(KernelEvent::NameRepaired { key, node, epoch });
        }
    }

    /// Enqueue a message for a local actor, scheduling it if idle.
    pub(super) fn enqueue_local(&mut self, aid: ActorId, msg: Msg) {
        self.charge(self.cfg.cost.constraint_check);
        if let Some(tag) = msg.trace {
            self.trace_delivered(tag);
        }
        if self.actors.enqueue(aid, msg) {
            self.dispatcher.push(aid);
        }
    }
}
