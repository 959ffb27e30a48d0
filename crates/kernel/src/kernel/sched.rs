//! Scheduling (§6.1–6.3): the step, an actor's quantum with its
//! pending-queue rescans, method invocation, the compiler fast path — and
//! the join continuations (§6.2) those methods fill and fire.

use super::{Ctx, Ident, Kernel};
use crate::actor::{ActorRecord, Behavior, Cursor};
use crate::addr::{ActorId, JcId, MailAddr};
use crate::join::Fired;
use crate::message::{ContRef, Msg, Value};
use crate::metrics::Counter;
use crate::name_server::Resolution;
use crate::trace::KernelEvent;
use crate::wire::KMsg;
use hal_am::NodeId;

impl Kernel {
    // ------------------------------------------------------------------
    // Scheduling (§6.3)
    // ------------------------------------------------------------------

    /// Bootstrap: create an actor on this node before the machine runs
    /// (the front-end loading a program) and optionally hand it an
    /// initial message.
    pub fn bootstrap(&mut self, behavior: Box<dyn Behavior>, initial: Option<Msg>) -> MailAddr {
        let (aid, addr) = self.install_actor(behavior);
        if let Some(msg) = initial {
            self.enqueue_local(aid, msg);
        }
        addr
    }

    /// Run one scheduling step: drain loopback work, then execute one
    /// ready actor for up to a quantum of messages. Returns `true` if any
    /// work was done.
    pub fn step(&mut self) -> bool {
        if !self.pauses.is_empty() {
            self.clock = self.pause_shift(self.clock);
        }
        if !self.loopback.is_empty() {
            self.drain_loopback();
            self.metrics_tick();
            return true;
        }
        let Some(aid) = self.dispatcher.pop() else {
            return false;
        };
        self.charge(self.cfg.cost.dispatch);
        self.run_actor(aid);
        self.drain_loopback();
        self.metrics_tick();
        true
    }

    /// Execute up to `quantum` enabled messages on actor `aid`, with
    /// pending-queue rescans after each method (§6.1).
    fn run_actor(&mut self, aid: ActorId) {
        let Some(mut rec) = self.actors.checkout(aid) else {
            // Stolen or migrated between scheduling and execution.
            return;
        };
        rec.scheduled = false;
        let mut processed = 0usize;
        let mut migrate_req: Option<NodeId> = None;

        loop {
            if processed >= self.cfg.quantum || migrate_req.is_some() {
                break;
            }
            let Some(msg) = self.actors.mail.pop_front(&mut rec.mailq) else {
                break;
            };
            self.charge(self.cfg.cost.constraint_check);
            if rec.behavior.enabled(msg.selector, &msg.args) {
                processed += 1;
                migrate_req = self.execute_then_rescan(aid, &mut rec, msg);
            } else {
                self.count(Counter::SyncDeferred);
                self.metrics_pending(1);
                if let Some(r) = self.recorder.as_deref_mut() {
                    if let Some(tag) = msg.trace {
                        if r.span_sampled(tag.id) {
                            r.pending_since.insert(tag.id, self.clock);
                            let event = KernelEvent::PendingEnqueued { id: tag.id };
                            self.trace_event_span(event, tag.id, 0);
                        }
                    }
                }
                self.actors.mail.push_back(&mut rec.pendq, msg);
            }
        }
        // A migration-free actor with nothing processed but a nonempty
        // pendq still deserves one rescan (e.g. scheduled by arrival of
        // state-changing messages that all went to pendq — nothing to do,
        // but harmless and keeps semantics uniform).
        if processed == 0 && migrate_req.is_none() && !rec.pendq.is_empty() {
            migrate_req = self.rescan_pending(aid, &mut rec);
        }

        let more = !rec.mailq.is_empty();
        self.actors.checkin(aid, rec);
        if let Some(dst) = migrate_req {
            if dst == self.me {
                // Degenerate migration to self: just reschedule.
                if let Some(r) = self.actors.get_mut(aid) {
                    if (!r.mailq.is_empty() || !r.pendq.is_empty()) && !r.scheduled {
                        r.scheduled = true;
                        self.dispatcher.push(aid);
                    }
                }
            } else {
                self.migrate_out(aid, dst, false);
            }
            return;
        }
        // checkin may have merged new arrivals; reschedule if needed.
        let rec = self.actors.get_mut(aid).expect("just checked in");
        if (more || !rec.mailq.is_empty()) && !rec.scheduled {
            rec.scheduled = true;
            self.dispatcher.push(aid);
        }
    }

    /// Invoke one method, then the pending rescan: "Whenever an actor
    /// completes its method execution, it examines whether or not it has
    /// pending messages" — newly enabled ones are dispatched immediately.
    /// Returns a migration request if one arose.
    fn execute_then_rescan(
        &mut self,
        aid: ActorId,
        rec: &mut ActorRecord,
        msg: Msg,
    ) -> Option<NodeId> {
        match self.execute_message(aid, rec, msg) {
            None => self.rescan_pending(aid, rec),
            dst => dst,
        }
    }

    /// Dispatch every currently enabled pending message, repeatedly,
    /// until none is enabled. Returns a migration request if one arose.
    fn rescan_pending(&mut self, aid: ActorId, rec: &mut ActorRecord) -> Option<NodeId> {
        loop {
            let mut fired = false;
            let mut at = Cursor::start(&rec.pendq);
            while let Some(m) = self.actors.mail.peek(&at) {
                let enabled = rec.behavior.enabled(m.selector, &m.args);
                self.charge(self.cfg.cost.constraint_check);
                if enabled {
                    let msg = self.actors.mail.unlink(&mut rec.pendq, &mut at);
                    self.count(Counter::SyncResumed);
                    self.metrics_pending(-1);
                    if let Some(r) = self.recorder.as_deref_mut() {
                        if let Some(tag) = msg.trace.filter(|t| r.span_sampled(t.id)) {
                            // A message parked on another node can be
                            // re-enabled here after its actor migrated
                            // with its pending queue: the park time
                            // lives in the other node's recorder, so
                            // residency falls back to zero. The event
                            // itself must still fire — the checker's
                            // liveness pass pairs every PendingEnqueued
                            // with a PendingRescanned.
                            let residency_ns = r
                                .pending_since
                                .remove(&tag.id)
                                .map(|parked| {
                                    self.clock.as_nanos().saturating_sub(parked.as_nanos())
                                })
                                .unwrap_or(0);
                            let event = KernelEvent::PendingRescanned { id: tag.id, residency_ns };
                            self.trace_event_span(event, tag.id, 0);
                        }
                    }
                    fired = true;
                    let mreq = self.execute_message(aid, rec, msg);
                    if mreq.is_some() {
                        return mreq;
                    }
                } else {
                    self.actors.mail.skip(&mut at);
                }
            }
            if !fired {
                return None;
            }
        }
    }

    /// Invoke one method on a checked-out actor record. Returns the
    /// migration destination if the method requested one.
    fn execute_message(
        &mut self,
        aid: ActorId,
        rec: &mut ActorRecord,
        msg: Msg,
    ) -> Option<NodeId> {
        self.charge(self.cfg.cost.method_invoke);
        self.count(Counter::MsgsProcessed);
        // Span bookkeeping: the dispatched message becomes the current
        // span, so every send the handler issues is parented by it.
        // Under head sampling an unsampled message executes with
        // current_span 0: its children become causal roots rather than
        // orphans pointing at a span the ring never opened.
        let recorder = self.recorder.as_deref();
        let sampled = recorder.and_then(|r| msg.trace.filter(|t| r.span_sampled(t.id)));
        let exec_start = self.clock;
        let saved = self.swap_current_span(sampled.map_or(0, |t| t.id));
        let mut ctx = Ctx::new(self, Ident::Actor { aid, addr: rec.addr }, msg.customer);
        rec.behavior.dispatch(&mut ctx, msg);
        let become_to = ctx.become_to.take();
        let migrate_to = ctx.migrate_to.take();
        if let Some(b) = become_to {
            rec.behavior = b;
        }
        if let Some(tag) = sampled {
            let run_ns = self.clock.since(exec_start).as_nanos();
            let queued_ns = self
                .recorder
                .as_deref_mut()
                .and_then(|r| r.delivered_at.remove(&tag.id))
                .map_or(0, |at| exec_start.since(at).as_nanos());
            let event = KernelEvent::MessageExecuted { id: tag.id, queued_ns, run_ns };
            self.trace_event_span(event, tag.id, 0);
        }
        self.swap_current_span(saved);
        migrate_to
    }

    /// Compiler fast path (§6.3): locality check + inline static dispatch
    /// on the current stack, when the receiver is local, enabled, idle,
    /// and the depth bound permits. Falls back to the generic send.
    /// Returns `true` if the fast path was taken.
    pub(super) fn send_fast(&mut self, to: MailAddr, msg: Msg) -> bool {
        self.charge(self.cfg.cost.locality_check);
        if self.stack_depth >= self.cfg.max_stack_depth {
            self.count(Counter::FastDepthFallback);
            self.send_after_check(to, msg);
            return false;
        }
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                // The runtime "additionally checks if the recipient actor
                // is in a state in which it is enabled to process the
                // message" — and that it has no queued messages (queue
                // jumping would break the actor's arrival order).
                let ok = match self.actors.get(aid) {
                    Some(rec) => {
                        rec.mailq.is_empty()
                            && rec.pendq.is_empty()
                            && rec.behavior.enabled(msg.selector, &msg.args)
                    }
                    None => false, // running: fall back to queueing
                };
                if !ok {
                    self.charge(self.cfg.cost.local_send);
                    self.count(Counter::FastStateFallback);
                    self.enqueue_local(aid, msg);
                    return false;
                }
                self.charge(self.cfg.cost.local_send_fast);
                self.count(Counter::FastInline);
                let mut rec = self.actors.checkout(aid).expect("checked above");
                self.stack_depth += 1;
                let m2 = self.execute_then_rescan(aid, &mut rec, msg);
                self.stack_depth -= 1;
                let has_more = !rec.mailq.is_empty();
                self.actors.checkin(aid, rec);
                if let Some(dst) = m2 {
                    if dst != self.me {
                        self.migrate_out(aid, dst, false);
                        return true;
                    }
                }
                if has_more {
                    let rec = self.actors.get_mut(aid).expect("just checked in");
                    if !rec.scheduled {
                        rec.scheduled = true;
                        self.dispatcher.push(aid);
                    }
                }
                true
            }
            _ => {
                self.send_after_check(to, msg);
                false
            }
        }
    }

    /// The generic send for a `send_fast` fallback, whose caller has
    /// already charged one locality check. Only a local receiver is
    /// spared a second one: any other resolution re-enters
    /// `send_to_addr`, which charges `locality_check` again (a cost-model
    /// wart, ROADMAP item 2f — fixing it moves `virtual_ns` in every
    /// artifact with a remote `send_fast`).
    fn send_after_check(&mut self, to: MailAddr, msg: Msg) {
        match self.names.resolve(to.key) {
            Resolution::Local(aid) => {
                self.charge(self.cfg.cost.local_send);
                self.count(Counter::MsgsLocal);
                self.enqueue_local(aid, msg);
            }
            _ => self.send_to_addr(to, msg),
        }
    }

    // ------------------------------------------------------------------
    // Join continuations (§6.2)
    // ------------------------------------------------------------------

    /// Fill a join slot; fire the continuation if complete. `span` is
    /// the span of the message whose handler produced the reply; sends
    /// issued by the fired continuation are parented by it so the
    /// causal chain survives the join.
    pub(super) fn fill_join(&mut self, jc: JcId, slot: u16, value: Value, span: u64) {
        self.charge(self.cfg.cost.join_fill);
        if let Some(fired) = self.joins.fill(jc, slot, value) {
            self.charge(self.cfg.cost.join_fire);
            let saved = self.swap_current_span(span);
            let mut ctx = Ctx::new(self, Ident::Continuation, None);
            match fired.body {
                Fired::Reply(func, value) => func(&mut ctx, value),
                Fired::Slotted(func, values) => func(&mut ctx, values),
            }
            debug_assert!(ctx.become_to.is_none(), "continuations cannot become");
            debug_assert!(ctx.migrate_to.is_none(), "continuations cannot migrate");
            self.swap_current_span(saved);
        }
    }

    /// Route a reply to a continuation reference.
    pub(super) fn send_reply(&mut self, cont: ContRef, value: Value) {
        let span = self.recorder.as_deref().map_or(0, |r| r.current_span);
        match cont {
            ContRef::Join { node, jc, slot } => {
                if node == self.me {
                    self.fill_join(jc, slot, value, span);
                } else {
                    self.count(Counter::RepliesRemote);
                    self.net_send(node, KMsg::Reply { jc, slot, value, span });
                }
            }
            ContRef::Actor { addr, selector } => {
                self.send_to_addr(addr, Msg::new(selector, vec![value]));
            }
        }
    }
}
