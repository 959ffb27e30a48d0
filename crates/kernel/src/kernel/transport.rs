//! Everything between the kernel and the wire (§6.5, chaos): the outbox
//! the machine drains, the small/bulk split, the reliable (seq + ack +
//! retransmit) glue and its timers, and the inbound side — packet entry,
//! envelope unwrapping, the node manager's message dispatch and the
//! interrupt-semantics `deliver`.

use super::{Kernel, Outbound};
use crate::error::MachineError;
use crate::metrics::Counter;
use crate::trace::KernelEvent;
use crate::wire::KMsg;
use hal_am::{
    AmEnvelope, MAX_SMALL_BYTES, NodeId, Packet, REL_HEADER, Resend, RetxDecision, RxOutcome,
};
use hal_des::{VirtualDuration, VirtualTime};

impl Kernel {
    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    /// Leave one packet for the machine, stamped with the clock as it is
    /// now.
    #[inline]
    fn emit(&mut self, dst: NodeId, env: AmEnvelope<Box<KMsg>>, wire: usize) {
        self.outbox.push(Outbound::Packet { at: self.clock, dst, env, wire });
    }

    /// Leave a self-addressed timer `after` from now for the machine.
    #[inline]
    pub(super) fn arm_timer(&mut self, after: VirtualDuration, body: KMsg) {
        let fire_at = self.clock + after;
        let env = AmEnvelope::Timer(Box::new(body));
        self.outbox.push(Outbound::Timer { fire_at, env });
    }

    /// Take everything sent or armed since the last drain, oldest first.
    /// A machine calls this after every kernel entry point it drives —
    /// [`Kernel::deliver`], [`Kernel::handle_packet`], [`Kernel::step`],
    /// [`Kernel::send_steal_poll`], [`Kernel::start_gc`],
    /// [`super::with_system_ctx`] — also when that call stopped the kernel: the
    /// Halt that [`super::Ctx::stop`] sends is in here.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Outbound> {
        self.outbox.drain(..)
    }

    /// Send a kernel message to `dst`, choosing the small or bulk path by
    /// wire size (§6.5). Local destinations loop back without touching
    /// the network; anything else is boxed here, once, and travels as
    /// that pointer until the receiving node manager unboxes it.
    pub(super) fn net_send(&mut self, dst: NodeId, kmsg: KMsg) {
        if dst == self.cfg.me {
            self.loopback.push_back(kmsg);
            return;
        }
        let kmsg = Box::new(kmsg);
        self.charge(self.cfg.cost.net_send_overhead);
        let wire = kmsg.wire_bytes();
        self.count(Counter::NetSends);
        if wire <= MAX_SMALL_BYTES {
            self.inject_env(dst, AmEnvelope::Small(kmsg), wire + 16);
        } else if self.cfg.flow_control {
            // Three-phase protocol: announce, park the payload, wait for
            // the grant.
            let (_tag, req) = self.bulk_tx.begin(dst, kmsg, wire);
            self.count(Counter::NetBulkRequests);
            self.inject_env(dst, req, 16);
        } else {
            // Ablation: eager injection of bulk data (no grant). The
            // receiver will not run flow control either (same config
            // machine-wide).
            let env = AmEnvelope::BulkData {
                tag: 0,
                body: kmsg,
                bytes: wire,
            };
            self.count(Counter::NetBulkEager);
            self.inject_env(dst, env, wire + 16);
        }
    }

    /// True when the fault plan can corrupt link traffic — the gate for
    /// both reliable wrapping and the FIR watchdog.
    #[inline]
    pub(super) fn chaos_on(&self) -> bool {
        self.cfg.faults.link_faults()
    }

    /// True when outbound envelopes must travel under the reliable
    /// (seq + ack + retransmit) protocol: a chaos plan that can corrupt
    /// the link, with `reliable` left on.
    #[inline]
    fn rel_on(&self) -> bool {
        self.chaos_on() && self.cfg.faults.reliable
    }

    /// Record a typed failure and stop the machine. Only the first
    /// failure is kept; later ones are consequences of a dead machine.
    pub(crate) fn fail(&mut self, e: MachineError) {
        if self.failed.is_none() {
            self.failed = Some(e);
        }
        self.stopped = true;
    }

    /// Every kernel envelope leaves through here. Validates the
    /// destination, and — when the fault plan is live and `reliable` is
    /// on — wraps the envelope in [`AmEnvelope::Rel`], parks a
    /// retransmittable copy, and arms the per-peer retransmit timer.
    fn inject_env(&mut self, dst: NodeId, env: AmEnvelope<Box<KMsg>>, wire: usize) {
        if (dst as usize) >= self.cfg.nodes {
            self.fail(MachineError::InvalidNode {
                node: dst,
                nodes: self.cfg.nodes,
            });
            return;
        }
        if !self.rel_on() {
            self.emit(dst, env, wire);
            return;
        }
        // Note which message span (if any) rides this reliable packet,
        // so a later retransmit shows up as a retry on that span.
        let span = match &env {
            AmEnvelope::Small(k) | AmEnvelope::BulkData { body: k, .. }
                if self.recorder.is_some() =>
            {
                match &**k {
                    KMsg::Deliver { msg, .. } => msg.trace.map_or(0, |t| t.id),
                    _ => 0,
                }
            }
            _ => 0,
        };
        self.rel_tx.at(self.clock);
        let ticket = self.rel_tx.register(dst, env, wire);
        if span != 0 {
            if let Some(r) = self.recorder.as_deref_mut() {
                // Head sampling: retransmits of unsampled messages stay
                // anonymous (span 0) rather than orphaning a span id the
                // ring never opened.
                if r.span_sampled(span) {
                    r.rel_span.insert((dst, ticket.seq), span);
                }
            }
        }
        let rel = AmEnvelope::Rel {
            seq: ticket.seq,
            body: ticket.payload,
            bytes: wire,
        };
        self.emit(dst, rel, wire + REL_HEADER);
        if let Some(after) = ticket.arm_timer {
            self.arm_timer(after, KMsg::RetxTimer { peer: dst });
        }
    }

    /// Put an unacked reliable packet on the wire again (timeout or
    /// fast retransmit).
    fn resend(&mut self, peer: NodeId, copy: Resend<Box<KMsg>>) {
        let Resend { seq, payload, bytes } = copy;
        self.charge(self.cfg.cost.net_send_overhead);
        self.cell.link_retransmit(peer);
        let span = self
            .recorder
            .as_deref()
            .and_then(|r| r.rel_span.get(&(peer, seq)).copied())
            .unwrap_or(0);
        self.trace_event_span(KernelEvent::Retransmit { peer, seq }, span, 0);
        let rel = AmEnvelope::Rel { seq, body: payload, bytes };
        self.emit(peer, rel, bytes + REL_HEADER);
    }

    // ------------------------------------------------------------------
    // Inbound path
    // ------------------------------------------------------------------

    /// Handle one arriving packet. The machine sets `self.clock` to at
    /// least the arrival time before calling. Node-manager work executes
    /// immediately on the current stack (the paper's "steals the
    /// processor").
    pub fn handle_packet(&mut self, pkt: Packet<Box<KMsg>>) {
        debug_assert_eq!(pkt.dst, self.cfg.me);
        match pkt.body {
            // Timers are local clock events, not network traffic: no
            // receive overhead, no recv counter. Unboxed here, once.
            AmEnvelope::Timer(body) => {
                self.handle_timer(*body);
                self.drain_loopback();
                return;
            }
            body => {
                self.charge(self.cfg.cost.net_recv_overhead);
                self.count(Counter::NetRecvs);
                match body {
                    AmEnvelope::Rel { seq, body, bytes } => {
                        let cum_before = self.rel_rx.cum(pkt.src);
                        match self.rel_rx.on_data(pkt.src, seq, body, bytes) {
                            RxOutcome::Duplicate => {
                                self.count(Counter::RelDupDropped);
                                self.trace_event(KernelEvent::Drop { src: pkt.src, seq });
                            }
                            RxOutcome::Deliver(envs) => {
                                if self.recorder.is_some() {
                                    // The holdback released the in-order
                                    // prefix (cum_before, cum_after]: one
                                    // exactly-once point per sequence
                                    // number on this link.
                                    let cum_after = self.rel_rx.cum(pkt.src);
                                    for s in (cum_before + 1)..=cum_after {
                                        self.trace_event(KernelEvent::RelDelivered {
                                            src: pkt.src,
                                            seq: s,
                                        });
                                    }
                                }
                                for env in envs {
                                    self.count(Counter::RelDelivered);
                                    self.handle_envelope(pkt.src, env);
                                }
                            }
                        }
                        // Ack every Rel arrival (duplicates included —
                        // the ack that retired the original may itself
                        // have been lost). Cumulative, so idempotent.
                        let cum = self.rel_rx.cum(pkt.src);
                        self.charge(self.cfg.cost.net_send_overhead);
                        self.cell.link_ack(pkt.src);
                        self.emit(pkt.src, AmEnvelope::RelAck { cum }, 16 + REL_HEADER);
                    }
                    AmEnvelope::RelAck { cum } => {
                        self.rel_tx.at(self.clock);
                        if let Some(copy) = self.rel_tx.on_ack(pkt.src, cum) {
                            self.resend(pkt.src, copy);
                        }
                    }
                    env => self.handle_envelope(pkt.src, env),
                }
            }
        }
        self.drain_loopback();
    }

    /// Dispatch one unwrapped envelope (either straight off the wire on
    /// the fault-free fast path, or released in order by the reliable
    /// receiver). A kernel message is unboxed here, its one unboxing.
    fn handle_envelope(&mut self, src: NodeId, env: AmEnvelope<Box<KMsg>>) {
        match env {
            AmEnvelope::Small(k) => self.handle_kmsg(src, *k),
            AmEnvelope::BulkRequest { tag, bytes: _ } => {
                if let Some(grant) = self.flow.on_request(src, tag) {
                    self.net_send_ctl(grant.to, AmEnvelope::BulkAck { tag: grant.tag });
                }
            }
            AmEnvelope::BulkAck { tag } => {
                let (dst, data, bytes) = self.bulk_tx.on_ack(tag);
                self.charge(self.cfg.cost.net_send_overhead);
                self.inject_env(dst, data, bytes + 16);
            }
            AmEnvelope::BulkData { tag, body, bytes } => {
                if self.cfg.flow_control {
                    // Granted transfer: the receiver pre-posted a buffer
                    // when it issued the ack, so reception is a single
                    // copy out of the network interface.
                    self.charge(VirtualDuration::from_nanos(bytes as u64 * 10));
                    self.handle_kmsg(src, *body);
                    if let Some(next) = self.flow.on_data_complete(src, tag) {
                        self.net_send_ctl(next.to, AmEnvelope::BulkAck { tag: next.tag });
                    }
                } else {
                    // Ablation (§6.5): unexpected bulk data. Active
                    // messages are unbuffered, so data arriving without a
                    // grant must be bounce-buffered — allocation plus an
                    // extra copy while the NI drains into memory. This is
                    // the receiver-side cost the three-phase protocol
                    // exists to avoid.
                    self.count(Counter::NetBulkUnexpected);
                    self.charge(VirtualDuration::from_nanos(5_000 + bytes as u64 * 30));
                    self.handle_kmsg(src, *body);
                }
            }
            AmEnvelope::Rel { .. } | AmEnvelope::RelAck { .. } | AmEnvelope::Timer(_) => {
                unreachable!("reliability framing cannot nest")
            }
        }
    }

    /// Send a protocol control envelope (acks) — small, fixed size.
    fn net_send_ctl(&mut self, dst: NodeId, env: AmEnvelope<Box<KMsg>>) {
        self.charge(self.cfg.cost.net_send_overhead);
        self.inject_env(dst, env, 16);
    }

    // ------------------------------------------------------------------
    // Chaos timers (retransmit timeouts, FIR watchdog)
    // ------------------------------------------------------------------

    /// Would delivering this timer do nothing? Checked by [`Kernel::deliver`]
    /// *before* clock mutation so stale timers (work already acked, FIR
    /// already answered) cost zero virtual time.
    fn timer_stale(&self, body: &KMsg) -> bool {
        match body {
            KMsg::RetxTimer { peer } => !self.rel_tx.has_unacked(*peer),
            KMsg::FirTimer { key } => !self.firs.is_pending(*key),
            _ => false,
        }
    }

    /// Retire a stale timer: disarm the peer's retransmit state so the
    /// next `register` arms a fresh timer; an answered FIR's watchdog
    /// just goes.
    fn expire_timer(&mut self, body: &KMsg) {
        match body {
            KMsg::RetxTimer { peer } => {
                self.count(Counter::RelTimersExpired);
                self.rel_tx.expire(*peer);
            }
            KMsg::FirTimer { .. } => self.count(Counter::FirTimersExpired),
            _ => {}
        }
    }

    /// A timer that is not stale fired.
    fn handle_timer(&mut self, body: KMsg) {
        match body {
            KMsg::RetxTimer { peer } => {
                self.rel_tx.at(self.clock);
                match self.rel_tx.timer_fired(peer) {
                    RetxDecision::Stale => {}
                    RetxDecision::Rearm { copies, after } => {
                        for copy in copies {
                            self.resend(peer, copy);
                        }
                        self.arm_timer(after, KMsg::RetxTimer { peer });
                    }
                }
            }
            KMsg::FirTimer { key } => {
                if !self.firs.is_pending(key) {
                    return; // reply arrived first; let the watchdog die
                }
                let retries = self.firs.note_reissue(key);
                self.count(Counter::FirReissued);
                let span = self.chase_span(key);
                self.trace_event_span(KernelEvent::FirTimeout { key, retries }, span, 0);
                if self.reissue_fir(key, span) {
                    self.arm_timer(self.cfg.faults.fir_timeout, KMsg::FirTimer { key });
                }
            }
            other => unreachable!("not a timer: {other:?}"),
        }
    }

    /// Process self-addressed kernel messages until none remain.
    pub(super) fn drain_loopback(&mut self) {
        while let Some(k) = self.loopback.pop_front() {
            let me = self.cfg.me;
            self.handle_kmsg(me, k);
        }
    }

    /// Node-manager message handling (§3): deliveries, creations, FIRs,
    /// replies, migrations, steals, group traffic.
    fn handle_kmsg(&mut self, src: NodeId, k: KMsg) {
        match k {
            KMsg::Deliver { target, msg } => self.handle_deliver(src, target, msg),
            KMsg::NameInfo { key, node, index, epoch } => {
                if let Some(r) = self.recorder.as_deref_mut() {
                    // If this NameInfo answers a §5 alias creation, the
                    // mint-to-resolution window just closed.
                    if let Some(born) = r.alias_born.remove(&key) {
                        let latency_ns =
                            self.clock.as_nanos().saturating_sub(born.as_nanos());
                        let span = r.alias_span.remove(&key).unwrap_or(0);
                        let event = KernelEvent::AliasResolved { key, latency_ns };
                        self.trace_event_span(event, span, 0);
                    }
                }
                self.repair_descriptor(key, node, index, epoch)
            }
            KMsg::Create {
                alias,
                behavior,
                init,
                requester,
                span,
            } => self.handle_create(alias, behavior, init, requester, span),
            KMsg::Fir { key, span } => self.handle_fir(src, key, span),
            KMsg::FirFound { key, node, index, epoch } => {
                self.handle_fir_found(key, node, index, epoch)
            }
            KMsg::Reply { jc, slot, value, span } => self.fill_join(jc, slot, value, span),
            KMsg::MigrateArrive { image, from, stolen } => {
                self.handle_migrate_arrive(image, from, stolen)
            }
            KMsg::StealRequest { thief } => self.handle_steal_request(thief),
            KMsg::StealNone => {
                let now = self.clock;
                self.balancer.poll_failed(now, self.cfg.cost.steal_poll_interval);
            }
            KMsg::GrpCreate {
                group,
                behavior,
                init,
                root,
            } => self.handle_grp_create(group, behavior, init, root),
            KMsg::GrpBcast { group, msg, root } => self.handle_grp_bcast(group, msg, root),
            KMsg::GcBegin { coordinator, root } => self.handle_gc_begin(coordinator, root),
            KMsg::GcRoundGo { root } => self.handle_gc_round(root),
            KMsg::GcMark { keys } => self.gc.receive(keys),
            KMsg::GcRoundDone {
                activity,
                marks_sent,
                marks_received,
            } => self.handle_gc_round_done(activity, marks_sent, marks_received),
            KMsg::GcSweepCmd { root } => self.handle_gc_sweep(root),
            KMsg::GcSwept { freed, live } => self.handle_gc_swept(freed, live),
            KMsg::Halt => self.stopped = true,
            KMsg::RetxTimer { .. } | KMsg::FirTimer { .. } => {
                unreachable!("timers are dispatched at the packet layer")
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-plan pauses & the canonical delivery entry point
    // ------------------------------------------------------------------

    /// Shift a would-be execution time out of this node's pause windows
    /// (fault plan `node_pauses`). Applied at execution entry only —
    /// never in scheduling keys.
    pub fn pause_shift(&self, mut t: VirtualTime) -> VirtualTime {
        for &(from, until) in &self.pauses {
            if t >= from && t < until {
                t = until;
            }
        }
        t
    }

    /// Deliver one queued packet with the paper's interrupt semantics
    /// (§3): the handler logically runs at arrival time, and whatever
    /// method it interrupted slips by the handler's CPU time. Returns
    /// the `(start, end)` handler span for the timeline, or `None` for a
    /// stale chaos timer (retired for free, without touching the clock).
    pub fn deliver(
        &mut self,
        t: VirtualTime,
        pkt: Packet<Box<KMsg>>,
    ) -> Option<(VirtualTime, VirtualTime)> {
        if let AmEnvelope::Timer(body) = &pkt.body {
            if self.timer_stale(body) {
                self.expire_timer(body);
                return None;
            }
        }
        let t = self.pause_shift(t);
        let busy_until = self.clock;
        self.clock = t;
        self.handle_packet(pkt);
        let handler_time = self.clock.since(t);
        self.clock = self.clock.max(busy_until + handler_time);
        self.metrics_tick();
        Some((t, t + handler_time))
    }
}
