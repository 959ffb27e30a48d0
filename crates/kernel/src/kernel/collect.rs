//! Distributed garbage collection (§9 future work): the kernel side of
//! the mark rounds and the sweep in [`crate::gc`].

use super::Kernel;
use crate::addr::{ActorId, MailAddr};
use crate::gc::{CoordState, MarkBatches};
use crate::message::Value;
use crate::metrics::Counter;
use crate::name_server::Resolution;
use crate::trace::KernelEvent;
use crate::wire::KMsg;
use hal_am::{NodeId, bcast};
use hal_des::Set;

impl Kernel {
    // ------------------------------------------------------------------
    // Garbage collection (§9 future work)
    // ------------------------------------------------------------------

    /// Coordinator entry point: start a distributed collection from this
    /// node. The machine calls this at a quiescent point.
    pub fn start_gc(&mut self) {
        assert!(
            self.joins.pending() == 0,
            "GC requires quiescence without pending join continuations"
        );
        self.gc.coord = Some(CoordState {
            awaiting: self.cfg.nodes,
            ..CoordState::default()
        });
        let me = self.me;
        // Deliver to ourselves through the loopback so the coordinator
        // node follows the identical code path as everyone else.
        self.loopback.push_back(KMsg::GcBegin {
            coordinator: me,
            root: me,
        });
        self.drain_loopback();
    }

    /// Where a traced mail address should be marked: locally now, or at
    /// the believed owner. Returns the number of *new* local marks.
    fn gc_trace_addr(&mut self, addr: MailAddr, work: &mut Vec<ActorId>, out: &mut MarkBatches) -> u64 {
        match self.names.resolve(addr.key) {
            Resolution::Local(aid) => {
                if self.gc.mark(aid) {
                    work.push(aid);
                    1
                } else {
                    0
                }
            }
            Resolution::Remote { node, .. } => {
                out.push(node, addr.key);
                0
            }
            Resolution::Unknown => {
                out.push(addr.default_route(), addr.key);
                0
            }
        }
    }

    /// Trace from the current worklist to a local fixpoint; batch remote
    /// references. Returns new local marks.
    fn gc_trace(&mut self, mut work: Vec<ActorId>, out: &mut MarkBatches) -> u64 {
        let mut new_marks = 0;
        while let Some(aid) = work.pop() {
            let refs = match self.actors.get(aid) {
                Some(rec) => rec.behavior.acquaintances(),
                None => continue,
            };
            for addr in refs {
                new_marks += self.gc_trace_addr(addr, &mut work, out);
            }
        }
        new_marks
    }

    /// Local roots: pinned actors, actors with queued work, and group
    /// members (externally reachable by `(group, index)`).
    fn gc_roots(&mut self) -> Vec<ActorId> {
        let mut roots: Vec<ActorId> = Vec::new();
        for aid in self.actors.live_ids() {
            let rec = self.actors.get(aid).expect("live id");
            let is_root = self.gc.pinned.contains(&aid)
                || rec.scheduled
                || !rec.mailq.is_empty()
                || !rec.pendq.is_empty()
                || rec.group.is_some();
            if is_root {
                roots.push(aid);
            }
        }
        roots
    }

    fn gc_flush_batches(&mut self, out: MarkBatches) -> u64 {
        let mut forwarded = 0;
        for (node, keys) in out.drain() {
            forwarded += keys.len() as u64;
            self.net_send(node, KMsg::GcMark { keys });
        }
        self.gc.marks_sent += forwarded;
        forwarded
    }

    pub(super) fn handle_gc_begin(&mut self, coordinator: NodeId, root: NodeId) {
        for child in bcast::children(self.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcBegin { coordinator, root });
        }
        assert!(
            self.joins.pending() == 0,
            "GC requires quiescence without pending join continuations"
        );
        let was_active = self.gc.active;
        let coord = self.gc.coord.take();
        self.gc.begin();
        self.gc.coord = coord;
        debug_assert!(!was_active, "nested collection");
        self.gc_coordinator = coordinator;
        let mut newly = Vec::new();
        for aid in self.gc_roots() {
            if self.gc.mark(aid) {
                newly.push(aid);
            }
        }
        self.gc_mark_round(newly);
    }

    pub(super) fn handle_gc_round(&mut self, root: NodeId) {
        for child in bcast::children(self.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcRoundGo { root });
        }
        self.gc_mark_round(Vec::new());
    }

    /// One mark round on this node: trace from `work` (actors newly
    /// marked) and every key received since the last round to a local
    /// fixpoint, send what is remote, and report to the coordinator.
    fn gc_mark_round(&mut self, mut work: Vec<ActorId>) {
        let mut activity = work.len() as u64;
        let incoming = std::mem::take(&mut self.gc.incoming);
        let mut out = MarkBatches::default();
        for key in incoming {
            match self.names.resolve(key) {
                Resolution::Local(aid) => {
                    if self.gc.mark(aid) {
                        work.push(aid);
                        activity += 1;
                    }
                }
                Resolution::Remote { node, .. } => {
                    out.push(node, key);
                }
                Resolution::Unknown => {
                    // At the birthplace an unknown key means the actor is
                    // already gone; elsewhere, ask the birthplace.
                    if key.birthplace != self.me {
                        out.push(key.birthplace, key);
                    }
                }
            }
        }
        activity += self.gc_trace(work, &mut out);
        activity += self.gc_flush_batches(out);
        let coordinator = self.gc_coordinator;
        let (marks_sent, marks_received) = (self.gc.marks_sent, self.gc.marks_received);
        self.net_send(
            coordinator,
            KMsg::GcRoundDone {
                activity,
                marks_sent,
                marks_received,
            },
        );
    }

    /// Sweep only after a round with no activity anywhere in which every
    /// `GcMark` key ever sent has also been received: a batch still in
    /// flight may carry the only path to a live actor.
    pub(super) fn handle_gc_round_done(
        &mut self,
        activity: u64,
        marks_sent: u64,
        marks_received: u64,
    ) {
        let me = self.me;
        let nodes = self.cfg.nodes;
        let coord = self.gc.coord.as_mut().expect("round report at non-coordinator");
        coord.awaiting -= 1;
        coord.round_activity += activity;
        coord.round_sent += marks_sent;
        coord.round_received += marks_received;
        if coord.awaiting > 0 {
            return;
        }
        let settled = coord.round_activity == 0 && coord.round_sent == coord.round_received;
        coord.awaiting = nodes;
        coord.round_activity = 0;
        coord.round_sent = 0;
        coord.round_received = 0;
        if settled {
            self.loopback.push_back(KMsg::GcSweepCmd { root: me });
        } else {
            coord.rounds += 1;
            self.loopback.push_back(KMsg::GcRoundGo { root: me });
        }
    }

    pub(super) fn handle_gc_sweep(&mut self, root: NodeId) {
        for child in bcast::children(self.me, root, self.cfg.nodes) {
            self.net_send(child, KMsg::GcSweepCmd { root });
        }
        debug_assert!(self.gc.incoming.is_empty(), "a mark batch outlived the rounds");
        let mut freed = 0u64;
        let mut swept_keys = Set::default();
        for aid in self.actors.live_ids() {
            if self.gc.marked.contains(&aid) {
                continue;
            }
            let rec = self.actors.remove(aid);
            // Queued mail makes an actor a root (`gc_roots`): a swept
            // record links no message cells, so dropping it leaks none.
            debug_assert_eq!(rec.queued(), 0, "swept an actor with queued mail");
            for key in rec.all_keys() {
                swept_keys.insert(key);
                if key.birthplace == self.me {
                    if self.names.descriptor_live(key.index) {
                        self.names.free_descriptor(key.index);
                    }
                } else if let Some(d) = self.names.unbind(key) {
                    if self.names.descriptor_live(d) {
                        self.names.free_descriptor(d);
                    }
                }
            }
            freed += 1;
        }
        // A dead key's "already advised" marks must not outlive it: the
        // set would grow with actors ever addressed, and a recycled
        // descriptor index would inherit them.
        if !swept_keys.is_empty() {
            self.advised.retain(|(_, key)| !swept_keys.contains(key));
        }
        self.cell.count(Counter::GcFreed, freed);
        self.gc.active = false;
        let live = self.actors.len() as u64;
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::GcSweep { freed, live });
        }
        let coordinator = self.gc_coordinator;
        self.net_send(coordinator, KMsg::GcSwept { freed, live });
    }

    pub(super) fn handle_gc_swept(&mut self, freed: u64, live: u64) {
        let coord = self.gc.coord.as_mut().expect("sweep report at non-coordinator");
        coord.awaiting -= 1;
        coord.freed += freed;
        self.gc_live_total += live;
        if coord.awaiting == 0 {
            let rounds = coord.rounds;
            let freed = coord.freed;
            let live = self.gc_live_total;
            self.gc_live_total = 0;
            self.reports.push(("gc_freed".into(), Value::Int(freed as i64)));
            self.reports.push(("gc_rounds".into(), Value::Int(rounds as i64)));
            self.reports.push(("gc_live".into(), Value::Int(live as i64)));
        }
    }
}
