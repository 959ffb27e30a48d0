//! Migration and receiver-initiated load balancing (§4.3, §7.2): shipping
//! an actor out, installing one that arrives, steal polls and grants.

use super::Kernel;
use crate::actor::ActorRecord;
use crate::addr::{ActorId, DescriptorId, MailAddr};
use crate::descriptor::Locality;
use crate::metrics::Counter;
use crate::trace::KernelEvent;
use crate::wire::{ActorImage, KMsg};
use hal_am::NodeId;

impl Kernel {
    // ------------------------------------------------------------------
    // Migration + load balancing
    // ------------------------------------------------------------------

    /// Ship actor `aid` to `dst`. The actor must be checked in and not
    /// scheduled (callers arrange this). `stolen` marks steal-reply
    /// migrations so the thief can clear its poll state.
    pub(super) fn migrate_out(&mut self, aid: ActorId, dst: NodeId, stolen: bool) {
        self.charge(self.cfg.cost.migrate_fixed);
        let mut rec = self.actors.remove(aid);
        // Every local descriptor for the actor becomes a forward pointer
        // — the migration history of §4.3 — stamped with the epoch the
        // actor will have after this hop.
        let next_epoch = rec.hops + 1;
        for key in rec.all_keys() {
            if let Some(d) = self.names.descriptor_for(key) {
                let desc = self.names.descriptor_mut(d);
                desc.locality = Locality::Remote {
                    node: dst,
                    remote_index: None,
                };
                desc.epoch = next_epoch;
            }
        }
        self.count(Counter::MigrationsOut);
        self.metrics_pending(-(rec.pendq.len() as i64));
        let keys = rec.all_keys().collect();
        let image = ActorImage {
            mailq: self.actors.mail.drain(&mut rec.mailq),
            pendq: self.actors.mail.drain(&mut rec.pendq),
            behavior: rec.behavior,
            keys,
            group: rec.group,
            hops: next_epoch,
        };
        self.net_send(
            dst,
            KMsg::MigrateArrive {
                image,
                from: self.me,
                stolen,
            },
        );
    }

    /// An actor arrives (migration or steal).
    pub(super) fn handle_migrate_arrive(
        &mut self,
        image: ActorImage,
        from: NodeId,
        stolen: bool,
    ) {
        self.charge(self.cfg.cost.migrate_fixed);
        self.count(Counter::MigrationsIn);
        if stolen {
            self.balancer.poll_succeeded();
        }
        let primary = image.keys[0];
        let epoch = image.hops;
        if self.recorder.is_some() {
            self.trace_event(KernelEvent::ActorMigrated { key: primary, from, epoch });
        }
        self.metrics_pending(image.pendq.len() as i64);
        let keys = image.keys;
        let mailq = self.actors.mail.fifo_from(image.mailq);
        let pendq = self.actors.mail.fifo_from(image.pendq);
        let aid = self.actors.insert(ActorRecord {
            behavior: image.behavior,
            addr: MailAddr::ordinary(primary.birthplace, primary.index),
            mailq,
            pendq,
            scheduled: false,
            aliases: keys[1..].to_vec(),
            group: image.group,
            hops: epoch,
        });
        // Keys born here resolve through the arena fast path: their
        // original descriptor must become Local *in place* (allocating a
        // fresh one would leave an orphan that other nodes could cache
        // and later resolve to a recycled actor slot). Foreign keys bind
        // to one shared fresh descriptor.
        let mut shared: Option<DescriptorId> = None;
        for key in &keys {
            if key.birthplace == self.me && self.names.descriptor_live(key.index) {
                let desc = self.names.descriptor_mut(key.index);
                desc.locality = Locality::Local(aid);
                desc.epoch = epoch;
            } else {
                let d = *shared.get_or_insert_with(|| self.names.alloc_local(aid, epoch));
                self.names.bind(*key, d);
            }
        }
        for key in &keys {
            self.flush_unknown(*key, aid);
            let idx = self
                .names
                .descriptor_for(*key)
                .expect("key just registered");
            self.complete_local_fir(*key, idx, epoch);
        }
        // Cache the new location at the birthplace and the old node
        // (§4.3 "cached in its birthplace node as well as in the old
        // node") — once each, and not here.
        let me = self.me;
        let index = self
            .names
            .descriptor_for(primary)
            .expect("primary key just registered");
        let told = [primary.birthplace, from];
        for (i, &node) in told.iter().enumerate() {
            if node != me && !told[..i].contains(&node) {
                self.net_send(node, KMsg::NameInfo { key: primary, node: me, index, epoch });
            }
        }
        // Schedule if it carried work.
        let rec = self.actors.get_mut(aid).expect("just inserted");
        if !rec.mailq.is_empty() || !rec.pendq.is_empty() {
            rec.scheduled = true;
            self.dispatcher.push(aid);
        }
    }

    /// Idle-node action: send a steal request to a random victim (§7.2).
    /// The machine calls this when the node is idle and `may_poll`.
    pub fn send_steal_poll(&mut self) {
        debug_assert!(self.balancer.may_poll(self.clock));
        let victim = self.balancer.start_poll(self.me, self.cfg.nodes);
        self.count(Counter::StealPolls);
        self.trace_event(KernelEvent::StealRequest { victim });
        self.net_send(victim, KMsg::StealRequest { thief: self.me });
    }

    /// Victim side of a steal: donate up to half the ready queue
    /// (Kumar/Grama/Rao work splitting) or decline. Work is taken from
    /// the tail — the coldest, largest-subtree end. Group members are
    /// stealable too: their home-node entry keeps a mail address, and
    /// descriptors forward.
    pub(super) fn handle_steal_request(&mut self, thief: NodeId) {
        self.charge(self.cfg.cost.steal_handle);
        let batch = self.dispatcher.steal_half(16);
        if batch.is_empty() {
            self.count(Counter::StealDenied);
            self.net_send(thief, KMsg::StealNone);
            return;
        }
        for aid in batch {
            if let Some(rec) = self.actors.get_mut(aid) {
                rec.scheduled = false;
                self.count(Counter::StealGranted);
                self.trace_event(KernelEvent::StealGrant { thief });
                self.migrate_out(aid, thief, true);
            }
        }
    }
}
