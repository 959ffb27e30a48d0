//! Actor groups and broadcast (§2.2, §6.4): `grpnew` down the spanning
//! tree, home-node member routing, collective local delivery.

use super::Kernel;
use crate::addr::{BehaviorId, GroupId, Mapping};
use crate::error::MachineError;
use crate::group::{GroupSlot, home_node, members_on};
use crate::message::{Msg, Target, Value};
use crate::metrics::Counter;
use crate::name_server::Resolution;
use crate::wire::KMsg;
use hal_am::{NodeId, bcast};

impl Kernel {
    // ------------------------------------------------------------------
    // Groups (§2.2, §6.4)
    // ------------------------------------------------------------------

    /// `grpnew`: mint the group, create local members, fan out along the
    /// spanning tree. Returns the id immediately.
    pub(super) fn grpnew(
        &mut self,
        behavior: BehaviorId,
        count: u32,
        init: Vec<Value>,
        mapping: Mapping,
    ) -> GroupId {
        let group = self.groups.mint(self.me, count, mapping);
        let me = self.me;
        self.handle_grp_create(group, behavior, init, me);
        group
    }

    pub(super) fn handle_grp_create(
        &mut self,
        group: GroupId,
        behavior: BehaviorId,
        init: Vec<Value>,
        root: NodeId,
    ) {
        // Relay down the tree first so subtree creation overlaps ours.
        for child in bcast::children(self.me, root, self.cfg.nodes) {
            self.net_send(
                child,
                KMsg::GrpCreate {
                    group,
                    behavior,
                    init: init.clone(),
                    root,
                },
            );
        }
        let count = group.count();
        // One `init ++ [Group, Int(index), Int(count)]` vector for all
        // the local members: only the index slot differs between them.
        let index_slot = init.len() + 1;
        let mut args = init;
        args.extend([Value::Group(group), Value::Int(0), Value::Int(count as i64)]);
        let mut members = Vec::new();
        for idx in members_on(self.me, count, self.cfg.nodes, group.mapping()) {
            self.charge(self.cfg.cost.local_creation);
            args[index_slot] = Value::Int(idx as i64);
            let Some(b) = self.registry.try_create(behavior, &args) else {
                self.fail(MachineError::UnknownBehavior {
                    behavior,
                    node: self.me,
                });
                return;
            };
            let (aid, addr) = self.install_actor(b);
            self.actors.get_mut(aid).expect("just installed").group = Some((group, idx));
            members.push((idx, addr));
        }
        self.cell.count(Counter::GroupsMembersCreated, members.len() as u64);
        let (parked_member, parked_bcast) = self.groups.install(group, members);
        for (idx, msg) in parked_member {
            self.deliver_member(group, idx, msg);
        }
        let slot = self.groups.slot(group).expect("just installed");
        for msg in parked_bcast {
            self.deliver_bcast_local(slot, msg);
        }
    }

    /// Route a message to group member `index` (home-node resolution).
    pub(super) fn deliver_member(&mut self, group: GroupId, index: u32, msg: Msg) {
        let home = home_node(index, group.count(), self.cfg.nodes, group.mapping());
        if home == self.me {
            if let Some(addr) = self.groups.member(group, index) {
                self.send_to_addr(addr, msg);
            } else if self.groups.known(group) {
                panic!("group {group:?} installed without member {index}");
            } else {
                self.groups.park_member(group, index, msg);
            }
        } else {
            self.net_send(
                home,
                KMsg::Deliver {
                    target: Target::Member { group, index },
                    msg,
                },
            );
        }
    }

    /// Broadcast to a group from this node.
    pub(super) fn broadcast(&mut self, group: GroupId, msg: Msg) {
        let me = self.me;
        self.count(Counter::BcastInitiated);
        self.handle_grp_bcast(group, msg, me);
    }

    pub(super) fn handle_grp_bcast(&mut self, group: GroupId, msg: Msg, root: NodeId) {
        for child in bcast::children(self.me, root, self.cfg.nodes) {
            self.net_send(
                child,
                KMsg::GrpBcast {
                    group,
                    msg: msg.clone(),
                    root,
                },
            );
        }
        match self.groups.slot(group) {
            Some(slot) => self.deliver_bcast_local(slot, msg),
            None => self.groups.park_bcast(group, msg),
        }
    }

    /// Collective scheduling (§6.4): deliver a broadcast to every local
    /// member consecutively — one dispatch charge for the whole quantum
    /// rather than one per message. The members are walked by position
    /// in the table's index-sorted list: nothing is hashed, sorted or
    /// allocated per broadcast.
    fn deliver_bcast_local(&mut self, slot: GroupSlot, msg: Msg) {
        let members = self.groups.local_members(slot).len();
        if members == 0 {
            return;
        }
        if self.cfg.opt.collective_bcast {
            // One dispatch for the whole local quantum (§6.4).
            self.charge(self.cfg.cost.dispatch);
        }
        self.cell.count(Counter::BcastLocalDeliveries, members as u64);
        let last = members - 1;
        let mut msg = Some(msg);
        for i in 0..members {
            let (_idx, addr) = self.groups.local_members(slot)[i];
            if !self.cfg.opt.collective_bcast {
                // Ablation: every member delivery is its own scheduling
                // event.
                self.charge(self.cfg.cost.dispatch);
                self.charge(self.cfg.cost.local_send);
            }
            // Members homed here are usually still local; if one migrated
            // the normal descriptor path forwards it.
            self.charge(self.cfg.cost.constraint_check);
            // The last member takes the message itself; only the first
            // `len - 1` deliveries pay for a clone.
            let mut m = if i == last {
                msg.take().expect("taken once")
            } else {
                msg.as_ref().expect("not yet taken").clone()
            };
            match self.names.resolve(addr.key) {
                Resolution::Local(aid) => {
                    // Collective deliveries bypass send_to_addr, so each
                    // member's copy is stamped here — a broadcast is N
                    // logical sends, one fresh id per member, keeping the
                    // checker's exactly-once pass meaningful.
                    if self.recorder.is_some() && m.trace.is_none() {
                        self.trace_stamp_send(&mut m, addr.key, false);
                        if let Some(tag) = m.trace {
                            self.trace_delivered(tag);
                        }
                    }
                    if self.actors.enqueue(aid, m) {
                        self.dispatcher.push(aid);
                    }
                }
                _ => self.send_to_addr(addr, m),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Behavior;
    use crate::kernel::{AmEnvelope, Outbound};
    use crate::registry::BehaviorRegistry;
    use crate::{Ctx, MachineConfig};
    use hal_am::Packet;
    use hal_des::VirtualTime;
    use std::sync::Arc;

    /// A group member that reports its index for every message it gets.
    struct Member(i64);
    impl Behavior for Member {
        fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            ctx.report("got", Value::Int(self.0));
        }
    }

    /// Node 1 of 3 with the `Member` behavior loaded and no network.
    fn kernel() -> Kernel {
        let mut reg = BehaviorRegistry::new();
        // Creation arguments: [group, index, count].
        reg.register(BehaviorId(0), "member", |args| Box::new(Member(args[1].as_int())));
        Kernel::new(1, &MachineConfig::new(3), Arc::new(reg))
    }

    fn arrive(k: &mut Kernel, body: KMsg) {
        let body = AmEnvelope::Small(Box::new(body));
        k.deliver(VirtualTime::ZERO, Packet { src: 0, dst: 1, body });
    }

    /// Run every ready actor; the member indices in the order they ran.
    fn ran(k: &mut Kernel) -> Vec<u32> {
        while k.step() {}
        k.reports.drain(..).map(|(_, v)| v.as_int() as u32).collect()
    }

    /// Node 1's share of a 10-member group, ascending.
    fn share(mapping: Mapping) -> Vec<u32> {
        match mapping {
            Mapping::Block => vec![4, 5, 6],
            Mapping::Cyclic => vec![1, 4, 7],
        }
    }

    /// A broadcast that overtook its group's `GrpCreate` is parked and
    /// replayed at install — to the local members in ascending index.
    #[test]
    fn parked_broadcast_reaches_members_in_index_order() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let mut k = kernel();
            let group = GroupId::new(0, 0, 10, mapping);
            arrive(&mut k, KMsg::GrpBcast { group, msg: Msg::new(0, vec![]), root: 0 });
            assert!(ran(&mut k).is_empty(), "{mapping:?}: parked, nobody to run");
            arrive(&mut k, KMsg::GrpCreate { group, behavior: BehaviorId(0), init: vec![], root: 0 });
            assert_eq!(k.cell().get(Counter::BcastLocalDeliveries), 3, "{mapping:?}");
            assert_eq!(ran(&mut k), share(mapping), "{mapping:?}");
        }
    }

    /// A member that migrated away is reached through its forwarding
    /// descriptor (`send_to_addr`), in its turn; the members still here
    /// are enqueued directly, ascending.
    #[test]
    fn broadcast_forwards_a_migrated_member_and_enqueues_the_rest() {
        for mapping in [Mapping::Block, Mapping::Cyclic] {
            let mut k = kernel();
            let group = GroupId::new(0, 0, 10, mapping);
            arrive(&mut k, KMsg::GrpCreate { group, behavior: BehaviorId(0), init: vec![], root: 0 });
            let here = share(mapping);
            let gone = k.groups.member(group, here[1]).expect("homed here");
            let Resolution::Local(aid) = k.names.resolve(gone.key) else {
                panic!("{mapping:?}: member {} was created here", here[1]);
            };
            k.migrate_out(aid, 2, false);
            k.drain_outbox().for_each(drop);

            arrive(&mut k, KMsg::GrpBcast { group, msg: Msg::new(0, vec![]), root: 0 });
            let forwarded: Vec<_> = k
                .drain_outbox()
                .filter_map(|out| match out {
                    Outbound::Packet { dst, env: AmEnvelope::Small(k), .. } => match *k {
                        KMsg::Deliver { target: Target::Addr { key, .. }, .. } => Some((dst, key)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            assert_eq!(forwarded, vec![(2, gone.key)], "{mapping:?}");
            assert_eq!(k.cell().get(Counter::BcastLocalDeliveries), 3, "{mapping:?}");
            assert_eq!(ran(&mut k), vec![here[0], here[2]], "{mapping:?}");
        }
    }
}
