//! Where an actor's messages live: its mail and pending queues travel
//! with it across migrations in order, and a node's mail slab grows with
//! the messages it holds at once, not with the actors it ever held.

use hal_am::{AmEnvelope, Packet};
use hal_kernel::kernel::{with_system_ctx, Ctx};
use hal_kernel::{
    AddrKey, Behavior, BehaviorId, BehaviorRegistry, KMsg, Kernel, MachineConfig,
    MailAddr, Msg, NodeId, Outbound, SimMachine, Value,
};
use std::sync::Arc;

const PROBE: u32 = 1; // disabled until the gate opens
const GO: u32 = 2; // migrate to args[0] (a no-op for the twin)
const WORK: u32 = 3;
const OPEN: u32 = 4;

/// Reports the tag (`args[1]`, or `args[0]` for WORK/OPEN) of every
/// message it processes except GO, in processing order.
struct Gate {
    opened: bool,
    migrates: bool,
}

impl Behavior for Gate {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            GO => {
                if self.migrates {
                    ctx.migrate(msg.args[0].as_int() as NodeId);
                }
                return;
            }
            OPEN => self.opened = true,
            _ => {}
        }
        ctx.report("order", msg.args[0].clone());
    }

    fn enabled(&self, selector: u32, _args: &[Value]) -> bool {
        selector != PROBE || self.opened
    }
}

fn make_gate(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Gate {
        opened: false,
        migrates: true,
    })
}

/// Two disabled probes, the migration order, then three queued messages
/// — one of which opens the gate.
fn script(node: NodeId) -> Vec<(u32, Vec<Value>)> {
    vec![
        (PROBE, vec![Value::Int(1)]),
        (PROBE, vec![Value::Int(2)]),
        (GO, vec![Value::Int(i64::from(node))]),
        (WORK, vec![Value::Int(3)]),
        (OPEN, vec![Value::Int(4)]),
        (WORK, vec![Value::Int(5)]),
    ]
}

fn order(reports: &[(String, Value)]) -> Vec<i64> {
    reports
        .iter()
        .filter(|(k, _)| k == "order")
        .map(|(_, v)| v.as_int())
        .collect()
}

/// What one `MigrateArrive` carried.
struct Shipped {
    /// The carried messages' tags, in queue order.
    mailq: Vec<i64>,
    pendq: Vec<i64>,
    keys: Vec<AddrKey>,
    wire_bytes: usize,
    /// The parent commit's formula, recomputed here: a fixed behavior
    /// image, every carried message, 16 bytes per key.
    formula: usize,
    stolen: bool,
}

/// Move packets between hand-driven kernels until no outbox holds one,
/// recording every actor image on the way. Kernels never step here: the
/// test decides who runs.
fn pump(ks: &mut [Kernel], shipped: &mut Vec<Shipped>) {
    loop {
        let mut moved = false;
        for src in 0..ks.len() {
            let out: Vec<Outbound> = ks[src].drain_outbox().collect();
            for o in out {
                let Outbound::Packet { dst, env, .. } = o else {
                    continue;
                };
                let body = match &env {
                    AmEnvelope::Small(k) | AmEnvelope::BulkData { body: k, .. } => Some(&**k),
                    _ => None,
                };
                if let Some(KMsg::MigrateArrive { image, stolen, .. }) = body {
                    let msgs = image.mailq.iter().chain(&image.pendq);
                    shipped.push(Shipped {
                        mailq: image.mailq.iter().map(|m| m.args[0].as_int()).collect(),
                        pendq: image.pendq.iter().map(|m| m.args[0].as_int()).collect(),
                        keys: image.keys.clone(),
                        wire_bytes: image.wire_bytes(),
                        formula: 256
                            + msgs.map(Msg::wire_bytes).sum::<usize>()
                            + 16 * image.keys.len(),
                        stolen: *stolen,
                    });
                }
                ks[dst as usize].handle_packet(Packet {
                    src: src as NodeId,
                    dst,
                    body: env,
                });
                moved = true;
            }
        }
        if !moved {
            return;
        }
    }
}

fn run_to_idle(k: &mut Kernel) {
    while k.step() {}
}

#[test]
fn migration_carries_both_queues_in_order() {
    // The twin: same script, no migration.
    let mut twin = SimMachine::new(MachineConfig::new(1), Arc::new(BehaviorRegistry::new()));
    twin.with_ctx(0, |ctx| {
        let g = ctx.create_local(Box::new(Gate {
            opened: false,
            migrates: false,
        }));
        for (sel, args) in script(0) {
            ctx.send(g, sel, args);
        }
    });
    let expected = order(&twin.run().unwrap().reports);
    assert_eq!(expected, [3, 4, 1, 2, 5], "the twin's own order");

    // Three kernels, no machine. Node 2 asks node 0 to create the gate,
    // so it carries an alias besides its ordinary address.
    let mut reg = BehaviorRegistry::new();
    reg.register(BehaviorId(0), "gate", make_gate);
    let reg = Arc::new(reg);
    let mc = MachineConfig::new(3);
    let mut ks: Vec<Kernel> = (0..3)
        .map(|n| Kernel::new(n, &mc, Arc::clone(&reg)))
        .collect();
    let mut shipped = Vec::new();
    let alias: MailAddr = with_system_ctx(&mut ks[2], |ctx| {
        let g = ctx.create_on(0, BehaviorId(0), vec![]);
        for (sel, args) in script(1) {
            ctx.send(g, sel, args);
        }
        g
    });
    pump(&mut ks, &mut shipped);
    // Node 1 has one ready actor of its own, so a steal poll takes the
    // arrival from the tail of its ready queue.
    let filler = with_system_ctx(&mut ks[1], |ctx| {
        ctx.create_local(Box::new(Gate {
            opened: true,
            migrates: false,
        }))
    });
    with_system_ctx(&mut ks[1], |ctx| {
        ctx.send(filler, WORK, vec![Value::Int(0)])
    });

    // Hop 1, by Ctx::migrate: node 0 parks both probes, obeys GO, and
    // ships the three messages behind it still queued.
    run_to_idle(&mut ks[0]);
    pump(&mut ks, &mut shipped);
    assert_eq!(ks[1].actor_count(), 2);

    // Hop 2, stolen: node 1 has not run the arrival when node 2 polls.
    let poll = KMsg::StealRequest { thief: 2 };
    ks[1].handle_packet(Packet {
        src: 2,
        dst: 1,
        body: AmEnvelope::Small(Box::new(poll)),
    });
    pump(&mut ks, &mut shipped);
    assert_eq!(ks[1].actor_count(), 1, "only the filler stayed");

    assert_eq!(shipped.len(), 2);
    for (hop, s) in shipped.iter().enumerate() {
        assert_eq!(s.stolen, hop == 1);
        assert_eq!(
            s.mailq,
            [3, 4, 5],
            "hop {hop}: the queued three, in order"
        );
        assert_eq!(
            s.pendq,
            [1, 2],
            "hop {hop}: the disabled two, in order"
        );
        assert_eq!(s.keys.len(), 2, "hop {hop}: primary and alias");
        assert_eq!(s.keys[0].birthplace, 0, "hop {hop}: the primary key leads");
        assert_eq!(s.keys[1], alias.key, "hop {hop}");
        assert_eq!(s.wire_bytes, s.formula, "hop {hop}: wire size unchanged");
    }

    // Node 2 runs it: all five, in the twin's order.
    run_to_idle(&mut ks[2]);
    assert_eq!(order(&ks[2].reports), expected);
    assert_eq!(ks[0].mail_cells().0, 0);
    assert_eq!(
        ks[2].mail_cells().0,
        0,
        "every carried message was processed"
    );
}

/// Client side of a closed-loop echo: keeps `window` messages
/// outstanding until `total` round trips have completed.
struct Client {
    echo: MailAddr,
    sent: u32,
    done: u32,
    total: u32,
}

impl Behavior for Client {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let burst = if msg.selector == 0 {
            msg.args[0].as_int() as u32
        } else {
            1
        };
        self.done += u32::from(msg.selector == 1);
        for _ in 0..burst {
            if self.sent < self.total {
                self.sent += 1;
                ctx.send(self.echo, 0, vec![Value::Addr(ctx.me())]);
            }
        }
        if self.done == self.total {
            ctx.report("round_trips", Value::Int(i64::from(self.done)));
        }
    }
}

struct Echo;

impl Behavior for Echo {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        ctx.send(msg.args[0].as_addr(), 1, vec![]);
    }
}

#[test]
fn mail_slab_follows_messages_in_flight_not_messages_sent() {
    const WINDOW: u32 = 64;
    const TOTAL: u32 = 10_000;
    let mut m = SimMachine::new(MachineConfig::new(2), Arc::new(BehaviorRegistry::new()));
    let echo = m.with_ctx(1, |ctx| ctx.create_local(Box::new(Echo)));
    m.with_ctx(0, |ctx| {
        let c = ctx.create_local(Box::new(Client {
            echo,
            sent: 0,
            done: 0,
            total: TOTAL,
        }));
        ctx.send(c, 0, vec![Value::Int(i64::from(WINDOW))]);
    });
    let r = m.run().unwrap();
    assert_eq!(r.value("round_trips"), Some(&Value::Int(i64::from(TOTAL))));
    for n in 0..2 {
        let (held, allocated) = m.kernel(n).mail_cells();
        assert_eq!(held, 0, "node {n}");
        assert!(
            allocated <= WINDOW as usize + 4,
            "node {n} allocated {allocated} cells for {WINDOW} messages in flight"
        );
    }
}
