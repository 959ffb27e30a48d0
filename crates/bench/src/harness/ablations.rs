//! Ablation study: what each of the paper's design choices buys.
//!
//! Every row runs the same workload twice — with the paper's mechanism
//! and with the alternative the paper argues against:
//!
//! * **aliases (§5)** — alias-based latency hiding vs blocking remote
//!   creation, on a chain-of-remote-creations workload;
//! * **name caching (§4.1)** — descriptor-index caching vs per-message
//!   receiver-side name-table lookups, on a remote send storm;
//! * **collective broadcast scheduling (§6.4)** — one dispatch per local
//!   member quantum vs one per member, on a broadcast-heavy group;
//! * **FIR chases (§4.3)** — small locate-then-send vs forwarding whole
//!   (bulk) messages along migration chains;
//! * **flow control (§6.5)** — three-phase granted bulk vs eager
//!   injection, on pipelined Cholesky (also in Table 1).

use hal::prelude::*;
use hal_kernel::{SimMachine, SpanReport};
use hal::OptFlags;
use crate::out::Session;

struct Sink;
impl Behavior for Sink {
    fn dispatch(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
}
fn make_sink(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Sink)
}

/// Creates `left` children round-robin across nodes, each of which does
/// the same — a creation-dominated irregular expansion.
struct Spawner {
    behavior: BehaviorId,
}
impl Behavior for Spawner {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let left = msg.args[0].as_int();
        if left <= 0 {
            return;
        }
        let next = ((ctx.node() as usize + 1) % ctx.nodes()) as u16;
        let c = ctx.create_on(next, self.behavior, vec![Value::Int(self.behavior.0 as i64)]);
        ctx.send(c, 0, vec![Value::Int(left - 1)]);
        // Overlap: useful local work the alias lets us start immediately.
        ctx.charge(hal_des::VirtualDuration::from_micros(10));
    }
}
fn make_spawner(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(Spawner {
        behavior: BehaviorId(args[0].as_int() as u32),
    })
}

fn sim(s: &mut Session, opt: OptFlags, f: impl FnOnce(&mut Ctx<'_>, &Ids)) -> hal::SimReport {
    let cfg = s.machine(8).opt(opt).seed(2);
    sim_cfg(s, cfg, f)
}

fn sim_cfg(
    s: &mut Session,
    cfg: MachineConfigBuilder,
    f: impl FnOnce(&mut Ctx<'_>, &Ids),
) -> hal::SimReport {
    let mut program = Program::new();
    let ids = Ids {
        sink: program.behavior("sink", make_sink),
        spawner: program.behavior("spawner", make_spawner),
        member: program.behavior("member", make_member),
        bulk_spray: program.behavior("bulk_spray", make_bulk_spray),
    };
    let cfg = cfg.build().unwrap();
    let mut m = SimMachine::new(cfg, program.build());
    m.with_ctx(0, |ctx| f(ctx, &ids));
    let r = m.run().unwrap();
    s.note_run(format!("ablation run {}", s.run_count()), &r);
    r
}

struct Ids {
    sink: BehaviorId,
    spawner: BehaviorId,
    member: BehaviorId,
    bulk_spray: BehaviorId,
}

struct Member;
impl Behavior for Member {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        ctx.charge(hal_des::VirtualDuration::from_nanos(500));
    }
}
fn make_member(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Member)
}

/// A nomad walking while bulk-payload messages chase it. The dwell is
/// shorter than the gossip round trip, so chasers keep hitting
/// unconfirmed forward pointers — the §4.3 scenario where FIR-vs-
/// whole-message forwarding differ.
struct Nomad {
    hops: i64,
}
impl Behavior for Nomad {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.selector {
            0 => {
                if self.hops > 0 {
                    self.hops -= 1;
                    ctx.charge(hal_des::VirtualDuration::from_micros(20));
                    let me = ctx.me();
                    let next = ((ctx.node() as usize + 1) % ctx.nodes()) as u16;
                    ctx.send(me, 0, vec![]);
                    ctx.migrate(next);
                }
            }
            1 => {
                let _payload = msg.args[0].as_bytes();
            }
            _ => unreachable!(),
        }
    }
}

/// Sends `n` messages with `payload` to `target`, in waves of ten per
/// poke (later waves profit from the NameInfo cache the first wave
/// earns).
struct BulkSpray {
    target: MailAddr,
    n: i64,
    payload: i64,
}
impl Behavior for BulkSpray {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
        let blob = hal_am::Bytes::from(vec![0u8; self.payload as usize]);
        let wave = self.n.min(10);
        for i in 0..wave {
            ctx.send(self.target, 1, vec![Value::Bytes(blob.clone()), Value::Int(i)]);
        }
        self.n -= wave;
        if self.n > 0 {
            let me = ctx.me();
            ctx.send(me, 0, vec![]);
        }
    }
}
fn make_bulk_spray(args: &[Value]) -> Box<dyn Behavior> {
    Box::new(BulkSpray {
        target: args[0].as_addr(),
        n: args[1].as_int(),
        payload: args[2].as_int(),
    })
}

/// One table row: `workload` with the paper's mechanisms all on, then
/// with `ablated`; returns both reports.
fn ablate(
    s: &mut Session,
    name: &str,
    ablated: OptFlags,
    workload: impl Fn(&mut Ctx<'_>, &Ids) + Copy,
) -> (hal::SimReport, hal::SimReport) {
    let with = sim(s, OptFlags::default(), workload);
    let without = sim(s, ablated, workload);
    let (a, b) = (with.makespan.as_micros_f64(), without.makespan.as_micros_f64());
    s.row(&[&name, &format!("{a:.1}"), &format!("{b:.1}"), &format!("{:.2}x", b / a)]);
    (with, without)
}

/// Print the ablation table and export the FIR-chase trace.
pub fn run(s: &mut Session) {
    s.banner(
        "Ablations: each design choice vs the alternative the paper rejects",
        "8 simulated nodes; times are virtual.",
    );
    let on = OptFlags::default();
    s.header(&["mechanism (workload)", "paper (us)", "ablated (us)", "ratio"], &[34, 14, 14, 10]);

    // ---- aliases: chain of 64 remote creations with overlapped work.
    let chain = |ctx: &mut Ctx<'_>, ids: &Ids| {
        let root = ctx.create_local(Box::new(Spawner {
            behavior: ids.spawner,
        }));
        ctx.send(root, 0, vec![Value::Int(64)]);
    };
    ablate(s, "aliases (creation chain x64)", OptFlags { aliases: false, ..on }, chain);

    // ---- name caching: 7 nodes each storm one hot actor on node 5 —
    // the receiver's name table is the bottleneck, so per-message hash
    // lookups show directly.
    let storm = |ctx: &mut Ctx<'_>, ids: &Ids| {
        let target = ctx.create_on(5, ids.sink, vec![]);
        for node in 0..ctx.nodes() as u16 {
            if node == 5 {
                continue;
            }
            let s = ctx.create_on(
                node,
                ids.bulk_spray,
                vec![Value::Addr(target), Value::Int(150), Value::Int(0)],
            );
            ctx.send(s, 0, vec![]);
        }
    };
    let ablated = OptFlags { name_caching: false, ..on };
    ablate(s, "name caching (7x150 sends, hot node)", ablated, storm);

    // ---- collective broadcast: 40 broadcasts to a 256-member group.
    let bcasts = |ctx: &mut Ctx<'_>, ids: &Ids| {
        let g = ctx.grpnew(ids.member, 256, vec![]);
        for _ in 0..40 {
            ctx.broadcast(g, 0, vec![]);
        }
    };
    let ablated = OptFlags { collective_bcast: false, ..on };
    ablate(s, "collective sched (40 bcasts x256)", ablated, bcasts);

    // ---- FIR vs whole-message forwarding: 4KB messages from node 4
    // chase a fast-hopping nomad through unconfirmed forward pointers.
    let chase = |ctx: &mut Ctx<'_>, ids: &Ids| {
        let nomad = ctx.create_local(Box::new(Nomad { hops: 32 }));
        ctx.send(nomad, 0, vec![]);
        let s = ctx.create_on(
            4,
            ids.bulk_spray,
            vec![Value::Addr(nomad), Value::Int(20), Value::Int(4096)],
        );
        ctx.send(s, 0, vec![]);
    };
    let ablated = OptFlags { fir_chase: false, ..on };
    let (with, without) = ablate(s, "FIR locate (20x4KB chasing 32 hops)", ablated, chase);
    s.say(format!(
        "  (network bytes: {} with FIR vs {} forwarding whole messages; whole-forwards: {})",
        with.stats.get("net.bytes"),
        without.stats.get("net.bytes"),
        without.stats.get("deliver.forwarded_whole"),
    ));

    s.say(
        "\nratios > 1 mean the paper's mechanism wins; see table1_cholesky\n\
         for the flow-control ablation on the pipelined Cholesky workload.",
    );

    // Flight-recorder view of the FIR chase ablation's paper-side run:
    // chain-length and delivery-path histograms for the same workload.
    let cfg = s.machine(8).opt(on).seed(2).trace();
    let traced = sim_cfg(s, cfg, chase);
    let trace = traced.trace.expect("tracing was enabled");
    let spans = SpanReport::build(&trace);
    let chain = spans.chain_lengths();
    s.say(format!(
        "\nflight recorder (FIR chase run): {} chase episodes, mean chain {:.1} hops,\n\
         longest {} hops; {} deliveries waited out a migration",
        chain.count(),
        chain.mean(),
        chain.max(),
        spans.stage("wire.migrated").count(),
    ));
    let path = s.export_trace(&trace);
    s.say(format!("chrome trace written to {path}"));
}
