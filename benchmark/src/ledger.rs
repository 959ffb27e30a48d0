//! The layer ledger: host cost of one call into each layer's public
//! API, timed from outside the crates with the calibrate-then-median-
//! of-7 method of `crates/bench/src/harness.rs`. Every row is filed
//! with its min/median/max band. Rows are *not* end-to-end metrics;
//! they say where an end-to-end change should show up.

use crate::chase;
use crate::live::{stop_and_drain, Echo, LocalClosed, Quiet};
use crate::spans::{now_ns, Recorder};
use crate::stats::{self, Band};
use crate::workload::{rep, Batch};
use hal::messages;
use hal::prelude::*;
use hal_am::{
    bcast, thread_network, AmEnvelope, LinkModel, LinkState, RelReceiver, RelSender, RxOutcome,
    SimNetwork,
};
use hal_des::{EventQueue, VirtualTime};
use hal_kernel::name_server::NameServer;
use hal_kernel::{ActorId, AddrKey, DescriptorId};
use hal_workloads::fib::{self, FibConfig, Placement};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One ledger row.
pub struct Row {
    /// `layer.what_unit`.
    pub name: &'static str,
    /// Min/median/max over the row's samples, in the unit its name ends
    /// with.
    pub band: Band,
}

/// Samples per row; the median is the row's value.
const SAMPLES: usize = 7;
/// Host time one sample should take.
const SAMPLE_TARGET: Duration = Duration::from_millis(8);

/// Nanoseconds per call of `f`: calibrate an iteration count by
/// doubling until one batch fills the sample target, then take
/// [`SAMPLES`] batches.
fn per_call_ns(mut f: impl FnMut()) -> Band {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= SAMPLE_TARGET || iters >= 1 << 28 {
            break;
        }
        iters *= 2;
    }
    let samples = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::band(samples)
}

/// Band of [`SAMPLES`] values produced directly by `sample`.
fn sampled(mut sample: impl FnMut() -> f64) -> Band {
    stats::band((0..SAMPLES).map(|_| sample()).collect())
}

fn scale(b: Band, k: f64) -> Band {
    Band {
        min: b.min * k,
        median: b.median * k,
        max: b.max * k,
    }
}

fn sim(nodes: usize) -> Machine {
    Machine::from_config(MachineConfig::new(nodes), Program::new().build())
}

fn make_quiet(_: &[Value]) -> Box<dyn Behavior> {
    Box::new(Quiet)
}

// --- des -------------------------------------------------------------------

/// Steady churn at a fixed depth: pop the earliest event, push one a
/// pseudo-random distance ahead.
fn queue_churn(depth: u64) -> Band {
    let mut q = EventQueue::<u64>::with_capacity(depth as usize + 1);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..depth {
        q.push(VirtualTime::from_nanos(i * 37 % 4_096), i);
    }
    per_call_ns(|| {
        let (t, v) = q.pop().expect("queue stays at depth");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        q.push(VirtualTime::from_nanos(t.as_nanos() + 1 + (x & 4_095)), v);
    })
}

// --- am --------------------------------------------------------------------

fn link_admit(faulty: bool) -> Band {
    let mut link = LinkState::new(8, LinkModel::cm5());
    if faulty {
        let plan = FaultPlan {
            drop: 0.02,
            duplicate: 0.01,
            ..FaultPlan::none()
        };
        link.set_fault_plan(&plan, 7);
    }
    let mut i = 0u64;
    per_call_ns(|| {
        i += 1;
        let (src, dst) = ((i % 8) as u16, ((i + 3) % 8) as u16);
        black_box(link.admit(VirtualTime::from_nanos(i * 500), src, dst, 64));
    })
}

fn simnet_inject_pop() -> Band {
    let mut net = SimNetwork::<u64>::new(8, LinkModel::cm5());
    let mut i = 0u64;
    per_call_ns(|| {
        i += 1;
        let (src, dst) = ((i % 8) as u16, ((i + 3) % 8) as u16);
        net.inject(
            VirtualTime::from_nanos(i * 500),
            src,
            dst,
            AmEnvelope::Small(i),
            64,
        );
        black_box(net.pop());
    })
}

fn rel_register_ack() -> Band {
    let mut tx = RelSender::<u64>::new();
    let mut rx = RelReceiver::<u64>::new();
    per_call_ns(|| {
        let t = tx.register(1, AmEnvelope::Small(7), 64);
        match rx.on_data(0, t.seq, t.payload, 64) {
            RxOutcome::Deliver(envs) => {
                black_box(envs);
            }
            RxOutcome::Duplicate => unreachable!("fresh sequence number"),
        }
        black_box(tx.on_ack(1, rx.cum(0)));
    })
}

fn thread_send_recv() -> Band {
    let eps = thread_network::<u64>(2);
    per_call_ns(|| {
        eps[0].send(1, AmEnvelope::Small(7), 64);
        black_box(eps[1].try_recv());
    })
}

/// Two threads ping-pong one packet over blocking receives: half a
/// round trip is one cross-thread futex wake.
fn thread_hop_us() -> Band {
    const TRIPS: u64 = 2_000;
    let mut eps = thread_network::<u64>(2);
    let peer = eps.pop().expect("two endpoints");
    let me = eps.pop().expect("two endpoints");
    let echo = std::thread::spawn(move || {
        while let Some(pkt) = peer.recv() {
            let AmEnvelope::Small(v) = pkt.body else {
                unreachable!("only small packets are sent")
            };
            if v == u64::MAX {
                return;
            }
            peer.send(0, AmEnvelope::Small(v), 8);
        }
    });
    let band = sampled(|| {
        let t = Instant::now();
        for i in 0..TRIPS {
            me.send(1, AmEnvelope::Small(i), 8);
            black_box(me.recv());
        }
        t.elapsed().as_nanos() as f64 / 1e3 / (2 * TRIPS) as f64
    });
    me.send(1, AmEnvelope::Small(u64::MAX), 8);
    echo.join().expect("echo thread exits cleanly");
    band
}

fn bcast_children() -> Band {
    let mut id = 0u16;
    per_call_ns(|| {
        id = (id + 1) % 8;
        black_box(bcast::children(id, 3, 8));
    })
}

// --- kernel: name table, migration, chase ----------------------------------

fn resolve_local() -> Band {
    let mut ns = NameServer::new(0);
    let d = ns.alloc_local(ActorId(0), 0);
    let key = AddrKey {
        birthplace: 0,
        index: d,
    };
    per_call_ns(|| {
        black_box(ns.resolve(black_box(key)));
    })
}

fn resolve_foreign() -> Band {
    let mut ns = NameServer::new(0);
    for i in 0..10_000u32 {
        let birthplace = (i % 16 + 1) as u16;
        let d = ns.alloc_remote(birthplace, None, 0);
        ns.bind(
            AddrKey {
                birthplace,
                index: DescriptorId(i),
            },
            d,
        );
    }
    let mut i = 0u32;
    per_call_ns(|| {
        i = (i + 7_919) % 10_000;
        let key = AddrKey {
            birthplace: (i % 16 + 1) as u16,
            index: DescriptorId(i),
        };
        black_box(ns.resolve(black_box(key)));
    })
}

/// A machine whose nomad has walked `hops` (1, 2, 3, … round the ring)
/// and come to rest; returns it with the nomad's birth address.
fn walked(hops: usize, run: bool) -> (Machine, MailAddr) {
    let mut m = sim(8);
    let ring: Vec<u16> = (0..hops).map(|i| (i % 7 + 1) as u16).collect();
    let nomad = m.with_ctx(0, |ctx| {
        let done = ctx.create_local(Box::new(Quiet));
        let nomad = ctx.create_local(Box::new(chase::Nomad {
            hops: ring.iter().rev().copied().collect(),
            served: 0,
            done,
        }));
        ctx.send(nomad, chase::HOP, vec![]);
        nomad
    });
    if run {
        m.run().expect("walk completes");
    }
    (m, nomad)
}

fn migrate_hop_us() -> Band {
    const HOPS: usize = 400;
    sampled(|| {
        let (mut m, _) = walked(HOPS, false);
        let t = Instant::now();
        m.run().expect("walk completes");
        t.elapsed().as_nanos() as f64 / 1e3 / HOPS as f64
    })
}

/// One call/return probe from a node that has never heard of the nomad
/// to an address that is four hops stale. Entering the executor costs
/// a fixed amount per `run` whatever is queued; an empty `run` on the
/// same machine is timed and taken off.
fn fir_chase_us() -> Band {
    const MACHINES: usize = 40;
    sampled(|| {
        let (mut chase, mut idle) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..MACHINES {
            let (mut m, nomad) = walked(4, true);
            m.with_ctx(6, |ctx| {
                hal::call_then(ctx, nomad, chase::PROBE, vec![], |_, v| {
                    black_box(v);
                });
            });
            let t = Instant::now();
            m.run().expect("probe completes");
            chase += t.elapsed();
            let t = Instant::now();
            m.run().expect("nothing left to do");
            idle += t.elapsed();
        }
        chase.saturating_sub(idle).as_nanos() as f64 / 1e3 / MACHINES as f64
    })
}

// --- kernel: creation, joins, sends, broadcast -------------------------------

fn create_local() -> Band {
    let mut m = sim(1);
    per_call_ns(|| {
        m.with_ctx(0, |ctx| {
            black_box(ctx.create_local(Box::new(Quiet)));
        });
    })
}

const BATCH: u64 = 256;

/// `BATCH` operations issued from one bootstrap context, then one run
/// to drain them: amortises the fixed cost of entering the executor.
fn batched(m: &mut Machine, node: u16, mut op: impl FnMut(&mut Ctx<'_>)) -> Band {
    scale(
        per_call_ns(|| {
            m.with_ctx(node, |ctx| {
                for _ in 0..BATCH {
                    op(ctx);
                }
            });
            m.run().expect("batch drains");
        }),
        1.0 / BATCH as f64,
    )
}

fn create_remote() -> Band {
    let mut program = Program::new();
    let quiet = program.behavior("bench-quiet", make_quiet);
    let mut m = Machine::from_config(MachineConfig::new(2), program.build());
    batched(&mut m, 0, |ctx| {
        black_box(ctx.create_on(1, quiet, vec![]));
    })
}

fn join_fill_fire() -> Band {
    let mut m = sim(1);
    per_call_ns(|| {
        m.with_ctx(0, |ctx| {
            let jc = ctx.create_join(
                2,
                vec![],
                Box::new(|_, v| {
                    black_box(v);
                }),
            );
            ctx.reply_to(ctx.cont_slot(jc, 0), Value::Int(1));
            ctx.reply_to(ctx.cont_slot(jc, 1), Value::Int(2));
        });
    })
}

fn send_local() -> Band {
    let mut m = sim(1);
    let sink = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Quiet)));
    batched(&mut m, 0, |ctx| ctx.send(sink, 0, vec![Value::Int(1)]))
}

fn send_fast() -> Band {
    let mut m = sim(1);
    let sink = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Quiet)));
    batched(&mut m, 0, |ctx| {
        black_box(ctx.send_fast(sink, 0, vec![Value::Int(1)]));
    })
}

fn send_remote() -> Band {
    let mut m = sim(2);
    let sink = m.with_ctx(1, |ctx| ctx.create_local(Box::new(Quiet)));
    batched(&mut m, 0, |ctx| ctx.send(sink, 0, vec![Value::Int(1)]))
}

fn bcast_member() -> Band {
    const MEMBERS: u32 = 64;
    let mut program = Program::new();
    let quiet = program.behavior("bench-quiet", make_quiet);
    let mut m = Machine::from_config(MachineConfig::new(8), program.build());
    let group = m.with_ctx(0, |ctx| ctx.grpnew(quiet, MEMBERS, vec![]));
    m.run().expect("group creation completes");
    scale(
        per_call_ns(|| {
            m.with_ctx(0, |ctx| ctx.broadcast(group, 0, vec![Value::Int(1)]));
            m.run().expect("broadcast drains");
        }),
        1.0 / f64::from(MEMBERS),
    )
}

// --- kernel: machine lifecycle ---------------------------------------------

fn machine_new_us() -> Band {
    let registry = Program::new().build();
    scale(
        per_call_ns(|| {
            black_box(Machine::from_config(
                MachineConfig::new(8),
                Arc::clone(&registry),
            ));
        }),
        1e-3,
    )
}

fn small_fib(observe: ObserveOpts) -> SmallFib {
    SmallFib {
        cfg: MachineConfig::builder(8)
            .load_balancing(true)
            .parallelism(1)
            .observe(observe)
            .build()
            .expect("valid sim config"),
    }
}

/// The `sim_fib` tree at `fib(18)`: small enough to repeat under every
/// observe flag inside the traced run's budget.
struct SmallFib {
    cfg: MachineConfig,
}

impl Batch for SmallFib {
    fn stage(&self, _rec: &mut Recorder) -> Machine {
        let mut program = Program::new();
        let id = fib::register(&mut program);
        let mut m = Machine::from_config(self.cfg.clone(), program.build());
        let cfg = FibConfig {
            n: 18,
            grain: 0,
            placement: Placement::Local,
        };
        m.with_ctx(0, |ctx| fib::bootstrap(ctx, id, cfg));
        m
    }

    fn check(&self, r: &SimReport) -> (u64, Vec<String>) {
        assert_eq!(
            r.value("fib").map(Value::as_int),
            Some(hal_baselines::fib_iter(18) as i64)
        );
        (r.events, Vec::new())
    }
}

fn report_us() -> Band {
    let mut m = small_fib(ObserveOpts::none()).stage(&mut Recorder::new(false));
    m.run().expect("fib completes");
    scale(
        per_call_ns(|| {
            black_box(m.report().expect("sim machine reports"));
        }),
        1e-3,
    )
}

/// `sim_fib`-shaped repetition wall with an observe flag on, divided by
/// the median wall with every flag off.
fn observe_x(flag: ObserveOpts, base_s: f64) -> Band {
    let w = small_fib(flag);
    let mut off = Recorder::new(false);
    sampled(|| rep(&w, &mut off, 0).wall_s / base_s)
}

// --- kernel: live backend --------------------------------------------------

fn live(nodes: usize) -> Machine {
    let cfg = MachineConfig::builder(nodes)
        .backend(BackendKind::Live)
        .build()
        .expect("valid live config");
    Machine::from_config(cfg, Program::new().build())
}

/// (init µs, drain µs) of an idle 2-node live machine: thread spawn,
/// and stop + join.
fn live_init_drain_us() -> (Band, Band) {
    let (mut init, mut drain) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let mut m = live(2);
        let t = Instant::now();
        m.init().expect("machine starts");
        init.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        stop_and_drain(&mut m);
        drain.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    (stats::band(init), stats::band(drain))
}

fn live_submit_ns() -> Band {
    const JOBS: u64 = 2_000;
    let mut m = live(1);
    m.init().expect("machine starts");
    let band = sampled(|| {
        let t = Instant::now();
        for _ in 0..JOBS {
            m.submit(0, Box::new(|_| {})).expect("job accepted");
        }
        let ns = t.elapsed().as_nanos() as f64 / JOBS as f64;
        std::thread::sleep(Duration::from_millis(3)); // let the node catch up
        ns
    });
    stop_and_drain(&mut m);
    band
}

/// Submit → the job runs on an idle node. Jobs do not wake a parked
/// node, so this is the remainder of its park; submits are spaced
/// unevenly to land at every phase of it.
fn live_job_wait_us() -> Band {
    const JOBS: u64 = 40;
    let mut m = live(2);
    m.init().expect("machine starts");
    let mut x = 0x9E37_79B9u64;
    let band = sampled(|| {
        let waits = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..JOBS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            std::thread::sleep(Duration::from_micros(1_300 + (x >> 33) % 1_400));
            let (sent, waits) = (now_ns(), Arc::clone(&waits));
            m.submit(
                1,
                Box::new(move |_| {
                    let waited = (now_ns() - sent) as f64 / 1e3;
                    waits.lock().expect("never poisoned").push(waited);
                }),
            )
            .expect("job accepted");
        }
        std::thread::sleep(Duration::from_millis(3));
        let v = waits.lock().expect("never poisoned").clone();
        stats::median(v)
    });
    stop_and_drain(&mut m);
    band
}

fn live_local_msg_ns() -> Band {
    const TRIPS: u64 = 100_000;
    let w = LocalClosed::sized(1, TRIPS);
    let mut off = Recorder::new(false);
    stats::band(
        (0..5)
            .map(|_| rep(&w, &mut off, 0).wall_s * 1e9 / (2 * TRIPS) as f64)
            .collect(),
    )
}

messages! {
    /// Two-node ping-pong protocol of the remote ledger rows.
    enum PingMsg {
        /// Start serving.
        Serve {} = 0 => [PingMsg],
        /// One trip: out to the ponger, then back to `back` unchanged.
        Ball { sent_ns: i64, back: MailAddr } = 1 => [PingMsg],
    }
}

struct Ponger;

impl Behavior for Ponger {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let PingMsg::Ball { sent_ns, back } = PingMsg::take(msg) else {
            unreachable!("ponger only receives Ball");
        };
        let (sel, args) = PingMsg::Ball { sent_ns, back }.encode();
        ctx.send(back, sel, args);
    }
}

/// Keeps `window` balls in flight to a ponger on the other node until
/// `total` have come back; records each trip's host time.
struct Pinger {
    ponger: MailAddr,
    window: u64,
    total: u64,
    issued: u64,
    trips_ns: Arc<Mutex<Vec<u64>>>,
    mine: Vec<u64>,
}

impl Pinger {
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        self.issued += 1;
        let (sel, args) = PingMsg::Ball {
            sent_ns: now_ns() as i64,
            back: ctx.me(),
        }
        .encode();
        ctx.send(self.ponger, sel, args);
    }
}

impl Behavior for Pinger {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match PingMsg::take(msg) {
            PingMsg::Serve {} => {
                for _ in 0..self.window {
                    self.serve(ctx);
                }
            }
            PingMsg::Ball { sent_ns, .. } => {
                self.mine.push(now_ns() - sent_ns as u64);
                if self.issued < self.total {
                    self.serve(ctx);
                } else if self.mine.len() as u64 == self.total {
                    *self.trips_ns.lock().expect("never poisoned") = std::mem::take(&mut self.mine);
                    ctx.stop();
                }
            }
        }
    }
}

/// Run a 2-node live ping-pong; returns (every trip's ns, wall seconds).
fn ping_pong(window: u64, total: u64) -> (Vec<f64>, f64) {
    let trips = Arc::new(Mutex::new(Vec::new()));
    let mut m = live(2);
    let ponger = m.with_ctx(1, |ctx| ctx.create_local(Box::new(Ponger)));
    m.with_ctx(0, |ctx| {
        let p = ctx.create_local(Box::new(Pinger {
            ponger,
            window,
            total,
            issued: 0,
            trips_ns: Arc::clone(&trips),
            mine: Vec::with_capacity(total as usize),
        }));
        let (sel, args) = PingMsg::Serve {}.encode();
        ctx.send(p, sel, args);
    });
    let t = Instant::now();
    m.run().expect("ping-pong completes");
    let wall = t.elapsed().as_secs_f64();
    let v = trips.lock().expect("never poisoned");
    assert_eq!(v.len() as u64, total, "every ball came back");
    (v.iter().map(|&ns| ns as f64).collect(), wall)
}

// --- hal -------------------------------------------------------------------

messages! {
    /// A two-field protocol for the marshalling rows.
    enum PairMsg {
        /// Two integer words.
        Pair { a: i64, b: i64 } = 0,
    }
}

fn hal_encode() -> Band {
    let mut i = 0i64;
    per_call_ns(|| {
        i += 1;
        black_box(PairMsg::Pair { a: i, b: -i }.encode());
    })
}

/// `take` consumes its message, so each sample decodes a pre-built
/// batch; only the decode is timed.
fn hal_take() -> Band {
    const N: usize = 20_000;
    sampled(|| {
        let msgs: Vec<Msg> = (0..N as i64)
            .map(|i| {
                let (sel, args) = PairMsg::Pair { a: i, b: -i }.encode();
                Msg::new(sel, args)
            })
            .collect();
        let t = Instant::now();
        for m in msgs {
            black_box(PairMsg::take(m));
        }
        t.elapsed().as_nanos() as f64 / N as f64
    })
}

fn hal_call_then() -> Band {
    let mut m = sim(1);
    let echo = m.with_ctx(0, |ctx| ctx.create_local(Box::new(Echo)));
    let replies = Arc::new(AtomicU64::new(0));
    let band = batched(&mut m, 0, |ctx| {
        let replies = Arc::clone(&replies);
        hal::call_then(ctx, echo, 0, vec![Value::Int(1)], move |_, v| {
            black_box(v);
            replies.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert!(replies.load(Ordering::Relaxed) > 0, "calls returned");
    band
}

/// Measure every ledger row (≈ 6 s).
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut row = |name: &'static str, band: Band| rows.push(Row { name, band });
    row("des.queue_push_pop_ns", queue_churn(1_000));
    row("des.queue_push_pop_deep_ns", queue_churn(64_000));
    row("am.link_admit_ns", link_admit(false));
    row("am.link_admit_faulty_ns", link_admit(true));
    row("am.simnet_inject_pop_ns", simnet_inject_pop());
    row("am.rel_register_ack_ns", rel_register_ack());
    row("am.thread_send_recv_ns", thread_send_recv());
    row("am.thread_hop_us", thread_hop_us());
    row("am.bcast_children_ns", bcast_children());
    row("kernel.resolve_local_ns", resolve_local());
    row("kernel.resolve_foreign_ns", resolve_foreign());
    row("kernel.migrate_hop_us", migrate_hop_us());
    row("kernel.fir_chase_us", fir_chase_us());
    row("kernel.create_local_ns", create_local());
    row("kernel.create_remote_ns", create_remote());
    row("kernel.join_fill_fire_ns", join_fill_fire());
    row("kernel.send_local_ns", send_local());
    row("kernel.send_fast_ns", send_fast());
    row("kernel.send_remote_ns", send_remote());
    row("kernel.bcast_member_ns", bcast_member());
    row("kernel.machine_new_us", machine_new_us());
    row("kernel.report_us", report_us());
    let (init, drain) = live_init_drain_us();
    row("kernel.live_init_us", init);
    row("kernel.live_drain_us", drain);
    row("kernel.live_submit_ns", live_submit_ns());
    row("kernel.live_job_wait_us", live_job_wait_us());
    row("kernel.live_local_msg_ns", live_local_msg_ns());
    // 2-node closed loops do not repeat on a 2-core host (whether the
    // peer is parked when a packet lands decides every hop), so they
    // are ledger rows with their band, never end-to-end metrics.
    row(
        "kernel.live_remote_rtt_us",
        stats::band(
            (0..5)
                .map(|_| stats::median(ping_pong(1, 1_500).0) / 1e3)
                .collect(),
        ),
    );
    row(
        "kernel.live_remote_msg_ns",
        stats::band(
            (0..3)
                .map(|_| ping_pong(256, 100_000).1 * 1e9 / 200_000.0)
                .collect(),
        ),
    );
    row("hal.encode_ns", hal_encode());
    row("hal.take_ns", hal_take());
    row("hal.call_then_ns", hal_call_then());
    let none = ObserveOpts::none();
    let mut off = Recorder::new(false);
    let plain = small_fib(none);
    let base_s = stats::median(
        (0..SAMPLES)
            .map(|_| rep(&plain, &mut off, 0).wall_s)
            .collect(),
    );
    row(
        "kernel.observe_trace_x",
        observe_x(none.trace(true).span_sample_ppm(0), base_s),
    );
    row(
        "kernel.observe_spans_x",
        observe_x(none.trace(true), base_s),
    );
    row(
        "kernel.observe_metrics_x",
        observe_x(none.metrics(true), base_s),
    );
    rows
}

/// How much of a repetition's measured run time the ledger accounts
/// for: Σ(count × row) ÷ run time. Far from 1 means the rows do not yet
/// telescope to the whole.
pub fn coverage(rows: &[Row], counts: &BTreeMap<&'static str, f64>, run_ms: f64) -> f64 {
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.band.median)
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ns = count("kernel.events") * row("des.queue_push_pop_ns")
        + count("kernel.msgs_local") * row("kernel.send_local_ns")
        + count("kernel.msgs_remote") * row("kernel.send_remote_ns")
        + count("kernel.actors_created") * row("kernel.create_local_ns")
        + count("kernel.joins_fired") * row("kernel.join_fill_fire_ns")
        + count("am.packets") * row("am.simnet_inject_pop_ns")
        + count("am.rel_acks") * row("am.rel_register_ack_ns")
        + count("kernel.migrations") * row("kernel.migrate_hop_us") * 1e3
        + count("kernel.fir_sent") * row("kernel.fir_chase_us") * 1e3;
    if run_ms > 0.0 {
        ns / (run_ms * 1e6)
    } else {
        0.0
    }
}
