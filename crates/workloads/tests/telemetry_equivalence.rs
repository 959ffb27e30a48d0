//! Telemetry must observe, never perturb.
//!
//! Four guarantees from the live-telemetry work:
//!
//! 1. Turning the telemetry flags on (metrics + an explicit span-sample
//!    rate) leaves the sim backend's deterministic artifact surface —
//!    the `repro_all` byte-identity contract — unchanged.
//! 2. Head-sampling at rate 1.0 reproduces the unsampled `SPANS_`
//!    surface exactly: the sampler's id mints are rate-independent, so
//!    "keep everything" and "no sampler configured" are the same bytes.
//! 3. Under backpressure (tiny receive queues), across seeds and
//!    partition sizes, live links keep per-link FIFO order and carry no
//!    reliable-layer traffic, and the report's counters are the node
//!    cells' sums: `msgs.processed` and the `threadnet.*` transport
//!    counts each node keeps of its own sends.
//! 4. A name the report folds from per-node records equals their sum, on
//!    both backends: `rel.retransmits` / `rel.acks` are the `METRICS_`
//!    links, `msgs.processed` is the cells'.

use hal::prelude::*;
use hal_kernel::span::SpanReport;
use hal_kernel::{Counter, FaultPlan, SimReport, TelemetryHub};
use hal_workloads::fib;
use std::sync::atomic::Ordering;

/// Counter `c` summed over the hub's node cells.
fn cell_sum(hub: &TelemetryHub, c: Counter) -> u64 {
    hub.cells().iter().map(|cell| cell.get(c)).sum()
}

const SEEDS: [u64; 3] = [1, 0x5EED, 42];

fn fib_sim(seed: u64, obs: ObserveOpts) -> SimReport {
    let cfg = fib::FibConfig {
        n: 13,
        grain: 3,
        placement: fib::Placement::RoundRobin,
    };
    let machine = MachineConfig::builder(8)
        .seed(seed)
        .observe(obs)
        .build()
        .unwrap();
    let (v, report) = fib::run_sim(machine, cfg);
    assert_eq!(v, 233, "fib(13) wrong");
    report
}

/// Guarantee 4 for one finished run with metrics on; returns the acks the
/// reliable layer sent, so a caller can require that it carried traffic,
/// or none.
fn assert_folds_agree(label: &str, report: &SimReport, hub: &TelemetryHub) -> u64 {
    let metrics = report.metrics.as_ref().unwrap_or_else(|| panic!("{label}: metrics on"));
    let links = metrics.nodes.iter().flat_map(|n| n.links.values());
    let (retx, acks) = links.fold((0, 0), |(r, a), l| (r + l.retransmits, a + l.acks));
    assert_eq!(retx, report.stats.get("rel.retransmits"), "{label}: retransmits");
    assert_eq!(acks, report.stats.get("rel.acks"), "{label}: acks");
    let processed = cell_sum(hub, Counter::MsgsProcessed);
    assert_eq!(processed, report.stats.get("msgs.processed"), "{label}: cells");
    acks
}

#[test]
fn sim_folds_equal_the_per_node_records() {
    for seed in SEEDS {
        let label = format!("sim lossy fib seed={seed}");
        let cfg = MachineConfig::builder(4)
            .seed(seed)
            .faults(FaultPlan::none().with_drop(0.02).with_duplicate(0.01))
            .observe(ObserveOpts::none().metrics(true))
            .build()
            .unwrap();
        let mut program = Program::new();
        let id = fib::register(&mut program);
        let mut m = Machine::from_config(cfg, program.build());
        let fib_cfg = fib::FibConfig { n: 12, grain: 2, placement: fib::Placement::RoundRobin };
        m.with_ctx(0, |ctx| fib::bootstrap(ctx, id, fib_cfg));
        let report = m.run().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(report.value("fib").map(|v| v.as_int()), Some(144), "{label}");
        assert!(report.stats.get("rel.retransmits") > 0, "{label}: nothing was lost");
        assert!(assert_folds_agree(&label, &report, &m.telemetry()) > 0, "{label}");
    }
}

/// The deterministic artifact surface of one sim run, as bytes.
fn surface(label: &str, report: &SimReport) -> (String, String) {
    let trace = report
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: tracing was enabled"));
    let spans = SpanReport::build(trace);
    let makespan_ns = report.makespan.as_nanos();
    let metrics = report
        .metrics
        .as_ref()
        .map(|m| m.to_json(makespan_ns))
        .unwrap_or_default();
    (spans.to_json(), metrics)
}

#[test]
fn sim_surface_is_unchanged_by_telemetry_flags() {
    let baseline_obs = || ObserveOpts::none().trace(true).metrics(true);
    let flagged_obs = || {
        ObserveOpts::none()
            .trace(true)
            .metrics(true)
            .span_sample_ppm(1_000_000)
    };
    for seed in SEEDS {
        let plain = fib_sim(seed, baseline_obs());
        let flagged = fib_sim(seed, flagged_obs());
        let label = format!("fib seed={seed}");
        let (s0, m0) = surface(&label, &plain);
        let (s1, m1) = surface(&label, &flagged);
        assert_eq!(s0, s1, "{label}: span surface changed under telemetry flags");
        assert_eq!(m0, m1, "{label}: metrics surface changed under telemetry flags");
    }
}

#[test]
fn full_rate_sampling_reproduces_the_unsampled_span_surface() {
    for seed in SEEDS {
        let unsampled = fib_sim(seed, ObserveOpts::none().trace(true));
        let sampled = fib_sim(seed, ObserveOpts::none().trace(true).span_sample_ppm(1_000_000));
        let report = |r: &SimReport| SpanReport::build(r.trace.as_ref().unwrap());
        let (u, s) = (report(&unsampled), report(&sampled));
        assert_eq!(
            s.msgs_sampled, s.msgs_minted,
            "rate 1.0 must keep every span (seed {seed})"
        );
        assert_eq!(
            u.to_json(),
            s.to_json(),
            "rate-1.0 sampling changed the SPANS_ surface (seed {seed})"
        );
    }
}

// ---- live drain under backpressure ----

/// Counts numbered messages, requires them in the order they were sent,
/// echoes each number back to its sender, and stops the machine at the
/// expected total. The busy loop makes the receiving node measurably
/// slower than the sender, so the sender's bounded queue toward it stays
/// full — that is the backpressure the test is about.
struct Tally {
    got: i64,
    expected: i64,
}
impl Behavior for Tally {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let mut spin = 0u64;
        for i in 0..500u64 {
            spin = spin.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(spin);
        assert_eq!(msg.args[0].as_int(), self.got, "per-link FIFO broke");
        ctx.send(msg.args[1].as_addr(), ECHO, vec![Value::Int(self.got)]);
        self.got += 1;
        if self.got == self.expected {
            ctx.report("got", Value::Int(self.got));
            ctx.stop();
        }
    }
}

/// Burst's selector for a number the tally echoed.
const ECHO: u32 = 2;

/// Streams numbered messages at a remote tally, one per dispatch,
/// driving itself with a self-continuation, and requires the echoes in
/// order. Each direction's sender stalls on the other's 4-packet queue
/// while the other's packets arrive, so both orders cross
/// `LiveNet::inject`'s stalled-send inbox: there is no reliable layer
/// to restore an order the transport broke.
struct Burst {
    target: MailAddr,
    sent: i64,
    total: i64,
    echoed: i64,
}
impl Behavior for Burst {
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.selector == ECHO {
            assert_eq!(msg.args[0].as_int(), self.echoed, "per-link FIFO broke");
            self.echoed += 1;
        } else if self.sent < self.total {
            let me = ctx.me();
            ctx.send(self.target, 0, vec![Value::Int(self.sent), Value::Addr(me)]);
            self.sent += 1;
            ctx.send(me, 1, vec![]);
        }
    }
}

#[test]
fn live_links_keep_fifo_and_counters_fold_under_backpressure() {
    const BURST: i64 = 400;
    let mut backpressure_total = 0u64;
    for seed in SEEDS {
        for nodes in [2usize, 4] {
            let label = format!("live seed={seed} K={nodes}");
            let mut program = Program::new();
            let burst = program.behavior("burst", |args: &[Value]| {
                Box::new(Burst {
                    target: args[0].as_addr(),
                    sent: 0,
                    total: args[1].as_int(),
                    echoed: 0,
                }) as Box<dyn Behavior>
            });
            let cfg = MachineConfig::builder(nodes)
                .seed(seed)
                .backend(BackendKind::Live)
                // A few packets per queue: the burst must hit the
                // backpressure path, where a send stalls and its node
                // drains its own queue into the holdback inbox.
                .live_queue_capacity(4)
                .observe(ObserveOpts::none().metrics(true))
                .build()
                .unwrap();
            let mut m = Machine::from_config(cfg, program.build());
            m.with_ctx(0, |ctx| {
                let counter = ctx.create_local(Box::new(Tally {
                    got: 0,
                    expected: BURST,
                }));
                let b = ctx.create_on(
                    (nodes - 1) as u16,
                    burst,
                    vec![Value::Addr(counter), Value::Int(BURST)],
                );
                ctx.send(b, 0, vec![]);
            });
            let report = m.run().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                report.values("got").last().map(|v| v.as_int()),
                Some(BURST),
                "{label}: exactly-once delivery broke"
            );
            let metrics = report
                .metrics
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: live metrics missing"));
            let hub = m.telemetry();
            for (i, cell) in hub.cells().iter().enumerate() {
                assert_eq!(metrics.nodes[i].busy_ns, cell.busy_ns.load(Ordering::Relaxed));
                // Sampled in the node's own thread, on its cadence.
                let at: Vec<u64> = metrics.nodes[i].samples.iter().map(|s| s.at_ns).collect();
                assert_eq!(at.first(), Some(&0), "{label}: node {i}");
                assert!(at.iter().all(|t| t % metrics.cadence_ns == 0), "{label}: {at:?}");
            }
            // The report was assembled after every node thread joined:
            // each transport count is the sum of the senders' cells.
            for (name, c) in [
                ("threadnet.packets", Counter::ThreadnetPackets),
                ("threadnet.bytes", Counter::ThreadnetBytes),
                ("threadnet.backpressure_hits", Counter::ThreadnetBackpressureHits),
            ] {
                assert_eq!(report.stats.get(name), cell_sum(&hub, c), "{label}: {name}");
            }
            let packets = report.stats.get("threadnet.packets");
            assert!(packets >= BURST as u64, "{label}: only {packets} packets for the burst");
            assert!(report.stats.get("threadnet.bytes") > 0, "{label}: threadnet.bytes");
            let total_processed = report.stats.get("msgs.processed");
            // Fault-free live speaks the simulator's protocol: no seq/ack.
            assert_eq!(assert_folds_agree(&label, &report, &hub), 0, "{label}: rel.acks");
            assert_eq!(report.stats.get("rel.delivered"), 0, "{label}: rel.delivered");
            // Kick-off + burst activation + BURST counted messages, at
            // minimum (system traffic may add more, never fewer).
            assert!(
                total_processed >= BURST as u64 + 2,
                "{label}: only {total_processed} messages counted"
            );
            backpressure_total += report.stats.get("threadnet.backpressure_hits");
        }
    }
    // Across 6 runs of a 400-message burst into 4-packet queues the
    // sender must have hit backpressure somewhere; if it never did, the
    // stress condition (and this test) is not exercising the stalled send.
    assert!(
        backpressure_total > 0,
        "no backpressure observed across any run — queue capacity too generous?"
    );
}
