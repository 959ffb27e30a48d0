//! Randomized property tests for the active-message layer: flow-control
//! safety and liveness, bulk-transfer exactly-once, simulated-network
//! causal ordering, and the reliable receiver's ring holdback against an
//! ordered-map model.
//!
//! Inputs are generated from the workspace's own deterministic
//! [`SplitMix64`] stream (seeded per case) instead of an external
//! property-testing framework, so the suite runs with no network access
//! and every failure is reproducible from the printed case number.

use hal_am::{
    AmEnvelope, BulkSender, FlowControl, LinkModel, RelPayload, RelReceiver, RxOutcome, SimNetwork,
};
use hal_des::{SplitMix64, VirtualTime};
use std::collections::BTreeMap;

/// Draw a value in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Flow control: at most one grant active; every request eventually
/// granted exactly once; grants issue in FIFO order.
#[test]
fn flow_control_safety_and_liveness() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xF10C + case);
        let len = range(&mut rng, 1, 400) as usize;
        let schedule: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();

        let mut fc = FlowControl::new();
        let mut next_tag = 0u64;
        let mut granted_order = Vec::new();
        let mut requested_order = Vec::new();
        let mut active: Option<hal_am::Grant> = None;

        for do_request in schedule {
            if do_request || active.is_none() {
                next_tag += 1;
                requested_order.push(next_tag);
                if let Some(g) = fc.on_request((next_tag % 5) as u16, next_tag) {
                    assert!(active.is_none(), "case {case}: second active grant");
                    granted_order.push(g.tag);
                    active = Some(g);
                }
            } else if let Some(g) = active.take() {
                if let Some(next) = fc.on_data_complete(g.to, g.tag) {
                    granted_order.push(next.tag);
                    active = Some(next);
                }
            }
        }
        // Drain.
        while let Some(g) = active.take() {
            if let Some(next) = fc.on_data_complete(g.to, g.tag) {
                granted_order.push(next.tag);
                active = Some(next);
            }
        }
        assert_eq!(
            granted_order, requested_order,
            "case {case}: FIFO grants, exactly once"
        );
        assert_eq!(fc.granted_total(), requested_order.len() as u64);
        assert_eq!(fc.queued(), 0);
    }
}

/// Bulk sender: every begun transfer is released exactly once with its
/// own payload, regardless of ack order.
#[test]
fn bulk_transfers_release_their_own_payload() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xB01C + case);
        let len = range(&mut rng, 1, 60) as usize;
        let payloads: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();

        let mut tx = BulkSender::new(3);
        let mut tags = Vec::new();
        for (i, &p) in payloads.iter().enumerate() {
            let (tag, env) = tx.begin((i % 7) as u16, p, 4);
            assert!(
                matches!(env, AmEnvelope::BulkRequest { .. }),
                "case {case}: expected a BulkRequest envelope"
            );
            tags.push((tag, p, (i % 7) as u16));
        }
        // Ack in reverse order (worst case for any accidental FIFO
        // assumption in the sender).
        for &(tag, p, dst) in tags.iter().rev() {
            let (d, env, _) = tx.on_ack(tag);
            assert_eq!(d, dst);
            match env {
                AmEnvelope::BulkData { body, .. } => assert_eq!(body, p),
                other => panic!("case {case}: expected data, got {other:?}"),
            }
        }
        assert_eq!(tx.in_progress(), 0);
    }
}

/// SimNetwork: for monotone (in-virtual-time-order) injections, each
/// (src,dst) link is FIFO and arrival never precedes injection.
#[test]
fn sim_network_monotone_injections_are_causal() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::new(0x51E7 + case);
        let n_sends = range(&mut rng, 1, 120) as usize;
        let mut net = SimNetwork::new(4, LinkModel::cm5());
        let mut now = 0u64;
        for seq in 0..n_sends {
            let src = range(&mut rng, 0, 4) as u16;
            let dst = range(&mut rng, 0, 4) as u16;
            let dt = range(&mut rng, 0, 500);
            let bytes = range(&mut rng, 0, 200) as usize;
            now += dt;
            net.inject(
                VirtualTime::from_nanos(now),
                src,
                dst,
                AmEnvelope::Small((seq as u64, now)),
                bytes,
            );
        }
        // Drain and check per-link order + causality.
        let mut last_per_link = std::collections::HashMap::new();
        let mut arrivals = Vec::new();
        while let Some((t, pkt)) = net.pop() {
            arrivals.push((t, pkt.src, pkt.dst, pkt.body));
        }
        // Arrivals pop in global time order by construction of the queue;
        // verify per-link monotone sequence numbers and causality.
        for (t, src, dst, body) in arrivals {
            let AmEnvelope::Small((s, injected_at)) = body else { unreachable!() };
            assert!(
                t.as_nanos() >= injected_at,
                "case {case}: arrived before injection"
            );
            if let Some(prev) = last_per_link.insert((src, dst), s) {
                assert!(
                    prev < s,
                    "case {case}: link ({src},{dst}) reordered {prev} after {s}"
                );
            }
        }
    }
}

/// Deterministic (non-randomized) regression: out-of-order injections (an
/// interrupt handler's earlier-timestamped send) must not be delayed by
/// state that later-timestamped injections established first.
#[test]
fn out_of_order_injection_is_not_serialized_behind_the_future() {
    let mut net = SimNetwork::new(2, LinkModel::cm5());
    // A long step injects far in the virtual future...
    net.inject(
        VirtualTime::from_nanos(9_000_000),
        0,
        1,
        AmEnvelope::Small("future"),
        50_000,
    );
    // ...then an interrupt handler injects at an earlier virtual time.
    net.inject(
        VirtualTime::from_nanos(20_000),
        0,
        1,
        AmEnvelope::Small("interrupt"),
        16,
    );
    let (t1, p1) = net.pop().unwrap();
    assert_eq!(p1.body, AmEnvelope::Small("interrupt"));
    assert!(
        t1.as_nanos() < 100_000,
        "interrupt packet delayed to {t1:?}"
    );
    let (t2, p2) = net.pop().unwrap();
    assert_eq!(p2.body, AmEnvelope::Small("future"));
    assert!(t2.as_nanos() >= 9_000_000);
}

/// The reliable receiver's ring of holdback slots behaves as the ordered
/// map it replaced: under random arrival order and duplicates, on three
/// interleaved links, each arrival is a duplicate or releases exactly
/// the in-order run the model releases, and the cumulative ack agrees.
#[test]
fn ring_holdback_matches_an_ordered_map_model() {
    /// The model: delivered prefix plus held seq -> value per link.
    #[derive(Default)]
    struct Model {
        cum: u64,
        held: BTreeMap<u64, u64>,
    }
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0x0E1A + case);
        let links = 3u16;
        let per_link = range(&mut rng, 1, 120);
        // Every seq of every link once, plus random duplicates, shuffled
        // with a bounded displacement so gaps open and close.
        let mut arrivals: Vec<(u16, u64)> = Vec::new();
        for src in 0..links {
            for seq in 1..=per_link {
                arrivals.push((src, seq));
                if range(&mut rng, 0, 4) == 0 {
                    arrivals.push((src, seq));
                }
            }
        }
        let window = range(&mut rng, 1, 40) as usize;
        for i in 0..arrivals.len() {
            let j = (i + range(&mut rng, 0, window as u64) as usize).min(arrivals.len() - 1);
            arrivals.swap(i, j);
        }
        let mut rx = RelReceiver::<u64>::new();
        let mut models: Vec<Model> = (0..links).map(|_| Model::default()).collect();
        for (src, seq) in arrivals {
            let value = u64::from(src) << 32 | seq;
            let got = rx.on_data(src, seq, RelPayload::new(AmEnvelope::Small(value)), 8);
            let m = &mut models[src as usize];
            let duplicate = seq <= m.cum || m.held.contains_key(&seq);
            match got {
                RxOutcome::Duplicate => assert!(duplicate, "case {case}: {src}/{seq} dropped"),
                RxOutcome::Deliver(envs) => {
                    assert!(!duplicate, "case {case}: {src}/{seq} accepted twice");
                    m.held.insert(seq, value);
                    let mut want = Vec::new();
                    while let Some(v) = m.held.remove(&(m.cum + 1)) {
                        m.cum += 1;
                        want.push(AmEnvelope::Small(v));
                    }
                    assert_eq!(envs, want, "case {case}: {src}/{seq} released");
                }
            }
            assert_eq!(rx.cum(src), m.cum, "case {case}: cum of link {src}");
        }
        for (src, m) in models.iter().enumerate() {
            assert_eq!(m.cum, per_link, "case {case}: link {src} complete");
        }
    }
}
