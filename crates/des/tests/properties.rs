//! Randomized property tests for the discrete-event engine: the total
//! order of the event queue, RNG stream independence, histogram/merge
//! algebra.
//!
//! Inputs come from the engine's own deterministic [`SplitMix64`]
//! streams (seeded per case) rather than an external property-testing
//! framework, so the suite needs no network access and each failure is
//! reproducible from the printed case number.

use hal_des::{EventQueue, Histogram, Pcg32, SplitMix64, StatSet, VirtualTime};

fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Pops come out sorted by time; ties preserve insertion order.
#[test]
fn event_queue_total_order() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xE0_0001 + case);
        let n = range(&mut rng, 0, 300) as usize;
        let times: Vec<u64> = (0..n).map(|_| range(&mut rng, 0, 1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(VirtualTime::from_nanos(t), i);
        }
        let mut last: Option<(VirtualTime, usize)> = None;
        let mut seen = vec![false; times.len()];
        while let Some((t, idx)) = q.pop() {
            assert_eq!(t.as_nanos(), times[idx]);
            assert!(!seen[idx], "case {case}: event {idx} popped twice");
            seen[idx] = true;
            if let Some((lt, lidx)) = last {
                assert!(lt <= t, "case {case}: time order violated");
                if lt == t {
                    assert!(lidx < idx, "case {case}: FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
        assert!(seen.iter().all(|&s| s), "case {case}: every event popped");
    }
}

/// Interleaved push/pop never loses or duplicates events.
#[test]
fn event_queue_interleaved() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xE0_0002 + case);
        let n_ops = range(&mut rng, 0, 200) as usize;
        let mut q = EventQueue::new();
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for _ in 0..n_ops {
            let push = rng.next_u64() & 1 == 1;
            let t = range(&mut rng, 0, 100);
            if push {
                q.push(VirtualTime::from_nanos(t), ());
                pushed += 1;
            } else if q.pop().is_some() {
                popped += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(pushed, popped);
    }
}

/// SplitMix64 streams from distinct seeds diverge quickly.
#[test]
fn splitmix_seeds_diverge() {
    let mut meta = SplitMix64::new(0xE0_0003);
    for case in 0..256u64 {
        let a = meta.next_u64();
        let b = meta.next_u64();
        if a == b {
            continue;
        }
        let mut ra = SplitMix64::new(a);
        let mut rb = SplitMix64::new(b);
        let same = (0..8).filter(|_| ra.next_u64() == rb.next_u64()).count();
        assert!(same <= 1, "case {case}: streams collide suspiciously often");
    }
}

/// PCG bounded draws stay in range for arbitrary bounds.
#[test]
fn pcg_bounded() {
    let mut meta = SplitMix64::new(0xE0_0004);
    for case in 0..256u64 {
        let seed = meta.next_u64();
        let stream = meta.next_u64();
        let bound = (meta.next_u64() as u32).max(1);
        let mut rng = Pcg32::new(seed, stream);
        for _ in 0..32 {
            assert!(rng.next_below(bound) < bound, "case {case}");
        }
    }
}

/// Histogram merge equals observing the union of samples.
#[test]
fn histogram_merge_is_union() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xE0_0005 + case);
        let xs: Vec<u32> = (0..range(&mut rng, 0, 100)).map(|_| rng.next_u64() as u32).collect();
        let ys: Vec<u32> = (0..range(&mut rng, 0, 100)).map(|_| rng.next_u64() as u32).collect();
        let mut hx = Histogram::default();
        let mut hy = Histogram::default();
        let mut hu = Histogram::default();
        for &x in &xs {
            hx.observe(x as u64);
            hu.observe(x as u64);
        }
        for &y in &ys {
            hy.observe(y as u64);
            hu.observe(y as u64);
        }
        hx.merge(&hy);
        assert_eq!(hx.count(), hu.count(), "case {case}");
        assert_eq!(hx.sum(), hu.sum(), "case {case}");
        assert_eq!(hx.max(), hu.max(), "case {case}");
        assert_eq!(hx.min(), hu.min(), "case {case}");
        assert_eq!(hx, hu, "case {case}");
    }
}

/// The power-of-two histogram the exporters once kept: its buckets,
/// count, sum and max are what every `log2_buckets` array and moment in
/// a `METRICS_`/`SPANS_` document was written from.
#[derive(Default)]
struct Log2Reference {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Log2Reference {
    fn observe(&mut self, v: u64) {
        self.buckets.resize(65, 0);
        self.buckets[64 - v.leading_zeros() as usize] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    fn assert_matches(&self, h: &Histogram, case: &str) {
        let mut buckets = self.buckets.clone();
        buckets.resize(65, 0);
        assert_eq!(h.log2_buckets()[..], buckets[..], "{case}: log2 fold");
        assert_eq!((h.count(), h.sum(), h.max()), (self.count, self.sum, self.max), "{case}");
        let mean = if self.count == 0 { 0.0 } else { self.sum as f64 / self.count as f64 };
        assert_eq!(h.mean().to_bits(), mean.to_bits(), "{case}: mean");
    }
}

/// The log2 view folded from the minor buckets equals `64 -
/// leading_zeros` bucketing, and the moments are unchanged: on seeded
/// random values of every magnitude, on 0–16, on powers of two ±1, and
/// on values near `u64::MAX` (those above `2^61` one per histogram, so no
/// sum overflows).
#[test]
fn histogram_log2_fold_equals_leading_zeros_bucketing() {
    let around = |e: u32| [(1u64 << e) - 1, 1 << e, (1 << e) + 1];
    let mut all = (Histogram::default(), Log2Reference::default());
    for v in (0..=16u64).chain((1..61).flat_map(around)) {
        all.0.observe(v);
        all.1.observe(v);
    }
    all.1.assert_matches(&all.0, "edges");
    for v in (0..64).map(|d| u64::MAX - d).chain((61..64).flat_map(around)) {
        let (mut h, mut r) = (Histogram::default(), Log2Reference::default());
        h.observe(v);
        r.observe(v);
        r.assert_matches(&h, &format!("near max {v}"));
    }
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xE0_0007 + case);
        let (mut h, mut r) = (Histogram::default(), Log2Reference::default());
        for _ in 0..range(&mut rng, 0, 200) {
            // A random magnitude, then a random value of it.
            let v = rng.next_u64() >> range(&mut rng, 8, 64);
            h.observe(v);
            r.observe(v);
        }
        r.assert_matches(&h, &format!("case {case}"));
    }
}

/// StatSet merge is additive on counters.
#[test]
fn statset_merge_additive() {
    const NAMES: [&str; 4] = ["w", "x", "y", "z"];
    for case in 0..256u64 {
        let mut rng = SplitMix64::new(0xE0_0006 + case);
        let a: Vec<usize> = (0..range(&mut rng, 0, 50)).map(|_| range(&mut rng, 0, 4) as usize).collect();
        let b: Vec<usize> = (0..range(&mut rng, 0, 50)).map(|_| range(&mut rng, 0, 4) as usize).collect();
        let mut sa = StatSet::new();
        let mut sb = StatSet::new();
        for &i in &a {
            sa.add(NAMES[i], 1);
        }
        for &i in &b {
            sb.add(NAMES[i], 1);
        }
        sa.merge(&sb);
        for (i, name) in NAMES.iter().enumerate() {
            let expect = a.iter().filter(|&&x| x == i).count() as u64
                + b.iter().filter(|&&x| x == i).count() as u64;
            assert_eq!(sa.get(name), expect, "case {case}: counter {name}");
        }
    }
}
