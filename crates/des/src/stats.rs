//! Counters and histograms for simulation diagnostics.
//!
//! Every experiment in the paper's evaluation is ultimately a table of
//! times plus derived quantities (MFLOPS, actor counts). The kernels and
//! the network layer record raw facts — messages sent, FIR hops, bulk
//! grants — on every message, so a write must be as cheap as the paper's
//! locality check: a compare, not a lookup. Each counting crate
//! therefore declares its counters once, with [`counters!`](crate::counters):
//! a `Copy` enum whose variants index the crate's own counter array, each
//! mapped to the name it is reported under. A write is one indexed add,
//! and a misspelt counter does not compile.
//!
//! [`StatSet`] is the cold side: a finished run's counters and histograms
//! by name, which tests, harnesses and the benchmark read back. A report
//! sums its tables and names each nonzero entry once.

use std::collections::BTreeMap;
use std::fmt;

/// Declare a counter table:
///
/// ```
/// hal_des::counters! {
///     /// What the example counts.
///     pub enum Demo {
///         Sends => "demo.sends",
///         Drops => "demo.drops",
///     }
/// }
/// let mut counts = [0u64; Demo::COUNT];
/// counts[Demo::Drops as usize] += 1;
/// assert_eq!(Demo::ALL.iter().map(|c| c.name()).collect::<Vec<_>>(), ["demo.sends", "demo.drops"]);
/// ```
///
/// Each variant is documented with its output name.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis enum $ty:ident { $($var:ident => $name:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $ty {
            $(#[doc = concat!("`", $name, "`")] $var,)+
        }

        impl $ty {
            /// Every counter, in index order.
            pub const ALL: &'static [$ty] = &[$($ty::$var),+];
            /// How many counters the table declares: its array length.
            pub const COUNT: usize = Self::ALL.len();

            /// The name the counter is reported under.
            pub const fn name(self) -> &'static str {
                match self { $($ty::$var => $name,)+ }
            }
        }
    };
}

/// A finished run's counters and histograms, by name.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StatSet {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl StatSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at zero first).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Add each nonzero count under its name: how a counter table's
    /// array becomes a report's counters, so an event that never
    /// happened leaves no entry.
    pub fn add_nonzero(&mut self, named: impl IntoIterator<Item = (&'static str, u64)>) {
        for (name, n) in named.into_iter().filter(|&(_, n)| n > 0) {
            self.add(name, n);
        }
    }

    /// Read counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merge `h`'s samples into histogram `name`. An empty `h` adds
    /// nothing, so [`StatSet::histogram`] stays `None` for a name under
    /// which nothing was observed.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        if h.count() > 0 {
            self.histograms.entry(name).or_default().merge(h);
        }
    }

    /// Read back a histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order (stable output for goldens).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &v)| (name, v))
    }

    /// Merge another set into this one (counters add, histograms merge).
    pub fn merge(&mut self, other: &StatSet) {
        for (name, v) in other.counters() {
            self.add(name, v);
        }
        for (&k, h) in &other.histograms {
            self.merge_histogram(k, h);
        }
    }
}

impl fmt::Debug for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.counters()).finish()
    }
}

/// Linear minor buckets per power-of-two major bucket: `2^MINOR_BITS`,
/// which bounds a bucket's width at `2^-MINOR_BITS` (6.25 %) of its
/// lower edge.
const MINOR_BITS: u32 = 4;
const MINORS: usize = 1 << MINOR_BITS;

/// A log2-major × linear-minor histogram: every value below 16 has a
/// bucket of its own, and each power-of-two range `[2^e, 2^(e+1))` from
/// 16 up is split into 16 equal buckets. Recording is one index
/// computation and one increment. The buckets are allocated on the first
/// sample, and only as far as the largest value needs, so an unused
/// histogram costs no heap.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Equal contents: the same moments and the same count in every bucket,
/// however far each side's bucket vector happens to reach.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.buckets.len() <= other.buckets.len() {
            (&self.buckets, &other.buckets)
        } else {
            (&other.buckets, &self.buckets)
        };
        (self.count, self.sum, self.min, self.max) == (other.count, other.sum, other.min, other.max)
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&c| c == 0)
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// The bucket holding `v`.
    fn index(v: u64) -> usize {
        if v < MINORS as u64 {
            return v as usize;
        }
        let exp = v.ilog2();
        let minor = (v >> (exp - MINOR_BITS)) as usize - MINORS;
        (exp - MINOR_BITS + 1) as usize * MINORS + minor
    }

    /// Upper bound (exclusive) of bucket `i`: the conservative value a
    /// quantile falling in it reports. Saturates for the last bucket,
    /// whose true bound is `2^64`.
    fn bucket_upper(i: usize) -> u64 {
        if i < MINORS {
            return i as u64 + 1;
        }
        let exp = (i / MINORS) as u32 + MINOR_BITS - 1;
        let minor = (i % MINORS) as u128;
        let upper = (MINORS as u128 + minor + 1) << (exp - MINOR_BITS);
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// The power-of-two bucket of minor bucket `i`: `64 - leading_zeros`
    /// of every value it holds. Every value below 16 has a minor bucket
    /// of its own, and each log2 bucket from 16 up is exactly 16 minor
    /// buckets, so the fold is exact.
    fn log2_of(i: usize) -> usize {
        if i < MINORS {
            64 - (i as u64).leading_zeros() as usize
        } else {
            i / MINORS + MINOR_BITS as usize
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let i = Self::index(value);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample seen (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding that rank, capped at the largest sample, so the
    /// estimate never understates the true quantile and overstates it by
    /// at most one bucket's width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fraction of samples that may exceed `v`. Conservative: a bucket
    /// whose upper bound exceeds `v` counts entirely, so quantization can
    /// only overstate the fraction, never hide it.
    pub fn frac_above(&self, v: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let above: u64 = (self.buckets.iter().enumerate())
            .filter(|&(i, &c)| c > 0 && Self::bucket_upper(i) > v)
            .map(|(_, &c)| c)
            .sum();
        above as f64 / self.count as f64
    }

    /// The power-of-two view exporters write: bucket `i` counts values
    /// `v` with `2^(i-1) <= v < 2^i` (bucket 0 counts zeros), folded
    /// exactly from the minor buckets.
    pub fn log2_buckets(&self) -> [u64; 65] {
        let mut log2 = [0; 65];
        for (i, &c) in self.buckets.iter().enumerate() {
            log2[Self::log2_of(i)] += c;
        }
        log2
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        /// A three-entry table for the macro's own tests.
        enum Trio {
            First => "t.first",
            Second => "t.second",
            Third => "t.third",
        }
    }

    #[test]
    fn a_counter_table_indexes_in_declaration_order() {
        assert_eq!(Trio::COUNT, 3);
        let indices: Vec<usize> = Trio::ALL.iter().map(|&c| c as usize).collect();
        assert_eq!(indices, [0, 1, 2]);
        assert_eq!(Trio::Second.name(), "t.second");
        let mut counts = [0u64; Trio::COUNT];
        counts[Trio::Third as usize] += 2;
        let mut s = StatSet::new();
        s.add_nonzero(Trio::ALL.iter().map(|c| c.name()).zip(counts));
        assert_eq!(s.counters().collect::<Vec<_>>(), [("t.third", 2)], "zeros are not named");
    }

    #[test]
    fn counters_accumulate() {
        let mut s = StatSet::new();
        s.add("msgs", 1);
        s.add("msgs", 4);
        assert_eq!(s.get("msgs"), 5);
        assert_eq!(s.get("never"), 0);
    }

    #[test]
    fn equality_and_order_ignore_insertion_order() {
        let mut fwd = StatSet::new();
        fwd.add("alpha", 1);
        fwd.add("beta", 2);
        fwd.add("gamma", 3);
        let mut rev = StatSet::new();
        rev.add("gamma", 3);
        rev.add("beta", 2);
        rev.add("alpha", 1);
        assert_eq!(fwd, rev);
        let order = |s: &StatSet| s.counters().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(order(&rev), vec!["alpha", "beta", "gamma"]);
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));
        // A counter touched with 0 exists, so it tells two sets apart.
        let mut touched = fwd.clone();
        touched.add("delta", 0);
        assert_ne!(touched, fwd);
    }

    #[test]
    fn get_of_an_untouched_name_creates_nothing() {
        let mut s = StatSet::new();
        s.add("seen", 1);
        assert_eq!(s.get("unseen"), 0);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("seen", 1)]);
    }

    #[test]
    fn an_empty_histogram_is_not_folded() {
        let mut s = StatSet::new();
        s.merge_histogram("h", &Histogram::default());
        assert!(s.histogram("h").is_none());
        assert_eq!(s, StatSet::new());
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
    }

    #[test]
    fn hist_index_roundtrips_monotonically() {
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 15, 16, 17, 100, 1_000, 65_535, 1 << 20, u64::MAX >> 1, u64::MAX] {
            let i = Histogram::index(v);
            assert!(i >= last, "index must not regress at {v}");
            assert!(Histogram::bucket_upper(i) > v || v == u64::MAX, "upper bound covers {v}");
            last = i;
        }
    }

    #[test]
    fn hist_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::default();
        for i in 1..=1000u64 {
            h.observe(i * 1000);
        }
        let (p50, p99, p999) = (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p999 <= h.max());
        assert_eq!((h.min(), h.max()), (1_000, 1_000_000));
        // 6.25% bucket resolution around the true medians.
        assert!((450_000..=560_000).contains(&p50), "{p50}");
    }

    #[test]
    fn hist_merge_roundtrips_and_equality_ignores_allocation() {
        let mut h = Histogram::default();
        for v in [3u64, 900, 65_000, 12_000_000] {
            h.observe(v);
        }
        let mut r = Histogram::default();
        r.merge(&h);
        assert_eq!(r, h);
        assert_eq!((r.count(), r.min(), r.max()), (4, 3, 12_000_000));
        assert_eq!(r.quantile(0.5), h.quantile(0.5));
        // A histogram whose buckets reach further, all of it zeros, holds
        // the same samples.
        let mut wide = Histogram::default();
        wide.merge(&h);
        wide.buckets.resize(Histogram::index(u64::MAX) + 1, 0);
        assert_eq!(wide, h);
        assert_eq!(Histogram::default(), Histogram { buckets: vec![0; 4], ..Histogram::default() });
        let empty = Histogram::default();
        assert_eq!((empty.min(), empty.max(), empty.quantile(0.5)), (0, 0, 0));
    }

    #[test]
    fn frac_above_is_conservative_and_monotone() {
        let mut h = Histogram::default();
        for i in 1..=100u64 {
            h.observe(i * 1_000_000); // 1..=100 ms
        }
        assert_eq!(h.frac_above(0), 1.0);
        let f = h.frac_above(50_000_000);
        // True fraction above 50 ms is 0.50; bucket quantization may
        // only round up (conservative), never down.
        assert!((0.5..=0.6).contains(&f), "{f}");
        assert!(h.frac_above(200_000_000) == 0.0);
        assert!(h.frac_above(10_000_000) >= h.frac_above(90_000_000));
    }

    #[test]
    fn merge_combines_everything() {
        let sample = |v| {
            let mut h = Histogram::default();
            h.observe(v);
            h
        };
        let mut a = StatSet::new();
        a.add("x", 2);
        a.merge_histogram("h", &sample(8));
        let mut b = StatSet::new();
        b.add("x", 3);
        b.add("y", 1);
        b.merge_histogram("h", &sample(16));
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 24);
    }

    #[test]
    fn counter_iteration_is_sorted() {
        let mut s = StatSet::new();
        s.add("zeta", 1);
        s.add("alpha", 1);
        let names: Vec<_> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
