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

/// A finished run's counters and log2-bucketed histograms, by name.
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

/// A histogram with power-of-two buckets: bucket `i` counts values `v`
/// with `2^(i-1) <= v < 2^i` (bucket 0 counts zeros and ones).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let idx = 64 - value.leading_zeros() as usize; // 0 for v==0, 1 for v==1, ...
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
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

    /// The raw log2 bucket counts: bucket `i` counts values `v` with
    /// `2^(i-1) <= v < 2^i` (bucket 0 counts zeros). Exposed so
    /// exporters (spans/metrics JSON) can serialize the distribution,
    /// not just its moments.
    pub fn bucket_counts(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
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
