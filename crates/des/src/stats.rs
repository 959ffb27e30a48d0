//! Lightweight counters and histograms for simulation diagnostics.
//!
//! Every experiment in the paper's evaluation is ultimately a table of
//! times plus derived quantities (MFLOPS, actor counts). The kernels and
//! the network layer record raw facts — messages sent, FIR hops, bulk
//! grants, actors created — into a `StatSet`, which the bench harnesses
//! read back. Counters are plain `u64`s keyed by static names.
//!
//! The recording path sits on every message, so it neither compares
//! strings nor walks a tree: counter values live in a `Vec<u64>`, and a
//! memo keyed by the name's *address and length* sends a repeat `bump`
//! from the same call site straight to its slot (a `&'static str` is
//! immutable for the life of the program, so equal address and length
//! mean equal text). Only a site's first bump goes through the name →
//! slot index, a `BTreeMap` that otherwise serves the cold side: `get`,
//! name-ordered iteration, `merge`, equality and `Debug`. The same name
//! spelled at two addresses resolves to one slot through that index.
//!
//! The memo is an open-addressed table that grows and never evicts. A
//! fixed direct-mapped cache was measured first and dropped: literal
//! addresses move with ASLR, so which hot sites shared an entry — and
//! fell back to the tree on every bump — changed from one process to the
//! next (0.6 % to 19 % of bumps on one workload, same binary).

use std::collections::BTreeMap;
use std::fmt;

/// One remembered call site: the name's address and length, and the slot
/// of its counter. `ptr == 0` marks an empty entry — no `&str` points
/// there.
#[derive(Clone, Copy, Default)]
struct Site {
    ptr: usize,
    len: usize,
    slot: u32,
}

/// Call site → counter slot, by address: open addressing with linear
/// probing in a power-of-two table kept at most half full, so a probe
/// always ends at an empty entry. Empty (and unallocated) until the first
/// bump.
#[derive(Clone, Default)]
struct Sites {
    table: Vec<Site>,
    used: usize,
}

impl Sites {
    /// First table size.
    const MIN_TABLE: usize = 16;
    /// The table stops growing here (512 sites, 24 KiB); later sites go
    /// through the index on every bump. Bounds a program that keeps
    /// minting names at new addresses.
    const MAX_TABLE: usize = 1024;

    /// Where probing for an address starts, before masking. Literals sit
    /// packed in rodata, so the multiply spreads neighbours apart.
    #[inline]
    fn home(ptr: usize) -> usize {
        ((ptr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// The slot remembered for this exact `&'static str`, if any.
    #[inline]
    fn find(&self, name: &'static str) -> Option<usize> {
        let (ptr, len) = (name.as_ptr() as usize, name.len());
        let mask = self.table.len().wrapping_sub(1);
        let mut i = Self::home(ptr) & mask;
        // `get` doubles as the emptiness test: no index is in an empty table.
        while let Some(site) = self.table.get(i) {
            if site.ptr == ptr && site.len == len {
                return Some(site.slot as usize);
            }
            if site.ptr == 0 {
                break;
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Remember that `name` counts into `slot`.
    fn remember(&mut self, name: &'static str, slot: usize) {
        if self.used * 2 >= self.table.len() {
            if self.table.len() >= Self::MAX_TABLE {
                return;
            }
            let bigger = vec![Site::default(); (self.table.len() * 2).max(Self::MIN_TABLE)];
            for site in std::mem::replace(&mut self.table, bigger) {
                if site.ptr != 0 {
                    self.place(site);
                }
            }
        }
        self.place(Site {
            ptr: name.as_ptr() as usize,
            len: name.len(),
            slot: slot as u32,
        });
        self.used += 1;
    }

    /// Put `site` in the first empty entry of its probe sequence.
    fn place(&mut self, site: Site) {
        let mask = self.table.len() - 1;
        let mut i = Self::home(site.ptr) & mask;
        while self.table[i].ptr != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = site;
    }
}

/// A named set of counters and log2-bucketed histograms.
#[derive(Clone, Default)]
pub struct StatSet {
    /// Counter values by slot, in first-touch order.
    values: Vec<u64>,
    /// Name → slot of every counter touched so far.
    index: BTreeMap<&'static str, u32>,
    /// Memo in front of `index` for `add`; never consulted for reads.
    sites: Sites,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Two sets are equal when they hold the same counters and histograms
/// with the same values; slot order and the site memo are not state.
impl PartialEq for StatSet {
    fn eq(&self, other: &Self) -> bool {
        self.counters().eq(other.counters()) && self.histograms == other.histograms
    }
}

impl Eq for StatSet {}

impl StatSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at zero first).
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        let slot = match self.sites.find(name) {
            Some(slot) => slot,
            None => self.slot_unremembered(name),
        };
        self.values[slot] += delta;
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// The slot of `name` through the index, remembered for this site.
    #[cold]
    #[inline(never)]
    fn slot_unremembered(&mut self, name: &'static str) -> usize {
        let slot = self.slot_indexed(name);
        self.sites.remember(name, slot);
        slot
    }

    /// The slot of `name`, created at zero on first touch.
    fn slot_indexed(&mut self, name: &'static str) -> usize {
        let next = u32::try_from(self.values.len()).expect("fewer than 2^32 counters");
        let slot = *self.index.entry(name).or_insert(next);
        if slot == next {
            self.values.push(0);
        }
        slot as usize
    }

    /// Read counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map_or(0, |&slot| self.values[slot as usize])
    }

    /// Record `value` into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Read back a histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order (stable output for goldens).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.index
            .iter()
            .map(|(&name, &slot)| (name, self.values[slot as usize]))
    }

    /// Merge another set into this one (counters add, histograms merge).
    pub fn merge(&mut self, other: &StatSet) {
        for (name, v) in other.counters() {
            let slot = self.slot_indexed(name);
            self.values[slot] += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
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

    #[test]
    fn counters_accumulate() {
        let mut s = StatSet::new();
        s.bump("msgs");
        s.add("msgs", 4);
        assert_eq!(s.get("msgs"), 5);
        assert_eq!(s.get("never"), 0);
    }

    /// A copy of `name` at an address of its own.
    fn leaked(name: &str) -> &'static str {
        Box::leak(name.to_owned().into_boxed_str())
    }

    #[test]
    fn one_name_at_two_addresses_is_one_counter() {
        let literal: &'static str = "msgs.local";
        let copy = leaked(literal);
        assert_ne!(literal.as_ptr(), copy.as_ptr());
        let mut s = StatSet::new();
        for _ in 0..3 {
            s.bump(literal);
            s.bump(copy);
        }
        assert_eq!(s.get("msgs.local"), 6);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("msgs.local", 6)]);
    }

    #[test]
    fn more_sites_than_the_memo_holds_stay_exact() {
        // Grows the memo through every size, then past its cap: the last
        // names are never remembered and count through the index.
        let names: Vec<&'static str> = (0..Sites::MAX_TABLE)
            .map(|i| leaked(&format!("c{i:04}")))
            .collect();
        let mut s = StatSet::new();
        for round in 1..=3u64 {
            for (i, &n) in names.iter().enumerate() {
                s.add(n, i as u64 + round);
            }
        }
        for (i, &n) in names.iter().enumerate() {
            assert_eq!(s.get(n), 3 * i as u64 + 6, "{n}");
        }
        assert_eq!(s.counters().count(), names.len());
        assert_eq!(s.sites.used, Sites::MAX_TABLE / 2, "memo stops at half full");
    }

    #[test]
    fn equality_clone_and_order_ignore_insertion_order_and_memo() {
        let (a, b, c) = (leaked("alpha"), leaked("beta"), leaked("gamma"));
        let mut fwd = StatSet::new();
        fwd.add(a, 1);
        fwd.add(b, 2);
        fwd.add(c, 3);
        let mut rev = StatSet::new();
        rev.add("gamma", 3);
        rev.add("beta", 1);
        rev.add("alpha", 1);
        rev.bump("beta"); // a memo hit at a second address
        assert_eq!(fwd, rev);
        let order = |s: &StatSet| s.counters().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(order(&fwd), vec!["alpha", "beta", "gamma"]);
        assert_eq!(order(&rev), order(&fwd));
        assert_eq!(format!("{fwd:?}"), format!("{rev:?}"));

        let mut copy = rev.clone();
        assert_eq!(copy, rev);
        copy.bump(a);
        assert_ne!(copy, rev, "a clone counts on its own");
        assert_eq!(rev.get("alpha"), 1);

        // Merging into sets with different slot orders gives equal sets.
        let mut m1 = fwd.clone();
        m1.merge(&rev);
        let mut m2 = rev.clone();
        m2.merge(&fwd);
        assert_eq!(m1, m2);
        assert_eq!(m1.get("beta"), 4);
        // A counter touched with 0 exists, so it tells two sets apart.
        let mut touched = fwd.clone();
        touched.add("delta", 0);
        assert_ne!(touched, fwd);
    }

    #[test]
    fn get_of_an_untouched_name_creates_nothing() {
        let mut s = StatSet::new();
        s.bump("seen");
        assert_eq!(s.get("unseen"), 0);
        assert_eq!(s.counters().collect::<Vec<_>>(), vec![("seen", 1)]);
        assert_eq!(s, {
            let mut t = StatSet::new();
            t.bump("seen");
            t
        });
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
        let mut a = StatSet::new();
        a.add("x", 2);
        a.observe("h", 8);
        let mut b = StatSet::new();
        b.add("x", 3);
        b.add("y", 1);
        b.observe("h", 16);
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
        s.bump("zeta");
        s.bump("alpha");
        let names: Vec<_> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
