//! The host-speed reference: a fixed piece of work that calls nothing
//! in the HAL crates, timed right before and after every repetition.
//!
//! The benchmark runs on a few cores of a shared host that alternates,
//! for seconds to minutes at a time, between two speeds a factor of
//! about 1.5 apart, with no steal time to subtract (see `README.md`).
//! Inside a slow phase no statistic of raw repetition time — not even
//! the fastest — says what the program costs. The reference work is
//! slowed with it: the fastest repetition divided by the fastest lap
//! taken in the same run stays put, and that ratio, scaled by
//! [`NOMINAL_S`], is what the repetition workloads report.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::Instant;

/// What the fastest [`Pace::lap`] of a run takes on the reference host
/// (this repo's 2-vCPU 2.1 GHz Xeon guest) at its faster speed. A
/// timing "at reference speed" is `wall × NOMINAL_S ÷ lap wall`.
pub const NOMINAL_S: f64 = 600e-6;

/// What the fastest of `walls` costs at reference speed, seconds: it
/// divided by the fastest of `laps`, times [`NOMINAL_S`]. If the host
/// ran at its faster speed for the length of a repetition at any time in
/// the run, both are taken at that speed; if it never did, both are slow
/// and the ratio still takes most of the slowdown out. `laps` holds, for
/// each repetition of the run, the slower of the two laps around it.
pub fn at_reference_speed(walls: impl Iterator<Item = f64>, laps: &[f64]) -> f64 {
    let fastest_wall = walls.fold(f64::INFINITY, f64::min);
    let fastest_lap = laps.iter().copied().fold(f64::INFINITY, f64::min);
    NOMINAL_S * fastest_wall / fastest_lap
}

/// Steps per lap.
const STEPS: usize = 5_000;
/// Live keys in the map; with the heap, a working set of ≈ 80 KiB:
/// beyond the L1 cache, well inside the L2, and small enough for the
/// untimed half lap to bring all of it back (with 4 096 keys the fastest
/// lap pair of a run moved by ± 6 % from run to run, with 1 024 by
/// ± 2.5 %).
const KEYS: u64 = 1_024;
/// Events waiting in the heap.
const DEPTH: u64 = 1_024;
/// Messages in flight: each is allocated this many steps before it is
/// freed.
const IN_FLIGHT: usize = 64;

/// The reference work: an actor simulator's inner loop in miniature —
/// pop the earliest entry of a binary heap, look its key up in a hash
/// map and replace the record found there, allocate a short argument
/// vector and free the one allocated [`IN_FLIGHT`] steps ago, push a
/// successor — on xorshift-drawn keys. Heap, table and allocator churn
/// is what the workloads spend their time on, and what the host's slow
/// phase costs most (see `README.md`). Only the in-flight vectors live
/// on the program's heap, and they are recycled within a lap: records
/// boxed there would drift all over whatever heap the program leaves
/// behind, and a lap would cost what that heap's layout makes it cost.
pub struct Pace {
    heap: BinaryHeap<(u64, u64)>,
    map: HashMap<u64, [u64; 6]>,
    in_flight: VecDeque<Vec<u64>>,
    state: u64,
    sink: u64,
}

impl Pace {
    /// A warmed-up reference (tables at their steady size).
    pub fn new() -> Self {
        let mut p = Pace {
            heap: (0..DEPTH)
                .map(|i| (i.wrapping_mul(7_919) % DEPTH, i))
                .collect(),
            map: HashMap::new(),
            in_flight: VecDeque::new(),
            state: 0x2545_F491_4F6C_DD1D,
            sink: 0,
        };
        for _ in 0..8 {
            p.lap();
        }
        p
    }

    /// Do the reference work once; seconds it took. Half a lap runs
    /// untimed first, to fetch the tables back from wherever the work
    /// since the last lap pushed them.
    pub fn lap(&mut self) -> f64 {
        self.steps(STEPS / 2);
        let t0 = Instant::now();
        self.steps(STEPS);
        t0.elapsed().as_secs_f64()
    }

    fn steps(&mut self, n: usize) {
        let mut x = self.state;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (at, _) = self.heap.pop().expect("the heap never drains");
            let key = x % KEYS;
            if let Some(old) = self.map.remove(&key) {
                self.sink = self.sink.wrapping_add(old[1]);
            }
            self.map.insert(key, [x, at, 0, 0, 0, 0]);
            let mut args = Vec::with_capacity(2 + (x & 3) as usize);
            args.extend([x, at]);
            self.in_flight.push_back(args);
            if self.in_flight.len() > IN_FLIGHT {
                let done = self.in_flight.pop_front().expect("just checked");
                self.sink = self.sink.wrapping_add(done[0]);
            }
            self.heap.push((at + (x >> 54), x));
        }
        self.state = x;
        std::hint::black_box(self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_phase_of_the_host_cancels_out() {
        // 40 ms repetitions on the reference host; in its slow phase a
        // repetition and a lap both take 1.5 times as long.
        let quiet = (
            [0.041, 0.040, 0.042],
            [1.02, 1.0, 1.01, 1.04].map(|x| x * NOMINAL_S),
        );
        let busy = (quiet.0.map(|w| w * 1.5), quiet.1.map(|l| l * 1.5));
        // A run that saw both speeds: the second repetition was quiet.
        let mixed = (
            [busy.0[0], quiet.0[1], busy.0[2]],
            [busy.1[0], quiet.1[1], quiet.1[2], busy.1[3]],
        );
        for (walls, laps) in [quiet, busy, mixed] {
            let s = at_reference_speed(walls.into_iter(), &laps);
            assert!((s - 0.040).abs() < 1e-9, "{s}");
        }
        // A program that really got slower still shows, whatever the host does.
        let slower = at_reference_speed(busy.0.into_iter().map(|w| w * 1.1), &busy.1);
        assert!((slower - 0.044).abs() < 1e-9, "{slower}");
    }

    #[test]
    fn laps_do_the_same_work_every_time() {
        let mut p = Pace::new();
        let depth = p.heap.len();
        assert!(p.lap() > 0.0);
        assert_eq!(p.heap.len(), depth, "one pop, one push per step");
        assert!(p.map.len() as u64 <= KEYS);
        assert_eq!(p.in_flight.len(), IN_FLIGHT);
    }
}
