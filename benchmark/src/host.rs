//! What the benchmark reads from the host: memory high-water mark, CPU
//! time, load average, core count — and, in the traced binary only, a
//! counting allocator.

use std::fs;

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`. Linux reports these in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are well-formed. utime/stime are fields 14/15,
    // i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// 1-minute load average.
pub fn load_avg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Cores this process could run on when it first asked (before
/// [`pin_to_current_core`] narrows that to one).
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Keep this process — the calling thread and every thread it spawns
/// from now on — on the core it is running on, so that the reference
/// laps of [`crate::pace`] and the work they are compared with see the
/// same core's speed. Returns whether the kernel agreed; the benchmark
/// runs either way.
pub fn pin_to_current_core() -> bool {
    cores();
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes and that is the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `rustc -V` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// (allocations, bytes) since process start; zeros in the untraced
/// binary, which has no counting allocator.
pub fn alloc_counts() -> (u64, u64) {
    #[cfg(feature = "count-alloc")]
    {
        counting::counts()
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        (0, 0)
    }
}

#[cfg(feature = "count-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged; the counters touch no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: same layout the caller vouched for.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: same layout the caller vouched for.
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            // SAFETY: `ptr`/`layout` describe a live `System` block.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    pub fn counts() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.1);
        assert!(cpu_seconds() >= 0.0);
        assert!(load_avg_1m() >= 0.0);
        assert!(cores() >= 1);
        assert!(rustc_version().starts_with("rustc"));
    }
}
