//! The host as the benchmark sees it: process resource usage, read
//! through `getrusage(2)`, and the host's current pace.
//!
//! `RUSAGE_SELF` sums user and system time over every thread the process
//! ever ran, including the sweep and shard workers that have already
//! joined, which is what `cpu_s_per_sim_s` must count.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::os::raw::c_int;
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub max_rss_mb: f64,
}

/// Read this process's resource usage.
///
/// # Panics
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // of x86_64 and aarch64 Linux (18 × 8 bytes); the kernel writes only
    // inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// Host seconds [`pace`] takes when the host runs at its reference speed.
/// End-to-end times are scaled by `PACE_REFERENCE_S / pace()`, so they
/// read as host seconds at that speed.
pub const PACE_REFERENCE_S: f64 = 0.05;

/// A fixed reference loop with the simulator's mix of work (hash-map
/// lookups over a few MiB, a binary heap, formatting SIP-sized strings),
/// written against `std` only so that no change to the simulator moves
/// it.
fn reference_work() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 17);
    for _ in 0..150_000 {
        *map.entry(next() % 250_000).or_insert(0) += 1;
    }
    let hits = (0..300_000)
        .filter(|_| map.contains_key(&(next() % 250_000)))
        .count();
    let mut heap = BinaryHeap::with_capacity(4096);
    for i in 0..500_000 {
        heap.push(std::cmp::Reverse(next() % 1_000_000 + i));
        if heap.len() > 3000 {
            heap.pop();
        }
    }
    let mut names = Vec::with_capacity(256);
    for i in 0..150_000 {
        names.push(format!("call-{i}@10.0.0.1"));
        names.push(format!(
            "SIP/2.0/UDP 10.0.0.{}:5060;branch=z9hG4bK-{i}",
            i % 250
        ));
        if names.len() == 256 {
            names.clear();
        }
    }
    black_box((hits, heap.len(), names.len()));
}

/// The host's current pace: the mean host seconds the reference loop
/// takes when `threads` threads, as many as the workload uses, run it at
/// once. Its speed shifts by up to 1.45× for minutes at a time on a
/// shared host, and the simulator's run time follows it.
pub fn pace(threads: usize) -> f64 {
    let alone = || {
        let t0 = Instant::now();
        reference_work();
        t0.elapsed().as_secs_f64()
    };
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(alone)).collect();
        alone()
            + others
                .into_iter()
                .map(|h| h.join().expect("reference loop panicked"))
                .sum::<f64>()
    });
    total / threads as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.max_rss_mb > 0.0);
    }
}
