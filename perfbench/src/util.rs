//! Small shared pieces: a seeded PRNG, content hashing, percentiles.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Latency recorded for a failed, refused or timed-out request: it
/// misses every limit, so it sorts after every real latency.
pub const FAILED: u64 = u64::MAX;

/// SplitMix64: tiny, seedable, and stable across toolchains, so the
/// same `--seed` always yields the same inputs and request sequence.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of the workload seed.
    pub fn derived(seed: u64, stream: &str) -> Self {
        Rng(hash_of(&(seed, stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A deterministic 64-bit hash (SipHash with fixed keys).
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A nanosecond latency as milliseconds; a failed request (`FAILED`)
/// reads as the largest finite double, since JSON has no infinity.
pub fn ns_to_ms(ns: u64) -> f64 {
    if ns == FAILED {
        f64::MAX
    } else {
        ns as f64 / 1e6
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`) in KiB, 0 if unknown.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The CPU count the load and the server are sized to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}
