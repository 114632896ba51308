//! Order statistics, geometric means, digests and the host-speed probe.

use std::time::Instant;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The tail latency: the highest whole-number percentile with at least
/// ten samples beyond it, by nearest rank. Returns `(value, percentile,
/// samples_beyond)`. Whole percents keep the tail off the last few
/// order statistics of long runs, which host preemption dominates.
pub fn tail(values: &[f64]) -> (f64, u32, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n);
    (sorted[rank - 1], tail_percentile(n), n - rank)
}

/// The tail's whole-number percentile for `n` samples: the largest `p`
/// with `n·(1 - p/100) >= 10`.
pub fn tail_percentile(n: usize) -> u32 {
    assert!(n > 20, "a tail needs more than twenty samples, got {n}");
    ((100 * n - 1000) / n) as u32
}

/// The tail's 1-based nearest rank among `n` ascending samples.
pub fn tail_rank(n: usize) -> usize {
    (tail_percentile(n) as usize * n).div_ceil(100)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over newline-terminated lines: the canonical-response digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn line(&mut self, line: &str) {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of a sequence of lines, as 16 hex digits.
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut digest = Digest::new();
    for line in lines {
        digest.line(line);
    }
    digest.hex()
}

/// SplitMix64: the only source of randomness in workload generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Host-speed probe: wall time of a fixed CPU-bound loop in this
/// binary's own code, in milliseconds. A diagnostic only — it never
/// scales a metric — that separates host drift from program changes.
pub fn host_probe_ms() -> f64 {
    const ROUNDS: u64 = 20_000_000;
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..std::hint::black_box(ROUNDS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
