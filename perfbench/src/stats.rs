//! Small numeric and process helpers shared by every workload.

use std::time::Instant;

/// SplitMix64: the benchmark's only random source, so every input is a
/// pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// A generator for stream `index` under `seed`, independent of how
    /// many values other streams drew.
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut root = SplitMix(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Log-uniform in `[lo, hi]` (both positive).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds `f` takes, once.
pub fn time_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median over `rounds` of the mean nanoseconds per operation, where one
/// call of `round` performs `ops` operations.
pub fn per_op_ns(rounds: usize, ops: usize, mut round: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| time_s(&mut round).1 * 1e9 / ops as f64)
        .collect();
    median(&samples)
}

/// 64-bit digest of a byte string, word at a time. Response bodies are
/// compared through it so a run need not hold every body in memory.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        h = (h ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ (h >> 32)
}

/// Peak resident set of this process in MiB (`VmHWM`), NaN if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix::stream(7, 1).next_u64(),
            SplitMix::stream(7, 2).next_u64()
        );
    }

    #[test]
    fn digest_separates_bodies() {
        assert_eq!(digest(b"abcdefghij"), digest(b"abcdefghij"));
        assert_ne!(digest(b"abcdefghij"), digest(b"abcdefghik"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
