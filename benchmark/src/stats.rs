//! The harness's own arithmetic: medians, quartiles, the tail percentile
//! a sample can support, and a seeded generator for inputs.

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(samples, n=4)` computes them (the driver's
/// method), so a spread printed here is the spread the driver sees.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// How far a loop's median can be trusted, in percent of itself: the
/// median is recomputed on each of five interleaved fifths of the
/// samples (every fifth pass, so each fifth spans the whole loop) and
/// the quartile distance of those five is taken. A fifth's median is
/// noisier than the whole loop's, so this errs on the wide side. Unlike
/// the spread of single passes it stays small when the passes are of
/// different kinds, as in `query-mix`. 0 for fewer than ten samples.
pub fn median_noise_pct(samples: &[f64]) -> f64 {
    const FIFTHS: usize = 5;
    if samples.len() < 2 * FIFTHS {
        return 0.0;
    }
    let medians: Vec<f64> = (0..FIFTHS)
        .map(|k| {
            let fifth: Vec<f64> = samples.iter().skip(k).step_by(FIFTHS).copied().collect();
            median(&fifth)
        })
        .collect();
    let [q1, _, q3] = quartiles(&medians);
    let whole = median(samples);
    if whole == 0.0 {
        0.0
    } else {
        (q3 - q1) / whole * 100.0
    }
}

/// The percentile to report in place of `want` so that at least ten
/// samples lie beyond it: `want` itself when the sample is large enough
/// (200 samples for p95), otherwise the highest percentile that is,
/// never below the median.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let want_rank = (want / 100.0 * n as f64).ceil() as usize;
    let max_rank = n.saturating_sub(10);
    if want_rank <= max_rank {
        want
    } else {
        (100.0 * max_rank as f64 / n as f64).max(50.0)
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail latency of a loop: p95 under the ten-samples-beyond rule.
/// Returns `(value, percentile actually used)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = supported_percentile(samples.len(), 95.0);
    if p == 50.0 {
        (median(samples), p)
    } else {
        (percentile(samples, p), p)
    }
}

/// SplitMix64: the seeded stream behind every generated input that the
/// program's own generators do not produce (query windows, the query
/// stream, sampled node pairs).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer, also the per-pair hash of the checksum.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for sub-stream `k` of run seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    mix64(seed ^ mix64(k.wrapping_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_noise_ignores_a_mix_of_kinds_but_sees_drift() {
        // Two kinds of pass, 1 ms and 100 ms, four to three: single passes
        // spread over thousands of percent, the median does not move.
        let mixed: Vec<f64> = (0..200)
            .map(|i| if i % 7 < 4 { 1.0 } else { 100.0 })
            .collect();
        let [q1, q2, q3] = quartiles(&mixed);
        assert!((q3 - q1) / q2 > 10.0);
        assert_eq!(median_noise_pct(&mixed), 0.0);
        // The same passes, every fifth 20 % slower: the fifths disagree.
        let drifting: Vec<f64> = (0..200)
            .map(|i| if i % 5 == 0 { 12.0 } else { 10.0 })
            .collect();
        assert!(median_noise_pct(&drifting) > 0.0);
        assert_eq!(median_noise_pct(&[1.0; 9]), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        assert_eq!(supported_percentile(1000, 95.0), 95.0);
        // One sample short: rank 190 of 199 would leave nine beyond.
        let p = supported_percentile(199, 95.0);
        assert!(p < 95.0 && p > 94.9, "{p}");
        assert!((supported_percentile(136, 95.0) - 100.0 * 126.0 / 136.0).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_percentile(10, 95.0), 50.0);
        assert_eq!(supported_percentile(0, 95.0), 50.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, p) = tail(&v);
        assert_eq!((value, p), (190.0, 95.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, p) = tail(&v);
        assert_eq!((value, p), (40.0, 80.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn splitmix_is_seeded_and_in_range() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            let x = a.range_f64(0.25, 0.5);
            assert!((0.25..0.5).contains(&x));
            assert!(a.below(7) < 7);
        }
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
    }
}
