//! Fixed-bucket log-linear latency histogram (HDR-histogram style).
//!
//! Values are bucketed exactly up to `2^(sub_bits + 1)`, then into
//! `2^sub_bits` linear sub-buckets per power-of-two range, bounding the
//! relative quantization error at `2^-sub_bits`. All arithmetic is
//! integer-only and the bucket array is sized once at construction —
//! recording never allocates, so a histogram can sit on the simulator's
//! hot path.

/// Integer log-linear histogram with quantile extraction.
#[derive(Clone, Debug)]
pub struct Histogram {
    sub_bits: u32,
    max_value: u64,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram covering `0..=max_value` with `2^sub_bits` sub-buckets
    /// per power-of-two range. Values above `max_value` are clamped into
    /// the top bucket (and counted in `saturated` semantics via `max`).
    pub fn new(max_value: u64, sub_bits: u32) -> Histogram {
        assert!((1..=16).contains(&sub_bits), "sub_bits out of range");
        let max_value = max_value.max(2);
        let buckets = Self::index_of(max_value, sub_bits) + 1;
        Histogram {
            sub_bits,
            max_value,
            counts: vec![0; buckets],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Default shape for cycle-denominated latencies: ~1.6% relative
    /// error (`sub_bits = 6`) over a billion-cycle range.
    pub fn for_cycles() -> Histogram {
        Histogram::new(1 << 30, 6)
    }

    #[inline]
    fn index_of(v: u64, sub_bits: u32) -> usize {
        if v < (2u64 << sub_bits) {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let row = (msb - sub_bits) as usize;
            let sub = ((v >> (msb - sub_bits)) & ((1u64 << sub_bits) - 1)) as usize;
            ((row + 1) << sub_bits) + sub
        }
    }

    /// Lowest value mapping to bucket `idx`.
    #[inline]
    fn value_of(&self, idx: usize) -> u64 {
        let b = self.sub_bits as usize;
        if idx < (2usize << b) {
            idx as u64
        } else {
            let row = (idx >> b) - 1;
            let sub = (idx & ((1 << b) - 1)) as u64;
            ((1u64 << self.sub_bits) + sub) << row
        }
    }

    /// Width of bucket `idx` (1 in the exact region, `2^row` beyond).
    #[inline]
    fn width_of(&self, idx: usize) -> u64 {
        let b = self.sub_bits as usize;
        if idx < (2usize << b) {
            1
        } else {
            1u64 << ((idx >> b) - 1)
        }
    }

    /// Record one observation. Integer-only; never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = Self::index_of(v.min(self.max_value), self.sub_bits);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th observation, clamped to the
    /// largest value actually recorded.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let hi = self.value_of(idx) + self.width_of(idx) - 1;
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// The standard reporting tuple `(p50, p90, p99, p999)`.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.value_at_quantile(0.50),
            self.value_at_quantile(0.90),
            self.value_at_quantile(0.99),
            self.value_at_quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = Histogram::new(1 << 20, 5);
        for v in 0..64u64 {
            h.record(v);
        }
        // 64 observations 0..63: p50 lands on the 32nd (value 31).
        assert_eq!(h.value_at_quantile(0.5), 31);
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn log_region_error_is_bounded() {
        let mut h = Histogram::new(1 << 30, 6);
        for v in [100_000u64, 200_000, 400_000, 800_000] {
            h.record(v);
        }
        for (q, exact) in [(0.25, 100_000u64), (0.5, 200_000), (0.75, 400_000)] {
            let got = h.value_at_quantile(q);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(err < 1.0 / 32.0, "q={q}: got {got}, want ~{exact}");
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::for_cycles();
        for v in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 1_000] {
            h.record(v);
        }
        let (p50, p90, p99, p999) = h.percentiles();
        assert_eq!(p50, 3);
        assert_eq!(p90, 3);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        // Tail quantiles never exceed the recorded maximum.
        assert!(p999 <= 1_000);
        assert!(p99 >= 990, "p99 {p99} should land in the 1000 bucket");
    }

    #[test]
    fn recording_never_grows_the_bucket_array() {
        let mut h = Histogram::new(1 << 16, 4);
        let cap = h.counts.len();
        for v in 0..100_000u64 {
            h.record(v * 17); // exercises clamping past max_value
        }
        assert_eq!(h.counts.len(), cap);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn mean_and_merge() {
        let mut a = Histogram::new(1 << 10, 4);
        a.record(10);
        a.record(20);
        a.record(30);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 20.0).abs() < 1e-12);
        assert_eq!(a.max(), 30);
    }

    #[test]
    fn bucket_geometry_is_contiguous() {
        // Every value maps to a bucket whose [lo, lo+width) range contains it,
        // and consecutive buckets tile the axis with no gaps.
        let h = Histogram::new(1 << 20, 3);
        let mut expected_lo = 0u64;
        for idx in 0..h.counts.len() {
            let lo = h.value_of(idx);
            assert_eq!(lo, expected_lo, "gap before bucket {idx}");
            expected_lo = lo + h.width_of(idx);
        }
        for v in [0u64, 1, 15, 16, 17, 255, 256, 1023, 65_535, 1 << 20] {
            let idx = Histogram::index_of(v, 3);
            let lo = h.value_of(idx);
            assert!(
                lo <= v && v < lo + h.width_of(idx),
                "value {v} outside bucket {idx}"
            );
        }
    }
}
