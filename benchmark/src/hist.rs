//! Log-linear latency histogram with bounded relative error.
//!
//! Values below 256 get exact one-unit buckets. Above that, every power of
//! two is split into 128 equal sub-buckets, so a bucket is at most 1/128
//! of its lower bound wide. A quantile is read from the bucket holding the
//! requested rank: in a wide bucket it is the mean of the samples there,
//! in an exact one the rank's position inside the bucket's unit. Either
//! way it is off from the exact order statistic by less than the bucket's
//! width (under 1%), and it moves with the samples from run to run instead
//! of snapping to a bucket edge.

/// Sub-bucket bits per power of two (128 sub-buckets: <= 1/128 relative width).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this get exact buckets.
const EXACT: u64 = SUB * 2;
/// Enough buckets for any `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// A histogram of `u64` samples (the benchmark records nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<u128>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) << SUB_BITS) + (v >> shift)) as usize
}

/// Lower bound and width of bucket `i`.
#[cfg(test)]
fn bucket(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = i - (shift << SUB_BITS);
    ((sub << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = index(v);
        self.counts[i] += 1;
        self.sums[i] += u128::from(v);
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // Rank of the wanted sample, 1-based.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                if (i as u64) < EXACT {
                    return Some(i as f64 + (rank - below) as f64 / (c + 1) as f64);
                }
                return Some(self.sums[i] as f64 / c as f64);
            }
            below += c;
        }
        unreachable!("rank <= total always lands in a bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check(mut values: Vec<u64>) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let want = exact_quantile(&values, q);
            let got = h.quantile(q).expect("non-empty");
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.01, "q={q}: got {got}, exact {want}, error {err}");
        }
    }

    #[test]
    fn buckets_tile_the_line() {
        let mut expect_lo = 0.0;
        for i in 0..BUCKETS - 1 {
            let (lo, width) = bucket(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert!(i < EXACT as usize || width / lo <= 1.0 / SUB as f64);
            expect_lo = lo + width;
        }
        for v in [0, 1, 255, 256, 257, 511, 512, 1 << 20, u64::MAX] {
            let (lo, width) = bucket(index(v));
            assert!(lo <= v as f64 && v as f64 <= lo + width, "{v}");
        }
    }

    #[test]
    fn uniform_quantiles_within_one_percent() {
        check((1..=200_000).map(|i| i * 7).collect());
    }

    #[test]
    fn exponential_quantiles_within_one_percent() {
        // Deterministic inverse-CDF sample of an exponential with mean 5 µs.
        let values = (1..100_000u64)
            .map(|i| {
                let u = i as f64 / 100_000.0;
                (-(1.0 - u).ln() * 5_000.0) as u64 + 100
            })
            .collect();
        check(values);
    }

    #[test]
    fn bimodal_latencies_within_one_percent() {
        // The decide mix: cache hits near 130 ns, misses near 2 µs.
        let values = (0..100_000u64)
            .map(|i| {
                if i % 50 == 0 {
                    2_000 + i % 97
                } else {
                    120 + i % 23
                }
            })
            .collect();
        check(values);
    }

    #[test]
    fn extremes_and_empty() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(1_000_000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), Some(1_000_000.0));
        assert_eq!(Histogram::default().quantile(0.5), None);
    }
}
