//! Order statistics and the replay fingerprint.
//!
//! Host timings are reported as the median across repetitions with the
//! quartiles and sample count beside it; virtual latencies as nearest-rank
//! percentiles with the number of samples that lie beyond the percentile, so
//! a p99 backed by fewer than ten tail samples is visible as such.

/// Median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` over the sorted copy of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median with quartiles and the sample count, as printed for host metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Spread {
        Spread {
            median: median(xs),
            q1: quantile(xs, 0.25),
            q3: quantile(xs, 0.75),
            n: xs.len(),
        }
    }

    /// Interquartile range as a share of the median, in percent.
    pub fn iqr_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

/// A nearest-rank percentile with the number of samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    pub value: u64,
    /// Samples ranked above the percentile's own rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` in `(0, 100]` of an already sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    Percentile {
        value: sorted[idx],
        beyond: sorted.len() - 1 - idx,
    }
}

/// Whether a percentile has the ten samples beyond it that make it a
/// measurement rather than an extreme value.
pub fn tail_is_backed(p: Percentile) -> bool {
    p.beyond >= 10
}

/// FNV-1a over the completion stream: equal fingerprints across repetitions
/// mean the simulator replayed bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert!((s.iqr_pct() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(Spread::of(&[7.0]).iqr_pct(), 0.0);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let xs: Vec<u64> = (1..=1000).collect();
        let p99 = percentile_sorted(&xs, 99.0);
        assert_eq!((p99.value, p99.beyond), (990, 10));
        assert!(tail_is_backed(p99));
        let p50 = percentile_sorted(&xs, 50.0);
        assert_eq!((p50.value, p50.beyond), (500, 500));
        // 999 samples leave only nine beyond the 99th percentile.
        let p99 = percentile_sorted(&xs[..999], 99.0);
        assert_eq!(p99.beyond, 9);
        assert!(!tail_is_backed(p99));
        assert_eq!(
            percentile_sorted(&[5], 99.0),
            Percentile {
                value: 5,
                beyond: 0
            }
        );
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fingerprint::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Fingerprint::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }
}
