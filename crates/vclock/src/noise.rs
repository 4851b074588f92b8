//! Deterministic measurement-noise model.
//!
//! The paper's figures carry error bars from host scheduling events and the
//! host network stack (§4.2 notes "several outliers in all cases, likely due
//! to host kernel scheduling events"). This module reproduces that texture
//! with a seeded RNG so experiments stay bit-for-bit reproducible:
//!
//! * multiplicative jitter around each charged cost, and
//! * heavier-tailed network-stack jitter for loopback socket operations.

use crate::rng::Rng;

/// A seeded jitter source.
///
/// # Examples
///
/// ```
/// use vclock::noise::NoiseModel;
///
/// let mut a = NoiseModel::seeded(7);
/// let mut b = NoiseModel::seeded(7);
/// assert_eq!(a.jitter(10_000, 0.02), b.jitter(10_000, 0.02));
/// ```
#[derive(Debug, Clone)]
pub struct NoiseModel {
    rng: Rng,
    enabled: bool,
}

impl NoiseModel {
    /// Creates a noise model from a seed.
    pub fn seeded(seed: u64) -> NoiseModel {
        NoiseModel {
            rng: Rng::seeded(seed),
            enabled: true,
        }
    }

    /// Creates a disabled model: every call returns its input unchanged.
    /// Used by unit tests and by experiments that want exact minima
    /// (e.g. Table 1 reports *minimum* observed latencies).
    pub fn disabled() -> NoiseModel {
        NoiseModel {
            rng: Rng::seeded(0),
            enabled: false,
        }
    }

    /// Applies symmetric multiplicative jitter of relative magnitude
    /// `spread` (e.g. `0.02` for ±2 %) to `base` cycles.
    pub fn jitter(&mut self, base: u64, spread: f64) -> u64 {
        if !self.enabled || base == 0 || spread <= 0.0 {
            return base;
        }
        let f = 1.0 + self.rng.range_f64(-spread, spread);
        ((base as f64) * f).round().max(0.0) as u64
    }

    /// Network-stack variance: heavier-tailed jitter used for loopback
    /// socket operations (Figure 4's large standard deviations).
    pub fn net_jitter(&mut self, base: u64) -> u64 {
        if !self.enabled {
            return base;
        }
        // Log-normal-ish: usually close to base, occasionally 2-4x.
        let roll: f64 = self.rng.f64();
        let factor = if roll < 0.85 {
            self.rng.range_f64(0.9, 1.3)
        } else if roll < 0.98 {
            self.rng.range_f64(1.3, 2.2)
        } else {
            self.rng.range_f64(2.2, 4.0)
        };
        ((base as f64) * factor).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_is_identity() {
        let mut n = NoiseModel::disabled();
        assert_eq!(n.jitter(1234, 0.5), 1234);
        assert_eq!(n.net_jitter(999), 999);
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = NoiseModel::seeded(42);
        let mut b = NoiseModel::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.jitter(50_000, 0.05), b.jitter(50_000, 0.05));
            assert_eq!(a.net_jitter(10_000), b.net_jitter(10_000));
        }
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut n = NoiseModel::seeded(1);
        for _ in 0..1000 {
            let v = n.jitter(100_000, 0.02);
            assert!((98_000..=102_000).contains(&v), "jitter escaped: {v}");
        }
    }

    #[test]
    fn net_jitter_is_heavier_tailed_than_base() {
        let mut n = NoiseModel::seeded(9);
        let base = 10_000u64;
        let samples: Vec<u64> = (0..5_000).map(|_| n.net_jitter(base)).collect();
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        assert!(max > 2 * base, "expected heavy tail, max={max}");
        assert!(min >= (base as f64 * 0.9) as u64 - 1);
    }
}
