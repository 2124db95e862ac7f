//! Straggler modelling: heterogeneous and jittery worker compute times.
//!
//! The paper's opening motivation for asynchronous training is that
//! synchronous SGD "may suffer from worker lags". This module provides the
//! lag model both engines' virtual-time paths consume: each worker gets a
//! static speed multiplier plus optional per-iteration lognormal jitter,
//! all deterministic per seed.

/// A deterministic per-(worker, iteration) compute-time multiplier model.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerModel {
    /// Static multiplier per worker (1.0 = nominal speed). Workers beyond
    /// the vector's length use 1.0.
    pub static_multipliers: Vec<f64>,
    /// Sigma of the lognormal per-iteration jitter (0 disables jitter).
    pub jitter_sigma: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl StragglerModel {
    /// A uniform cluster: no stragglers, no jitter.
    pub fn none() -> Self {
        StragglerModel { static_multipliers: Vec::new(), jitter_sigma: 0.0, seed: 0 }
    }

    /// One straggler: worker 0 runs `slowdown`× slower than the rest.
    pub fn one_slow(slowdown: f64) -> Self {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        StragglerModel { static_multipliers: vec![slowdown], jitter_sigma: 0.0, seed: 0 }
    }

    /// Uniform cluster with lognormal jitter of the given sigma.
    pub fn jitter(sigma: f64, seed: u64) -> Self {
        StragglerModel { static_multipliers: Vec::new(), jitter_sigma: sigma, seed }
    }

    /// The compute-time multiplier for `worker` at local iteration `iter`.
    ///
    /// Pure function of `(model, worker, iter)` so replays are identical.
    pub fn multiplier(&self, worker: usize, iter: u64) -> f64 {
        let base = self.static_multipliers.get(worker).copied().unwrap_or(1.0);
        if self.jitter_sigma == 0.0 {
            return base;
        }
        // Deterministic gaussian from a SplitMix64 hash of (seed, worker,
        // iter) pushed through Box–Muller.
        let mut z = self
            .seed
            .wrapping_add((worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(iter.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u1 = ((z >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        let mut z2 = z.wrapping_mul(0x2545_F491_4F6C_DD1D);
        z2 ^= z2 >> 29;
        let u2 = (z2 >> 11) as f64 / (1u64 << 53) as f64;
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        base * (self.jitter_sigma * gauss).exp()
    }

    /// Whether the model is the trivial no-straggler model.
    pub fn is_none(&self) -> bool {
        self.static_multipliers.iter().all(|&m| m == 1.0) && self.jitter_sigma == 0.0
    }
}

impl Default for StragglerModel {
    fn default() -> Self {
        StragglerModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let m = StragglerModel::none();
        assert!(m.is_none());
        for w in 0..8 {
            for i in 0..8 {
                assert_eq!(m.multiplier(w, i), 1.0);
            }
        }
    }

    #[test]
    fn one_slow_targets_worker_zero() {
        let m = StragglerModel::one_slow(4.0);
        assert_eq!(m.multiplier(0, 3), 4.0);
        assert_eq!(m.multiplier(1, 3), 1.0);
        assert_eq!(m.multiplier(7, 0), 1.0);
        assert!(!m.is_none());
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn one_slow_rejects_speedup() {
        StragglerModel::one_slow(0.5);
    }

    #[test]
    fn jitter_is_deterministic_and_positive() {
        let m = StragglerModel::jitter(0.3, 42);
        for w in 0..4 {
            for i in 0..16 {
                let a = m.multiplier(w, i);
                let b = m.multiplier(w, i);
                assert_eq!(a, b);
                assert!(a > 0.0);
            }
        }
        // Different (worker, iter) pairs draw different multipliers.
        assert_ne!(m.multiplier(0, 0), m.multiplier(0, 1));
        assert_ne!(m.multiplier(0, 0), m.multiplier(1, 0));
    }

    #[test]
    fn jitter_moments_roughly_lognormal() {
        let sigma = 0.25;
        let m = StragglerModel::jitter(sigma, 7);
        let n = 20_000u64;
        let mean_log: f64 = (0..n).map(|i| m.multiplier(0, i).ln()).sum::<f64>() / n as f64;
        let var_log: f64 =
            (0..n).map(|i| (m.multiplier(0, i).ln() - mean_log).powi(2)).sum::<f64>() / n as f64;
        assert!(mean_log.abs() < 0.02, "log-mean {mean_log}");
        assert!((var_log.sqrt() - sigma).abs() < 0.02, "log-sigma {}", var_log.sqrt());
    }

    #[test]
    fn static_and_jitter_compose() {
        let m = StragglerModel { static_multipliers: vec![1.0, 3.0], jitter_sigma: 0.1, seed: 1 };
        // Worker 1's multipliers are ~3x worker 0's in distribution.
        let n = 5000u64;
        let mean0: f64 = (0..n).map(|i| m.multiplier(0, i)).sum::<f64>() / n as f64;
        let mean1: f64 = (0..n).map(|i| m.multiplier(1, i)).sum::<f64>() / n as f64;
        assert!((mean1 / mean0 - 3.0).abs() < 0.15, "ratio {}", mean1 / mean0);
    }
}
