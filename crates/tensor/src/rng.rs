//! Deterministic random-number helpers.
//!
//! Everything in the reproduction is seeded: datasets, parameter
//! initialisation, minibatch shuffling, and the discrete-event simulator all
//! derive their randomness from explicit `u64` seeds so that every experiment
//! is replayable bit-for-bit. The offline crate set does not include
//! `rand_distr`, so Gaussian sampling is a hand-rolled Box–Muller transform.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a seeded RNG. Thin wrapper so call-sites don't import rand traits.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give each worker / dataset / layer an independent stream while
/// remaining a pure function of the experiment seed. The mixing is
/// SplitMix64-style so that adjacent stream ids produce uncorrelated seeds.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples one standard-normal value via the Box–Muller transform.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by drawing u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills `out` with `N(mean, std^2)` samples.
pub fn fill_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32], mean: f32, std: f32) {
    for v in out.iter_mut() {
        *v = mean + std * sample_standard_normal(rng);
    }
}

/// Fisher–Yates shuffle of an index permutation, seeded.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = seeded(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derive_seed_varies_with_stream() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        let s2 = derive_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Stable across calls.
        assert_eq!(derive_seed(7, 0), s0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(123);
        let n = 200_000;
        let mut buf = vec![0.0f32; n];
        fill_normal(&mut rng, &mut buf, 1.5, 2.0);
        let mean: f64 = buf.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = buf.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn normal_is_finite() {
        let mut rng = seeded(9);
        for _ in 0..10_000 {
            let x = sample_standard_normal(&mut rng);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let a = shuffled_indices(100, 3);
        let b = shuffled_indices(100, 3);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let c = shuffled_indices(100, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_small_sizes() {
        assert_eq!(shuffled_indices(0, 1), Vec::<usize>::new());
        assert_eq!(shuffled_indices(1, 1), vec![0]);
    }
}
