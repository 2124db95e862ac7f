//! Deterministic random-number helpers.
//!
//! Everything in the reproduction is seeded: datasets, parameter
//! initialisation, minibatch shuffling, and the discrete-event simulator all
//! derive their randomness from explicit `u64` seeds so that every experiment
//! is replayable bit-for-bit. The generator is in-tree (SplitMix64) so the
//! stream is the same under every build; Gaussian sampling is a hand-rolled
//! Box–Muller transform.

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workspace's one seeded generator: SplitMix64, state = seed.
///
/// The draws are `#[inline]`: the per-sample loops in `dgs_nn::data` sit in
/// another crate, and without it every draw is a call.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1)` from the top 24 bits of one draw.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Uniform in `[lo, hi)`, one draw.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let v = lo + (hi - lo) * self.unit_f32();
        // Rounding can land exactly on `hi`; keep the range half-open.
        if v < hi {
            v
        } else {
            lo
        }
    }

    /// Uniform index in `0..n` (`next % n`), one draw; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the nonempty `range`, one draw.
    #[inline]
    pub fn range(&mut self, range: std::ops::Range<usize>) -> usize {
        range.start + self.below(range.end - range.start)
    }
}

/// The property loop of the test suites: runs `property` on `n` generators,
/// case `i` seeded with `derive_seed(0, i)`. When a case panics, its index
/// and seed are printed before the panic continues, so
/// `property(&mut seeded(SEED))` replays that one case. There is no
/// shrinking: the failing input is the one the seed draws.
pub fn cases(n: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..n {
        let seed = derive_seed(0, case);
        let run = std::panic::AssertUnwindSafe(|| property(&mut seeded(seed)));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!("property failed on case {case} of {n}: replay with seeded({seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A vector of `item` draws whose length is uniform in `len` (for [`cases`]).
pub fn vec_of<T>(
    rng: &mut Rng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    (0..rng.range(len)).map(|_| item(rng)).collect()
}

/// Creates a seeded generator.
#[inline]
pub fn seeded(seed: u64) -> Rng {
    Rng(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give each worker / dataset / layer an independent stream while
/// remaining a pure function of the experiment seed. The mixing is
/// SplitMix64-style so that adjacent stream ids produce uncorrelated seeds.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    mix(parent.wrapping_add(GOLDEN.wrapping_mul(stream.wrapping_add(1))))
}

/// Samples one standard-normal value via the Box–Muller transform.
#[inline]
pub fn sample_standard_normal(rng: &mut Rng) -> f32 {
    // Avoid ln(0) by drawing u1 from the half-open interval (0, 1].
    let u1 = 1.0 - rng.unit_f64();
    let u2 = rng.unit_f64();
    let mag = (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills `out` with `N(mean, std^2)` samples.
#[inline]
pub fn fill_normal(rng: &mut Rng, out: &mut [f32], mean: f32, std: f32) {
    for v in out.iter_mut() {
        *v = mean + std * sample_standard_normal(rng);
    }
}

/// Fisher–Yates shuffle of an index permutation, seeded.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = seeded(seed);
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
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
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_is_splitmix64() {
        // Reference vectors for seed 0; every pinned CRC and loss in the
        // repo hangs off this stream.
        let mut r = seeded(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
        // Derived draws: one `next_u64` each, in range.
        let mut r = seeded(5);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit_f64()));
            assert!((0.0..1.0).contains(&r.unit_f32()));
            assert!((0.5..1.5).contains(&r.uniform(0.5, 1.5)));
            assert!(r.below(7) < 7);
        }
        let (mut a, mut b) = (seeded(9), seeded(9));
        a.below(3);
        a.uniform(0.0, 1.0);
        b.next_u64();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn cases_are_seeded_per_index_and_a_failing_case_still_panics() {
        let mut firsts = Vec::new();
        cases(8, |rng| firsts.push((rng.next_u64(), rng.range(3..5))));
        let replay: Vec<u64> = (0..8).map(|i| seeded(derive_seed(0, i)).next_u64()).collect();
        assert_eq!(firsts.iter().map(|f| f.0).collect::<Vec<_>>(), replay);
        assert!(firsts.iter().all(|f| (3..5).contains(&f.1)));
        let mut ran = 0;
        let failing = std::panic::AssertUnwindSafe(|| {
            cases(8, |_| {
                ran += 1;
                assert!(ran < 3, "third case fails");
            })
        });
        assert!(std::panic::catch_unwind(failing).is_err());
        assert_eq!(ran, 3, "the loop stops at the failing case");
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
