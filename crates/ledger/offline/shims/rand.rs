//! Offline stand-in for `rand` 0.8: a SplitMix64-backed `StdRng` with the
//! handful of `Rng` methods the workspace calls. Streams differ from the
//! real crate's ChaCha12, so seeded datasets and initialisations are
//! deterministic per seed but not equal to a `cargo` build's.

pub mod rngs {
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) u64);
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng(seed)
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` from the top 53 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` from the top 24 bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        let v = self.start + (self.end - self.start) * f32::sample(rng);
        // Rounding can land exactly on `end`; keep the range half-open.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let v = self.start + (self.end - self.start) * f64::sample(rng);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<usize> for std::ops::Range<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + (rng.next_u64() % (self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for std::ops::RangeInclusive<usize> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + (rng.next_u64() % span as u64) as usize,
            None => rng.next_u64() as usize,
        }
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
