//! Deterministic synthetic datasets.
//!
//! These replace CIFAR-10 and ImageNet per the substitution table in
//! DESIGN.md: the DGS algorithms interact with the *optimisation dynamics*
//! (stochastic minibatch gradients over a non-convex model), not with image
//! pixels per se, so a procedurally generated class-conditional dataset with
//! tunable difficulty preserves everything the paper measures. Every sample
//! is a pure function of `(dataset seed, index)`, so no storage is needed
//! and all workers see identical data across engines and runs.

use dgs_tensor::rng::{derive_seed, sample_standard_normal, seeded};
use dgs_tensor::{Shape, Tensor};

/// Dataset splits: the *task* (class means / prototypes) is a pure function
/// of the task seed, while per-sample randomness additionally depends on the
/// split, so a train and a validation split share the classification problem
/// but never a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training samples.
    Train,
    /// Held-out validation samples.
    Val,
}

impl Split {
    fn salt(self) -> u64 {
        match self {
            Split::Train => 0,
            Split::Val => 1,
        }
    }
}

/// A deterministic, indexable, labelled dataset.
pub trait Dataset: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;

    /// True when the dataset has no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-sample feature shape (no batch dimension).
    fn sample_shape(&self) -> Shape;

    /// Number of label classes.
    fn num_classes(&self) -> usize;

    /// Writes sample `index`'s features into `out` (length =
    /// `sample_shape().numel()`) and returns its label.
    fn fill(&self, index: usize, out: &mut [f32]) -> usize;

    /// Materialises a batch `[indices.len(), sample...]` plus labels.
    fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let sshape = self.sample_shape();
        let sample_len = sshape.numel();
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(sshape.dims());
        let mut x = Tensor::zeros(Shape::new(dims));
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            let out = &mut x.data_mut()[row * sample_len..(row + 1) * sample_len];
            labels.push(self.fill(i, out));
        }
        (x, labels)
    }
}

// ---------------------------------------------------------------------------
// GaussianBlobs
// ---------------------------------------------------------------------------

/// Isotropic Gaussian clusters: class means drawn on a sphere, samples =
/// mean + noise. The fastest dataset; used by unit tests and examples.
pub struct GaussianBlobs {
    len: usize,
    dim: usize,
    classes: usize,
    noise: f32,
    means: Vec<f32>, // classes × dim
    seed: u64,
    split: Split,
}

impl GaussianBlobs {
    /// Creates a training-split blobs dataset. `noise` controls class
    /// overlap (≈0.3 separable, ≈1.0 hard).
    pub fn new(len: usize, dim: usize, classes: usize, noise: f32, seed: u64) -> Self {
        GaussianBlobs::with_split(len, dim, classes, noise, seed, Split::Train)
    }

    /// Creates a blobs dataset on a specific split: the class means depend
    /// only on `seed`, the samples on `(seed, split, index)`.
    pub fn with_split(
        len: usize,
        dim: usize,
        classes: usize,
        noise: f32,
        seed: u64,
        split: Split,
    ) -> Self {
        let mut rng = seeded(seed);
        let mut means = vec![0.0f32; classes * dim];
        for c in 0..classes {
            // Unit-norm direction scaled to radius 2.
            let row = &mut means[c * dim..(c + 1) * dim];
            let mut norm = 0.0f32;
            for v in row.iter_mut() {
                *v = sample_standard_normal(&mut rng);
                norm += *v * *v;
            }
            let scale = 2.0 / norm.sqrt().max(1e-6);
            for v in row.iter_mut() {
                *v *= scale;
            }
        }
        GaussianBlobs { len, dim, classes, noise, means, seed, split }
    }

    /// A validation split of the same task with `len` fresh samples.
    pub fn validation(&self, len: usize) -> Self {
        GaussianBlobs::with_split(len, self.dim, self.classes, self.noise, self.seed, Split::Val)
    }
}

impl Dataset for GaussianBlobs {
    fn len(&self) -> usize {
        self.len
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([self.dim])
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn fill(&self, index: usize, out: &mut [f32]) -> usize {
        let label = index % self.classes;
        let sample_seed = derive_seed(self.seed, self.split.salt())
            ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = seeded(sample_seed);
        let mean = &self.means[label * self.dim..(label + 1) * self.dim];
        for (o, &m) in out.iter_mut().zip(mean.iter()) {
            *o = m + self.noise * sample_standard_normal(&mut rng);
        }
        label
    }
}

// ---------------------------------------------------------------------------
// SyntheticVision
// ---------------------------------------------------------------------------

/// Procedurally generated class-conditional "images" — the CIFAR-10 /
/// ImageNet stand-in.
///
/// Each class has a prototype image per channel built from a few random 2-D
/// sinusoids (low-frequency structure, like natural-image classes). A sample
/// is its class prototype under a random translation (so the task is not
/// template matching at fixed pixels), plus dense Gaussian noise. Difficulty
/// is controlled by `noise` and the number of classes.
pub struct SyntheticVision {
    len: usize,
    channels: usize,
    hw: usize,
    classes: usize,
    noise: f32,
    max_shift: usize,
    /// Sinusoid banks per (class, channel): (ax, ay, phase, amplitude) × 4.
    waves: Vec<[(f32, f32, f32, f32); 4]>,
    seed: u64,
    split: Split,
}

impl SyntheticVision {
    /// Creates a synthetic vision dataset of `len` samples of
    /// `channels × hw × hw` pixels across `classes` classes.
    pub fn new(
        len: usize,
        channels: usize,
        hw: usize,
        classes: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        SyntheticVision::with_split(len, channels, hw, classes, noise, seed, Split::Train)
    }

    /// Creates a dataset on a specific split: class prototypes depend only
    /// on `seed`, samples on `(seed, split, index)`.
    pub fn with_split(
        len: usize,
        channels: usize,
        hw: usize,
        classes: usize,
        noise: f32,
        seed: u64,
        split: Split,
    ) -> Self {
        let mut rng = seeded(seed);
        let mut waves = Vec::with_capacity(classes * channels);
        for _ in 0..classes * channels {
            let mut bank = [(0.0f32, 0.0f32, 0.0f32, 0.0f32); 4];
            for b in bank.iter_mut() {
                // Low spatial frequencies (0.5..1.5 cycles per image) so a
                // small translation perturbs rather than decorrelates the
                // class signature.
                let fx = rng.uniform(0.5, 1.5) * std::f32::consts::TAU / hw as f32;
                let fy = rng.uniform(0.5, 1.5) * std::f32::consts::TAU / hw as f32;
                let phase = rng.uniform(0.0, std::f32::consts::TAU);
                let amp = rng.uniform(0.4, 1.0);
                *b = (fx, fy, phase, amp);
            }
            waves.push(bank);
        }
        let max_shift = (hw / 8).max(1);
        SyntheticVision { len, channels, hw, classes, noise, max_shift, waves, seed, split }
    }

    /// A validation split of the same task with `len` fresh samples.
    pub fn validation(&self, len: usize) -> Self {
        SyntheticVision::with_split(
            len,
            self.channels,
            self.hw,
            self.classes,
            self.noise,
            self.seed,
            Split::Val,
        )
    }

    /// Small preset standing in for CIFAR-10 (see DESIGN.md): 10 classes of
    /// 3×16×16 images.
    pub fn cifar_like(len: usize, seed: u64) -> Self {
        SyntheticVision::new(len, 3, 16, 10, 0.9, seed)
    }

    fn prototype_at(&self, class: usize, channel: usize, y: f32, x: f32) -> f32 {
        let bank = &self.waves[class * self.channels + channel];
        bank.iter().map(|&(fx, fy, phase, amp)| amp * (fx * x + fy * y + phase).sin()).sum()
    }
}

impl Dataset for SyntheticVision {
    fn len(&self) -> usize {
        self.len
    }

    fn sample_shape(&self) -> Shape {
        Shape::from([self.channels, self.hw, self.hw])
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn fill(&self, index: usize, out: &mut [f32]) -> usize {
        let label = index % self.classes;
        let sample_seed = derive_seed(self.seed, self.split.salt())
            ^ (index as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = seeded(sample_seed);
        let dy = rng.below(2 * self.max_shift + 1) as f32 - self.max_shift as f32;
        let dx = rng.below(2 * self.max_shift + 1) as f32 - self.max_shift as f32;
        let hw = self.hw;
        for c in 0..self.channels {
            let plane = &mut out[c * hw * hw..(c + 1) * hw * hw];
            for y in 0..hw {
                for x in 0..hw {
                    let v = self.prototype_at(label, c, y as f32 + dy, x as f32 + dx);
                    plane[y * hw + x] = v + self.noise * sample_standard_normal(&mut rng);
                }
            }
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_determinism(ds: &dyn Dataset) {
        let n = ds.sample_shape().numel();
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        let la = ds.fill(3, &mut a);
        let lb = ds.fill(3, &mut b);
        assert_eq!(la, lb);
        assert_eq!(a, b);
        let lc = ds.fill(4, &mut b);
        assert!(a != b || la != lc, "different indices should differ");
    }

    #[test]
    fn blobs_basics() {
        let ds = GaussianBlobs::new(100, 8, 4, 0.3, 1);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.num_classes(), 4);
        assert_eq!(ds.sample_shape().dims(), &[8]);
        check_determinism(&ds);
        // Labels cycle through classes.
        let mut buf = vec![0.0f32; 8];
        for i in 0..8 {
            assert_eq!(ds.fill(i, &mut buf), i % 4);
        }
    }

    #[test]
    fn blobs_classes_are_separated() {
        let ds = GaussianBlobs::new(1000, 16, 2, 0.2, 7);
        // Nearest-mean classification on fresh samples should be near-perfect
        // at this noise level.
        let mut buf = vec![0.0f32; 16];
        let mut correct = 0;
        for i in 0..200 {
            let label = ds.fill(i, &mut buf);
            let d0: f32 =
                buf.iter().zip(ds.means[0..16].iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            let d1: f32 =
                buf.iter().zip(ds.means[16..32].iter()).map(|(a, b)| (a - b) * (a - b)).sum();
            let pred = if d0 < d1 { 0 } else { 1 };
            if pred == label {
                correct += 1;
            }
        }
        assert!(correct > 190, "nearest-mean got {correct}/200");
    }

    #[test]
    fn vision_basics() {
        let ds = SyntheticVision::new(64, 3, 8, 5, 0.5, 3);
        assert_eq!(ds.sample_shape().dims(), &[3, 8, 8]);
        assert_eq!(ds.num_classes(), 5);
        check_determinism(&ds);
    }

    #[test]
    fn vision_class_signal_exceeds_noise() {
        // Same class, different samples should correlate more than
        // different classes: compare mean abs difference.
        let ds = SyntheticVision::new(100, 1, 12, 2, 0.3, 9);
        let n = ds.sample_shape().numel();
        // Average intra- vs inter-class L1 distance over many pairs: the
        // class signal should dominate shift/noise variability.
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        let mut d_same = 0.0f32;
        let mut d_diff = 0.0f32;
        let pairs = 30;
        for p in 0..pairs {
            // indices 4p and 4p+2 share a class; 4p and 4p+1 differ.
            ds.fill(4 * p, &mut a);
            ds.fill(4 * p + 2, &mut b);
            d_same += a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum::<f32>() / n as f32;
            ds.fill(4 * p + 1, &mut b);
            d_diff += a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum::<f32>() / n as f32;
        }
        assert!(
            d_same < d_diff,
            "mean intra-class distance {d_same} should be below inter-class {d_diff}"
        );
    }

    #[test]
    fn batch_assembly() {
        let ds = GaussianBlobs::new(10, 4, 2, 0.1, 11);
        let (x, labels) = ds.batch(&[0, 1, 5]);
        assert_eq!(x.shape().dims(), &[3, 4]);
        assert_eq!(labels, vec![0, 1, 1]);
        // Row 1 equals a direct fill of index 1.
        let mut buf = vec![0.0f32; 4];
        ds.fill(1, &mut buf);
        assert_eq!(&x.data()[4..8], buf.as_slice());
    }

    #[test]
    fn cifar_preset_shape() {
        let c = SyntheticVision::cifar_like(10, 0);
        assert_eq!(c.num_classes(), 10);
        assert_eq!(c.sample_shape().dims(), &[3, 16, 16]);
    }
}
