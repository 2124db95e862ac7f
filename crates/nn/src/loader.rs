//! Seeded minibatch iteration over a [`Dataset`].

use crate::data::Dataset;
use dgs_tensor::rng::{derive_seed, shuffled_indices};
use dgs_tensor::Tensor;
use std::sync::Arc;

/// An endless minibatch stream with per-epoch reshuffling.
///
/// Each worker in a distributed run owns its own `BatchLoader` over the
/// shared dataset with a worker-specific seed, mirroring the paper's setup
/// where every worker samples its own minibatches. Iteration is infinite:
/// when an epoch's permutation is exhausted a new one is drawn, so callers
/// control duration in *iterations*, as the async trainers require.
pub struct BatchLoader {
    dataset: Arc<dyn Dataset>,
    batch_size: usize,
    seed: u64,
    perm: Vec<usize>,
    cursor: usize,
    epoch: u64,
}

impl BatchLoader {
    /// Creates a loader drawing `batch_size`-sized minibatches.
    pub fn new(dataset: Arc<dyn Dataset>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(!dataset.is_empty(), "dataset must not be empty");
        let perm = shuffled_indices(dataset.len(), derive_seed(seed, 0));
        BatchLoader { dataset, batch_size, seed, perm, cursor: 0, epoch: 0 }
    }

    /// The batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Draws the next minibatch, reshuffling at epoch boundaries.
    pub fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        let n = self.dataset.len();
        let mut indices = Vec::with_capacity(self.batch_size);
        while indices.len() < self.batch_size {
            if self.cursor == self.perm.len() {
                self.epoch += 1;
                self.perm = shuffled_indices(n, derive_seed(self.seed, self.epoch));
                self.cursor = 0;
            }
            indices.push(self.perm[self.cursor]);
            self.cursor += 1;
        }
        self.dataset.batch(&indices)
    }

    /// Completed epochs (full passes over the permutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Iterates a dataset once in fixed order (no shuffling) for evaluation.
/// Yields `(batch tensor, labels)` chunks of at most `batch_size`.
pub struct EvalIter<'a> {
    dataset: &'a dyn Dataset,
    batch_size: usize,
    cursor: usize,
}

impl<'a> EvalIter<'a> {
    /// Creates an evaluation iterator.
    pub fn new(dataset: &'a dyn Dataset, batch_size: usize) -> Self {
        assert!(batch_size > 0);
        EvalIter { dataset, batch_size, cursor: 0 }
    }
}

impl Iterator for EvalIter<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.dataset.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.dataset.len());
        let indices: Vec<usize> = (self.cursor..end).collect();
        self.cursor = end;
        Some(self.dataset.batch(&indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::GaussianBlobs;

    fn ds() -> Arc<dyn Dataset> {
        Arc::new(GaussianBlobs::new(10, 4, 2, 0.1, 1))
    }

    #[test]
    fn batches_cycle_through_dataset() {
        let mut loader = BatchLoader::new(ds(), 4, 7);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let (x, labels) = loader.next_batch();
            assert_eq!(x.shape().dims(), &[4, 4]);
            assert_eq!(labels.len(), 4);
            seen.extend(labels);
        }
        // 12 draws over a 10-sample dataset: first 10 form a permutation.
        assert_eq!(seen.len(), 12);
        assert_eq!(loader.epoch(), 1);
    }

    #[test]
    fn loader_is_deterministic_per_seed() {
        let mut a = BatchLoader::new(ds(), 3, 42);
        let mut b = BatchLoader::new(ds(), 3, 42);
        for _ in 0..5 {
            let (xa, la) = a.next_batch();
            let (xb, lb) = b.next_batch();
            assert_eq!(xa, xb);
            assert_eq!(la, lb);
        }
        let mut c = BatchLoader::new(ds(), 3, 43);
        let (xc, _) = c.next_batch();
        let (xa2, _) = a.next_batch();
        assert_ne!(xc, xa2);
    }

    #[test]
    fn epochs_reshuffle() {
        let mut loader = BatchLoader::new(ds(), 10, 3);
        let (x1, _) = loader.next_batch();
        let (x2, _) = loader.next_batch();
        assert_ne!(x1, x2, "second epoch should be differently shuffled");
    }

    #[test]
    fn eval_iter_covers_everything_once() {
        let d = GaussianBlobs::new(10, 4, 2, 0.1, 1);
        let mut total = 0;
        let mut batches = 0;
        for (x, labels) in EvalIter::new(&d, 4) {
            total += labels.len();
            batches += 1;
            assert_eq!(x.shape().dim(0), labels.len());
        }
        assert_eq!(total, 10);
        assert_eq!(batches, 3); // 4 + 4 + 2
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_rejected() {
        BatchLoader::new(ds(), 0, 1);
    }
}
