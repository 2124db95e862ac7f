//! Sampled threshold estimation (DGC-style).
//!
//! Deep Gradient Compression (Lin et al., PAPERS.md) avoids a full Top-k
//! selection on very large tensors by estimating the threshold from a
//! random sample. The estimator lives apart from [`crate::topk`] so the
//! exact kernels stay std-only (standalone offline harnesses compile them
//! directly); this module is the only selection code that draws random
//! numbers.

use crate::topk::topk_threshold;
use dgs_tensor::rng::seeded;

/// Estimates the Top-k threshold from a random sample of the segment, the
/// strategy DGC uses to avoid a full selection on very large tensors.
///
/// Samples `sample` coordinates (with replacement) and returns the value at
/// the same *quantile* within the sample. For `sample >= seg.len()` this
/// falls back to the exact threshold.
pub fn sampled_threshold(seg: &[f32], k: usize, sample: usize, seed: u64) -> f32 {
    let n = seg.len();
    assert!(n > 0 && k >= 1 && k <= n, "sampled_threshold bounds");
    if sample >= n {
        return topk_threshold(seg, k);
    }
    let mut rng = seeded(seed);
    let mut mags: Vec<f32> = (0..sample).map(|_| seg[rng.below(n)].abs()).collect();
    // Quantile position equivalent to k-of-n within the sample.
    let pos = ((k as f64 / n as f64) * sample as f64).ceil() as usize;
    let pos = pos.clamp(1, sample);
    mags.select_nth_unstable_by(pos - 1, |a, b| b.total_cmp(a));
    mags[pos - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_threshold_close_to_exact() {
        let seg: Vec<f32> = (0..10_000)
            .map(|i| {
                let x = (i as f32 * 0.7919).sin() * 3.0;
                x * x * x // heavy-ish tail
            })
            .collect();
        let k = 100;
        let exact = topk_threshold(&seg, k);
        let est = sampled_threshold(&seg, k, 2000, 42);
        // Sampled estimate within a factor-2 band is plenty for DGC-style use.
        assert!(est > exact * 0.5 && est < exact * 2.0, "est {est} exact {exact}");
    }

    #[test]
    fn sampled_threshold_exact_fallback() {
        let seg = [1.0, -2.0, 3.0];
        assert_eq!(sampled_threshold(&seg, 2, 100, 1), topk_threshold(&seg, 2));
    }
}
