#![warn(missing_docs)]

//! # dgs-sparsify
//!
//! Gradient sparsification primitives for the DGS reproduction:
//!
//! * [`partition`] — [`Partition`]: maps a flat parameter vector onto the
//!   per-layer segments the paper sparsifies independently ("iterate over
//!   every layer", Alg. 1/3).
//! * [`topk`] — the comparator reference for Top-k threshold/index
//!   selection over a segment (what tests and fixtures call), plus the
//!   mask/gather/scatter helpers the worker algorithms are built from
//!   (`sparsify()` / `unsparsify()` in the paper's notation).
//! * [`radix_select`] — the selection engine product code calls: a
//!   bit-level O(n) histogram radix select over `abs(f32).to_bits()` keys,
//!   bitwise-identical to the comparator reference, and one streaming pass
//!   when the [`Guess`] its caller carried over from the last round holds.
//! * [`sampled`] — DGC-style sampled threshold estimation (the only
//!   selection code that draws random numbers).
//! * [`merge`] — the server-side diff/merge kernels behind the O(nnz)
//!   downlink construction (dense scan, candidate-restricted scan,
//!   deterministic pair Top-k, dirty-set maintenance). The log merge and
//!   its dense fallback both bottom out here, which is what makes them
//!   bitwise equal.
//! * [`coo`] — the COO wire format (`encode()` / `decode()` in the paper):
//!   index+value pairs packed little-endian into a `Vec<u8>`, with exact
//!   byte-size accounting used by the network simulator.
//! * [`quant`] — TernGrad-style ternary quantization of sparse payloads
//!   (the paper's future-work combination, §6).
//!
//! Everything operates on `&[f32]` segments so the same code path serves
//! worker-side gradient sparsification, server-side secondary compression,
//! and tests. The hot loops dispatch through the
//! [`dgs_tensor::Kernel`] backend seam: plain entry points
//! ([`send_topk_dense`], [`SparseUpdate::encode`], …) run on the
//! runtime-selected backend (`DGS_KERNEL` override honoured), and each has
//! a `*_with(kernel, …)` twin taking an explicit backend for differential
//! testing and benchmarking. Backends are bitwise identical by contract —
//! see the `kernel_equivalence` differential suite.

pub mod coo;
pub mod merge;
pub mod partition;
pub mod quant;
pub mod radix_select;
pub mod sampled;
pub mod topk;

pub use coo::{merge_sparse_updates, try_merge_sparse_updates, SparseUpdate, SparseVec};
pub use dgs_tensor::Kernel;
pub use merge::{
    diff_pairs_at, diff_pairs_dense, diff_pairs_dense_with, mag_idx_order, merge_sum_pairs,
    retain_dirty, scatter_pairs, scatter_track_dirty, send_all_at, send_all_dense,
    send_all_dense_with, send_topk_dense, sort_dedup, sort_dedup_bitmap, sort_dedup_pooled,
    topk_pairs,
};
pub use partition::{Partition, Segment, ShardSpan};
pub use quant::{TernaryUpdate, TernaryVec};
pub use radix_select::{
    mag_key, momentum_topk_indices, radix_threshold, radix_topk_indices,
    radix_topk_indices_guessed, radix_topk_pairs, Guess, SelectScratch,
};
pub use sampled::sampled_threshold;
pub use topk::{
    gather, gather_and_zero, scale_all_except, scale_all_restore, scatter_add, topk_indices,
    topk_threshold, zero_at,
};

/// Computes the Top-k element count for a segment of `len` values at
/// sparsification ratio `ratio` (`ratio = 0.01` keeps the top 1%).
///
/// Always keeps at least one element of a non-empty segment so that every
/// layer makes progress, mirroring the paper's per-layer thresholding (a
/// layer whose R% rounds to zero would otherwise never be updated).
pub fn k_for_ratio(len: usize, ratio: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let k = (len as f64 * ratio).ceil() as usize;
    k.clamp(1, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_for_ratio_bounds() {
        assert_eq!(k_for_ratio(0, 0.01), 0);
        assert_eq!(k_for_ratio(1, 0.01), 1);
        assert_eq!(k_for_ratio(100, 0.01), 1);
        assert_eq!(k_for_ratio(1000, 0.01), 10);
        assert_eq!(k_for_ratio(150, 0.01), 2); // ceil(1.5)
        assert_eq!(k_for_ratio(10, 1.0), 10);
        assert_eq!(k_for_ratio(10, 2.0), 10); // clamped to len
    }
}
