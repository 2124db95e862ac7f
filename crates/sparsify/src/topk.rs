//! Top-k selection and mask manipulation over flat segments.
//!
//! These are the building blocks of the paper's `sparsify()` /
//! `unsparsify()` operations: select the k largest-magnitude coordinates of
//! a segment, gather them for transmission, and manipulate the remainder
//! (zero it for residual schemes, rescale it for SAMomentum).
//!
//! [`topk_indices`] / [`topk_threshold`] are the comparator reference the
//! radix engine ([`crate::radix_select`], what product code calls) is
//! proven bitwise-identical against; tests and fixtures call them directly.
//! Sampled/approximate thresholding (DGC-style) lives in [`crate::sampled`].
//!
//! This module is std-only by design so standalone offline harnesses can
//! compile it directly (see `.claude/skills/verify/SKILL.md`).

/// Returns the indices of the `k` largest-magnitude values of `seg`,
/// in ascending index order.
///
/// Exact selection via `select_nth_unstable_by` (average O(n)) under the
/// total order of [`crate::merge::mag_idx_order`]: magnitude descending,
/// ties broken toward lower indices. The selection is therefore a pure
/// function of the input — NaN/inf values cannot scramble it (NaN
/// magnitudes deterministically rank above +∞), and equal magnitudes
/// always resolve the same way.
pub fn topk_indices(seg: &[f32], k: usize) -> Vec<u32> {
    let n = seg.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k == n {
        return (0..n as u32).collect();
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    // Partition so the first k indices hold the k largest magnitudes.
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        crate::merge::mag_idx_order(seg[a as usize].abs(), a, seg[b as usize].abs(), b)
    });
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Returns the magnitude of the k-th largest |value| — the paper's `thr`.
///
/// `seg` must be non-empty and `1 <= k <= seg.len()`.
pub fn topk_threshold(seg: &[f32], k: usize) -> f32 {
    assert!(!seg.is_empty() && k >= 1 && k <= seg.len(), "topk_threshold bounds");
    let mut mags: Vec<f32> = seg.iter().map(|v| v.abs()).collect();
    let idx = k - 1;
    mags.select_nth_unstable_by(idx, |a, b| b.total_cmp(a));
    mags[idx]
}

/// Gathers `seg[idx]` for each index (the values to transmit).
pub fn gather(seg: &[f32], idx: &[u32]) -> Vec<f32> {
    idx.iter().map(|&i| seg[i as usize]).collect()
}

/// Zeroes `seg[idx]` for each index (drop transmitted values from the
/// residual, Alg. 1 line 11).
pub fn zero_at(seg: &mut [f32], idx: &[u32]) {
    for &i in idx {
        seg[i as usize] = 0.0;
    }
}

/// Fused [`gather`] + [`zero_at`]: reads each selected coordinate once,
/// returning its value and zeroing it in place. Halves the indexed
/// traversals on the residual/velocity uplink paths versus calling the two
/// primitives back to back.
pub fn gather_and_zero(seg: &mut [f32], idx: &[u32]) -> Vec<f32> {
    idx.iter()
        .map(|&i| {
            let slot = &mut seg[i as usize];
            let v = *slot;
            *slot = 0.0;
            v
        })
        .collect()
}

/// Scales every coordinate *except* the given (sorted) indices by `factor`
/// — SAMomentum's `u += (1/m − 1)·u ⊙ ¬Mask` (Alg. 3 line 11).
///
/// `idx` must be sorted ascending (as produced by [`topk_indices`]).
///
/// Implemented as scale-everything then restore the saved originals at the
/// masked indices: the unmasked coordinates see exactly one multiply (same
/// bits as the old branchy loop) and the masked ones get their original bit
/// patterns written back — bitwise-safe, no multiply-then-divide, and the
/// bulk pass is a branch-free streaming loop instead of a per-element
/// peekable compare.
pub fn scale_all_except(seg: &mut [f32], idx_sorted: &[u32], factor: f32) {
    let saved = gather(seg, idx_sorted);
    scale_all_restore(seg, idx_sorted, &saved, factor);
}

/// The restore-form of [`scale_all_except`] for call sites that already
/// gathered `saved = seg[idx]` (e.g. SAMomentum gathers the transmitted
/// values anyway): scales the whole segment by `factor`, then writes the
/// saved original bits back at `idx`. Equivalent to
/// `scale_all_except(seg, idx, factor)` when `saved == gather(seg, idx)`.
pub fn scale_all_restore(seg: &mut [f32], idx: &[u32], saved: &[f32], factor: f32) {
    debug_assert_eq!(idx.len(), saved.len());
    for v in seg.iter_mut() {
        *v *= factor;
    }
    for (&i, &v) in idx.iter().zip(saved.iter()) {
        seg[i as usize] = v;
    }
}

/// Adds `val[j]` into `out[idx[j]]`, optionally scaled — the receive-side
/// `SGD(θ, decode(G))` application.
pub fn scatter_add(out: &mut [f32], idx: &[u32], val: &[f32], scale: f32) {
    debug_assert_eq!(idx.len(), val.len());
    for (&i, &v) in idx.iter().zip(val.iter()) {
        out[i as usize] += scale * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_picks_largest_magnitudes() {
        let seg = [0.1, -5.0, 2.0, 0.0, -3.0, 4.0];
        let idx = topk_indices(&seg, 3);
        assert_eq!(idx, vec![1, 4, 5]); // |-5|, |-3|, |4|
    }

    #[test]
    fn topk_edge_cases() {
        assert!(topk_indices(&[], 3).is_empty());
        assert!(topk_indices(&[1.0, 2.0], 0).is_empty());
        assert_eq!(topk_indices(&[1.0, 2.0], 5), vec![0, 1]);
        assert_eq!(topk_indices(&[7.0], 1), vec![0]);
    }

    #[test]
    fn topk_all_equal_values() {
        let seg = [1.0f32; 10];
        let idx = topk_indices(&seg, 4);
        // Deterministic tie-break: equal magnitudes resolve to the lowest
        // indices, not to whatever the partition happened to leave in place.
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn topk_nan_and_inf_are_deterministic() {
        // NaN ranks above +inf, which ranks above every finite magnitude;
        // repeated runs (and both selection paths) must agree exactly.
        let seg = [1.0f32, f32::NAN, 3.0, f32::INFINITY, -f32::NAN, 2.0];
        let idx = topk_indices(&seg, 3);
        assert_eq!(idx, vec![1, 3, 4]); // NaN(1), NaN(4), inf(3) — sorted
        for _ in 0..8 {
            assert_eq!(topk_indices(&seg, 3), idx);
        }
        // Thresholds stay well-defined too (no Ordering::Equal collapse).
        assert!(topk_threshold(&seg, 3).is_infinite());
        assert!(topk_threshold(&seg, 2).is_nan());
        let neg = [f32::NEG_INFINITY, 0.5, -2.0];
        assert_eq!(topk_indices(&neg, 2), vec![0, 2]);
    }

    #[test]
    fn topk_ties_break_toward_lower_index() {
        let seg = [2.0f32, -2.0, 1.0, 2.0, -2.0];
        assert_eq!(topk_indices(&seg, 2), vec![0, 1]);
        assert_eq!(topk_indices(&seg, 3), vec![0, 1, 3]);
    }

    #[test]
    fn threshold_is_kth_magnitude() {
        let seg = [0.5, -4.0, 3.0, 1.0, -2.0];
        assert_eq!(topk_threshold(&seg, 1), 4.0);
        assert_eq!(topk_threshold(&seg, 2), 3.0);
        assert_eq!(topk_threshold(&seg, 5), 0.5);
    }

    #[test]
    fn threshold_consistent_with_indices() {
        let seg: Vec<f32> = (0..100).map(|i| ((i * 37 % 100) as f32) - 50.0).collect();
        let k = 10;
        let thr = topk_threshold(&seg, k);
        let idx = topk_indices(&seg, k);
        // All selected magnitudes >= thr; all unselected <= thr.
        for (i, &v) in seg.iter().enumerate() {
            if idx.contains(&(i as u32)) {
                assert!(v.abs() >= thr);
            } else {
                assert!(v.abs() <= thr);
            }
        }
    }

    #[test]
    fn radix_engine_agrees_with_the_reference() {
        use crate::radix_select::{radix_threshold, radix_topk_indices, SelectScratch};
        let seg: Vec<f32> = (0..300).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.37).collect();
        let mut s = SelectScratch::new();
        for k in [0usize, 1, 7, 150, 299, 300] {
            assert_eq!(
                radix_topk_indices(&seg, k, &mut s),
                topk_indices(&seg, k),
                "indices k = {k}"
            );
            if k >= 1 {
                assert_eq!(
                    radix_threshold(&seg, k, &mut s).to_bits(),
                    topk_threshold(&seg, k).to_bits(),
                    "threshold k = {k}"
                );
            }
        }
    }

    #[test]
    fn gather_zero_scatter_roundtrip() {
        let mut seg = vec![1.0, -2.0, 3.0, -4.0, 5.0];
        let idx = topk_indices(&seg, 2);
        assert_eq!(idx, vec![3, 4]);
        let vals = gather(&seg, &idx);
        assert_eq!(vals, vec![-4.0, 5.0]);
        zero_at(&mut seg, &idx);
        assert_eq!(seg, vec![1.0, -2.0, 3.0, 0.0, 0.0]);
        scatter_add(&mut seg, &idx, &vals, 1.0);
        assert_eq!(seg, vec![1.0, -2.0, 3.0, -4.0, 5.0]);
    }

    #[test]
    fn gather_and_zero_matches_gather_then_zero() {
        let base = vec![1.0f32, -2.0, f32::NAN, -4.0, 5.0, 0.0];
        let idx = [1u32, 2, 4];
        let mut fused = base.clone();
        let fused_vals = gather_and_zero(&mut fused, &idx);
        let mut split = base.clone();
        let split_vals = gather(&split, &idx);
        zero_at(&mut split, &idx);
        assert_eq!(
            fused_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            split_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            split.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(gather_and_zero(&mut fused, &[]).is_empty());
    }

    #[test]
    fn scatter_add_scaled() {
        let mut out = vec![0.0; 4];
        scatter_add(&mut out, &[1, 3], &[2.0, -1.0], -0.5);
        assert_eq!(out, vec![0.0, -1.0, 0.0, 0.5]);
    }

    #[test]
    fn scale_all_except_sorted() {
        let mut seg = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        scale_all_except(&mut seg, &[1, 3], 10.0);
        assert_eq!(seg, vec![10.0, 2.0, 30.0, 4.0, 50.0]);
    }

    #[test]
    fn scale_all_except_empty_mask_scales_everything() {
        let mut seg = vec![1.0, 2.0];
        scale_all_except(&mut seg, &[], 2.0);
        assert_eq!(seg, vec![2.0, 4.0]);
    }

    #[test]
    fn scale_all_except_full_mask_is_noop() {
        let mut seg = vec![1.0, 2.0];
        scale_all_except(&mut seg, &[0, 1], 100.0);
        assert_eq!(seg, vec![1.0, 2.0]);
    }

    #[test]
    fn scale_all_except_preserves_masked_bits_exactly() {
        // NaN payloads and infinities at masked indices must come back with
        // their exact bit patterns — restore is a copy, not an arithmetic
        // round trip.
        let nan = f32::from_bits(0x7FC0_1234);
        let mut seg = vec![1.0f32, nan, f32::INFINITY, 3.0, -0.0];
        let orig = seg.clone();
        scale_all_except(&mut seg, &[1, 2, 4], 0.5);
        assert_eq!(seg[1].to_bits(), orig[1].to_bits());
        assert_eq!(seg[2].to_bits(), orig[2].to_bits());
        assert_eq!(seg[4].to_bits(), orig[4].to_bits());
        assert_eq!(seg[0], 0.5);
        assert_eq!(seg[3], 1.5);
    }

    #[test]
    fn scale_all_restore_equals_scale_all_except() {
        let base: Vec<f32> = (0..64).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.3).collect();
        let idx = topk_indices(&base, 9);
        let mut a = base.clone();
        scale_all_except(&mut a, &idx, 0.25);
        let mut b = base.clone();
        let saved = gather(&b, &idx);
        scale_all_restore(&mut b, &idx, &saved, 0.25);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
