//! Sparse diff/merge kernels for the server's O(nnz) downlink construction.
//!
//! The MDT server builds the downlink `G = M − v_k` per layer segment. The
//! original implementation densely scanned the whole segment per reply; the
//! update-log path instead visits only *candidate* coordinates (the union of
//! the worker's dirty set and everything touched since its last pull). Both
//! paths bottom out in the kernels here, so their outputs are bitwise
//! identical by construction:
//!
//! * [`diff_pairs_dense`] — the O(dim) reference scan;
//! * [`diff_pairs_at`]    — the O(candidates) restricted scan;
//! * [`topk_pairs`]       — secondary Top-k over (index, value) pairs, the
//!   comparator reference [`crate::radix_select::radix_topk_pairs`] (what
//!   the server calls) is proven bitwise-identical against;
//! * [`scatter_pairs`]    — advance `v_k` by exactly what is sent;
//! * [`retain_dirty`]     — recompute the dirty set after a send;
//! * [`send_all_at`] / [`send_all_dense`] — fused single-pass variants of
//!   diff + scatter + dirty tracking for the no-Top-k (send everything)
//!   case, touching each cache line once;
//! * [`scatter_track_dirty`] — fused scatter + dirty tracking after a
//!   Top-k send, rescanning only the coordinates actually sent;
//! * [`sort_dedup_bitmap`]  — O(n + domain/64) candidate dedup that
//!   exploits the index domain instead of comparison sorting
//!   ([`sort_dedup_pooled`] reuses the bitmap through a [`BufferPool`]
//!   so steady state pays no re-zeroing);
//!
//! Every selection uses the single total order [`mag_idx_order`] (magnitude
//! descending, index ascending), which is NaN-safe via [`f32::total_cmp`]
//! and makes Top-k deterministic under ties — a prerequisite for the two
//! diff paths to agree bitwise.
//!
//! The dense-scan kernels run through the [`dgs_tensor::Kernel`] backend
//! seam (`_with` variants take it explicitly; the plain names use the
//! runtime-detected backend). Backends are bitwise identical — the SIMD
//! backend only skips blocks it proves diff-free and vectorises the diff
//! materialisation and value gather — so every payload, residual, and
//! dirty set is independent of the backend (pinned by the tests below and
//! by `tests/kernel_equivalence.rs`). Standalone differential harnesses
//! compile this module together with the tensor crate's
//! `kernel.rs`/`simd.rs` (see `.claude/skills/verify/SKILL.md`).

use crate::radix_select::{
    diff_topk_indices, radix_topk_indices_guessed, select_reseed, Guess, SelectScratch,
};
use dgs_tensor::{BufferPool, Kernel};
use std::cmp::Ordering;

/// Block width of the SIMD-gated dense scans: small enough that a dirty
/// block's scalar walk stays cache-hot, large enough that the `>= 8`-wide
/// vector test amortises (eight AVX2 iterations per block).
const DIFF_BLOCK: usize = 64;

/// The workspace-wide Top-k total order: larger magnitude first, ties (and
/// only ties) broken by smaller index. `total_cmp` makes this a total order
/// on all bit patterns: NaN magnitudes deterministically sort as the
/// largest values (|NaN| > +∞), so poisoned gradients cannot scramble the
/// selection between two otherwise-identical runs.
#[inline]
pub fn mag_idx_order(mag_a: f32, idx_a: u32, mag_b: f32, idx_b: u32) -> Ordering {
    mag_b.total_cmp(&mag_a).then_with(|| idx_a.cmp(&idx_b))
}

/// Sorts a candidate index list ascending and removes duplicates, in place.
pub fn sort_dedup(v: &mut Vec<u32>) {
    v.sort_unstable();
    v.dedup();
}

/// [`sort_dedup`] via a caller-provided bitmap over the index domain:
/// O(n + mask.len()) instead of O(n log n). Candidate lists are unions of
/// already-sorted runs (log entries and dirty sets), which comparison sorts
/// cannot exploit; marking bits and re-reading them in word order is ~10×
/// faster once `v` outgrows a few thousand entries. `mask` must be all-zero
/// on entry, span every value in `v` (`64 * mask.len()` bits), and is
/// returned all-zero so it can be reused without a reset pass.
pub fn sort_dedup_bitmap(v: &mut Vec<u32>, mask: &mut [u64]) {
    for &i in v.iter() {
        mask[(i >> 6) as usize] |= 1u64 << (i & 63);
    }
    v.clear();
    for (w, word) in mask.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            v.push(((w as u32) << 6) | b);
            bits &= bits - 1;
        }
        *word = 0;
    }
}

/// [`sort_dedup_bitmap`] with the bitmap borrowed from a dedicated
/// [`BufferPool`] instead of a caller-managed mask. `domain` is the
/// exclusive upper bound on the values in `v`.
///
/// Pool invariant: every buffer parked in `pool` is all-zero over its
/// full length. [`sort_dedup_bitmap`] re-zeroes each word as it reads it
/// back, so returning the mask with `release_unchanged` preserves the
/// invariant — steady state does **zero** re-zeroing work. A
/// caller-managed mask costs a full `vec![0u64; domain/64]` zero-fill
/// (128 KiB at dim = 1M) every time its owner is (re)constructed, and
/// forces every early-return path to reason about mask state; here the
/// mask's all-zero state is a property of the pool, not of any caller's
/// control flow.
pub fn sort_dedup_pooled(v: &mut Vec<u32>, domain: usize, pool: &mut BufferPool<u64>) {
    let words = domain.div_ceil(64);
    let mut mask = pool.acquire();
    debug_assert!(mask.iter().all(|&w| w == 0), "pooled dedup masks must be all-zero");
    if mask.len() < words {
        // Zero-fills only the growth region; existing words are already
        // zero by the pool invariant.
        mask.resize(words, 0);
    }
    sort_dedup_bitmap(v, &mut mask[..words]);
    pool.release_unchanged(mask);
}

/// K-way merge of ascending-index (index, value) pair lists with value
/// summing: the edge aggregator's kernel for combining the sparse
/// uplinks of a worker group into one update. Each input must be
/// strictly ascending in index (every `SparseVec` producer in the
/// workspace emits that order). An index present in several inputs is
/// emitted once with its values summed **in input order** — f32
/// addition is not associative, so the caller fixes the input order
/// (worker-id order at the edge) to keep the merge a pure function of
/// its inputs. A single-input merge reproduces that input bitwise (no
/// `0.0 +` prologue that would flip `-0.0`).
pub fn merge_sum_pairs(inputs: &[(&[u32], &[f32])]) -> (Vec<u32>, Vec<f32>) {
    for (idx, val) in inputs {
        debug_assert_eq!(idx.len(), val.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "inputs must be strictly ascending");
    }
    if let [(idx, val)] = inputs {
        return (idx.to_vec(), val.to_vec());
    }
    let mut cur = vec![0usize; inputs.len()];
    let cap = inputs.iter().map(|(idx, _)| idx.len()).max().unwrap_or(0);
    let mut out_idx = Vec::with_capacity(cap);
    let mut out_val = Vec::with_capacity(cap);
    loop {
        let mut next: Option<u32> = None;
        for (j, (idx, _)) in inputs.iter().enumerate() {
            if let Some(&i) = idx.get(cur[j]) {
                next = Some(next.map_or(i, |m| m.min(i)));
            }
        }
        let Some(i) = next else { break };
        let mut sum: Option<f32> = None;
        for (j, (idx, val)) in inputs.iter().enumerate() {
            if idx.get(cur[j]) == Some(&i) {
                let x = val[cur[j]];
                sum = Some(match sum {
                    None => x,
                    Some(s) => s + x,
                });
                cur[j] += 1;
            }
        }
        out_idx.push(i);
        // `next` came from some cursor, so at least one input matched
        // and `sum` is always `Some`; the fallback only keeps the two
        // output arrays parallel by construction.
        out_val.push(sum.unwrap_or(0.0));
    }
    (out_idx, out_val)
}

/// Selects the `k` largest-magnitude (index, value) pairs, returned in
/// ascending index order. Exact selection (average O(n)); ties follow
/// [`mag_idx_order`], so the result is a pure function of the input.
pub fn topk_pairs(idx: &[u32], val: &[f32], k: usize) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(idx.len(), val.len());
    let n = idx.len();
    let k = k.min(n);
    if k == 0 {
        return (Vec::new(), Vec::new());
    }
    if k == n {
        return (idx.to_vec(), val.to_vec());
    }
    let mut pos: Vec<u32> = (0..n as u32).collect();
    pos.select_nth_unstable_by(k - 1, |&a, &b| {
        mag_idx_order(
            val[a as usize].abs(),
            idx[a as usize],
            val[b as usize].abs(),
            idx[b as usize],
        )
    });
    pos.truncate(k);
    pos.sort_unstable_by_key(|&p| idx[p as usize]);
    (pos.iter().map(|&p| idx[p as usize]).collect(), pos.iter().map(|&p| val[p as usize]).collect())
}

/// Full-scan reference: every nonzero of `m − v` as (local index, value)
/// pairs in ascending index order. O(segment length). Runtime kernel.
pub fn diff_pairs_dense(m: &[f32], v: &[f32]) -> (Vec<u32>, Vec<f32>) {
    diff_pairs_dense_with(Kernel::runtime(), m, v)
}

/// [`diff_pairs_dense`] on an explicit [`Kernel`]. The scan walks
/// [`DIFF_BLOCK`]-sized blocks gated by [`Kernel::may_have_diff`]: a
/// skipped block is proven free of nonzero differences, so emission is
/// bitwise identical to the straight-line scalar loop on every backend.
pub fn diff_pairs_dense_with(kernel: Kernel, m: &[f32], v: &[f32]) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(m.len(), v.len());
    let mut idx = Vec::new();
    let mut val = Vec::new();
    let mut start = 0usize;
    while start < m.len() {
        let end = (start + DIFF_BLOCK).min(m.len());
        if kernel.may_have_diff(&m[start..end], &v[start..end]) {
            for i in start..end {
                let d = m[i] - v[i];
                if d != 0.0 {
                    idx.push(i as u32);
                    val.push(d);
                }
            }
        }
        start = end;
    }
    (idx, val)
}

/// Restricted scan: nonzeros of `m − v` at `candidates` only (segment-local
/// indices, ascending, deduplicated). Produces exactly what
/// [`diff_pairs_dense`] produces whenever `candidates` is a superset of the
/// support of `m − v` — each kept value is the same `m[i] - v[i]` f32
/// subtraction, in the same ascending index order. O(candidates).
pub fn diff_pairs_at(m: &[f32], v: &[f32], candidates: &[u32]) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(m.len(), v.len());
    let mut idx = Vec::with_capacity(candidates.len());
    let mut val = Vec::with_capacity(candidates.len());
    for &i in candidates {
        let d = m[i as usize] - v[i as usize];
        if d != 0.0 {
            idx.push(i);
            val.push(d);
        }
    }
    (idx, val)
}

/// Adds each pair into the dense segment: `seg[idx[j]] += val[j]` — the
/// `v_k ← v_k + G` bookkeeping, elementwise identical to the scatter-adds
/// the receiving worker performs.
pub fn scatter_pairs(seg: &mut [f32], idx: &[u32], val: &[f32]) {
    debug_assert_eq!(idx.len(), val.len());
    for (&i, &x) in idx.iter().zip(val.iter()) {
        seg[i as usize] += x;
    }
}

/// Appends to `out` the subset of `candidates` where `m[i] − v[i]` is still
/// nonzero — the worker's dirty set after a send. Sent coordinates usually
/// land exactly (`v + (m − v)` reproduces `m` bitwise for most inputs) but
/// f32 rounding can leave a one-ulp remainder; rescanning keeps the dirty
/// set a true superset of the difference's support, never an approximation.
pub fn retain_dirty(m: &[f32], v: &[f32], candidates: &[u32], out: &mut Vec<u32>) {
    for &i in candidates {
        if m[i as usize] - v[i as usize] != 0.0 {
            out.push(i);
        }
    }
}

/// Fused send-everything at `candidates`: per coordinate, compute
/// `d = m[i] − v[i]`, emit the pair if nonzero, advance `v[i] += d`, and
/// keep the coordinate dirty if a rounding remainder survives. Exactly
/// equivalent to [`diff_pairs_at`] → [`scatter_pairs`] → [`retain_dirty`],
/// but each `m`/`v` cache line is touched once instead of three times.
pub fn send_all_at(
    m: &[f32],
    v: &mut [f32],
    candidates: &[u32],
    dirty: &mut Vec<u32>,
) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(m.len(), v.len());
    let mut idx = Vec::with_capacity(candidates.len());
    let mut val = Vec::with_capacity(candidates.len());
    for &i in candidates {
        let mi = m[i as usize];
        let vi = &mut v[i as usize];
        let d = mi - *vi;
        if d != 0.0 {
            idx.push(i);
            val.push(d);
            *vi += d;
            if mi - *vi != 0.0 {
                dirty.push(i);
            }
        }
    }
    (idx, val)
}

/// Fused send-everything over the whole segment — the dense-scan analogue
/// of [`send_all_at`], equivalent to [`diff_pairs_dense`] →
/// [`scatter_pairs`] → [`retain_dirty`] over all indices. Runtime kernel.
pub fn send_all_dense(m: &[f32], v: &mut [f32], dirty: &mut Vec<u32>) -> (Vec<u32>, Vec<f32>) {
    send_all_dense_with(Kernel::runtime(), m, v, dirty)
}

/// [`send_all_dense`] on an explicit [`Kernel`]. Blocks proven diff-free
/// by [`Kernel::may_have_diff`] are skipped whole — they would emit
/// nothing and mutate nothing — so payload, `v` advancement, and dirty
/// set are bitwise identical across backends.
pub fn send_all_dense_with(
    kernel: Kernel,
    m: &[f32],
    v: &mut [f32],
    dirty: &mut Vec<u32>,
) -> (Vec<u32>, Vec<f32>) {
    debug_assert_eq!(m.len(), v.len());
    let mut idx = Vec::new();
    let mut val = Vec::new();
    let mut start = 0usize;
    while start < m.len() {
        let end = (start + DIFF_BLOCK).min(m.len());
        if kernel.may_have_diff(&m[start..end], &v[start..end]) {
            for i in start..end {
                let mi = m[i];
                let vi = &mut v[i];
                let d = mi - *vi;
                if d != 0.0 {
                    idx.push(i as u32);
                    val.push(d);
                    *vi += d;
                    if mi - *vi != 0.0 {
                        dirty.push(i as u32);
                    }
                }
            }
        }
        start = end;
    }
    (idx, val)
}

/// Dense-diff Top-k send over a whole segment: sends everything if
/// `d = m − v` is at or under the `k` budget, otherwise selects the Top-k
/// directly on the dense difference (cheaper than building (index, value)
/// pair vectors first when the diff is dense — the steady state under
/// secondary compression). Zeros can never be selected because the k-th
/// ranked element is nonzero whenever the selection runs, so the outcome
/// is identical to [`topk_pairs`] over the nonzero pairs: same
/// [`mag_idx_order`] ranking, same ascending output.
///
/// `guess` is this `(worker, segment)`'s carried boundary. An untracked
/// send whose guess holds is one pass over `m` and `v` that stores nothing
/// (the selected values are the same `m[i] − v[i]` subtractions, redone at
/// the `k` selected positions); every other case materialises the
/// difference first — the tracked form walks it again for the dirty set.
/// An untracked send whose guess *misses* has walked `m` and `v` once for
/// nothing before it does: six walks where the two-pass form alone takes
/// five. It shows up as a fallback in [`SelectScratch::tally`].
///
/// Also returns the total nonzero count of the diff (the density signal
/// callers use for tracking hysteresis), which the scan computes anyway.
pub fn send_topk_dense(
    m: &[f32],
    v: &mut [f32],
    k: usize,
    track_dirty: bool,
    dirty: &mut Vec<u32>,
    scratch: &mut SelectScratch,
    guess: &mut Guess,
) -> (Vec<u32>, Vec<f32>, usize) {
    debug_assert_eq!(m.len(), v.len());
    if !track_dirty {
        if let Some((pos, nnz_all)) = diff_topk_indices(m, v, k, scratch, guess) {
            let val: Vec<f32> = pos.iter().map(|&p| m[p as usize] - v[p as usize]).collect();
            scatter_pairs(v, &pos, &val);
            return (pos, val, nnz_all);
        }
    }
    // Diff materialisation + nonzero count on the scratch's backend
    // (bitwise identical across backends: vector subtract matches scalar
    // subtract bit for bit, and the NEQ_UQ count matches `d != 0.0`).
    let kernel = scratch.kernel();
    let mut diff = Vec::new();
    let nnz_all = kernel.diff_into(m, v, &mut diff);
    if nnz_all <= k {
        // At or under budget: everything goes (Alg. 2 lines 5-7).
        let mut idx = Vec::with_capacity(nnz_all);
        let mut val = Vec::with_capacity(nnz_all);
        for (i, &d) in diff.iter().enumerate() {
            if d != 0.0 {
                idx.push(i as u32);
                val.push(d);
                v[i] += d;
                if track_dirty && m[i] - v[i] != 0.0 {
                    dirty.push(i as u32);
                }
            }
        }
        return (idx, val, nnz_all);
    }
    if k == 0 {
        // Nothing fits the budget: every nonzero coordinate stays dirty.
        if track_dirty {
            for (i, &d) in diff.iter().enumerate() {
                if d != 0.0 {
                    dirty.push(i as u32);
                }
            }
        }
        return (Vec::new(), Vec::new(), nnz_all);
    }
    let pos = if track_dirty {
        radix_topk_indices_guessed(&diff, k, scratch, guess)
    } else {
        // The fused attempt above was this selection's one pass.
        select_reseed(&diff, k, scratch, guess)
    };
    let mut val = Vec::with_capacity(pos.len());
    kernel.gather_into(&diff, &pos, &mut val);
    scatter_pairs(v, &pos, &val);
    if track_dirty {
        let mut p = 0usize;
        for (i, &d) in diff.iter().enumerate() {
            if d != 0.0 {
                let i = i as u32;
                if p < pos.len() && pos[p] == i {
                    p += 1;
                    if m[i as usize] - v[i as usize] != 0.0 {
                        dirty.push(i);
                    }
                } else {
                    dirty.push(i);
                }
            }
        }
    }
    (pos, val, nnz_all)
}

/// Scatters a Top-k selection into `v` and appends the post-send dirty set,
/// rescanning only the `sent` coordinates. Preconditions: `all_idx` is
/// ascending with nonzero `m − v` at every entry (a [`diff_pairs_at`] /
/// [`diff_pairs_dense`] output), and `sent_idx` is an ascending subset of
/// it. An unsent pair keeps its nonzero difference untouched, so it is
/// dirty without re-reading memory; a sent pair is dirty only if rounding
/// left `v + (m − v) ≠ m`. Equivalent to [`scatter_pairs`] →
/// [`retain_dirty`] over any candidate superset of `all_idx`.
pub fn scatter_track_dirty(
    m: &[f32],
    v: &mut [f32],
    sent_idx: &[u32],
    sent_val: &[f32],
    all_idx: &[u32],
    dirty: &mut Vec<u32>,
) {
    scatter_pairs(v, sent_idx, sent_val);
    let mut p = 0usize;
    for &i in all_idx {
        if p < sent_idx.len() && sent_idx[p] == i {
            p += 1;
            if m[i as usize] - v[i as usize] != 0.0 {
                dirty.push(i);
            }
        } else {
            dirty.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_total_and_tiebreaks_by_index() {
        assert_eq!(mag_idx_order(2.0, 5, 1.0, 0), Ordering::Less); // bigger mag first
        assert_eq!(mag_idx_order(1.0, 0, 2.0, 5), Ordering::Greater);
        assert_eq!(mag_idx_order(1.0, 2, 1.0, 7), Ordering::Less); // tie: lower idx first
        assert_eq!(mag_idx_order(1.0, 7, 1.0, 2), Ordering::Greater);
        assert_eq!(mag_idx_order(1.0, 3, 1.0, 3), Ordering::Equal);
        // NaN sorts as the largest magnitude, deterministically.
        assert_eq!(mag_idx_order(f32::NAN, 1, f32::INFINITY, 0), Ordering::Less);
    }

    #[test]
    fn sort_dedup_basic() {
        let mut v = vec![5, 1, 3, 1, 5, 0];
        sort_dedup(&mut v);
        assert_eq!(v, vec![0, 1, 3, 5]);
    }

    #[test]
    fn merge_sum_pairs_sums_in_input_order() {
        let a = (vec![1u32, 4, 7], vec![1.0f32, 2.0, 3.0]);
        let b = (vec![0u32, 4, 9], vec![10.0f32, 20.0, 30.0]);
        let c = (vec![4u32], vec![100.0f32]);
        let (idx, val) = merge_sum_pairs(&[
            (&a.0, &a.1),
            (&b.0, &b.1),
            (&c.0, &c.1),
        ]);
        assert_eq!(idx, vec![0, 1, 4, 7, 9]);
        // Index 4: (2.0 + 20.0) + 100.0 in input order.
        assert_eq!(val, vec![10.0, 1.0, 122.0, 3.0, 30.0]);
        // Empty inputs contribute nothing.
        let empty: (Vec<u32>, Vec<f32>) = (Vec::new(), Vec::new());
        let (idx2, val2) =
            merge_sum_pairs(&[(&empty.0, &empty.1), (&a.0, &a.1), (&empty.0, &empty.1)]);
        assert_eq!(idx2, a.0);
        assert_eq!(val2, a.1);
        assert!(merge_sum_pairs(&[]).0.is_empty());
    }

    #[test]
    fn merge_sum_pairs_single_input_is_bitwise_identity() {
        // -0.0 must survive: a `0.0 + x` prologue would turn it into +0.0.
        let idx = vec![2u32, 5];
        let val = vec![-0.0f32, 1.5];
        let (mi, mv) = merge_sum_pairs(&[(&idx, &val)]);
        assert_eq!(mi, idx);
        assert_eq!(
            mv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            val.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn topk_pairs_selects_and_sorts() {
        let idx = [2u32, 4, 7, 9];
        let val = [1.0f32, -5.0, 0.5, 3.0];
        let (i, v) = topk_pairs(&idx, &val, 2);
        assert_eq!(i, vec![4, 9]);
        assert_eq!(v, vec![-5.0, 3.0]);
        // k >= n returns everything unchanged.
        let (i, v) = topk_pairs(&idx, &val, 10);
        assert_eq!(i, idx.to_vec());
        assert_eq!(v, val.to_vec());
        let (i, v) = topk_pairs(&idx, &val, 0);
        assert!(i.is_empty() && v.is_empty());
    }

    #[test]
    fn topk_pairs_deterministic_on_ties() {
        let idx = [0u32, 1, 2, 3];
        let val = [2.0f32, -2.0, 2.0, 2.0];
        let (i, _) = topk_pairs(&idx, &val, 2);
        assert_eq!(i, vec![0, 1], "ties must break toward lower indices");
    }

    #[test]
    fn topk_pairs_nan_and_inf() {
        let idx = [0u32, 1, 2, 3];
        let val = [1.0f32, f32::NAN, f32::INFINITY, -2.0];
        let (i, _) = topk_pairs(&idx, &val, 2);
        assert_eq!(i, vec![1, 2], "NaN then inf dominate the selection");
    }

    #[test]
    fn diff_pairs_dense_and_at_agree_on_superset() {
        let m = [1.0f32, 0.0, 3.0, 0.0, -2.0];
        let v = [1.0f32, 0.0, 1.0, 0.0, 0.0];
        let (di, dv) = diff_pairs_dense(&m, &v);
        assert_eq!(di, vec![2, 4]);
        assert_eq!(dv, vec![2.0, -2.0]);
        // Any superset of the support yields the identical pairs.
        let (ci, cv) = diff_pairs_at(&m, &v, &[0, 2, 3, 4]);
        assert_eq!(ci, di);
        assert_eq!(cv, dv);
    }

    #[test]
    fn scatter_then_retain_clears_clean_coords() {
        let m = [4.0f32, 0.0, -1.5];
        let mut v = [0.0f32; 3];
        let (idx, val) = diff_pairs_dense(&m, &v);
        scatter_pairs(&mut v, &idx, &val);
        let mut dirty = Vec::new();
        retain_dirty(&m, &v, &[0, 1, 2], &mut dirty);
        assert!(dirty.is_empty(), "fully-sent diff leaves nothing dirty: {dirty:?}");
    }

    #[test]
    fn retain_dirty_keeps_held_back_coords() {
        let m = [4.0f32, 2.0, -1.5];
        let mut v = [0.0f32; 3];
        let (ai, av) = diff_pairs_dense(&m, &v);
        let (si, sv) = topk_pairs(&ai, &av, 1); // send only |4.0|
        scatter_pairs(&mut v, &si, &sv);
        let mut dirty = Vec::new();
        retain_dirty(&m, &v, &ai, &mut dirty);
        assert_eq!(dirty, vec![1, 2]);
    }

    #[test]
    fn sort_dedup_bitmap_matches_sort_dedup() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut mask = vec![0u64; 4]; // domain of 256 indices
        for _ in 0..50 {
            let n = (next() % 60) as usize;
            let mut a: Vec<u32> = (0..n).map(|_| (next() % 256) as u32).collect();
            let mut b = a.clone();
            sort_dedup(&mut a);
            sort_dedup_bitmap(&mut b, &mut mask);
            assert_eq!(a, b);
            assert!(mask.iter().all(|&w| w == 0), "mask must come back zeroed");
        }
    }

    #[test]
    fn sort_dedup_pooled_matches_and_keeps_masks_zero() {
        let mut pool: BufferPool<u64> = BufferPool::new(2);
        let mut v = vec![300u32, 5, 5, 299, 0];
        sort_dedup_pooled(&mut v, 301, &mut pool);
        assert_eq!(v, vec![0, 5, 299, 300]);
        assert_eq!(pool.idle(), 1, "mask went back to the pool");
        // The parked mask is all-zero at full length — the pool invariant
        // that makes reuse free.
        let mask = pool.acquire();
        assert!(mask.len() >= 301usize.div_ceil(64));
        assert!(mask.iter().all(|&w| w == 0), "pooled mask must stay zero");
        pool.release_unchanged(mask);
        // Reuse with a smaller domain (mask longer than needed), then
        // grow it again: both stay correct with zero re-zeroing.
        let mut v2 = vec![7u32, 7, 1];
        sort_dedup_pooled(&mut v2, 64, &mut pool);
        assert_eq!(v2, vec![1, 7]);
        let mut v3 = vec![1023u32, 0, 512, 512];
        sort_dedup_pooled(&mut v3, 1024, &mut pool);
        assert_eq!(v3, vec![0, 512, 1023]);
        // The empty-candidate shape (what server early-return paths feed
        // after a degenerate-merge bailout): mask untouched, still zero.
        let mut v4: Vec<u32> = Vec::new();
        sort_dedup_pooled(&mut v4, 1024, &mut pool);
        assert!(v4.is_empty());
        let mask = pool.acquire();
        assert!(mask.iter().all(|&w| w == 0), "mask stays zero after empty dedup");
        // Randomised agreement with the comparison-sort reference.
        pool.release_unchanged(mask);
        let mut state = 0xC0FF_EE00_D15E_A5E5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = (next() % 80) as usize;
            let mut a: Vec<u32> = (0..n).map(|_| (next() % 512) as u32).collect();
            let mut b = a.clone();
            sort_dedup(&mut a);
            sort_dedup_pooled(&mut b, 512, &mut pool);
            assert_eq!(a, b);
        }
    }

    /// The `_with` dense kernels must be backend-invariant: identical
    /// pairs, `v` bits, and dirty sets under `Scalar` and `Simd` (on
    /// non-AVX2 CPUs `Simd` falls back to scalar and this is trivially
    /// green). Lengths straddle the block width and the vector width.
    #[test]
    fn dense_kernels_backend_invariant() {
        let mut sc = SelectScratch::new().with_kernel(Kernel::Scalar);
        let mut si = SelectScratch::new().with_kernel(Kernel::Simd);
        for n in [0usize, 1, 7, 63, 64, 65, 300, 1024] {
            for seed in 1..8u64 {
                let (m, v0) = random_state(seed * 50021 + n as u64, n);
                let (ai, av) = diff_pairs_dense_with(Kernel::Scalar, &m, &v0);
                let (bi, bv) = diff_pairs_dense_with(Kernel::Simd, &m, &v0);
                assert_eq!(ai, bi, "diff idx diverged (n {n} seed {seed})");
                assert_eq!(
                    av.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    bv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "diff val diverged (n {n} seed {seed})"
                );
                let mut va = v0.clone();
                let mut da = Vec::new();
                let (ai, av) = send_all_dense_with(Kernel::Scalar, &m, &mut va, &mut da);
                let mut vb = v0.clone();
                let mut db = Vec::new();
                let (bi, bv) = send_all_dense_with(Kernel::Simd, &m, &mut vb, &mut db);
                assert_eq!(ai, bi, "send-all idx diverged (n {n} seed {seed})");
                assert_eq!(
                    av.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    bv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(da, db, "dirty diverged (n {n} seed {seed})");
                assert_eq!(
                    va.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    vb.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                for k in [0usize, 3, n / 2, n + 7] {
                    let mut vx = v0.clone();
                    let mut dx = Vec::new();
                    let (xi, xv, xn) = send_topk_dense(
                        &m,
                        &mut vx,
                        k,
                        true,
                        &mut dx,
                        &mut sc,
                        &mut Guess::default(),
                    );
                    let mut vy = v0.clone();
                    let mut dy = Vec::new();
                    let (yi, yv, yn) = send_topk_dense(
                        &m,
                        &mut vy,
                        k,
                        true,
                        &mut dy,
                        &mut si,
                        &mut Guess::default(),
                    );
                    assert_eq!(xi, yi, "topk idx diverged (n {n} seed {seed} k {k})");
                    assert_eq!(xn, yn);
                    assert_eq!(
                        xv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        yv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    );
                    assert_eq!(dx, dy);
                    assert_eq!(
                        vx.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        vy.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    /// Pseudorandom m/v pairs with values that sometimes cancel exactly and
    /// sometimes leave rounding residue: the fused kernels must reproduce
    /// the unfused diff → scatter → retain pipeline bit for bit.
    fn random_state(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let m: Vec<f32> = (0..n)
            .map(|_| match next() % 4 {
                0 => 0.0,
                1 => (next() % 17) as f32 * 0.125 - 1.0,
                2 => ((next() % 1000) as f32) * 1e-3 + 1e7, // forces rounding
                _ => -((next() % 9) as f32),
            })
            .collect();
        let v: Vec<f32> = m
            .iter()
            .map(|&x| match next() % 3 {
                0 => x, // already clean
                1 => 0.0,
                _ => x + ((next() % 7) as f32) * 0.25 - 0.75,
            })
            .collect();
        (m, v)
    }

    #[test]
    fn fused_send_all_matches_unfused_pipeline() {
        for seed in 1..40u64 {
            let (m, v0) = random_state(seed * 7919, 64);
            // Unfused reference over all indices.
            let mut v_ref = v0.clone();
            let (ri, rv) = diff_pairs_dense(&m, &v_ref);
            scatter_pairs(&mut v_ref, &ri, &rv);
            let all: Vec<u32> = (0..64).collect();
            let mut dirty_ref = Vec::new();
            retain_dirty(&m, &v_ref, &all, &mut dirty_ref);
            // Fused dense.
            let mut v_dense = v0.clone();
            let mut dirty_dense = Vec::new();
            let (di, dv) = send_all_dense(&m, &mut v_dense, &mut dirty_dense);
            assert_eq!(di, ri);
            assert_eq!(
                dv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(dirty_dense, dirty_ref);
            assert_eq!(
                v_dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                v_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            // Fused restricted, on a superset of the support.
            let mut v_at = v0.clone();
            let mut dirty_at = Vec::new();
            let (ai, av) = send_all_at(&m, &mut v_at, &all, &mut dirty_at);
            assert_eq!(ai, ri);
            assert_eq!(
                av.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(dirty_at, dirty_ref);
        }
    }

    #[test]
    fn scatter_track_dirty_matches_scatter_then_retain() {
        for seed in 1..40u64 {
            let (m, v0) = random_state(seed * 104729, 64);
            let (ai, av) = diff_pairs_dense(&m, &v0);
            let k = (seed as usize) % (ai.len() + 1);
            let (si, sv) = topk_pairs(&ai, &av, k);
            // Unfused reference: scatter, then rescan every candidate.
            let mut v_ref = v0.clone();
            scatter_pairs(&mut v_ref, &si, &sv);
            let all: Vec<u32> = (0..64).collect();
            let mut dirty_ref = Vec::new();
            retain_dirty(&m, &v_ref, &all, &mut dirty_ref);
            // Fused: rescan only what was sent.
            let mut v_fused = v0.clone();
            let mut dirty_fused = Vec::new();
            scatter_track_dirty(&m, &mut v_fused, &si, &sv, &ai, &mut dirty_fused);
            assert_eq!(dirty_fused, dirty_ref, "seed {seed} k {k}");
            assert_eq!(
                v_fused.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                v_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn send_topk_dense_matches_pair_pipeline() {
        let mut scratch = SelectScratch::new();
        let mut guess = Guess::default();
        for seed in 1..40u64 {
            for k in [0usize, 1, 3, 8, 64, 100] {
                let (m, v0) = random_state(seed * 31337, 64);
                // Pair-based comparator reference: diff → topk (or
                // send-all) → scatter with fused dirty tracking.
                let mut v_ref = v0.clone();
                let (ai, av) = diff_pairs_dense(&m, &v_ref);
                let nnz_ref = ai.len();
                let mut dirty_ref = Vec::new();
                let (ri, rv) = if ai.len() > k {
                    let (si, sv) = topk_pairs(&ai, &av, k);
                    scatter_track_dirty(&m, &mut v_ref, &si, &sv, &ai, &mut dirty_ref);
                    (si, sv)
                } else {
                    scatter_track_dirty(&m, &mut v_ref, &ai, &av, &ai, &mut dirty_ref);
                    (ai, av)
                };
                // Dense-diff kernel under test.
                let mut v_dense = v0.clone();
                let mut dirty_dense = Vec::new();
                let (di, dv, dn) = send_topk_dense(
                    &m,
                    &mut v_dense,
                    k,
                    true,
                    &mut dirty_dense,
                    &mut scratch,
                    &mut guess,
                );
                assert_eq!(di, ri, "seed {seed} k {k}");
                assert_eq!(dn, nnz_ref, "seed {seed} k {k}");
                assert_eq!(
                    dv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(dirty_dense, dirty_ref, "seed {seed} k {k}");
                assert_eq!(
                    v_dense.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    v_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                // Untracked variant leaves dirty alone, matches payload.
                let mut v_u = v0.clone();
                let mut dirty_u = Vec::new();
                let (ui, uv, un) =
                    send_topk_dense(&m, &mut v_u, k, false, &mut dirty_u, &mut scratch, &mut guess);
                assert_eq!(ui, ri);
                assert_eq!(un, nnz_ref);
                assert_eq!(
                    uv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                assert!(dirty_u.is_empty());
            }
        }
    }

    /// A wide segment over several rounds, guesses carried: the untracked
    /// one-pass send and the tracked two-pass send must both reproduce the
    /// comparator pair pipeline — payload, `v`, nonzero count, dirty set —
    /// and the carried guesses must actually take the one-pass path.
    #[test]
    fn send_topk_dense_with_carried_guess_matches_pair_pipeline() {
        let n = 40_000usize;
        let k = 400usize;
        let mut state = 0x5EED_CAFE_F00Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut m = vec![0.0f32; n];
        let mut v_ref = vec![0.0f32; n];
        let (mut v_fused, mut v_tracked) = (v_ref.clone(), v_ref.clone());
        let (mut g_fused, mut g_tracked) = (Guess::default(), Guess::default());
        let (mut s_fused, mut s_tracked) = (SelectScratch::new(), SelectScratch::new());
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for round in 0..12 {
            // Four sparse updates land between this worker's pulls.
            for _ in 0..4 * k {
                let i = (next() % n as u64) as usize;
                m[i] -= ((next() % 2000) as f32 - 1000.0) * 1e-4;
            }
            let (ai, av) = diff_pairs_dense(&m, &v_ref);
            let mut dirty_ref = Vec::new();
            let (ri, rv) = topk_pairs(&ai, &av, k);
            scatter_track_dirty(&m, &mut v_ref, &ri, &rv, &ai, &mut dirty_ref);

            let mut none = Vec::new();
            let (fi, fv, fn_) =
                send_topk_dense(&m, &mut v_fused, k, false, &mut none, &mut s_fused, &mut g_fused);
            assert_eq!((&fi, bits(&fv), fn_), (&ri, bits(&rv), ai.len()), "fused round {round}");
            assert_eq!(bits(&v_fused), bits(&v_ref), "fused v round {round}");
            assert!(none.is_empty());

            let mut dirty = Vec::new();
            let (ti, tv, tn) = send_topk_dense(
                &m,
                &mut v_tracked,
                k,
                true,
                &mut dirty,
                &mut s_tracked,
                &mut g_tracked,
            );
            assert_eq!((&ti, bits(&tv), tn), (&ri, bits(&rv), ai.len()), "tracked round {round}");
            assert_eq!(bits(&v_tracked), bits(&v_ref), "tracked v round {round}");
            assert_eq!(dirty, dirty_ref, "dirty round {round}");
        }
        for (what, s) in [("fused", &s_fused), ("tracked", &s_tracked)] {
            let (one_pass, fallbacks) = s.tally();
            assert!(
                one_pass >= 8 && fallbacks >= 1,
                "{what}: {one_pass} one-pass, {fallbacks} fallbacks"
            );
        }
    }

    /// A difference of exactly `k` nonzeros on a wide segment: whether the
    /// guess admits all of them (the one-pass settle takes every
    /// candidate), one too few (a miss) or is absent, the payload is the
    /// "everything goes" arm's.
    #[test]
    fn send_topk_dense_at_budget_sends_everything_under_any_guess() {
        use crate::radix_select::mag_key;
        let (n, k) = (40_000usize, 400usize);
        let mut m = vec![0.0f32; n];
        for j in 0..k {
            m[j * 97 + 3] = if j % 2 == 0 { 1.0 + j as f32 } else { -1.0 - j as f32 };
        }
        let idx: Vec<u32> = (0..k as u32).map(|j| j * 97 + 3).collect();
        let val: Vec<f32> = idx.iter().map(|&i| m[i as usize]).collect();
        let mut scratch = SelectScratch::new();
        for key in [0, 1, mag_key(1.0), mag_key(2.0), u32::MAX] {
            let mut v = vec![0.0f32; n];
            let mut guess = Guess::from_key(key);
            let sent =
                send_topk_dense(&m, &mut v, k, false, &mut Vec::new(), &mut scratch, &mut guess);
            assert_eq!(sent, (idx.clone(), val.clone(), k), "guess {key:#x}");
            assert_eq!(v, m, "guess {key:#x}");
        }
        assert_eq!(scratch.tally(), (2, 0));
    }

    #[test]
    fn radix_topk_pairs_agrees_with_the_reference() {
        let mut scratch = SelectScratch::new();
        let idx: Vec<u32> = (0..48).map(|i| i * 5 + 2).collect();
        let val: Vec<f32> = (0..48)
            .map(|i| match i % 6 {
                0 => 1.5,
                1 => -1.5,
                2 => f32::NAN,
                3 => 1.0e-41,
                4 => f32::NEG_INFINITY,
                _ => (i as f32 - 24.0) * 0.3,
            })
            .collect();
        for k in [0usize, 1, 5, 24, 47, 48, 99] {
            let (ci, cv) = topk_pairs(&idx, &val, k);
            let (ri, rv) = crate::radix_select::radix_topk_pairs(&idx, &val, k, &mut scratch);
            assert_eq!(ci, ri, "k = {k}");
            assert_eq!(
                cv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "k = {k}"
            );
        }
    }
}
