//! Differential proof that the radix selection engine is bitwise-identical
//! to the comparator reference on *every* f32 bit pattern.
//!
//! The comparator path (`topk_indices` / `topk_threshold` / `topk_pairs`)
//! is the specification: `select_nth_unstable_by` + sort under
//! `mag_idx_order` (magnitude descending via `total_cmp`, index ascending
//! on ties). The radix path must reproduce its output *exactly* — same
//! indices, same threshold bits — including on NaNs (any payload), ±Inf,
//! denormals, ±0, and arbitrarily long tie plateaus. Proptest drives raw
//! `u32` bit patterns through `f32::from_bits` so nothing in the float
//! space is out of scope.

use dgs_sparsify::merge::topk_pairs;
use dgs_sparsify::{
    radix_threshold, radix_topk_indices, radix_topk_pairs, topk_indices, topk_threshold,
    SelectScratch,
};
use proptest::prelude::*;

/// Arbitrary f32s by raw bit pattern: hits NaN payloads, ±Inf, denormals,
/// ±0 with the same probability as any other pattern.
fn bitwise_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// A palette of the adversarial values the engine's key mapping must order
/// correctly, sampled with replacement so ties are common.
fn special_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0f32),
        Just(-1.0f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(f32::NAN),
        Just(-f32::NAN),
        Just(f32::from_bits(0x7FC0_1234)), // NaN with payload
        Just(f32::from_bits(0xFFC0_5678)), // negative NaN with payload
        Just(f32::MIN_POSITIVE),
        Just(f32::MIN_POSITIVE / 2.0), // denormal
        Just(f32::from_bits(1)),       // smallest denormal
        Just(1.0e-42f32),              // denormal
        Just(f32::MAX),
        Just(f32::EPSILON),
    ]
}

/// The k values worth probing for a segment of length `n`: the edges plus
/// one interior point.
fn probe_ks(n: usize) -> Vec<usize> {
    let mut ks = vec![0, 1, n / 2, n.saturating_sub(1), n];
    ks.dedup();
    ks
}

fn assert_equivalent(seg: &[f32], k: usize) {
    let mut scratch = SelectScratch::new();
    let reference = topk_indices(seg, k);
    let radix = radix_topk_indices(seg, k, &mut scratch);
    assert_eq!(radix, reference, "indices diverged: seg={seg:?} k={k}");
    if k >= 1 && k <= seg.len() {
        let thr_ref = topk_threshold(seg, k);
        let thr_radix = radix_threshold(seg, k, &mut scratch);
        assert_eq!(
            thr_radix.to_bits(),
            thr_ref.to_bits(),
            "threshold bits diverged: seg={seg:?} k={k}"
        );
    }
}

proptest! {
    /// Radix == comparator on arbitrary bit patterns, all edge ks.
    #[test]
    fn radix_matches_comparator_on_raw_bits(
        seg in proptest::collection::vec(bitwise_f32(), 1..160),
        k_extra in 0usize..160,
    ) {
        for k in probe_ks(seg.len()) {
            assert_equivalent(&seg, k);
        }
        assert_equivalent(&seg, k_extra.min(seg.len()));
    }

    /// Radix == comparator on tie-heavy adversarial palettes.
    #[test]
    fn radix_matches_comparator_on_specials(
        seg in proptest::collection::vec(special_f32(), 1..96),
        k_extra in 0usize..96,
    ) {
        for k in probe_ks(seg.len()) {
            assert_equivalent(&seg, k);
        }
        assert_equivalent(&seg, k_extra.min(seg.len()));
    }

    /// Pair-form selection (the server's secondary compression) agrees
    /// bitwise, with strictly ascending global indices as on the real path.
    #[test]
    fn pairs_match_on_raw_bits(
        gaps in proptest::collection::vec(1u32..5, 1..120),
        val_bits in proptest::collection::vec(any::<u32>(), 1..120),
        k in 0usize..140,
    ) {
        let n = gaps.len().min(val_bits.len());
        let mut idx = Vec::with_capacity(n);
        let mut acc = 0u32;
        for &g in &gaps[..n] {
            acc += g;
            idx.push(acc);
        }
        let val: Vec<f32> = val_bits[..n].iter().map(|&b| f32::from_bits(b)).collect();
        let mut scratch = SelectScratch::new();
        let (ri, rv) = topk_pairs(&idx, &val, k);
        let (xi, xv) = radix_topk_pairs(&idx, &val, k, &mut scratch);
        prop_assert_eq!(&xi, &ri);
        prop_assert_eq!(xv.len(), rv.len());
        for (a, b) in xv.iter().zip(rv.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned torture vectors (run even if proptest shrinks away from them)
// ---------------------------------------------------------------------------

#[test]
fn all_equal_plateau_every_k() {
    for &v in &[1.0f32, -1.0, 0.0, -0.0, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE / 4.0] {
        let seg = vec![v; 37];
        for k in 0..=37 {
            assert_equivalent(&seg, k);
        }
    }
}

#[test]
fn nan_inf_denormal_mixture_every_k() {
    let seg = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -f32::NAN,
        f32::from_bits(0x7FFF_FFFF), // max-payload NaN
        f32::from_bits(0x7F80_0001), // min-payload NaN
        f32::MAX,
        -f32::MAX,
        1.0,
        -1.0,
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 2.0,
        f32::from_bits(1),
        0.0,
        -0.0,
        1.0e-42,
    ];
    for k in 0..=seg.len() {
        assert_equivalent(&seg, k);
    }
}

#[test]
fn tie_plateau_straddling_the_cut() {
    // 30 copies of the same magnitude with alternating signs; the cut lands
    // inside the plateau, so the tie-break (lower index wins) is the whole
    // answer.
    let seg: Vec<f32> = (0..30).map(|i| if i % 2 == 0 { 0.5 } else { -0.5 }).collect();
    for k in [1, 7, 15, 29] {
        assert_equivalent(&seg, k);
    }
}

#[test]
fn magnitude_buckets_with_equal_top_bytes() {
    // Values whose keys share the top radix byte, forcing the refinement
    // passes at shifts 16/8/0 to do the work.
    let seg: Vec<f32> = (0..256).map(|i| f32::from_bits(0x3F80_0000 | i)).collect();
    for k in [1, 64, 128, 255, 256] {
        assert_equivalent(&seg, k);
    }
}

#[test]
fn large_segments_cross_histogram_cutoff() {
    // The engine switches from the 256-bucket byte histogram to the
    // 65,536-bucket two-byte histogram at 1 << 15 elements; straddle the
    // cutoff with three shapes per size: spread raw bits (plain wide path),
    // a one-ulp plateau whose boundary bucket is the whole segment (the
    // filtered narrowing pass), and an all-equal segment (maximal ties).
    let mut state = 0x5EED_1234u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for n in [32_767usize, 32_768, 50_000] {
        let spread: Vec<f32> = (0..n).map(|_| f32::from_bits(next() as u32)).collect();
        for k in [1, n / 100, n / 7, n - 1] {
            assert_equivalent(&spread, k);
        }
        let plateau: Vec<f32> =
            (0..n).map(|_| f32::from_bits(0x3F80_0000 | (next() as u32 & 0x1FFF))).collect();
        for k in [1, n / 100, n / 2, n - 1] {
            assert_equivalent(&plateau, k);
        }
        let equal = vec![0.25f32; n];
        for k in [1, n / 3, n - 1] {
            assert_equivalent(&equal, k);
        }
    }
}
