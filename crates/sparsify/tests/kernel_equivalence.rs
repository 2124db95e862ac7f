//! Differential proof that the SIMD kernel backend is bitwise-identical
//! to its scalar twin on *every* f32 bit pattern.
//!
//! The scalar backend ([`Kernel::Scalar`]) is the specification: plain
//! straight-line Rust with no intrinsics. The SIMD backend
//! ([`Kernel::Simd`]) must reproduce its output *exactly* — same indices,
//! same value bits, same wire bytes — including on NaNs (any payload),
//! ±Inf, denormals, ±0, and arbitrarily long tie plateaus. Seeded cases
//! drive raw `u32` bit patterns through `f32::from_bits` so nothing in
//! the float space is out of scope; pinned vectors below cover the
//! torture corpus whatever the cases draw.
//!
//! On machines without AVX2 both backends run the scalar code and the
//! suite degenerates to a tautology — CI prints a notice in that case but
//! still runs it (the dispatch seam itself is then what is under test).

use dgs_sparsify::merge::{
    diff_pairs_dense_with, send_all_dense_with, send_topk_dense, sort_dedup, sort_dedup_pooled,
};
use dgs_sparsify::{
    mag_key, momentum_topk_indices, radix_threshold, radix_topk_indices,
    radix_topk_indices_guessed, Guess, Kernel, SelectScratch, SparseUpdate, SparseVec,
    TernaryUpdate, TernaryVec,
};
use dgs_tensor::rng::{cases, vec_of, Rng};
use dgs_tensor::BufferPool;

/// Arbitrary f32s by raw bit pattern: hits NaN payloads, ±Inf, denormals,
/// ±0 with the same probability as any other pattern.
fn bitwise_f32(rng: &mut Rng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

/// Adversarial palette sampled with replacement so ties are common.
fn special_f32(rng: &mut Rng) -> f32 {
    let palette = [
        0.0f32,
        -0.0f32,
        1.0f32,
        -1.0f32,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7FC0_1234), // NaN with payload
        f32::from_bits(0xFFC0_5678), // negative NaN with payload
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 2.0, // denormal
        f32::from_bits(1),       // smallest denormal
        f32::MAX,
    ];
    palette[rng.below(palette.len())]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every dense merge kernel agrees across backends on (m, v).
fn assert_merge_equivalent(m: &[f32], v: &[f32], k: usize) {
    let (ia, va) = diff_pairs_dense_with(Kernel::Scalar, m, v);
    let (ib, vb) = diff_pairs_dense_with(Kernel::Simd, m, v);
    assert_eq!(ia, ib, "diff_pairs idx diverged");
    assert_eq!(bits(&va), bits(&vb), "diff_pairs val bits diverged");

    let run_send_all = |kernel: Kernel| {
        let mut vv = v.to_vec();
        let mut dirty = Vec::new();
        let (i, val) = send_all_dense_with(kernel, m, &mut vv, &mut dirty);
        (i, bits(&val), bits(&vv), dirty)
    };
    assert_eq!(run_send_all(Kernel::Scalar), run_send_all(Kernel::Simd), "send_all diverged");

    let run_topk = |kernel: Kernel| {
        let mut vv = v.to_vec();
        let mut dirty = Vec::new();
        let mut scratch = SelectScratch::new().with_kernel(kernel);
        let mut guess = Guess::default();
        let (i, val, nnz) =
            send_topk_dense(m, &mut vv, k, true, &mut dirty, &mut scratch, &mut guess);
        (i, bits(&val), nnz, bits(&vv), dirty)
    };
    assert_eq!(run_topk(Kernel::Scalar), run_topk(Kernel::Simd), "send_topk diverged");
}

/// Asserts the guessed forms agree across backends on a wide segment, for
/// guesses that hit, miss low and miss high: same indices, same updated
/// buffer, same carried guess, same engine taken.
fn assert_guessed_equivalent(seg: &[f32], k: usize) {
    let thr = mag_key(radix_threshold(seg, k, &mut SelectScratch::new()));
    let grad: Vec<f32> = seg.iter().rev().map(|&g| if g.is_nan() { 0.5 } else { g }).collect();
    for key in [0, 1, thr / 2, thr - 1, thr, thr + 1, u32::MAX] {
        let run = |kernel: Kernel| {
            let mut scratch = SelectScratch::new().with_kernel(kernel);
            let mut guess = Guess::from_key(key);
            let plain = radix_topk_indices_guessed(seg, k, &mut scratch, &mut guess);
            let again = radix_topk_indices_guessed(seg, k, &mut scratch, &mut guess);
            let mut u: Vec<f32> = seg.iter().map(|&x| if x.is_nan() { 1.0 } else { x }).collect();
            let mut fused_guess = Guess::from_key(key);
            let fused =
                momentum_topk_indices(&mut u, &grad, 0.7, 0.05, k, &mut scratch, &mut fused_guess);
            (plain, again, guess, fused, bits(&u), fused_guess, scratch.tally())
        };
        assert_eq!(run(Kernel::Scalar), run(Kernel::Simd), "guessed forms diverged at {key:#x}");
    }
}

/// Asserts radix selection agrees when only the scratch's kernel differs.
fn assert_select_equivalent(seg: &[f32], k: usize) {
    let mut sa = SelectScratch::new().with_kernel(Kernel::Scalar);
    let mut sb = SelectScratch::new().with_kernel(Kernel::Simd);
    let a = radix_topk_indices(seg, k, &mut sa);
    let b = radix_topk_indices(seg, k, &mut sb);
    assert_eq!(a, b, "selection indices diverged at k={k}");
    if (1..=seg.len()).contains(&k) {
        let ta = radix_threshold(seg, k, &mut sa);
        let tb = radix_threshold(seg, k, &mut sb);
        assert_eq!(ta.to_bits(), tb.to_bits(), "threshold bits diverged at k={k}");
    }
}

/// Dense merge kernels agree on arbitrary bit patterns.
#[test]
fn merge_kernels_agree_on_raw_bits() {
    cases(256, |rng| {
        let m = vec_of(rng, 1..200, bitwise_f32);
        let v_bits = vec_of(rng, 1..200, |rng| rng.next_u64() as u32);
        let k = rng.range(0..64);
        let n = m.len().min(v_bits.len());
        let v: Vec<f32> = v_bits[..n].iter().map(|&b| f32::from_bits(b)).collect();
        assert_merge_equivalent(&m[..n], &v, k);
    });
}

/// Dense merge kernels agree on tie-heavy adversarial palettes, where
/// most diffs are exactly zero (the chunk-skip fast path) or NaN.
#[test]
fn merge_kernels_agree_on_specials() {
    cases(256, |rng| {
        let m = vec_of(rng, 1..140, special_f32);
        let flips = vec_of(rng, 1..140, |rng| rng.below(2) == 1);
        let k = rng.range(0..32);
        let n = m.len().min(flips.len());
        // v is mostly equal to m (zero diff) with occasional flips.
        let v: Vec<f32> =
            m[..n].iter().zip(&flips[..n]).map(|(&x, &f)| if f { -x } else { x }).collect();
        assert_merge_equivalent(&m[..n], &v, k);
    });
}

/// Radix selection (hist fill + chunk scan on the backend) agrees.
#[test]
fn selection_agrees_on_raw_bits() {
    cases(256, |rng| {
        let seg = vec_of(rng, 1..160, bitwise_f32);
        let k_extra = rng.range(0..160);
        for k in [0, 1, seg.len() / 2, seg.len()] {
            assert_select_equivalent(&seg, k);
        }
        assert_select_equivalent(&seg, k_extra.min(seg.len()));
    });
}

/// Ternary quantization, dequantization, and both wire encoders emit
/// identical bits across backends.
#[test]
fn quant_and_encode_agree() {
    cases(256, |rng| {
        let val = vec_of(rng, 0..120, bitwise_f32);
        let seed = rng.next_u64();
        // Quantization is only defined on finite values (keep-probability
        // |v|/scale); filter to the domain without losing denormals/±0.
        let val: Vec<f32> = val.into_iter().filter(|v| v.is_finite()).collect();
        let idx: Vec<u32> = (0..val.len() as u32).map(|i| i * 3).collect();
        let sv = SparseVec { idx, val };
        let a = TernaryVec::quantize_with(Kernel::Scalar, &sv, seed);
        let b = TernaryVec::quantize_with(Kernel::Simd, &sv, seed);
        assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        assert_eq!(&a.idx, &b.idx);
        assert_eq!(&a.signs, &b.signs);
        let da = a.dequantize_with(Kernel::Scalar);
        let db = b.dequantize_with(Kernel::Simd);
        assert_eq!(bits(&da.val), bits(&db.val));
        let tu = TernaryUpdate { chunks: vec![a] };
        assert_eq!(tu.encode_with(Kernel::Scalar), tu.encode_with(Kernel::Simd));
        let su = SparseUpdate { chunks: vec![sv] };
        assert_eq!(su.encode_with(Kernel::Scalar), su.encode_with(Kernel::Simd));
    });
}

/// The pooled dedup wrapper matches plain sort_dedup and returns its
/// bitmap to the pool all-zero, whatever the candidate multiset.
#[test]
fn sort_dedup_pooled_matches_plain() {
    cases(256, |rng| {
        let cand = vec_of(rng, 0..300, |rng| rng.range(0..500) as u32);
        let mut pool: BufferPool<u64> = BufferPool::new(2);
        let mut a = cand.clone();
        let mut b = cand;
        sort_dedup(&mut a);
        sort_dedup_pooled(&mut b, 500, &mut pool);
        assert_eq!(a, b);
        // The invariant release_unchanged depends on: mask back to zero.
        let mask = pool.acquire();
        assert!(mask.iter().all(|&w| w == 0));
    });
}

// ---------------------------------------------------------------------------
// Pinned torture vectors (run whatever the seeded cases draw)
// ---------------------------------------------------------------------------

/// The torture corpus named by the kernel contract: NaN payloads, ±Inf,
/// denormals, one-ulp plateaus, all-equal segments.
fn torture_segments() -> Vec<Vec<f32>> {
    let mut segs: Vec<Vec<f32>> = vec![
        vec![],
        vec![f32::NAN; 33],
        vec![0.25; 77],
        vec![-0.0; 64],
        vec![
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
        ],
        // One-ulp plateau straddling vector-lane boundaries.
        (0..131).map(|i| f32::from_bits(0x3F80_0000 + (i & 1))).collect(),
    ];
    // Deterministic xorshift mixture long enough to cross the wide-path
    // histogram cutoff (1 << 15) used by the selection engine.
    let mut state = 0x00C0_FFEEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    segs.push((0..40_000).map(|_| f32::from_bits(next() as u32)).collect());
    segs
}

#[test]
fn pinned_torture_corpus_merge_and_select() {
    for seg in torture_segments() {
        let n = seg.len();
        // v = rotated copy so diffs mix zero and nonzero coordinates.
        let mut v = seg.clone();
        if n > 1 {
            v.rotate_right(n / 3 + 1);
        }
        for k in [0, 1, n / 7 + 1, n] {
            assert_merge_equivalent(&seg, &v, k);
        }
        for k in [0, 1, n / 100 + 1, n / 2, n] {
            assert_select_equivalent(&seg, k.min(n));
        }
    }
}

#[test]
fn guessed_forms_agree_across_backends_on_wide_segments() {
    let raw = torture_segments().pop().expect("the wide raw-bits segment");
    // Gradient-shaped: heavy-tailed magnitudes, plateaus of exact ties, and
    // a sprinkle of ±0 / denormals / NaN payloads.
    let shaped: Vec<f32> = (0..50_021u32)
        .map(|i| match i % 97 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(0x7FC0_0000 | (i & 0xFF)),
            3 => 1.0e-41,
            4..=9 => 0.75,
            _ => ((i.wrapping_mul(2_654_435_761) >> 8) as f32 / 16_777_216.0 - 0.5).powi(5),
        })
        .collect();
    for seg in [raw, shaped] {
        let n = seg.len();
        for k in [1, n / 100, n / 8] {
            assert_guessed_equivalent(&seg, k);
        }
        // The one-pass dense-diff send, two rounds on a carried guess.
        let mut v0 = seg.clone();
        v0.rotate_right(n / 3 + 1);
        let run = |kernel: Kernel| {
            let mut scratch = SelectScratch::new().with_kernel(kernel);
            let mut guess = Guess::default();
            let mut v = v0.clone();
            let mut sent = Vec::new();
            for _ in 0..3 {
                let (i, val, nnz) = send_topk_dense(
                    &seg,
                    &mut v,
                    n / 100,
                    false,
                    &mut Vec::new(),
                    &mut scratch,
                    &mut guess,
                );
                sent.push((i, bits(&val), nnz, guess));
            }
            (sent, bits(&v), scratch.tally())
        };
        assert_eq!(run(Kernel::Scalar), run(Kernel::Simd), "one-pass dense send diverged");
    }
}

#[test]
fn pinned_torture_corpus_quant_roundtrip() {
    for seg in torture_segments() {
        let val: Vec<f32> = seg.into_iter().filter(|v| v.is_finite()).collect();
        let idx: Vec<u32> = (0..val.len() as u32).collect();
        let sv = SparseVec { idx, val };
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let a = TernaryVec::quantize_with(Kernel::Scalar, &sv, seed);
            let b = TernaryVec::quantize_with(Kernel::Simd, &sv, seed);
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
            assert_eq!(a.idx, b.idx);
            assert_eq!(a.signs, b.signs);
            assert_eq!(
                bits(&a.dequantize_with(Kernel::Scalar).val),
                bits(&b.dequantize_with(Kernel::Simd).val)
            );
        }
    }
}

#[test]
fn runtime_dispatch_names_a_backend() {
    // Whatever DGS_KERNEL / the CPU say, the runtime choice is one of the
    // two backends and is stable across calls.
    let k = Kernel::runtime();
    assert!(matches!(k, Kernel::Scalar | Kernel::Simd));
    assert_eq!(k, Kernel::runtime());
}
