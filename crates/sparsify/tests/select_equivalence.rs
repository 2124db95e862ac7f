//! Differential proof that the radix selection engine is bitwise-identical
//! to the comparator reference on *every* f32 bit pattern.
//!
//! The comparator path (`topk_indices` / `topk_threshold` / `topk_pairs`)
//! is the specification: `select_nth_unstable_by` + sort under
//! `mag_idx_order` (magnitude descending via `total_cmp`, index ascending
//! on ties). The radix path must reproduce its output *exactly* — same
//! indices, same threshold bits — including on NaNs (any payload), ±Inf,
//! denormals, ±0, and arbitrarily long tie plateaus. Seeded cases drive raw
//! `u32` bit patterns through `f32::from_bits` so nothing in the float
//! space is out of scope.

use dgs_sparsify::merge::{diff_pairs_dense, send_topk_dense, topk_pairs};
use dgs_sparsify::{
    mag_key, momentum_topk_indices, radix_threshold, radix_topk_indices,
    radix_topk_indices_guessed, radix_topk_pairs, topk_indices, topk_threshold, Guess,
    SelectScratch,
};
use dgs_tensor::rng::{cases, vec_of, Rng};

/// Arbitrary f32s by raw bit pattern: hits NaN payloads, ±Inf, denormals,
/// ±0 with the same probability as any other pattern.
fn bitwise_f32(rng: &mut Rng) -> f32 {
    f32::from_bits(rng.next_u64() as u32)
}

/// A palette of the adversarial values the engine's key mapping must order
/// correctly, sampled with replacement so ties are common.
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
        1.0e-42f32,              // denormal
        f32::MAX,
        f32::EPSILON,
    ];
    palette[rng.below(palette.len())]
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

/// Radix == comparator on arbitrary bit patterns, all edge ks.
#[test]
fn radix_matches_comparator_on_raw_bits() {
    cases(256, |rng| {
        let seg = vec_of(rng, 1..160, bitwise_f32);
        let k_extra = rng.range(0..160);
        for k in probe_ks(seg.len()) {
            assert_equivalent(&seg, k);
        }
        assert_equivalent(&seg, k_extra.min(seg.len()));
    });
}

/// Radix == comparator on tie-heavy adversarial palettes.
#[test]
fn radix_matches_comparator_on_specials() {
    cases(256, |rng| {
        let seg = vec_of(rng, 1..96, special_f32);
        let k_extra = rng.range(0..96);
        for k in probe_ks(seg.len()) {
            assert_equivalent(&seg, k);
        }
        assert_equivalent(&seg, k_extra.min(seg.len()));
    });
}

/// Pair-form selection (the server's secondary compression) agrees
/// bitwise, with strictly ascending global indices as on the real path.
#[test]
fn pairs_match_on_raw_bits() {
    cases(256, |rng| {
        let gaps = vec_of(rng, 1..120, |rng| rng.range(1..5) as u32);
        let val_bits = vec_of(rng, 1..120, |rng| rng.next_u64() as u32);
        let k = rng.range(0..140);
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
        assert_eq!(&xi, &ri);
        assert_eq!(xv.len(), rv.len());
        for (a, b) in xv.iter().zip(rv.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    });
}

// ---------------------------------------------------------------------------
// Carried guesses: exact for every guess
// ---------------------------------------------------------------------------

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The guesses every input is probed with: none, "every nonzero", one ulp
/// either side of the exact threshold `thr` and the threshold itself, +∞,
/// the NaN band's ends, and a key above every key.
fn guess_keys(thr: u32) -> [u32; 9] {
    [0, 1, thr.saturating_sub(1), thr, thr + 1, 0x7F80_0000, 0x7F80_0001, 0x7FFF_FFFF, u32::MAX]
}

/// Every guessed form against the comparator, for every probe guess — and
/// once more with whatever guess the first call left behind, which must be
/// as harmless as the one it replaced. Returns the scratch's
/// `(one_pass, fallbacks)` tally so callers can tell which engine ran.
fn assert_exact_for_every_guess(seg: &[f32], k: usize) -> (u64, u64) {
    let reference = topk_indices(seg, k);
    let thr = if (1..=seg.len()).contains(&k) { mag_key(topk_threshold(seg, k)) } else { 0 };
    let mut scratch = SelectScratch::new();

    // The momentum form selects on `u = 0.5·seg + 2·grad`; its reference is
    // the update loop, then the comparator. Where `seg` is NaN the gradient
    // is finite: which payload a sum of two NaNs keeps is unspecified.
    let grad: Vec<f32> = seg
        .iter()
        .rev()
        .zip(seg)
        .map(|(&g, &u)| if g.is_nan() || u.is_nan() { 0.25 } else { g })
        .collect();
    let updated: Vec<f32> = seg.iter().zip(&grad).map(|(&u, &g)| 0.5 * u + 2.0 * g).collect();
    let updated_ref = topk_indices(&updated, k);
    let updated_thr =
        if (1..=seg.len()).contains(&k) { mag_key(topk_threshold(&updated, k)) } else { 0 };

    // The dense-diff form selects on `seg − v`; its reference is the
    // comparator over the nonzero pairs.
    let v0: Vec<f32> = seg.iter().map(|&x| if x.is_nan() { 1.0 } else { x * 0.5 }).collect();
    let (all_idx, all_val) = diff_pairs_dense(seg, &v0);
    let (diff_idx, diff_val) = topk_pairs(&all_idx, &all_val, k);

    for (key, ukey) in guess_keys(thr).into_iter().zip(guess_keys(updated_thr)) {
        let mut guess = Guess::from_key(key);
        for round in 0..2 {
            let got = radix_topk_indices_guessed(seg, k, &mut scratch, &mut guess);
            assert_eq!(got, reference, "guess {key:#x} round {round} k={k} n={}", seg.len());
        }

        let mut guess = Guess::from_key(ukey);
        for round in 0..2 {
            let mut u = seg.to_vec();
            let got = momentum_topk_indices(&mut u, &grad, 0.5, 2.0, k, &mut scratch, &mut guess);
            assert_eq!(got, updated_ref, "momentum guess {ukey:#x} round {round} k={k}");
            assert_eq!(bits(&u), bits(&updated), "momentum update bits, guess {ukey:#x}");
        }

        if k >= 1 {
            let mut guess = Guess::from_key(key);
            for round in 0..2 {
                let mut v = v0.clone();
                let (idx, val, nnz) = send_topk_dense(
                    seg,
                    &mut v,
                    k,
                    false,
                    &mut Vec::new(),
                    &mut scratch,
                    &mut guess,
                );
                assert_eq!(idx, diff_idx, "diff guess {key:#x} round {round} k={k}");
                assert_eq!(bits(&val), bits(&diff_val), "diff values, guess {key:#x}");
                assert_eq!(nnz, all_idx.len());
            }
        }
    }
    scratch.tally()
}

/// `len` elements cycling through `palette`, with a deterministic scatter
/// of distinct "gradient" magnitudes on every seventh position so a cut at
/// a sparse `k` has both a strict part and a plateau to land in.
fn wide_from(palette: &[f32], len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if i % 7 == 3 {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + (i % 4099) as f32 * 1e-3)
            } else {
                palette[i % palette.len()]
            }
        })
        .collect()
}

#[test]
fn guessed_forms_exact_on_wide_torture_segments() {
    let palettes: [&[f32]; 6] = [
        // One tie plateau.
        &[0.5, -0.5],
        // ±0 and denormals under the scatter.
        &[0.0, -0.0, 1.0e-42, f32::MIN_POSITIVE / 2.0],
        // NaN payloads and infinities above it.
        &[f32::NAN, 0.0, f32::INFINITY, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        &[
            f32::from_bits(0x7F80_0001),
            0.25,
            f32::from_bits(0x7FFF_FFFF),
            0.25,
            f32::NEG_INFINITY,
            0.25,
            -f32::NAN,
            0.25,
            0.25,
            0.25,
            0.25,
            0.25,
            0.25,
        ],
        // One-ulp plateau at the top of the scatter's range.
        &[5.0, 5.0 + 4.0 * f32::EPSILON, 1.0e-3],
        &[f32::MAX, -f32::MAX, f32::MIN_POSITIVE, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ];
    for palette in palettes {
        let (mut one_pass, mut fallbacks) = (0, 0);
        for n in [32_768usize, 40_001] {
            let seg = wide_from(palette, n);
            // Sparse ks take the one-pass path when the guess allows it (a
            // plateau wider than the candidate cap never does) …
            for k in [1, 37, n / 100, n / 8] {
                let tally = assert_exact_for_every_guess(&seg, k);
                one_pass += tally.0;
                fallbacks += tally.1;
            }
            // … n/4 and n − 1 are too dense for it and must still be exact.
            for k in [n / 4, n - 1] {
                assert_eq!(assert_exact_for_every_guess(&seg, k), (0, 0), "k={k}");
            }
        }
        assert!(one_pass >= 40 && fallbacks >= 40, "{palette:?}: {one_pass} / {fallbacks}");
    }
}

#[test]
fn guessed_forms_exact_on_small_torture_segments() {
    // Below the wide cutoff a guess is carried but never consulted.
    let seg = [f32::NAN, 1.0, -1.0, 0.0, -0.0, f32::INFINITY, 1.0e-42, 0.5, -0.5, f32::MAX];
    for k in 0..=seg.len() {
        assert_exact_for_every_guess(&seg, k);
    }
}

/// Any guess — raw bits, or a key lifted from the data so it lands
/// inside the segment's range — gives the indices `radix_topk_indices`
/// gives, and so does the guess it leaves behind.
#[test]
fn any_guess_matches_the_two_pass_engine() {
    cases(48, |rng| {
        let seed = rng.next_u64();
        let (n, k) = (rng.range(32_768..36_000), rng.range(1..5_000));
        let raw_guess = rng.next_u64() as u32;
        let lifted = rng.next_u64() as usize;
        let specials = rng.range(0..4);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let seg: Vec<f32> = (0..n)
            .map(|_| {
                let r = next();
                match r % 64 {
                    0 if specials >= 1 => f32::from_bits((r >> 32) as u32),
                    1 if specials >= 2 => 0.0,
                    2 if specials >= 3 => 1.5,
                    _ => ((r >> 40) as f32 / 16_777_216.0 - 0.5).powi(3),
                }
            })
            .collect();
        let mut scratch = SelectScratch::new();
        let reference = radix_topk_indices(&seg, k, &mut scratch);
        for key in [raw_guess, mag_key(seg[lifted % seg.len()])] {
            let mut guess = Guess::from_key(key);
            for _ in 0..3 {
                let got = radix_topk_indices_guessed(&seg, k, &mut scratch, &mut guess);
                assert_eq!(&got, &reference, "guess {:#x}", key);
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Pinned torture vectors (run whatever the seeded cases draw)
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

    // A layer-sized segment at the paper's keep ratios, three shapes: a
    // smooth heavy tail (cubed sinusoid mix), a one-ulp-band plateau (every
    // key inside a single two-byte prefix — the narrowing pass again, 30×
    // wider) and an exponential decay with sign flips (top-heavy).
    let n = 1_000_000usize;
    let heavy = |i: usize| {
        let x = (i as f64 * 0.7391).sin() * 2.0 + (i as f64 * 0.113).cos();
        (x * x * x) as f32
    };
    let plateau = |i: usize| 1.0 + ((i as f64 * 0.618_033_988).fract() * 1e-3) as f32;
    let skewed = |i: usize| {
        let mag = (-(i as f64) * 8.0 / n as f64).exp();
        (if i % 3 == 0 { -mag } else { mag }) as f32
    };
    let shapes: [&dyn Fn(usize) -> f32; 3] = [&heavy, &plateau, &skewed];
    for shape in shapes {
        let seg: Vec<f32> = (0..n).map(shape).collect();
        for k in [n / 100, n / 10] {
            assert_equivalent(&seg, k);
        }
    }
}
