//! Property-based tests for the sparsification primitives (256 seeded cases
//! each).

use dgs_sparsify::{
    gather, k_for_ratio, sampled_threshold, scale_all_except, scatter_add, topk_indices,
    topk_threshold, zero_at, Partition, SparseUpdate, SparseVec,
};
use dgs_tensor::rng::{cases, vec_of, Rng};

fn vec_f32(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<f32> {
    vec_of(rng, len, |rng| rng.uniform(-100.0, 100.0))
}

/// sparsify (gather + zero) followed by unsparsify (scatter back) is
/// the identity on any segment.
#[test]
fn sparsify_unsparsify_identity() {
    cases(256, |rng| {
        let seg = vec_f32(rng, 1..128);
        let k = rng.range(1..64);
        let original = seg.clone();
        let mut seg = seg;
        let idx = topk_indices(&seg, k);
        let vals = gather(&seg, &idx);
        zero_at(&mut seg, &idx);
        scatter_add(&mut seg, &idx, &vals, 1.0);
        for (a, b) in seg.iter().zip(original.iter()) {
            assert_eq!(a, b);
        }
    });
}

/// The Top-k threshold is the k-th order statistic of |values|:
/// exactly ≥ k values have magnitude ≥ thr.
#[test]
fn threshold_is_order_statistic() {
    cases(256, |rng| {
        let seg = vec_f32(rng, 1..200);
        let k_raw = rng.range(1..200);
        let k = k_raw.min(seg.len());
        let thr = topk_threshold(&seg, k);
        let at_least = seg.iter().filter(|v| v.abs() >= thr).count();
        let strictly = seg.iter().filter(|v| v.abs() > thr).count();
        assert!(at_least >= k, "at_least {} < k {}", at_least, k);
        assert!(strictly < k, "strictly {} >= k {}", strictly, k);
    });
}

/// The sampled threshold is always bracketed by the segment's extreme
/// magnitudes and falls back to exact when the sample covers everything.
#[test]
fn sampled_threshold_bracketed() {
    cases(256, |rng| {
        let seg = vec_f32(rng, 2..128);
        let k_raw = rng.range(1..128);
        let seed = rng.below(1000) as u64;
        let k = k_raw.min(seg.len());
        let est = sampled_threshold(&seg, k, seg.len() / 2 + 1, seed);
        let lo = seg.iter().fold(f32::INFINITY, |m, v| m.min(v.abs()));
        let hi = seg.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(est >= lo && est <= hi, "{} not in [{}, {}]", est, lo, hi);
        let exact = sampled_threshold(&seg, k, seg.len(), seed);
        assert_eq!(exact, topk_threshold(&seg, k));
    });
}

/// scale_all_except touches exactly the complement of the index set.
#[test]
fn scale_all_except_complement() {
    cases(256, |rng| {
        let seg = vec_f32(rng, 1..64);
        let k = rng.range(0..64);
        let original = seg.clone();
        let mut seg = seg;
        let idx = topk_indices(&seg, k);
        scale_all_except(&mut seg, &idx, 3.0);
        for (i, (&a, &b)) in seg.iter().zip(original.iter()).enumerate() {
            if idx.contains(&(i as u32)) {
                assert_eq!(a, b);
            } else {
                assert_eq!(a, 3.0 * b);
            }
        }
    });
}

/// Encoding is stable: encode(decode(encode(x))) == encode(x).
#[test]
fn encode_is_canonical() {
    cases(256, |rng| {
        let flat = vec_f32(rng, 30..90);
        let len = flat.len();
        let part = Partition::from_layer_sizes([
            ("a", len / 3),
            ("b", len / 3),
            ("c", len - 2 * (len / 3)),
        ]);
        let up = SparseUpdate::from_topk(&flat, &part, 0.2);
        let once = up.encode();
        let twice = SparseUpdate::decode(&once).unwrap().encode();
        assert_eq!(once, twice);
    });
}

/// to_dense ∘ from_nonzero is the identity for any vector.
#[test]
fn nonzero_roundtrip() {
    cases(256, |rng| {
        let flat = vec_f32(rng, 10..100);
        let part = Partition::single(flat.len());
        let up = SparseUpdate::from_nonzero(&flat, &part);
        let dense = up.to_dense(&part);
        for (a, b) in dense.iter().zip(flat.iter()) {
            assert_eq!(a, b);
        }
    });
}

/// Applying an update twice with scales s and −s cancels exactly.
#[test]
fn apply_add_antisymmetric() {
    cases(256, |rng| {
        let flat = vec_f32(rng, 10..60);
        let scale = rng.uniform(0.1, 5.0);
        let part = Partition::single(flat.len());
        let up = SparseUpdate::from_topk(&flat, &part, 0.3);
        let mut out = flat.clone();
        up.apply_add(&mut out, &part, scale);
        up.apply_add(&mut out, &part, -scale);
        for (a, b) in out.iter().zip(flat.iter()) {
            // x + s·v − s·v is exact in IEEE-754 when both adds round the
            // same way; allow one ulp of slack for the general case.
            assert!((a - b).abs() <= a.abs().max(1.0) * 1e-6);
        }
    });
}

/// nnz of a Top-k update equals Σ_layers min(k_layer, layer_len).
#[test]
fn nnz_matches_budget() {
    cases(256, |rng| {
        let flat = vec_f32(rng, 30..90);
        let ratio = 0.01 + 0.99 * rng.unit_f64();
        let len = flat.len();
        let part = Partition::from_layer_sizes([("a", len / 2), ("b", len - len / 2)]);
        let up = SparseUpdate::from_topk(&flat, &part, ratio);
        let expect: usize = part.segments().iter().map(|s| k_for_ratio(s.len, ratio)).sum();
        assert_eq!(up.nnz(), expect);
    });
}

/// Wire size formula holds for arbitrary sparse vectors.
#[test]
fn wire_size_formula() {
    cases(256, |rng| {
        let idx_count = rng.range(0..50);
        let sv = SparseVec { idx: (0..idx_count as u32).collect(), val: vec![1.0; idx_count] };
        assert_eq!(sv.wire_bytes(), 4 + 8 * idx_count);
    });
}
