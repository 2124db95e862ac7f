//! Ternary quantization of sparse payloads — the paper's future-work
//! combination of DGS with TernGrad (Wen et al., 2017).
//!
//! A [`SparseVec`](crate::SparseVec) carries full-precision f32 values; a
//! [`TernaryVec`] replaces them with `sign × scale`, where `scale` is the
//! chunk's max magnitude and the sign of each kept coordinate is rounded
//! stochastically so the quantizer is *unbiased*:
//! `E[q(v)] = v` (a value keeps its sign with probability `|v|/scale`, and
//! is dropped — quantised to 0 — otherwise). Wire cost drops from 8 bytes
//! per coordinate (index + f32) to 4 bytes + 1 bit.

use crate::coo::{put_u32, put_u32s, take, take_u32, take_u32s, SparseVec};
use dgs_tensor::rng::{derive_seed, seeded};
use dgs_tensor::Kernel;

/// One layer's ternary-quantized sparse chunk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TernaryVec {
    /// Common magnitude of every transmitted value.
    pub scale: f32,
    /// Indices local to the segment, ascending.
    pub idx: Vec<u32>,
    /// Sign bits, one per index (bit i of `signs[i/8]`): 1 = positive.
    pub signs: Vec<u8>,
}

impl TernaryVec {
    /// Quantizes a sparse chunk. Stochastic rounding keeps coordinate `i`
    /// (with its sign, at magnitude `scale`) with probability
    /// `|v_i|/scale`; dropped coordinates vanish from the index list.
    ///
    /// Deterministic per `(values, seed)`. Runtime kernel.
    pub fn quantize(sv: &SparseVec, seed: u64) -> Self {
        TernaryVec::quantize_with(Kernel::runtime(), sv, seed)
    }

    /// [`TernaryVec::quantize`] on an explicit [`Kernel`]: the scale (max
    /// magnitude) reduction runs on the backend, bitwise identical to the
    /// scalar `fold(0.0, f32::max)`; the stochastic rounding loop is
    /// inherently sequential (one RNG draw per coordinate) and stays
    /// scalar, so the whole quantization is backend-invariant.
    pub fn quantize_with(kernel: Kernel, sv: &SparseVec, seed: u64) -> Self {
        let scale = kernel.max_abs(&sv.val);
        if scale == 0.0 || sv.nnz() == 0 {
            return TernaryVec::default();
        }
        // Callers hand in adjacent seeds (`seed + chunk`, a round counter);
        // raw-adjacent SplitMix64 states give correlated first draws.
        let mut rng = seeded(derive_seed(seed, 0));
        let mut idx = Vec::with_capacity(sv.nnz());
        let mut signs = Vec::with_capacity(sv.nnz() / 8 + 1);
        let mut bit = 0usize;
        for (&i, &v) in sv.idx.iter().zip(sv.val.iter()) {
            let keep_p = v.abs() / scale;
            if rng.unit_f32() < keep_p {
                if bit.is_multiple_of(8) {
                    signs.push(0);
                }
                if v > 0.0 {
                    *signs.last_mut().unwrap() |= 1 << (bit % 8);
                }
                idx.push(i);
                bit += 1;
            }
        }
        TernaryVec { scale, idx, signs }
    }

    /// Number of transmitted coordinates (after stochastic dropping).
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Reconstructs the quantized values as a [`SparseVec`]. Runtime
    /// kernel.
    pub fn dequantize(&self) -> SparseVec {
        self.dequantize_with(Kernel::runtime())
    }

    /// [`TernaryVec::dequantize`] on an explicit [`Kernel`]: the sign-bit
    /// expansion to `±scale` runs on the backend. Negation is a sign-bit
    /// flip on both backends, so the reconstruction is bitwise invariant
    /// even for `scale` values like `0.0` or infinities.
    pub fn dequantize_with(&self, kernel: Kernel) -> SparseVec {
        let mut val = Vec::new();
        kernel.sign_expand(self.scale, &self.signs, self.nnz(), &mut val);
        SparseVec { idx: self.idx.clone(), val }
    }

    /// Exact encoded size in bytes: scale + count + indices + sign bitmap.
    pub fn wire_bytes(&self) -> usize {
        4 + 4 + 4 * self.nnz() + self.nnz().div_ceil(8)
    }
}

/// A ternary-quantized update aligned with a [`Partition`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TernaryUpdate {
    /// One quantized chunk per partition segment.
    pub chunks: Vec<TernaryVec>,
}

impl TernaryUpdate {
    /// Quantizes every chunk of a sparse update (per-layer scales).
    pub fn quantize(update: &crate::SparseUpdate, seed: u64) -> Self {
        TernaryUpdate {
            chunks: update
                .chunks
                .iter()
                .enumerate()
                .map(|(i, sv)| TernaryVec::quantize(sv, seed.wrapping_add(i as u64)))
                .collect(),
        }
    }

    /// Reconstructs the full-precision-shaped sparse update.
    pub fn dequantize(&self) -> crate::SparseUpdate {
        crate::SparseUpdate { chunks: self.chunks.iter().map(TernaryVec::dequantize).collect() }
    }

    /// Total transmitted coordinates.
    pub fn nnz(&self) -> usize {
        self.chunks.iter().map(TernaryVec::nnz).sum()
    }

    /// Exact encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        4 + self.chunks.iter().map(TernaryVec::wire_bytes).sum::<usize>()
    }

    /// Encodes to the binary wire format. Runtime kernel.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(Kernel::runtime())
    }

    /// [`TernaryUpdate::encode`] on an explicit [`Kernel`]: index arrays
    /// are appended as one bulk little-endian byte copy when the backend
    /// offers a reinterpret view, falling back to a per-element loop
    /// otherwise. Both paths emit identical bytes.
    pub fn encode_with(&self, kernel: Kernel) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_bytes());
        put_u32(&mut buf, self.chunks.len() as u32);
        for chunk in &self.chunks {
            put_u32(&mut buf, chunk.scale.to_bits());
            put_u32(&mut buf, chunk.nnz() as u32);
            put_u32s(&mut buf, kernel, &chunk.idx);
            buf.extend_from_slice(&chunk.signs);
        }
        buf
    }

    /// Decodes from the binary wire format; `None` on malformed input.
    pub fn decode(mut bytes: &[u8]) -> Option<Self> {
        let num_chunks = take_u32(&mut bytes)? as usize;
        // Every chunk occupies at least its 8-byte scale + count.
        let mut chunks = Vec::with_capacity(num_chunks.min(bytes.len() / 8));
        for _ in 0..num_chunks {
            let scale = f32::from_bits(take_u32(&mut bytes)?);
            let nnz = take_u32(&mut bytes)? as usize;
            let idx = take_u32s(&mut bytes, nnz)?;
            let signs = take(&mut bytes, nnz.div_ceil(8))?.to_vec();
            chunks.push(TernaryVec { scale, idx, signs });
        }
        Some(TernaryUpdate { chunks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Partition, SparseUpdate};

    fn sv(vals: &[f32]) -> SparseVec {
        SparseVec { idx: (0..vals.len() as u32).collect(), val: vals.to_vec() }
    }

    #[test]
    fn quantize_preserves_signs_of_max() {
        // The max-magnitude coordinate is always kept (p = 1).
        let t = TernaryVec::quantize(&sv(&[3.0, -5.0, 0.1]), 1);
        let dq = t.dequantize();
        let pos = dq.idx.iter().position(|&i| i == 1).expect("max kept");
        assert_eq!(dq.val[pos], -5.0);
        assert_eq!(t.scale, 5.0);
    }

    #[test]
    fn quantizer_is_unbiased_in_expectation() {
        // Average many independent quantizations of the same chunk; the
        // mean reconstruction must approach the input.
        let vals = [2.0f32, -1.0, 0.5, -0.25];
        let chunk = sv(&vals);
        let trials = 4000;
        let mut acc = vec![0.0f64; vals.len()];
        for seed in 0..trials {
            let dq = TernaryVec::quantize(&chunk, seed).dequantize();
            let dense = dq.to_dense(vals.len());
            for (a, &v) in acc.iter_mut().zip(dense.iter()) {
                *a += v as f64;
            }
        }
        for (i, (&v, &a)) in vals.iter().zip(acc.iter()).enumerate() {
            let mean = a / trials as f64;
            assert!(
                (mean - v as f64).abs() < 0.08 * (v.abs() as f64).max(0.5),
                "coord {i}: mean {mean} vs {v}"
            );
        }
    }

    #[test]
    fn empty_and_zero_chunks() {
        let t = TernaryVec::quantize(&SparseVec::default(), 7);
        assert_eq!(t.nnz(), 0);
        let t = TernaryVec::quantize(&sv(&[0.0, 0.0]), 7);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.dequantize().nnz(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let part = Partition::from_layer_sizes([("a", 8), ("b", 8)]);
        let flat: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.5).collect();
        let up = SparseUpdate::from_topk(&flat, &part, 0.5);
        let q = TernaryUpdate::quantize(&up, 99);
        let encoded = q.encode();
        assert_eq!(encoded.len(), q.wire_bytes());
        let decoded = TernaryUpdate::decode(&encoded).unwrap();
        assert_eq!(decoded, q);
        assert_eq!(decoded.dequantize().nnz(), q.nnz());
    }

    #[test]
    fn decode_rejects_truncation() {
        let part = Partition::single(8);
        let flat: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let q = TernaryUpdate::quantize(&SparseUpdate::from_topk(&flat, &part, 0.5), 3);
        let enc = q.encode();
        for cut in [0usize, 3, 9, enc.len() - 1] {
            assert!(TernaryUpdate::decode(&enc[..cut]).is_none());
        }
    }

    #[test]
    fn wire_bytes_beat_full_precision() {
        let part = Partition::single(1000);
        let flat: Vec<f32> = (0..1000).map(|i| ((i * 37) % 100) as f32 - 50.0).collect();
        let up = SparseUpdate::from_topk(&flat, &part, 0.2);
        let q = TernaryUpdate::quantize(&up, 5);
        // Per kept coordinate: 8 bytes full-precision vs ~4.1 quantized;
        // stochastic dropping reduces nnz further.
        assert!(q.wire_bytes() < up.wire_bytes());
    }

    #[test]
    fn quantize_dequantize_encode_backend_invariant() {
        // scales covering the sign-expand edge cases: ordinary, zero,
        // infinity, denormal.
        let sets: &[&[f32]] = &[
            &[3.0, -5.0, 0.1, -0.25, 4.9],
            &[1.0e-40, -1.0e-41, 2.0e-40],
            &[f32::INFINITY, -1.0, 2.0],
            &[-0.0, 0.0, 1.0],
        ];
        for (s, vals) in sets.iter().enumerate() {
            let chunk = sv(vals);
            for seed in 0..20u64 {
                let a = TernaryVec::quantize_with(Kernel::Scalar, &chunk, seed);
                let b = TernaryVec::quantize_with(Kernel::Simd, &chunk, seed);
                assert_eq!(a.scale.to_bits(), b.scale.to_bits(), "set {s} seed {seed}");
                assert_eq!(a.idx, b.idx, "set {s} seed {seed}");
                assert_eq!(a.signs, b.signs, "set {s} seed {seed}");
                let da = a.dequantize_with(Kernel::Scalar);
                let db = b.dequantize_with(Kernel::Simd);
                assert_eq!(da.idx, db.idx);
                let bits =
                    |v: &SparseVec| v.val.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&da), bits(&db), "set {s} seed {seed}");
                let up = TernaryUpdate { chunks: vec![a] };
                assert_eq!(
                    up.encode_with(Kernel::Scalar),
                    up.encode_with(Kernel::Simd),
                    "set {s} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let chunk = sv(&[1.0, -2.0, 0.7, 0.3]);
        assert_eq!(TernaryVec::quantize(&chunk, 4), TernaryVec::quantize(&chunk, 4));
        // Different seeds usually differ (probabilistic, but with 0.7/2 and
        // 0.3/2 keep-probabilities two draws rarely coincide — fixed seeds
        // chosen to differ).
        assert_ne!(TernaryVec::quantize(&chunk, 1), TernaryVec::quantize(&chunk, 2));
    }
}
