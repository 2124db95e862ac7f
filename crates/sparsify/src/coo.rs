//! COO wire encoding — the paper's `encode()` / `decode()` functions.
//!
//! A [`SparseVec`] is one layer's worth of (index, value) pairs with indices
//! local to the layer segment; a [`SparseUpdate`] groups one `SparseVec` per
//! partition segment. The binary layout is little-endian:
//!
//! ```text
//! SparseUpdate := [num_chunks: u32] Chunk*
//! Chunk        := [nnz: u32] [idx: u32]*nnz [val: f32]*nnz
//! ```
//!
//! `wire_bytes()` reports the exact encoded size; the network simulator
//! charges transfers by this number, so compression ratios in the
//! experiments are byte-accurate rather than element-count approximations.

use crate::k_for_ratio;
use crate::partition::Partition;
use crate::topk::{gather, scatter_add, topk_indices};
use dgs_tensor::Kernel;

/// Sparse content of one partition segment: parallel index/value arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    /// Indices local to the segment, ascending.
    pub idx: Vec<u32>,
    /// Values, parallel to `idx`.
    pub val: Vec<f32>,
}

impl SparseVec {
    /// Builds the Top-k sparse vector of a dense segment.
    pub fn from_topk(seg: &[f32], k: usize) -> Self {
        let idx = topk_indices(seg, k);
        let val = gather(seg, &idx);
        SparseVec { idx, val }
    }

    /// Builds a sparse vector from every nonzero entry of the segment.
    pub fn from_nonzero(seg: &[f32]) -> Self {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (i, &v) in seg.iter().enumerate() {
            if v != 0.0 {
                idx.push(i as u32);
                val.push(v);
            }
        }
        SparseVec { idx, val }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Adds `scale × self` into a dense segment.
    pub fn apply_add(&self, seg: &mut [f32], scale: f32) {
        scatter_add(seg, &self.idx, &self.val, scale);
    }

    /// Densifies into a fresh vector of length `len`.
    pub fn to_dense(&self, len: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; len];
        self.apply_add(&mut out, 1.0);
        out
    }

    /// Exact encoded size in bytes (without the update-level header).
    pub fn wire_bytes(&self) -> usize {
        4 + 8 * self.nnz()
    }
}

/// A sparse update aligned with a [`Partition`]: `chunks[i]` covers
/// partition segment `i`.
///
/// ```
/// use dgs_sparsify::{Partition, SparseUpdate};
///
/// let part = Partition::from_layer_sizes([("w", 4), ("b", 2)]);
/// let grads = [0.1, -9.0, 0.2, 0.3, 5.0, 0.0];
/// // Keep the top value of each layer (ratio rounds up to k = 1).
/// let update = SparseUpdate::from_topk(&grads, &part, 0.01);
/// assert_eq!(update.nnz(), 2);
/// let wire = update.encode();
/// let back = SparseUpdate::decode(&wire).unwrap();
/// assert_eq!(back.to_dense(&part), vec![0.0, -9.0, 0.0, 0.0, 5.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseUpdate {
    /// One sparse chunk per partition segment, in segment order.
    pub chunks: Vec<SparseVec>,
}

impl SparseUpdate {
    /// Sparsifies a flat vector per layer at the given Top-k ratio
    /// (the paper's per-layer `thr ← R% of |·|` loop).
    pub fn from_topk(flat: &[f32], part: &Partition, ratio: f64) -> Self {
        part.check_covers(flat);
        let chunks = (0..part.num_segments())
            .map(|i| {
                let seg = part.slice(flat, i);
                SparseVec::from_topk(seg, k_for_ratio(seg.len(), ratio))
            })
            .collect();
        SparseUpdate { chunks }
    }

    /// Collects every nonzero coordinate per layer (used for model
    /// differences that are already sparse without further thresholding).
    pub fn from_nonzero(flat: &[f32], part: &Partition) -> Self {
        part.check_covers(flat);
        let chunks = (0..part.num_segments())
            .map(|i| SparseVec::from_nonzero(part.slice(flat, i)))
            .collect();
        SparseUpdate { chunks }
    }

    /// Total stored entries across all chunks.
    pub fn nnz(&self) -> usize {
        self.chunks.iter().map(SparseVec::nnz).sum()
    }

    /// Adds `scale × self` into a flat dense vector.
    ///
    /// # Panics
    ///
    /// If the chunk count does not match the partition. Updates decoded
    /// off the wire should go through [`Self::try_apply_add`] so a
    /// mis-partitioned peer surfaces as an error, not a panic.
    pub fn apply_add(&self, flat: &mut [f32], part: &Partition, scale: f32) {
        self.try_apply_add(flat, part, scale).expect("update/partition mismatch");
    }

    /// Fallible [`Self::apply_add`]: returns `None` without touching
    /// `flat` when the chunk count does not match the partition.
    pub fn try_apply_add(&self, flat: &mut [f32], part: &Partition, scale: f32) -> Option<()> {
        if self.chunks.len() != part.num_segments() {
            return None;
        }
        for (i, chunk) in self.chunks.iter().enumerate() {
            scatter_add(part.slice_mut(flat, i), &chunk.idx, &chunk.val, scale);
        }
        Some(())
    }

    /// Densifies into a fresh flat vector covering the partition.
    pub fn to_dense(&self, part: &Partition) -> Vec<f32> {
        let mut out = vec![0.0f32; part.total_len()];
        self.apply_add(&mut out, part, 1.0);
        out
    }

    /// Exact encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        4 + self.chunks.iter().map(SparseVec::wire_bytes).sum::<usize>()
    }

    /// Encodes to the binary wire format. Runtime kernel.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(Kernel::runtime())
    }

    /// [`SparseUpdate::encode`] on an explicit [`Kernel`]: index and value
    /// arrays are appended as single bulk little-endian byte copies when
    /// the backend offers a reinterpret view (x86-64 is little-endian, so
    /// the in-memory `u32`/`f32` arrays *are* the wire bytes), falling
    /// back to per-element `to_le_bytes` loops otherwise. Both paths emit
    /// identical bytes — f32 values are copied bit-for-bit either way, so
    /// NaN payloads survive unchanged.
    pub fn encode_with(&self, kernel: Kernel) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_bytes());
        put_u32(&mut buf, self.chunks.len() as u32);
        for chunk in &self.chunks {
            put_u32(&mut buf, chunk.nnz() as u32);
            put_u32s(&mut buf, kernel, &chunk.idx);
            if let Some(le) = kernel.f32s_le(&chunk.val) {
                buf.extend_from_slice(le);
            } else {
                for &v in &chunk.val {
                    put_u32(&mut buf, v.to_bits());
                }
            }
        }
        buf
    }

    /// Decodes from the binary wire format. Returns `None` on truncated or
    /// malformed input.
    pub fn decode(mut bytes: &[u8]) -> Option<Self> {
        let num_chunks = take_u32(&mut bytes)? as usize;
        // Every chunk occupies at least its 4-byte count.
        let mut chunks = Vec::with_capacity(num_chunks.min(bytes.len() / 4));
        for _ in 0..num_chunks {
            let nnz = take_u32(&mut bytes)? as usize;
            let idx = take_u32s(&mut bytes, nnz)?;
            let val = take_u32s(&mut bytes, nnz)?.into_iter().map(f32::from_bits).collect();
            chunks.push(SparseVec { idx, val });
        }
        Some(SparseUpdate { chunks })
    }
}

/// Appends `v` little-endian.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an index array little-endian: one bulk copy when `kernel`
/// offers a reinterpret view, per element otherwise.
pub(crate) fn put_u32s(buf: &mut Vec<u8>, kernel: Kernel, xs: &[u32]) {
    if let Some(le) = kernel.u32s_le(xs) {
        buf.extend_from_slice(le);
    } else {
        for &x in xs {
            put_u32(buf, x);
        }
    }
}

/// Splits `n` bytes off the front of `bytes`; `None` when it is shorter.
pub(crate) fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = bytes.split_at_checked(n)?;
    *bytes = tail;
    Some(head)
}

/// Reads one little-endian `u32` off the front of `bytes`.
pub(crate) fn take_u32(bytes: &mut &[u8]) -> Option<u32> {
    let (head, tail) = bytes.split_first_chunk::<4>()?;
    *bytes = tail;
    Some(u32::from_le_bytes(*head))
}

/// Reads `n` little-endian `u32`s off the front of `bytes`; `None` (and
/// no allocation) when fewer than `4 * n` bytes remain.
pub(crate) fn take_u32s(bytes: &mut &[u8], n: usize) -> Option<Vec<u32>> {
    let raw = take(bytes, n.checked_mul(4)?)?;
    Some(raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
}

/// Sums several partition-aligned sparse updates into one — the edge
/// aggregator's combine step for a worker group's uplinks. All inputs
/// must have the same chunk count (same partition); values at a shared
/// index are summed **in input order** per [`crate::merge::merge_sum_pairs`],
/// so callers fix the ordering (worker-id order) to keep the result a
/// pure function of the inputs. A single input is returned as a bitwise
/// clone.
///
/// # Panics
/// Panics if `inputs` is empty or the chunk counts disagree — both are
/// construction bugs at the call site, not runtime conditions. Callers
/// merging **wire-derived** updates (where a misbehaving peer controls
/// the chunk counts) must use [`try_merge_sparse_updates`] instead.
pub fn merge_sparse_updates(inputs: &[&SparseUpdate]) -> SparseUpdate {
    try_merge_sparse_updates(inputs)
        .expect("merge of zero updates, or updates that do not share a partition")
}

/// Fallible form of [`merge_sparse_updates`]: `None` when `inputs` is
/// empty or the chunk counts disagree, instead of panicking. This is
/// the entry point for wire-derived inputs — a peer must not be able
/// to panic the aggregator by sending a payload cut to a different
/// partition.
pub fn try_merge_sparse_updates(inputs: &[&SparseUpdate]) -> Option<SparseUpdate> {
    let first = inputs.first()?;
    let num_chunks = first.chunks.len();
    if inputs.iter().any(|u| u.chunks.len() != num_chunks) {
        return None;
    }
    if let [only] = inputs {
        return Some((*only).clone());
    }
    let chunks = (0..num_chunks)
        .map(|c| {
            let pairs: Vec<(&[u32], &[f32])> = inputs
                .iter()
                .map(|u| (u.chunks[c].idx.as_slice(), u.chunks[c].val.as_slice()))
                .collect();
            let (idx, val) = crate::merge::merge_sum_pairs(&pairs);
            SparseVec { idx, val }
        })
        .collect();
    Some(SparseUpdate { chunks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part_2() -> Partition {
        Partition::from_layer_sizes([("a", 4), ("b", 6)])
    }

    #[test]
    fn sparse_vec_topk_and_dense() {
        let seg = [0.0, -3.0, 1.0, 2.0];
        let sv = SparseVec::from_topk(&seg, 2);
        assert_eq!(sv.idx, vec![1, 3]);
        assert_eq!(sv.val, vec![-3.0, 2.0]);
        assert_eq!(sv.to_dense(4), vec![0.0, -3.0, 0.0, 2.0]);
        assert_eq!(sv.wire_bytes(), 4 + 16);
    }

    #[test]
    fn from_nonzero_skips_zeros() {
        let sv = SparseVec::from_nonzero(&[0.0, 1.5, 0.0, -2.5, 0.0]);
        assert_eq!(sv.idx, vec![1, 3]);
        assert_eq!(sv.val, vec![1.5, -2.5]);
    }

    #[test]
    fn update_topk_per_layer() {
        let flat = vec![
            10.0, 0.1, 0.2, 0.3, // layer a: top1 = idx 0
            0.1, 0.2, -9.0, 0.3, 0.4, 0.5, // layer b: top1 = idx 2
        ];
        // ratio 0.01 -> k = 1 per layer (minimum-1 rule)
        let up = SparseUpdate::from_topk(&flat, &part_2(), 0.01);
        assert_eq!(up.chunks[0].idx, vec![0]);
        assert_eq!(up.chunks[1].idx, vec![2]);
        assert_eq!(up.nnz(), 2);
    }

    #[test]
    fn apply_add_respects_partition_offsets() {
        let flat = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0];
        let up = SparseUpdate::from_nonzero(&flat, &part_2());
        let mut out = vec![0.0; 10];
        up.apply_add(&mut out, &part_2(), -2.0);
        assert_eq!(out[0], -2.0);
        assert_eq!(out[9], -4.0);
        assert!(out[1..9].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let flat: Vec<f32> = (0..10).map(|i| (i as f32 - 5.0) * 1.25).collect();
        let up = SparseUpdate::from_topk(&flat, &part_2(), 0.5);
        let encoded = up.encode();
        assert_eq!(encoded.len(), up.wire_bytes());
        let decoded = SparseUpdate::decode(&encoded).unwrap();
        assert_eq!(decoded, up);
    }

    #[test]
    fn decode_rejects_truncated() {
        let flat: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let up = SparseUpdate::from_topk(&flat, &part_2(), 0.5);
        let encoded = up.encode();
        for cut in [0, 3, 7, encoded.len() - 1] {
            assert!(SparseUpdate::decode(&encoded[..cut]).is_none(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn decode_empty_update() {
        let up = SparseUpdate { chunks: vec![] };
        let decoded = SparseUpdate::decode(&up.encode()).unwrap();
        assert_eq!(decoded.chunks.len(), 0);
        assert_eq!(up.wire_bytes(), 4);
    }

    #[test]
    fn wire_bytes_formula() {
        let flat: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let up = SparseUpdate::from_topk(&flat, &part_2(), 0.5);
        // a: k=2, b: k=3 -> 4 + (4+16) + (4+24) = 52
        assert_eq!(up.wire_bytes(), 52);
        assert_eq!(up.encode().len(), 52);
    }

    #[test]
    fn merge_sparse_updates_sums_per_chunk() {
        let part = part_2();
        let a = SparseUpdate::from_nonzero(&[1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0], &part);
        let b = SparseUpdate::from_nonzero(&[0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0], &part);
        let merged = merge_sparse_updates(&[&a, &b]);
        assert_eq!(merged.chunks.len(), 2);
        assert_eq!(
            merged.to_dense(&part),
            vec![1.0, 0.0, 0.0, 7.0, 0.0, 3.0, 7.0, 0.0, 0.0, 0.0]
        );
        // Single input: bitwise clone.
        let one = merge_sparse_updates(&[&a]);
        assert_eq!(one, a);
    }

    #[test]
    fn try_merge_rejects_empty_and_mismatched_partitions() {
        let part = part_2();
        let a = SparseUpdate::from_nonzero(&[1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0], &part);
        let b = SparseUpdate::from_nonzero(&[0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0], &part);
        // The happy path matches the panicking form exactly.
        let merged = try_merge_sparse_updates(&[&a, &b]).unwrap();
        assert_eq!(merged, merge_sparse_updates(&[&a, &b]));
        // Wire-derived failure modes are reported, not panicked: a peer
        // cutting its update to a different partition, or none at all.
        let narrow = SparseUpdate { chunks: vec![a.chunks[0].clone()] };
        assert_eq!(try_merge_sparse_updates(&[&a, &narrow]), None);
        assert_eq!(try_merge_sparse_updates(&[]), None);
    }

    #[test]
    fn try_apply_add_rejects_mismatched_partition() {
        let part = part_2();
        let up = SparseUpdate::from_nonzero(&[1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0], &part);
        let mut flat = vec![0.0; part.total_len()];
        assert_eq!(up.try_apply_add(&mut flat, &part, 1.0), Some(()));
        assert_eq!(flat, up.to_dense(&part));
        // A chunk count cut to some other partition reports None and
        // leaves the destination untouched.
        let narrow = SparseUpdate { chunks: vec![up.chunks[0].clone()] };
        let before = flat.clone();
        assert_eq!(narrow.try_apply_add(&mut flat, &part, 1.0), None);
        assert_eq!(flat, before);
    }

    #[test]
    fn encode_backend_invariant_including_nan_payloads() {
        // Values chosen so the bulk little-endian reinterpret path must
        // reproduce the per-element path bit-for-bit: a quiet NaN with a
        // payload, -0.0, infinities, denormals.
        let weird = SparseVec {
            idx: vec![0, 3, 5, 9, 11],
            val: vec![
                f32::from_bits(0x7FC0_1234),
                -0.0,
                f32::NEG_INFINITY,
                1.0e-42,
                42.5,
            ],
        };
        let up = SparseUpdate { chunks: vec![weird, SparseVec::default()] };
        let a = up.encode_with(Kernel::Scalar);
        let b = up.encode_with(Kernel::Simd);
        assert_eq!(a, b, "backends must emit identical wire bytes");
        // Roundtrip preserves the NaN bit pattern.
        let back = SparseUpdate::decode(&b).unwrap();
        assert_eq!(back.chunks[0].val[0].to_bits(), 0x7FC0_1234);
    }
}
