//! Worker↔server messages with byte-exact wire sizes.
//!
//! Wire sizes drive both the traffic statistics and the DES transfer times,
//! so they follow the encodings exactly: dense vectors cost `4·n` bytes
//! plus the frame header, sparse updates cost what
//! [`SparseUpdate::wire_bytes`](dgs_sparsify::SparseUpdate::wire_bytes)
//! reports (4 bytes of header plus 8 per nonzero). These are not
//! estimates: `dgs-net` encodes every message to exactly these sizes
//! (`encode(msg).len() == msg.wire_bytes()`, enforced by a compile-time
//! assert on the header and per-variant codec tests), so simulated and
//! real traffic counters agree byte-for-byte.

use dgs_sparsify::{SparseUpdate, SparseVec, TernaryUpdate, TernaryVec};
use std::sync::Arc;

/// Fixed per-message framing overhead. This is the exact `dgs-net` frame
/// header: magic (4) + version (1) + msg type (1) + worker id (2) +
/// sequence (4) + payload length (4) + payload CRC-32 (4) = 20 bytes.
/// `dgs_net::frame` statically asserts its header length equals this
/// constant, so the two cannot drift apart.
pub const HEADER_BYTES: usize = 20;

/// Wire cost of the training-loss scalar carried by every uplink message
/// (an 8-byte f64 prefix of the payload). Real deployments ship this
/// metric too — it is how the coordinator plots training curves without a
/// second channel — so it is wire-counted.
pub const UP_LOSS_BYTES: usize = 8;

/// Payload of a worker→server message: the worker's (learning-rate-scaled)
/// model update for this iteration.
#[derive(Debug, Clone)]
pub enum UpPayload {
    /// Dense update — vanilla ASGD.
    Dense(Vec<f32>),
    /// Sparse Top-k update — GD-async / DGC-async / DGS.
    Sparse(SparseUpdate),
    /// Ternary-quantized sparse update — the DGS × TernGrad combination
    /// the paper lists as future work (§6).
    TernarySparse(TernaryUpdate),
}

impl UpPayload {
    /// Exact bytes this payload occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            UpPayload::Dense(v) => HEADER_BYTES + 4 * v.len(),
            UpPayload::Sparse(s) => HEADER_BYTES + s.wire_bytes(),
            UpPayload::TernarySparse(t) => HEADER_BYTES + t.wire_bytes(),
        }
    }

    /// Number of update coordinates carried.
    pub fn nnz(&self) -> usize {
        match self {
            UpPayload::Dense(v) => v.len(),
            UpPayload::Sparse(s) => s.nnz(),
            UpPayload::TernarySparse(t) => t.nnz(),
        }
    }

    /// Borrows the full payload as an [`UpPayloadView`] covering every
    /// partition segment.
    pub fn view(&self) -> UpPayloadView<'_> {
        match self {
            UpPayload::Dense(v) => UpPayloadView::Dense(v),
            UpPayload::Sparse(s) => UpPayloadView::Sparse(&s.chunks),
            UpPayload::TernarySparse(t) => UpPayloadView::TernarySparse(&t.chunks),
        }
    }
}

/// A borrowed slice of an [`UpPayload`].
///
/// The sharded server splits one uplink across shards without copying:
/// sparse and ternary payloads carry one chunk per partition segment and
/// shards own whole segments, so a shard's share is a contiguous
/// chunk-slice; a dense payload's share is the flat sub-range. The
/// single-lock server passes the whole payload through
/// [`UpPayload::view`]. Views carry no wire accounting — byte counters
/// are always charged against the full owned payload.
#[derive(Debug, Clone, Copy)]
pub enum UpPayloadView<'a> {
    /// A dense coordinate range.
    Dense(&'a [f32]),
    /// Per-segment sparse chunks (segment-local `u32` indices).
    Sparse(&'a [SparseVec]),
    /// Per-segment ternary-quantized chunks.
    TernarySparse(&'a [TernaryVec]),
}

impl UpPayloadView<'_> {
    /// An owned payload holding a copy of the viewed part.
    pub fn to_payload(self) -> UpPayload {
        match self {
            UpPayloadView::Dense(g) => UpPayload::Dense(g.to_vec()),
            UpPayloadView::Sparse(chunks) => {
                UpPayload::Sparse(SparseUpdate { chunks: chunks.to_vec() })
            }
            UpPayloadView::TernarySparse(chunks) => {
                UpPayload::TernarySparse(TernaryUpdate { chunks: chunks.to_vec() })
            }
        }
    }
}

/// A worker→server message.
#[derive(Debug, Clone)]
pub struct UpMsg {
    /// The model update.
    pub payload: UpPayload,
    /// Minibatch training loss, shipped as an 8-byte payload prefix
    /// (counted via [`UP_LOSS_BYTES`]).
    pub train_loss: f64,
}

impl UpMsg {
    /// Exact bytes on the wire (payload + loss prefix; the frame header is
    /// inside the payload's accounting).
    pub fn wire_bytes(&self) -> usize {
        self.payload.wire_bytes() + UP_LOSS_BYTES
    }
}

/// A server→worker message.
#[derive(Debug, Clone)]
pub enum DownMsg {
    /// The entire global model, dense — vanilla ASGD's downlink. Shared
    /// (`Arc`) so the server replies with a refcount bump instead of an
    /// O(dim) clone per round; wire accounting still charges the full
    /// dense payload.
    DenseModel(Arc<Vec<f32>>),
    /// The model difference `G = M − v_k`, sparse-encoded — the
    /// model-difference-tracking downlink (with or without secondary
    /// compression).
    SparseDiff(SparseUpdate),
}

impl DownMsg {
    /// Exact bytes on the wire.
    pub fn wire_bytes(&self) -> usize {
        match self {
            DownMsg::DenseModel(v) => HEADER_BYTES + 4 * v.len(),
            DownMsg::SparseDiff(s) => HEADER_BYTES + s.wire_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_sparsify::Partition;

    #[test]
    fn header_matches_frame_layout() {
        // magic + version + type + worker + seq + len + crc — the dgs-net
        // frame header, also statically asserted in dgs_net::frame.
        assert_eq!(HEADER_BYTES, 4 + 1 + 1 + 2 + 4 + 4 + 4);
        assert_eq!(UP_LOSS_BYTES, std::mem::size_of::<f64>());
    }

    #[test]
    fn dense_up_bytes() {
        let up = UpMsg { payload: UpPayload::Dense(vec![0.0; 100]), train_loss: 1.0 };
        assert_eq!(up.wire_bytes(), HEADER_BYTES + UP_LOSS_BYTES + 400);
        assert_eq!(up.payload.nnz(), 100);
    }

    #[test]
    fn sparse_up_bytes_match_encoder() {
        let flat: Vec<f32> = (0..50).map(|i| i as f32 - 25.0).collect();
        let part = Partition::single(50);
        let s = SparseUpdate::from_topk(&flat, &part, 0.1);
        let expect = HEADER_BYTES + UP_LOSS_BYTES + s.wire_bytes();
        let up = UpMsg { payload: UpPayload::Sparse(s), train_loss: 0.0 };
        assert_eq!(up.wire_bytes(), expect);
    }

    #[test]
    fn down_variants_bytes() {
        let dense = DownMsg::DenseModel(Arc::new(vec![0.0; 10]));
        assert_eq!(dense.wire_bytes(), HEADER_BYTES + 40);
        let part = Partition::single(10);
        let sparse = DownMsg::SparseDiff(SparseUpdate::from_nonzero(&[0.0; 10], &part));
        // Empty sparse diff: update header (4) + one empty chunk (4).
        assert_eq!(sparse.wire_bytes(), HEADER_BYTES + 8);
    }

    #[test]
    fn sparse_down_smaller_than_dense_for_sparse_content() {
        let mut flat = vec![0.0f32; 1000];
        flat[3] = 1.0;
        flat[500] = -2.0;
        let part = Partition::single(1000);
        let sparse = DownMsg::SparseDiff(SparseUpdate::from_nonzero(&flat, &part));
        let dense = DownMsg::DenseModel(Arc::new(flat));
        assert!(sparse.wire_bytes() < dense.wire_bytes() / 10);
    }
}
