//! Layer partitions over flat parameter vectors.
//!
//! Every model in the reproduction exposes its parameters as one flat
//! `Vec<f32>`; a [`Partition`] records where each layer's parameters live in
//! that vector. The paper's algorithms sparsify *per layer* ("for j = 0..J"),
//! so the partition is threaded through every sparsification call.

/// One named contiguous segment of the flat parameter vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable layer/parameter name (e.g. `"conv1.weight"`).
    pub name: String,
    /// Start offset in the flat vector.
    pub offset: usize,
    /// Number of elements.
    pub len: usize,
}

impl Segment {
    /// The half-open range `[offset, offset + len)` this segment covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// An ordered, gap-free partition of `[0, total_len)` into layer segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    segments: Vec<Segment>,
    total_len: usize,
}

impl Partition {
    /// Builds a partition from `(name, len)` pairs laid out consecutively.
    pub fn from_layer_sizes<S: Into<String>>(sizes: impl IntoIterator<Item = (S, usize)>) -> Self {
        let mut segments = Vec::new();
        let mut offset = 0usize;
        for (name, len) in sizes {
            segments.push(Segment { name: name.into(), offset, len });
            offset += len;
        }
        Partition { segments, total_len: offset }
    }

    /// A single-segment partition covering the whole vector; used when
    /// per-layer structure is irrelevant (e.g. microbenchmarks).
    pub fn single(len: usize) -> Self {
        Partition::from_layer_sizes([("all", len)])
    }

    /// The layer segments, in flat-vector order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments (layers).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total flat-vector length covered.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Borrows the sub-slice of `flat` belonging to segment `i`.
    pub fn slice<'a>(&self, flat: &'a [f32], i: usize) -> &'a [f32] {
        &flat[self.segments[i].range()]
    }

    /// Mutably borrows the sub-slice of `flat` belonging to segment `i`.
    pub fn slice_mut<'a>(&self, flat: &'a mut [f32], i: usize) -> &'a mut [f32] {
        &mut flat[self.segments[i].range()]
    }

    /// Verifies the partition covers `flat` exactly. Panics otherwise; used
    /// as a debug assertion at trainer boundaries.
    pub fn check_covers(&self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.total_len,
            "partition covers {} elements but vector has {}",
            self.total_len,
            flat.len()
        );
    }

    /// Groups whole segments into at most `max_shards` contiguous spans of
    /// roughly equal coordinate count — the shard layout of the lock-striped
    /// server. Shards never split a segment (uplink chunks and per-layer
    /// secondary compression stay intact per shard), so the shard count is
    /// capped by the segment count. Deterministic greedy fill: a span closes
    /// once it reaches `ceil(remaining / shards_left)` coordinates, and the
    /// last span sweeps any tail segments. Every segment lands in exactly
    /// one span, in order.
    pub fn shard_spans(&self, max_shards: usize) -> Vec<ShardSpan> {
        if self.segments.is_empty() {
            return Vec::new();
        }
        let shards = max_shards.clamp(1, self.segments.len());
        let mut spans = Vec::with_capacity(shards);
        let mut si = 0usize;
        let mut remaining = self.total_len;
        for shard in 0..shards {
            let shards_left = shards - shard;
            let target = remaining.div_ceil(shards_left);
            let start = si;
            let offset = self.segments[si].offset;
            let mut len = self.segments[si].len;
            si += 1;
            while len < target && self.segments.len() - si > shards_left - 1 {
                len += self.segments[si].len;
                si += 1;
            }
            if shard == shards - 1 {
                // Zero-length tail segments still belong to a shard: the
                // spans must cover every segment so per-segment uplink
                // chunks line up with exactly one shard.
                while si < self.segments.len() {
                    len += self.segments[si].len;
                    si += 1;
                }
            }
            spans.push(ShardSpan { seg_start: start, seg_end: si, offset, len });
            remaining -= len;
        }
        spans
    }

    /// Builds the standalone partition one shard sees: the span's segments
    /// with offsets rebased to start at 0, covering `span.len` coordinates.
    pub fn subpartition(&self, span: &ShardSpan) -> Partition {
        let segments = self.segments[span.seg_start..span.seg_end]
            .iter()
            .map(|seg| Segment {
                name: seg.name.clone(),
                offset: seg.offset - span.offset,
                len: seg.len,
            })
            .collect();
        Partition { segments, total_len: span.len }
    }
}

/// A contiguous run of whole segments owned by one server shard (see
/// [`Partition::shard_spans`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// First segment index (inclusive).
    pub seg_start: usize,
    /// One past the last segment index.
    pub seg_end: usize,
    /// Start offset in the flat parameter vector.
    pub offset: usize,
    /// Number of flat-vector coordinates covered.
    pub len: usize,
}

impl ShardSpan {
    /// The half-open flat-vector range `[offset, offset + len)`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }

    /// The half-open segment-index range `[seg_start, seg_end)`.
    pub fn seg_range(&self) -> std::ops::Range<usize> {
        self.seg_start..self.seg_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_consecutive() {
        let p = Partition::from_layer_sizes([("a", 3), ("b", 5), ("c", 2)]);
        assert_eq!(p.num_segments(), 3);
        assert_eq!(p.total_len(), 10);
        assert_eq!(p.segments()[0].range(), 0..3);
        assert_eq!(p.segments()[1].range(), 3..8);
        assert_eq!(p.segments()[2].range(), 8..10);
        assert_eq!(p.segments()[1].name, "b");
    }

    #[test]
    fn slicing() {
        let p = Partition::from_layer_sizes([("a", 2), ("b", 3)]);
        let mut v = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.slice(&v, 0), &[0.0, 1.0]);
        assert_eq!(p.slice(&v, 1), &[2.0, 3.0, 4.0]);
        p.slice_mut(&mut v, 1)[0] = 9.0;
        assert_eq!(v[2], 9.0);
    }

    #[test]
    fn single_partition() {
        let p = Partition::single(7);
        assert_eq!(p.num_segments(), 1);
        assert_eq!(p.total_len(), 7);
    }

    #[test]
    #[should_panic(expected = "partition covers")]
    fn check_covers_rejects_mismatch() {
        Partition::single(3).check_covers(&[0.0; 4]);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::from_layer_sizes(Vec::<(&str, usize)>::new());
        assert_eq!(p.total_len(), 0);
        assert_eq!(p.num_segments(), 0);
        p.check_covers(&[]);
        assert!(p.shard_spans(4).is_empty());
    }

    /// Spans must tile the segments exactly: in order, gap-free, and
    /// summing to the full coordinate count.
    fn assert_spans_cover(p: &Partition, spans: &[ShardSpan]) {
        assert_eq!(spans[0].seg_start, 0);
        assert_eq!(spans.last().unwrap().seg_end, p.num_segments());
        for w in spans.windows(2) {
            assert_eq!(w[0].seg_end, w[1].seg_start);
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
        assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), p.total_len());
    }

    #[test]
    fn shard_spans_balance_whole_segments() {
        let p = Partition::from_layer_sizes([("a", 40), ("b", 25), ("c", 31), ("d", 4)]);
        let spans = p.shard_spans(2);
        assert_eq!(spans.len(), 2);
        assert_spans_cover(&p, &spans);
        // Greedy fill: target ceil(100/2)=50 → "a"+"b" (65 ≥ 50 after b),
        // actually a alone is 40 < 50 so b joins; rest to shard 1.
        assert_eq!(spans[0], ShardSpan { seg_start: 0, seg_end: 2, offset: 0, len: 65 });
        assert_eq!(spans[1], ShardSpan { seg_start: 2, seg_end: 4, offset: 65, len: 35 });
    }

    #[test]
    fn shard_count_clamps_to_segment_count() {
        let p = Partition::from_layer_sizes([("a", 3), ("b", 5)]);
        let spans = p.shard_spans(8);
        assert_eq!(spans.len(), 2, "shards never split a segment");
        assert_spans_cover(&p, &spans);
        let one = p.shard_spans(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], ShardSpan { seg_start: 0, seg_end: 2, offset: 0, len: 8 });
    }

    #[test]
    fn zero_length_tail_segments_are_swept_into_the_last_span() {
        // Uplink chunk arrays have one chunk per segment, so even empty
        // tail segments must belong to a shard.
        let p = Partition::from_layer_sizes([("a", 6), ("b", 6), ("tail0", 0), ("tail1", 0)]);
        for shards in 1..=4 {
            let spans = p.shard_spans(shards);
            assert_spans_cover(&p, &spans);
            assert_eq!(spans.last().unwrap().seg_end, 4, "{shards} shards");
        }
    }

    #[test]
    fn subpartition_rebases_offsets() {
        let p = Partition::from_layer_sizes([("a", 3), ("b", 5), ("c", 2), ("d", 7)]);
        let spans = p.shard_spans(2);
        let sub = p.subpartition(&spans[1]);
        assert_eq!(sub.total_len(), spans[1].len);
        assert_eq!(sub.segments()[0].offset, 0);
        let names: Vec<&str> = sub.segments().iter().map(|s| s.name.as_str()).collect();
        // Segment identity is preserved, layout restarts at zero.
        assert_eq!(
            sub.segments().iter().map(|s| s.len).sum::<usize>(),
            spans[1].len,
            "{names:?}"
        );
        for w in sub.segments().windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
        // Slicing the global flat vector by the span, then the sub-slice
        // by the rebased segment, lands on the same coordinates.
        let flat: Vec<f32> = (0..p.total_len()).map(|i| i as f32).collect();
        let shard_flat = &flat[spans[1].range()];
        for (si, seg) in sub.segments().iter().enumerate() {
            assert_eq!(sub.slice(shard_flat, si), p.slice(&flat, spans[1].seg_start + si), "{}", seg.name);
        }
    }
}
