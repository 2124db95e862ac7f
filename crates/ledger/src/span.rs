//! In-memory spans recorded by the ledger around calls into each layer.
//!
//! Spans are recorded from outside the program (this crate's own files);
//! a span names its layer, its start and end on one monotonic clock, the
//! span that caused it and the round it belongs to. A layer's *self time*
//! is its span minus the part of that interval its children cover.

use crate::json::Value;
use std::time::Instant;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Round (schedule step) the span belongs to.
    pub round: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds from `epoch` to `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Append-only span store with its own epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates a log able to hold `capacity` spans without reallocating
    /// (so recording never allocates inside a timed round).
    pub fn with_capacity(epoch: Instant, capacity: usize) -> Self {
        SpanLog { epoch, spans: Vec::with_capacity(capacity) }
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        round: u32,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: ns_since(self.epoch, start),
            end_ns: ns_since(self.epoch, end),
            parent,
            round,
        };
        self.push_span(span)
    }

    /// Records a span whose endpoints are already on this log's clock.
    pub fn push_span(&mut self, span: Span) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        self.spans.push(span);
        id
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Multiplies every timestamp by `factor` (the epoch stays at 0), so
    /// durations and self times scale with it.
    pub fn rescale(&mut self, factor: f64) {
        let scale = |ns: u64| (ns as f64 * factor).round() as u64;
        for s in &mut self.spans {
            s.start_ns = scale(s.start_ns);
            s.end_ns = scale(s.end_ns);
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Overlapping or
/// adjacent children are not double-counted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// The trace file: one JSON array of span objects.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("id", Value::from(id as u64)),
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::from(u64::from(s.parent))
                        },
                    ),
                    ("round", Value::from(u64::from(s.round))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name: "t", start_ns, end_ns, parent, round: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, 100, NO_PARENT), // 0: root
            span(10, 30, 0),         // 1: child
            span(30, 50, 0),         // 2: adjacent child
            span(12, 20, 1),         // 3: grandchild, charged to 1 only
            span(60, 70, 0),         // 4: separate child
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 12, 20, 8, 10]);
    }

    #[test]
    fn self_time_handles_overlap_and_clipping() {
        let spans = [
            span(100, 200, NO_PARENT),
            span(120, 160, 0),
            span(150, 180, 0), // overlaps the previous child by 10
            span(190, 250, 0), // runs past the parent: clipped to 10
            span(50, 110, 0),  // starts before the parent: clipped to 10
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - (40 + 20 + 10 + 10));
        // Children covering everything leave zero, never underflow.
        let full = [span(0, 10, NO_PARENT), span(0, 10, 0), span(0, 10, 0)];
        assert_eq!(self_times_ns(&full)[0], 0);
    }

    #[test]
    fn log_records_on_one_clock() {
        let epoch = Instant::now();
        let mut log = SpanLog::with_capacity(epoch, 4);
        let a = epoch + std::time::Duration::from_nanos(5);
        let b = epoch + std::time::Duration::from_nanos(9);
        let root = log.push("round", a, b, NO_PARENT, 3);
        let kid = log.push("nn.forward", a, b, root, 3);
        assert_eq!((root, kid), (0, 1));
        assert_eq!(
            log.spans()[0],
            Span { name: "round", start_ns: 5, end_ns: 9, parent: NO_PARENT, round: 3 }
        );
        assert_eq!(self_times_ns(log.spans()), vec![0, 4]);
    }
}
