//! Cluster-aware worker client: one uplink fanned out across span
//! servers, downlink diffs reassembled in shard order.
//!
//! A K-process PS cluster runs one [`crate::tcp::serve_cluster`] (or
//! evented) process per [`ShardSpan`] of the model partition.
//! [`ClusterTransport`] is the worker side: it holds one
//! [`TcpWorkerTransport`] per span and, for every training update,
//! slices the payload exactly the way the in-process sharded server's
//! fan-out does (`dgs_core::shard`) — a dense payload by coordinate
//! range, sparse/ternary payloads by whole-segment chunk ranges — so a
//! span server receives precisely the sub-update its in-process shard
//! twin would see (both cut with `dgs_core::cluster::span_view`). Replies
//! come back one per span; when they are homogeneous (the steady state),
//! `dgs_core::cluster::assemble_replies` concatenates them in span order
//! into the exact message a single sharded server would have sent, which
//! is what makes the K-process schedule replay the single-process one
//! bitwise.
//!
//! Fault behaviour is *per span*: each sub-transport keeps its own
//! sequence/applied counters and its own reconnect-with-backoff
//! machinery, so a dead span server stalls only its slice of the
//! exchange — the other spans keep applying — and the reconnect
//! handshake's per-span `applied` count guarantees the recovered span
//! never double-applies (same argument as the single-server reconnect
//! path, now per slice).

use crate::error::{NetError, NetResult};
use crate::msg::{span_view, ClusterLayout, DownMsg, UpMsg};
use crate::tcp::{ClusterClientOpts, TcpOpts, TcpWorkerTransport};
use crate::transport::{Tier, Transport, WireStats};

/// Worker-side transport over a span-sharded PS cluster: one TCP
/// sub-transport per span server, driven in span order.
pub struct ClusterTransport {
    layout: ClusterLayout,
    spans: Vec<TcpWorkerTransport>,
}

impl ClusterTransport {
    /// Builds a transport for `worker` over the cluster described by
    /// `layout`, with `addrs[k]` the address of span server `k`.
    /// Connections are made lazily on first exchange. Errors if the
    /// address count does not match the layout's span count.
    pub fn new(layout: ClusterLayout, addrs: &[String], worker: u16) -> NetResult<Self> {
        Self::with_opts(layout, addrs, worker, |_| {})
    }

    /// [`ClusterTransport::new`] with a hook to adjust each generated
    /// per-span [`TcpOpts`] (timeouts, backoff) before it is frozen.
    pub fn with_opts(
        layout: ClusterLayout,
        addrs: &[String],
        worker: u16,
        mut tweak: impl FnMut(&mut TcpOpts),
    ) -> NetResult<Self> {
        if addrs.len() != layout.num_spans() {
            return Err(NetError::Protocol(format!(
                "cluster has {} spans but {} addresses were given",
                layout.num_spans(),
                addrs.len()
            )));
        }
        let layout_hash = layout.layout_hash();
        let layout_bytes = layout.encode();
        let spans = addrs
            .iter()
            .zip(layout.spans.iter().enumerate())
            .map(|(addr, (k, info))| {
                let mut opts = TcpOpts::new(addr.clone(), worker, info.len, info.theta0_crc);
                opts.cluster = Some(ClusterClientOpts {
                    span_index: k as u32,
                    num_spans: layout.num_spans() as u32,
                    layout_hash,
                    expected_layout: layout_bytes.clone(),
                });
                tweak(&mut opts);
                TcpWorkerTransport::new(opts)
            })
            .collect();
        Ok(ClusterTransport { layout, spans })
    }

    /// The partition map this transport slices by.
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// Number of span servers.
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Slices one full update into per-span sub-updates with the same
    /// [`span_view`] cut the in-process sharded fan-out uses. Every
    /// sub-update carries the full `train_loss` (each span's telemetry sees
    /// the same scalar, exactly like every in-process shard does).
    fn fan_out(&self, up: &UpMsg) -> NetResult<Vec<UpMsg>> {
        (0..self.spans.len())
            .map(|k| {
                let view = span_view(&up.payload, &self.layout.shard_span(k)).ok_or_else(|| {
                    NetError::Protocol(format!("update does not cover span {k} of the layout"))
                })?;
                Ok(UpMsg { payload: view.to_payload(), train_loss: up.train_loss })
            })
            .collect()
    }

    /// Sends one training update to every span server and collects the
    /// per-span replies, in span order. Each sub-exchange runs the full
    /// single-link protocol (sequencing, heartbeats, reconnect +
    /// retransmit-or-resync recovery) independently.
    pub fn exchange(&mut self, up: &UpMsg) -> NetResult<Vec<DownMsg>> {
        let parts = self.fan_out(up)?;
        self.spans.iter_mut().zip(parts.iter()).map(|(t, part)| t.exchange(part)).collect()
    }

    /// Requests a full resynchronisation from every span server; the
    /// replies (in span order) concatenate to the full recovery model.
    pub fn resync(&mut self) -> NetResult<Vec<DownMsg>> {
        self.spans.iter_mut().map(Transport::resync).collect()
    }

    /// Resynchronises a single span — the recovery path when only one
    /// span server's state diverged (e.g. after it was restarted).
    pub fn resync_span(&mut self, k: usize) -> NetResult<DownMsg> {
        self.span_mut(k)?.resync()
    }

    /// Drops span `k`'s connection without telling it — fault-injection
    /// hook; the next exchange reconnects that span through the cluster
    /// handshake's retransmit-or-resync recovery while the other spans'
    /// connections stay up.
    pub fn drop_span_conn(&mut self, k: usize) -> NetResult<()> {
        self.span_mut(k)?.force_reconnect();
        Ok(())
    }

    /// Gracefully ends the run on every span server.
    pub fn shutdown(&mut self) -> NetResult<()> {
        for t in &mut self.spans {
            t.shutdown()?;
        }
        Ok(())
    }

    /// Worker-side byte counters, summed over the span links, with one
    /// `(Root, k)` entry per span in the per-link breakdown.
    pub fn stats(&self) -> WireStats {
        let mut total = WireStats::default();
        for (k, t) in self.spans.iter().enumerate() {
            let s = t.stats();
            total.add_link(Tier::Root, k as u16, s.data_up, s.data_down);
            total.merge(&s);
        }
        total
    }

    fn span_mut(&mut self, k: usize) -> NetResult<&mut TcpWorkerTransport> {
        let n = self.spans.len();
        self.spans
            .get_mut(k)
            .ok_or_else(|| NetError::Protocol(format!("span {k} out of range ({n} spans)")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Partition, SparseUpdate, SparseVec, UpPayload};
    use crate::runtime::LogicHandler;
    use crate::tcp::{serve_cluster, ServerOpts, SpanOpts};
    use crate::transport::UpdateHandler;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};
    use std::thread;
    use std::time::Duration;

    /// Replies with a sparse diff tagging (span marker, apply count) so
    /// the test can tell which span answered what.
    struct SpanHandler {
        marker: f32,
        applied: Vec<u64>,
        resyncs: usize,
    }

    impl UpdateHandler for SpanHandler {
        fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
            self.applied[worker as usize] += 1;
            let tag = self.marker + self.applied[worker as usize] as f32 + up.train_loss as f32;
            DownMsg::SparseDiff(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![0], val: vec![tag] }],
            })
        }

        fn on_resync(&mut self, worker: u16) -> DownMsg {
            self.resyncs += 1;
            DownMsg::DenseModel(Arc::new(vec![self.marker + f32::from(worker); 2]))
        }
    }

    fn test_layout() -> ClusterLayout {
        let p = Partition::from_layer_sizes([("a", 2), ("b", 3)]);
        let spans = p.shard_spans(2);
        ClusterLayout::from_spans(p.total_len() as u64, &spans, &[0x100, 0x101])
    }

    /// Spawns one toy span server per layout span; returns addresses,
    /// handlers, and join handles.
    #[allow(clippy::type_complexity)]
    fn spawn_span_servers(
        layout: &ClusterLayout,
        workers: usize,
    ) -> (
        Vec<String>,
        Vec<Arc<Mutex<LogicHandler<SpanHandler>>>>,
        Vec<thread::JoinHandle<NetResult<WireStats>>>,
    ) {
        let layout_hash = layout.layout_hash();
        let layout_bytes = layout.encode();
        let mut addrs = Vec::new();
        let mut handlers = Vec::new();
        let mut joins = Vec::new();
        for (k, info) in layout.spans.iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            let toy = SpanHandler {
                marker: (k as f32 + 1.0) * 100.0,
                applied: vec![0; workers],
                resyncs: 0,
            };
            let handler = Arc::new(Mutex::new(LogicHandler::new(toy, workers)));
            handlers.push(Arc::clone(&handler));
            let mut opts = ServerOpts::new(workers, info.len, info.theta0_crc);
            opts.read_timeout = Duration::from_millis(50);
            opts.deadline = Some(Duration::from_secs(30));
            opts.span = Some(SpanOpts {
                index: k as u32,
                num_spans: layout.num_spans() as u32,
                layout_hash,
                layout_bytes: layout_bytes.clone(),
            });
            joins.push(thread::spawn(move || serve_cluster(listener, handler, opts)));
        }
        (addrs, handlers, joins)
    }

    fn connect(layout: ClusterLayout, addrs: &[String]) -> ClusterTransport {
        ClusterTransport::with_opts(layout, addrs, 0, |o| {
            o.read_timeout = Duration::from_millis(100);
            o.backoff_base = Duration::from_millis(20);
        })
        .unwrap()
    }

    fn sparse_up(loss: f64) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate {
                chunks: vec![
                    SparseVec { idx: vec![1], val: vec![1.0] },
                    SparseVec { idx: vec![0, 2], val: vec![2.0, 3.0] },
                ],
            }),
            train_loss: loss,
        }
    }

    #[test]
    fn fan_out_slices_match_the_sharded_fan_out() {
        let layout = test_layout();
        let t = ClusterTransport::new(layout.clone(), &[String::new(), String::new()], 0).unwrap();
        // Sparse: whole-segment chunk ranges.
        let parts = t.fan_out(&sparse_up(0.5)).unwrap();
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert_eq!(p.train_loss, 0.5, "every span sees the full loss scalar");
        }
        match (&parts[0].payload, &parts[1].payload) {
            (UpPayload::Sparse(a), UpPayload::Sparse(b)) => {
                assert_eq!(a.chunks.len(), 1);
                assert_eq!(a.chunks[0].idx, vec![1]);
                assert_eq!(b.chunks.len(), 1);
                assert_eq!(b.chunks[0].idx, vec![0, 2]);
            }
            other => panic!("unexpected fan-out {other:?}"),
        }
        // Dense: coordinate ranges.
        let dense =
            UpMsg { payload: UpPayload::Dense(vec![1.0, 2.0, 3.0, 4.0, 5.0]), train_loss: 0.0 };
        let parts = t.fan_out(&dense).unwrap();
        match (&parts[0].payload, &parts[1].payload) {
            (UpPayload::Dense(a), UpPayload::Dense(b)) => {
                assert_eq!(a, &vec![1.0, 2.0]);
                assert_eq!(b, &vec![3.0, 4.0, 5.0]);
            }
            other => panic!("unexpected fan-out {other:?}"),
        }
        // Wrong dense length is a protocol error, not silent corruption.
        let bad = UpMsg { payload: UpPayload::Dense(vec![0.0; 4]), train_loss: 0.0 };
        assert!(t.fan_out(&bad).is_err());
    }

    #[test]
    fn cluster_exchange_reaches_every_span_and_accounts_per_link() {
        let layout = test_layout();
        let (addrs, handlers, joins) = spawn_span_servers(&layout, 1);
        let mut t = connect(layout, &addrs);
        let mut span_up = [0u64; 2];
        let mut span_down = [0u64; 2];
        for i in 1..=3 {
            let up = sparse_up(f64::from(i));
            let parts = t.fan_out(&up).unwrap();
            for (k, p) in parts.iter().enumerate() {
                span_up[k] += p.wire_bytes() as u64;
            }
            let replies = t.exchange(&up).unwrap();
            assert_eq!(replies.len(), 2);
            for (k, r) in replies.iter().enumerate() {
                span_down[k] += r.wire_bytes() as u64;
                match r {
                    DownMsg::SparseDiff(s) => {
                        let expect = (k as f32 + 1.0) * 100.0 + i as f32 + i as f32;
                        assert_eq!(s.chunks[0].val, vec![expect], "span {k} round {i}");
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
        let stats = t.stats();
        for k in 0..2u16 {
            let link = stats.link(Tier::Root, k).unwrap();
            assert_eq!(link.uplink_bytes, span_up[k as usize], "span {k} uplink");
            assert_eq!(link.downlink_bytes, span_down[k as usize], "span {k} downlink");
        }
        assert_eq!(stats.data_up, span_up.iter().sum::<u64>());
        assert_eq!(stats.data_down, span_down.iter().sum::<u64>());
        t.shutdown().unwrap();
        for (j, h) in joins.into_iter().zip(&handlers) {
            j.join().unwrap().unwrap();
            assert_eq!(h.lock().unwrap().logic().applied, vec![3]);
        }
    }

    #[test]
    fn one_span_reconnect_leaves_other_spans_untouched() {
        let layout = test_layout();
        let (addrs, handlers, joins) = spawn_span_servers(&layout, 1);
        let mut t = connect(layout, &addrs);
        t.exchange(&sparse_up(1.0)).unwrap();
        // Silently drop span 0's connection; span 1's stays up.
        t.drop_span_conn(0).unwrap();
        let replies = t.exchange(&sparse_up(2.0)).unwrap();
        // Span 0 reconnected through the cluster handshake: its applied
        // count (1) matches the client's acked (1), so seq 2 proceeds as
        // a normal apply — no resync, no double apply.
        match &replies[0] {
            DownMsg::SparseDiff(s) => assert_eq!(s.chunks[0].val, vec![100.0 + 2.0 + 2.0]),
            other => panic!("unexpected reply {other:?}"),
        }
        t.shutdown().unwrap();
        for (j, h) in joins.into_iter().zip(&handlers) {
            j.join().unwrap().unwrap();
            let h = h.lock().unwrap();
            let h = h.logic();
            assert_eq!(h.applied, vec![2], "both spans applied both updates exactly once");
            assert_eq!(h.resyncs, 0);
        }
    }
}
