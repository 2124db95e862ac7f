//! Edge aggregation tier: merge a worker group's sparse uplinks before
//! forwarding one combined update to the root span servers.
//!
//! The two-level topology (cf. the two-level gradient-averaging design
//! in PAPERS.md) bounds root-server ingress by the number of *groups*
//! instead of the number of workers: G members connect to one
//! [`EdgeHandler`], which presents the ordinary single-server protocol
//! to them (full model dim, full θ0 CRC — a member cannot tell an edge
//! from a root), collects one update per member per round, merges them
//! in worker-id order with the same sparse-merge kernels the server
//! stack uses, and forwards the combined update upstream over a
//! [`ClusterTransport`] as a single logical worker (its group index).
//!
//! Equivalence anchors:
//!
//! * `G = 1` forwards the member's payload **verbatim** — no
//!   re-encoding, no dequantize/requantize — so a cluster+edge run with
//!   singleton groups replays the plain cluster schedule bitwise (the
//!   differential bar in `tests/cluster_equivalence.rs`).
//! * The assembled upstream reply is fanned back to every member
//!   unchanged, and also folded into the edge's cached dense model
//!   `θ_edge`. In MDT terms the cache tracks `v_g` (the root's
//!   delivered-vector for this group), which is exactly the model every
//!   in-sync member holds — so member resyncs and duplicate replies are
//!   served **from the cache with zero upstream traffic**.
//!
//! Threading: member connections block in [`EdgeHandler::handle_sequenced`]
//! on a round barrier (mutex + condvar) until the last member of the
//! round arrives; that member runs the upstream exchange and publishes
//! the shared reply to every slot. The upstream link sits behind its own
//! mutex (the `edge-upstream` lock class in `audit-lock-order.toml`),
//! **never** nested inside the state lock: the state lock guards only
//! in-memory aggregation, so member resyncs and duplicate replies are
//! served from the cache even while an upstream round-trip is in
//! flight (`in_flight` bridges the two critical sections). The
//! member-facing listener must run the thread-per-connection backend
//! ([`crate::tcp::serve_cluster`]) — an evented single-thread listener
//! would deadlock on the barrier.

use crate::cluster::ClusterTransport;
use crate::error::{NetError, NetResult};
use crate::msg::{
    assemble_replies, try_merge_sparse_updates, ClusterLayout, DownMsg, Partition, SparseUpdate,
    UpMsg, UpPayload,
};
use crate::transport::{Sequenced, SharedUpdateHandler, WireStats};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Static failure reasons (the [`SharedUpdateHandler`] contract reports
/// errors as `&'static str` reason strings for the peer's error frame).
const EDGE_POISONED: &str = "edge aggregator state poisoned";
const EDGE_UPSTREAM_FAILED: &str = "edge upstream exchange failed";
const EDGE_ROUND_TIMEOUT: &str = "edge round timed out waiting for group members";
const EDGE_ROUND_OVERLAP: &str = "member update overlaps an unfinished round";
const EDGE_MIXED_PAYLOADS: &str = "edge cannot merge mixed payload kinds";
const EDGE_MISALIGNED: &str = "edge cannot merge updates cut to different partitions";
const EDGE_BAD_MEMBER: &str = "worker id outside this edge's group";

/// Mutable aggregation state, all behind one lock. Holds **no** I/O:
/// the upstream link lives in its own mutex on [`EdgeHandler`] so the
/// state lock is never held across a syscall.
struct EdgeState {
    partition: Partition,
    /// Cached dense model `θ_edge = v_g`: θ0 plus every assembled reply
    /// this edge has applied. Serves member resyncs locally.
    cache: Vec<f32>,
    /// Per-worker-id applied counts (indexed by global worker id; only
    /// ids in `[base, base + group)` are ever touched).
    applied: Vec<u64>,
    /// Current round's stashed updates, one slot per group member.
    pending: Vec<Option<UpMsg>>,
    /// How many of `pending` are filled.
    arrived: usize,
    /// Completed round's reply, one copy per member slot; a member takes
    /// (and clears) its slot when it wakes.
    reply_slots: Vec<Option<DownMsg>>,
    /// First hard failure; poisons every subsequent member call so the
    /// group tears down instead of hanging.
    failed: Option<&'static str>,
    /// An upstream exchange is running outside the state lock: the
    /// round's updates are taken but its replies are not yet published.
    /// Stashing new updates is refused until it clears.
    in_flight: bool,
}

/// The edge aggregator's server-side handler: plug into
/// [`crate::tcp::serve_cluster`] with `expected_workers = base + group`
/// and `done_target = group`.
pub struct EdgeHandler {
    state: Mutex<EdgeState>,
    /// The root-tier link, behind its own lock (`edge-upstream` class —
    /// the one edge-tier lock blocking I/O is allowed under). Ordered
    /// strictly after `state` in the manifest, and the code never nests
    /// the two: each round drops the state guard before locking this.
    upstream: Mutex<ClusterTransport>,
    /// Upstream span layout, immutable per transport — cached here so
    /// reply folding needs no upstream lock.
    layout: ClusterLayout,
    barrier: Condvar,
    /// First member worker id of this group.
    base: u16,
    /// Group size G.
    group: usize,
    /// How long a member may wait for the rest of its round.
    round_timeout: Duration,
}

impl EdgeHandler {
    /// Builds the handler for group members `[base, base + group)`.
    /// `theta0` is the full initial model (the cache's starting point);
    /// `partition` must cover it and match `upstream`'s layout.
    pub fn new(
        upstream: ClusterTransport,
        partition: Partition,
        theta0: Vec<f32>,
        base: u16,
        group: usize,
        round_timeout: Duration,
    ) -> NetResult<Arc<Self>> {
        if group == 0 {
            return Err(NetError::Protocol("edge group size must be at least 1".to_string()));
        }
        if theta0.len() != partition.total_len() || theta0.len() != upstream.layout().dim as usize {
            return Err(NetError::Protocol(format!(
                "edge θ0 has {} coordinates, partition covers {}, layout {}",
                theta0.len(),
                partition.total_len(),
                upstream.layout().dim
            )));
        }
        let layout = upstream.layout().clone();
        Ok(Arc::new(EdgeHandler {
            state: Mutex::new(EdgeState {
                partition,
                cache: theta0,
                applied: vec![0; usize::from(base) + group],
                pending: vec![None; group],
                arrived: 0,
                reply_slots: vec![None; group],
                failed: None,
                in_flight: false,
            }),
            upstream: Mutex::new(upstream),
            layout,
            barrier: Condvar::new(),
            base,
            group,
            round_timeout,
        }))
    }

    /// Shuts the upstream links down gracefully and returns the edge's
    /// upstream-side byte counters (with their per-span `Root` links).
    /// Call after the member-facing serve loop has exited.
    pub fn finish(&self) -> Result<WireStats, &'static str> {
        // Upstream guard first and alone: blocking I/O is allowed under
        // `edge-upstream` but never under `edge-state`, and acquiring
        // state inside the upstream guard would invert the declared
        // order — so the guard is dropped before failure is recorded.
        let (shut, stats) = {
            let mut up = self.upstream.lock().map_err(|_| EDGE_POISONED)?;
            (up.shutdown(), up.stats())
        };
        if shut.is_err() {
            // The run is over either way; the stats still hold every
            // byte that actually moved.
            let mut st = self.state.lock().map_err(|_| EDGE_POISONED)?;
            st.failed.get_or_insert(EDGE_UPSTREAM_FAILED);
        }
        Ok(stats)
    }

    /// Maps a global worker id onto its slot in this group.
    fn slot(&self, worker: u16) -> Result<usize, &'static str> {
        let slot = usize::from(worker).checked_sub(usize::from(self.base));
        match slot {
            Some(s) if s < self.group => Ok(s),
            _ => Err(EDGE_BAD_MEMBER),
        }
    }

    /// Merges one round's member updates (worker-id order) into the one
    /// update forwarded upstream. `G = 1` forwards verbatim.
    fn merge_round(&self, ups: Vec<UpMsg>) -> Result<UpMsg, &'static str> {
        debug_assert_eq!(ups.len(), self.group);
        if ups.len() == 1 {
            let Some(up) = ups.into_iter().next() else { return Err(EDGE_ROUND_OVERLAP) };
            return Ok(up);
        }
        let train_loss = ups.iter().map(|u| u.train_loss).sum::<f64>() / ups.len() as f64;
        let payload = match &ups[0].payload {
            UpPayload::Sparse(_) => {
                let mut sparse = Vec::with_capacity(ups.len());
                for u in &ups {
                    match &u.payload {
                        UpPayload::Sparse(s) => sparse.push(s),
                        _ => return Err(EDGE_MIXED_PAYLOADS),
                    }
                }
                // Member payloads come off the wire: a chunk-count
                // mismatch is a protocol error, never a panic.
                UpPayload::Sparse(try_merge_sparse_updates(&sparse).ok_or(EDGE_MISALIGNED)?)
            }
            UpPayload::TernarySparse(_) => {
                // Ternary payloads carry per-chunk scales that cannot be
                // combined losslessly; dequantize, merge exactly, and
                // forward the merged update as plain sparse.
                let mut dequantized = Vec::with_capacity(ups.len());
                for u in &ups {
                    match &u.payload {
                        UpPayload::TernarySparse(t) => dequantized.push(t.dequantize()),
                        _ => return Err(EDGE_MIXED_PAYLOADS),
                    }
                }
                let refs: Vec<&SparseUpdate> = dequantized.iter().collect();
                UpPayload::Sparse(try_merge_sparse_updates(&refs).ok_or(EDGE_MISALIGNED)?)
            }
            UpPayload::Dense(first) => {
                let mut sum = first.clone();
                for u in &ups[1..] {
                    match &u.payload {
                        UpPayload::Dense(g) if g.len() == sum.len() => {
                            for (acc, x) in sum.iter_mut().zip(g) {
                                *acc += x;
                            }
                        }
                        _ => return Err(EDGE_MIXED_PAYLOADS),
                    }
                }
                UpPayload::Dense(sum)
            }
        };
        Ok(UpMsg { payload, train_loss })
    }

    /// Runs one complete round in three critical sections — take the
    /// stashed updates and merge (state lock), exchange upstream
    /// (upstream lock only: the state lock is **not** held across the
    /// network round-trip, so resyncs and duplicates stay servable),
    /// then fold the reply into the cache and publish one copy per
    /// member slot (state lock again).
    fn run_round(&self) -> Result<(), &'static str> {
        let fwd = {
            let mut st = self.state.lock().map_err(|_| EDGE_POISONED)?;
            let mut ups = Vec::with_capacity(self.group);
            for slot in &mut st.pending {
                match slot.take() {
                    Some(u) => ups.push(u),
                    None => return Err(EDGE_ROUND_OVERLAP),
                }
            }
            st.arrived = 0;
            let fwd = self.merge_round(ups)?;
            st.in_flight = true;
            fwd
        };
        let exchanged = {
            let mut up = self.upstream.lock().map_err(|_| EDGE_POISONED)?;
            up.exchange(&fwd).map_err(|_| EDGE_UPSTREAM_FAILED)
        };
        let mut st = self.state.lock().map_err(|_| EDGE_POISONED)?;
        let st = &mut *st; // split-borrow fields through the guard
        st.in_flight = false;
        let replies = exchanged?;
        let reply = match assemble_replies(replies) {
            Ok(DownMsg::SparseDiff(s)) => {
                s.try_apply_add(&mut st.cache, &st.partition, 1.0).ok_or(EDGE_MISALIGNED)?;
                DownMsg::SparseDiff(s)
            }
            Ok(DownMsg::DenseModel(m)) => {
                if m.len() != st.cache.len() {
                    return Err(EDGE_MISALIGNED);
                }
                st.cache.copy_from_slice(&m);
                DownMsg::DenseModel(m)
            }
            Err(replies) => {
                // Mixed per-span replies (one span resynced mid-run):
                // fold each span's reply into its slice of the cache and
                // hand members the coherent dense result.
                for (k, r) in replies.iter().enumerate() {
                    let span = self.layout.shard_span(k);
                    let dst = st.cache.get_mut(span.range()).ok_or(EDGE_MISALIGNED)?;
                    match r {
                        DownMsg::DenseModel(m) => {
                            if m.len() != dst.len() {
                                return Err(EDGE_MISALIGNED);
                            }
                            dst.copy_from_slice(m);
                        }
                        DownMsg::SparseDiff(s) => {
                            let sub = st.partition.subpartition(&span);
                            s.try_apply_add(dst, &sub, 1.0).ok_or(EDGE_MISALIGNED)?;
                        }
                    }
                }
                DownMsg::DenseModel(Arc::new(st.cache.clone()))
            }
        };
        for slot in &mut st.reply_slots {
            *slot = Some(reply.clone());
        }
        Ok(())
    }

    /// Blocks until this member's reply slot fills (or the round fails /
    /// times out), then takes the reply.
    fn await_reply<'a>(
        &'a self,
        mut st: MutexGuard<'a, EdgeState>,
        slot: usize,
    ) -> Result<(MutexGuard<'a, EdgeState>, DownMsg), &'static str> {
        let mut waited = Duration::ZERO;
        loop {
            if let Some(reply) = st.reply_slots[slot].take() {
                return Ok((st, reply));
            }
            if let Some(reason) = st.failed {
                return Err(reason);
            }
            if waited >= self.round_timeout {
                st.failed = Some(EDGE_ROUND_TIMEOUT);
                self.barrier.notify_all();
                return Err(EDGE_ROUND_TIMEOUT);
            }
            let tick = Duration::from_millis(50).min(self.round_timeout);
            let (guard, _timeout) =
                self.barrier.wait_timeout(st, tick).map_err(|_| EDGE_POISONED)?;
            st = guard;
            waited += tick;
        }
    }
}

impl SharedUpdateHandler for EdgeHandler {
    fn handle_sequenced(
        &self,
        worker: u16,
        seq: u32,
        up: UpMsg,
    ) -> Result<Sequenced, &'static str> {
        let slot = self.slot(worker)?;
        let mut st = self.state.lock().map_err(|_| EDGE_POISONED)?;
        if let Some(reason) = st.failed {
            return Err(reason);
        }
        let applied = st.applied[usize::from(worker)];
        if u64::from(seq) <= applied {
            // Retransmit of an already-merged update: its reply is lost,
            // but the cache *is* the post-reply model — serve it locally,
            // exactly like a single server answers duplicates with a
            // resync, and send nothing upstream.
            return Ok(Sequenced::Duplicate(DownMsg::DenseModel(Arc::new(st.cache.clone()))));
        }
        if u64::from(seq) > applied + 1 {
            return Ok(Sequenced::Gap { applied });
        }
        if st.in_flight || st.pending[slot].is_some() || st.reply_slots[slot].is_some() {
            return Err(EDGE_ROUND_OVERLAP);
        }
        st.pending[slot] = Some(up);
        st.arrived += 1;
        if st.arrived == self.group {
            // Run the round with no state guard live: `run_round` takes
            // the state and upstream locks one at a time.
            drop(st);
            match self.run_round() {
                Ok(()) => self.barrier.notify_all(),
                Err(reason) => {
                    if let Ok(mut st) = self.state.lock() {
                        st.failed.get_or_insert(reason);
                    }
                    self.barrier.notify_all();
                    return Err(reason);
                }
            }
            st = self.state.lock().map_err(|_| EDGE_POISONED)?;
        }
        let (mut st, reply) = self.await_reply(st, slot)?;
        st.applied[usize::from(worker)] += 1;
        Ok(Sequenced::Applied(reply))
    }

    fn handle_resync(&self, worker: u16) -> Result<DownMsg, &'static str> {
        self.slot(worker)?;
        let st = self.state.lock().map_err(|_| EDGE_POISONED)?;
        // The cache is v_g — the model every in-sync member holds — so
        // recovery never touches the root tier.
        Ok(DownMsg::DenseModel(Arc::new(st.cache.clone())))
    }

    fn applied(&self, worker: u16) -> Result<u64, &'static str> {
        self.slot(worker)?;
        let st = self.state.lock().map_err(|_| EDGE_POISONED)?;
        Ok(st.applied[usize::from(worker)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ClusterLayout, SparseVec};
    use crate::runtime::LogicHandler;
    use crate::tcp::{serve_cluster, ServerOpts, SpanOpts, TcpOpts, TcpWorkerTransport};
    use crate::transport::{Tier, Transport, UpdateHandler};
    use std::net::TcpListener;
    use std::thread;

    /// Root-span toy: accumulates sparse updates into a span-local model
    /// and replies with the applied update echoed back (a stand-in for
    /// the MDT diff — members then track the summed state).
    struct RootSpan {
        model: Vec<f32>,
        sub: Partition,
        got: Vec<UpMsg>,
    }

    impl UpdateHandler for RootSpan {
        fn on_update(&mut self, _worker: u16, up: UpMsg) -> DownMsg {
            self.got.push(up.clone());
            match &up.payload {
                UpPayload::Sparse(s) => {
                    s.apply_add(&mut self.model, &self.sub, 1.0);
                    DownMsg::SparseDiff(s.clone())
                }
                other => panic!("toy root only speaks sparse, got {other:?}"),
            }
        }

        fn on_resync(&mut self, _worker: u16) -> DownMsg {
            DownMsg::DenseModel(Arc::new(self.model.clone()))
        }
    }

    fn full_partition() -> Partition {
        Partition::from_layer_sizes([("a", 2), ("b", 3)])
    }

    fn layout() -> ClusterLayout {
        let p = full_partition();
        ClusterLayout::from_spans(p.total_len() as u64, &p.shard_spans(2), &[0x200, 0x201])
    }

    #[allow(clippy::type_complexity)]
    fn spawn_roots(
        groups: usize,
    ) -> (
        Vec<String>,
        Vec<Arc<Mutex<LogicHandler<RootSpan>>>>,
        Vec<thread::JoinHandle<NetResult<WireStats>>>,
    ) {
        let layout = layout();
        let p = full_partition();
        let hash = layout.layout_hash();
        let bytes = layout.encode();
        let mut addrs = Vec::new();
        let mut handlers = Vec::new();
        let mut joins = Vec::new();
        for (k, info) in layout.spans.iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            let span = layout.shard_span(k);
            let root = RootSpan {
                model: vec![0.0; span.len],
                sub: p.subpartition(&span),
                got: Vec::new(),
            };
            let handler = Arc::new(Mutex::new(LogicHandler::new(root, groups)));
            handlers.push(Arc::clone(&handler));
            let mut opts = ServerOpts::new(groups, info.len, info.theta0_crc);
            opts.read_timeout = Duration::from_millis(50);
            opts.deadline = Some(Duration::from_secs(30));
            opts.span = Some(SpanOpts {
                index: k as u32,
                num_spans: layout.num_spans() as u32,
                layout_hash: hash,
                layout_bytes: bytes.clone(),
            });
            joins.push(thread::spawn(move || serve_cluster(listener, handler, opts)));
        }
        (addrs, handlers, joins)
    }

    fn upstream(addrs: &[String], group_index: u16) -> ClusterTransport {
        ClusterTransport::with_opts(layout(), addrs, group_index, |o| {
            o.read_timeout = Duration::from_millis(100);
            o.backoff_base = Duration::from_millis(20);
        })
        .unwrap()
    }

    /// Member update: one sparse chunk per segment, values tagged by
    /// `worker` so the merged sums are recognisable.
    fn member_up(worker: u16, round: u32) -> UpMsg {
        let w = f32::from(worker) + 1.0;
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate {
                chunks: vec![
                    SparseVec { idx: vec![0], val: vec![w] },
                    SparseVec { idx: vec![1], val: vec![10.0 * w] },
                ],
            }),
            train_loss: f64::from(round),
        }
    }

    fn edge_server_opts(base: u16, group: usize, dim: u64, crc: u32) -> ServerOpts {
        let mut o = ServerOpts::new(usize::from(base) + group, dim, crc);
        o.read_timeout = Duration::from_millis(50);
        o.deadline = Some(Duration::from_secs(30));
        o.done_target = group;
        o
    }

    /// Root span that parks inside `on_update` until released —
    /// pins down what the edge keeps serving while its upstream
    /// round-trip is in flight.
    struct StallingRoot {
        inner: RootSpan,
        entered: Arc<(Mutex<bool>, Condvar)>,
        release: Arc<(Mutex<bool>, Condvar)>,
    }

    impl UpdateHandler for StallingRoot {
        fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
            let (flag, cv) = &*self.entered;
            *flag.lock().unwrap() = true;
            cv.notify_all();
            let (gate, cv) = &*self.release;
            let mut go = gate.lock().unwrap();
            while !*go {
                let (guard, timed_out) = cv.wait_timeout(go, Duration::from_secs(10)).unwrap();
                go = guard;
                assert!(!timed_out.timed_out(), "test never released the root");
            }
            drop(go);
            self.inner.on_update(worker, up)
        }

        fn on_resync(&mut self, worker: u16) -> DownMsg {
            self.inner.on_resync(worker)
        }
    }

    /// Regression test for the edge-state/upstream lock split: with the
    /// upstream exchange formerly run under the state lock, a member
    /// resync (or duplicate reply, or `applied` probe) queued behind the
    /// whole root round-trip — and this test deadlocked, because the
    /// stalled root is only released *after* the resync returns.
    #[test]
    fn resync_served_from_cache_while_upstream_exchange_in_flight() {
        let layout = layout();
        let p = full_partition();
        let entered = Arc::new((Mutex::new(false), Condvar::new()));
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let hash = layout.layout_hash();
        let bytes = layout.encode();
        let mut addrs = Vec::new();
        let mut joins = Vec::new();
        for (k, info) in layout.spans.iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            let span = layout.shard_span(k);
            let root = StallingRoot {
                inner: RootSpan {
                    model: vec![0.0; span.len],
                    sub: p.subpartition(&span),
                    got: Vec::new(),
                },
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            };
            let handler = Arc::new(Mutex::new(LogicHandler::new(root, 1)));
            let mut opts = ServerOpts::new(1, info.len, info.theta0_crc);
            opts.read_timeout = Duration::from_millis(50);
            opts.deadline = Some(Duration::from_secs(30));
            opts.span = Some(SpanOpts {
                index: k as u32,
                num_spans: layout.num_spans() as u32,
                layout_hash: hash,
                layout_bytes: bytes.clone(),
            });
            joins.push(thread::spawn(move || serve_cluster(listener, handler, opts)));
        }
        let up = ClusterTransport::with_opts(layout, &addrs, 0, |o| {
            o.read_timeout = Duration::from_secs(10);
            o.backoff_base = Duration::from_millis(20);
        })
        .unwrap();
        let edge =
            EdgeHandler::new(up, full_partition(), vec![0.0; 5], 0, 1, Duration::from_secs(10))
                .unwrap();

        // The (single) member's update completes the round: the runner
        // thread blocks inside the root's stalled `on_update`.
        let edge2 = Arc::clone(&edge);
        let member = thread::spawn(move || edge2.handle_sequenced(0, 1, member_up(0, 1)));
        {
            let (flag, cv) = &*entered;
            let mut seen = flag.lock().unwrap();
            while !*seen {
                let (guard, timed_out) = cv.wait_timeout(seen, Duration::from_secs(10)).unwrap();
                seen = guard;
                assert!(!timed_out.timed_out(), "upstream exchange never reached the root");
            }
        }
        // Upstream round-trip is in flight. Resync and the applied
        // probe must be served from the edge cache immediately — the
        // root is only released below, after they return.
        match edge.handle_resync(0).unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(*m, vec![0.0; 5], "pre-round cache"),
            other => panic!("unexpected resync reply {other:?}"),
        }
        assert_eq!(edge.applied(0).unwrap(), 0, "round not yet applied");
        {
            let (gate, cv) = &*release;
            *gate.lock().unwrap() = true;
            cv.notify_all();
        }
        match member.join().unwrap().unwrap() {
            Sequenced::Applied(DownMsg::SparseDiff(s)) => assert_eq!(s.chunks.len(), 2),
            other => panic!("unexpected member reply {other:?}"),
        }
        edge.finish().unwrap();
        for j in joins {
            j.join().unwrap().unwrap();
        }
    }

    #[test]
    fn single_member_group_forwards_verbatim_and_serves_resync_from_cache() {
        let (addrs, roots, root_joins) = spawn_roots(1);
        let edge = EdgeHandler::new(
            upstream(&addrs, 0),
            full_partition(),
            vec![0.0; 5],
            0,
            1,
            Duration::from_secs(10),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let edge_addr = listener.local_addr().unwrap().to_string();
        // Members see a plain full-dim server; CRC of the all-zero θ0 is
        // whatever the member side presents — use a fixed token both set.
        let opts = edge_server_opts(0, 1, 5, 0xE0E0);
        let edge2 = Arc::clone(&edge);
        let serve = thread::spawn(move || serve_cluster(listener, edge2, opts));

        let mut member = TcpWorkerTransport::new({
            let mut o = TcpOpts::new(edge_addr, 0, 5, 0xE0E0);
            o.read_timeout = Duration::from_millis(100);
            o.backoff_base = Duration::from_millis(20);
            o
        });
        let up1 = member_up(0, 1);
        match member.exchange(&up1).unwrap() {
            DownMsg::SparseDiff(s) => assert_eq!(s.chunks.len(), 2, "assembled from both spans"),
            other => panic!("unexpected reply {other:?}"),
        }
        // The roots saw the member's payload verbatim, sliced per span.
        {
            let r0 = roots[0].lock().unwrap();
            let r0 = r0.logic();
            assert_eq!(r0.got.len(), 1);
            match &r0.got[0].payload {
                UpPayload::Sparse(s) => {
                    assert_eq!(s.chunks.len(), 1);
                    assert_eq!(s.chunks[0].val, vec![1.0]);
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(r0.got[0].train_loss, 1.0, "loss forwarded untouched at G=1");
        }
        // Resync is served from the edge cache with no upstream traffic.
        let upstream_before = edge.upstream.lock().unwrap().stats();
        match member.resync().unwrap() {
            DownMsg::DenseModel(m) => {
                // Chunk 1's idx 1 is segment-local: global coord 2 + 1.
                assert_eq!(*m, vec![1.0, 0.0, 0.0, 10.0, 0.0], "cache = θ0 + applied reply");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(edge.upstream.lock().unwrap().stats(), upstream_before, "resync stayed local");
        member.shutdown().unwrap();
        let member_side = serve.join().unwrap().unwrap();
        assert!(member_side.data_up > 0);
        let upstream_stats = edge.finish().unwrap();
        for k in 0..2u16 {
            assert!(upstream_stats.link(Tier::Root, k).is_some(), "span {k} link recorded");
        }
        for j in root_joins {
            j.join().unwrap().unwrap();
        }
    }

    #[test]
    fn two_member_round_merges_in_worker_order_and_shares_the_reply() {
        let (addrs, roots, root_joins) = spawn_roots(1);
        let edge = EdgeHandler::new(
            upstream(&addrs, 0),
            full_partition(),
            vec![0.0; 5],
            0,
            2,
            Duration::from_secs(10),
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let edge_addr = listener.local_addr().unwrap().to_string();
        let opts = edge_server_opts(0, 2, 5, 0xE0E0);
        let edge2 = Arc::clone(&edge);
        let serve = thread::spawn(move || serve_cluster(listener, edge2, opts));

        let mut members = Vec::new();
        for w in 0..2u16 {
            let addr = edge_addr.clone();
            members.push(thread::spawn(move || {
                let mut t = TcpWorkerTransport::new({
                    let mut o = TcpOpts::new(addr, w, 5, 0xE0E0);
                    o.read_timeout = Duration::from_millis(100);
                    o.backoff_base = Duration::from_millis(20);
                    o
                });
                let reply = t.exchange(&member_up(w, 1)).unwrap();
                t.shutdown().unwrap();
                reply
            }));
        }
        let replies: Vec<DownMsg> = members.into_iter().map(|j| j.join().unwrap()).collect();
        // Both members got the identical assembled reply: the merged
        // update summed 1+2 on segment 0, 10+20 on segment 1.
        for r in &replies {
            match r {
                DownMsg::SparseDiff(s) => {
                    assert_eq!(s.chunks.len(), 2);
                    assert_eq!(s.chunks[0].val, vec![3.0]);
                    assert_eq!(s.chunks[1].val, vec![30.0]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Each root span saw exactly ONE upstream update for the round —
        // ingress scales with groups, not members.
        for (k, root) in roots.iter().enumerate() {
            let r = root.lock().unwrap();
            let r = r.logic();
            assert_eq!(r.got.len(), 1, "span {k}");
            assert_eq!(r.got[0].train_loss, 1.0, "mean member loss");
        }
        serve.join().unwrap().unwrap();
        edge.finish().unwrap();
        for j in root_joins {
            j.join().unwrap().unwrap();
        }
    }
}
