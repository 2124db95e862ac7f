//! The Model-Difference-Tracking parameter server (paper Alg. 2, Eq. 1-6).
//!
//! The server never stores the global model directly; it keeps
//!
//! * `M_t` — the accumulation of all applied updates (`θ_t = θ_0 + M_t`,
//!   Eq. 2), updated as `M ← M − g` on every received update (Eq. 1);
//! * `v_k` — per worker, the accumulation of everything already *sent* to
//!   worker `k`, so the downlink payload is the difference
//!   `G_{k} = M − v_k` (Eq. 3).
//!
//! Without secondary compression the full difference goes out and
//! `v_k ← v_k + G` lands exactly on `M` (Eq. 3); with secondary compression
//! only the per-layer Top-k of `G` goes out and `v_k` advances by just that
//! part (Eq. 6), leaving the remainder implicitly accumulated server-side.
//!
//! The crucial tracking property: the server updates `v_k` with the *same*
//! elementwise scatter-adds the worker applies to its local model, so
//! `θ_0 + v_k` reproduces the worker's model to within a single f32
//! rounding step — the server always knows what every worker holds, which
//! is what makes the difference meaningful under asynchrony.
//!
//! # Hot path: O(nnz) downlink construction
//!
//! `G = M − v_k` is sparse — it is the sum of the few sparse updates applied
//! since worker `k`'s last pull — so reconstructing it with a dense scan of
//! `M` and `v_k` (O(W·dim) per round across W workers) wastes almost all of
//! its work. The server instead keeps an [`UpdateLog`] of the coordinates
//! each applied update touched, plus a per-worker *dirty set* `pending[k]`
//! (coordinates where `M` and `v_k` still differ as of the worker's cursor
//! — secondary compression holds values back indefinitely, so "touched
//! since the cursor" alone is not a superset of the diff's support).
//! [`MdtServer::make_diff`] then visits only
//! `pending[k] ∪ touched-since-prev[k]` coordinates, computing each value
//! as the same `m[i] − v[i]` subtraction a dense scan of `M` and `v_k`
//! performs — which is why the log merge and the dense scan produce
//! bitwise-identical payloads. The dense scan is the merge's fallback:
//! when a straggler's cursor has fallen off the bounded log, or the merge
//! would cost more than the scan, the server scans for that one reply
//! (graceful degradation, never a wrong answer) and rebuilds the dirty set
//! in the process. See `DESIGN.md` §"Server hot path".

use crate::config::TrainConfig;
use crate::method::Method;
use crate::protocol::{DownMsg, UpMsg, UpPayloadView};
use crate::segments::{carried, SegmentDriver};
use crate::update_log::UpdateLog;
use crate::PAR_THRESHOLD;
use dgs_psim::StalenessStats;
use dgs_sparsify::merge::{
    diff_pairs_at, retain_dirty, scatter_track_dirty, send_all_at, send_all_dense_with,
    send_topk_dense, sort_dedup, sort_dedup_pooled,
};
use dgs_sparsify::{
    k_for_ratio, radix_topk_pairs, scatter_add, Guess, Partition, Segment, SelectScratch,
    ShardSpan, SparseUpdate, SparseVec,
};
use dgs_tensor::{BufferPool, Kernel};
use std::sync::Arc;

/// Staleness mitigation applied by the server when folding updates into
/// `M` — a gap-aware damping in the spirit of Barkai et al. (cited by the
/// paper as its momentum-ASGD reference): an update whose staleness is `s`
/// is scaled by `1/(1+s)^alpha`, so badly stale gradients move the model
/// less. `alpha = 0` disables it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessDamping {
    /// Damping exponent; 0 disables, 1 is full gap-aware scaling.
    pub alpha: f64,
}

impl StalenessDamping {
    /// No damping (the paper's plain ASGD/DGS behaviour).
    pub fn off() -> Self {
        StalenessDamping { alpha: 0.0 }
    }

    /// The scale applied to an update of staleness `s`.
    pub fn scale(&self, staleness: u64) -> f32 {
        if self.alpha == 0.0 {
            1.0
        } else {
            (1.0 / (1.0 + staleness as f64).powf(self.alpha)) as f32
        }
    }
}

impl Default for StalenessDamping {
    fn default() -> Self {
        StalenessDamping::off()
    }
}

/// Downlink behaviour of the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Downlink {
    /// Ship the whole dense model every round (vanilla ASGD).
    DenseModel,
    /// Ship the sparse model difference `G = M − v_k` (MDT).
    ModelDifference {
        /// Apply per-layer Top-k to `G` before sending (Alg. 2 lines 5-11).
        secondary_ratio: Option<f64>,
    },
}

impl Downlink {
    /// The downlink the paper pairs with each method.
    pub fn for_method(method: Method, secondary: Option<f64>) -> Self {
        match method {
            Method::Msgd => panic!("MSGD trains single-node; no server involved"),
            Method::Asgd => Downlink::DenseModel,
            _ => Downlink::ModelDifference { secondary_ratio: secondary },
        }
    }
}

/// Everything a [`TrainConfig`] decides about a server. [`Self::from_config`]
/// is the one place those config fields are read; every server face — the
/// single-lock server, each stripe of the sharded server, each span server
/// of a cluster, and a span restarted from its checkpoint — is configured
/// through [`Self::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerTunables {
    /// What the server sends back (the method's pairing, plus secondary
    /// compression when configured).
    pub downlink: Downlink,
    /// Gap-aware staleness damping.
    pub damping: StalenessDamping,
    /// Update-log budget in logged indices; `0` keeps the automatic default
    /// of one index per owned coordinate. In [`Self::from_config`] this is
    /// the whole model's budget, in [`MdtServer::tunables`] that server's own.
    pub log_capacity: usize,
}

impl ServerTunables {
    /// The server tunables `cfg` selects.
    pub fn from_config(cfg: &TrainConfig) -> Self {
        let secondary = cfg.secondary_compression.then_some(cfg.sparsity_ratio);
        ServerTunables {
            downlink: Downlink::for_method(cfg.method, secondary),
            damping: StalenessDamping { alpha: cfg.staleness_damping },
            log_capacity: cfg.server_log_nnz,
        }
    }

    /// Builds the server that owns span `k` of `spans` over the full model
    /// `(theta0, partition)` — the whole model when `spans` is the one-span
    /// layout `partition.shard_spans(1)`.
    pub fn build(
        &self,
        theta0: &[f32],
        partition: &Partition,
        workers: usize,
        spans: &[ShardSpan],
        k: usize,
    ) -> MdtServer {
        let (slice, sub) = (theta0[spans[k].range()].to_vec(), partition.subpartition(&spans[k]));
        let mut server = MdtServer::new(slice, sub, workers, self.downlink);
        self.apply(&mut server, spans, k);
        server
    }

    /// Rebuilds span `k`'s server from its checkpoint with the same
    /// tunables [`Self::build`] gave it ([`MdtServer::restore`] alone
    /// resets them to defaults).
    pub fn restore(
        &self,
        ckpt: ServerCheckpoint,
        partition: &Partition,
        spans: &[ShardSpan],
        k: usize,
    ) -> MdtServer {
        let mut server = MdtServer::restore(ckpt, partition.subpartition(&spans[k]), self.downlink);
        self.apply(&mut server, spans, k);
        server
    }

    /// Configures the server that owns span `k` of `spans` (a one-span list
    /// for an unsharded server). The log budget is this span's
    /// [`apportion_log_capacity`] share, so the shares of any layout sum to
    /// the configured total.
    pub fn apply(&self, server: &mut MdtServer, spans: &[ShardSpan], k: usize) {
        server.set_damping(self.damping);
        if self.log_capacity > 0 {
            server.set_log_capacity(apportion_log_capacity(self.log_capacity, spans)[k]);
        }
    }
}

/// Largest-remainder apportionment of a total update-log budget over
/// `spans`: each span's quota `capacity·len/dim` is floored, then the
/// rounding shortfall goes one slot at a time to the largest fractional
/// remainders (ties broken by lower span index), so the shares sum to
/// **exactly** `capacity` — naive per-span flooring can drift by up to
/// `spans − 1` slots, which would make a sharded or clustered memory
/// budget incomparable to the single server's.
///
/// One deviation remains: a span cannot be handed an explicit `0` (that
/// means "automatic default" downstream), so spans whose quota rounds to
/// zero are raised to one slot, paid for by shaving the largest
/// allocations. Only when `capacity < spans.len()` is that debt unpayable
/// and the sum becomes `spans.len()` instead of `capacity`.
pub fn apportion_log_capacity(capacity: usize, spans: &[ShardSpan]) -> Vec<usize> {
    let dim = spans.iter().map(|s| s.len).sum::<usize>().max(1);
    let mut caps: Vec<usize> = spans.iter().map(|s| capacity * s.len / dim).collect();
    // Σ floor(c·len_i/dim) undershoots `capacity` by at most n−1, so one
    // pass over the remainder-sorted order settles the shortfall.
    let shortfall = capacity.saturating_sub(caps.iter().sum());
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(capacity * spans[i].len % dim), i));
    for &i in order.iter().take(shortfall) {
        caps[i] += 1;
    }
    let mut debt = 0usize;
    for c in caps.iter_mut() {
        if *c == 0 {
            *c = 1;
            debt += 1;
        }
    }
    while debt > 0 {
        // Shave the largest allocation (ties to the lower index) without
        // creating a new zero.
        let donor = caps
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 1)
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .map(|(i, _)| i);
        match donor {
            Some(i) => {
                caps[i] -= 1;
                debt -= 1;
            }
            // capacity < spans.len(): every span keeps its single slot.
            None => break,
        }
    }
    caps
}

/// Degenerate-merge guard under secondary compression: the log merge serves
/// a reply only while its candidates — dirty set plus everything logged
/// since the cursor, duplicates included — number at most
/// `dim / MERGE_GUARD_DIV`. Past that the one-pass dense scan is cheaper:
/// the measured crossover sits at 75–100 k candidates of a 1.85 M-parameter
/// model (DESIGN §6 has the table). The dirty-set hysteresis is half of it.
const MERGE_GUARD_DIV: usize = 24;

/// The same guard without secondary compression, where the scan emits every
/// nonzero and so pays per nonzero just as the merge pays per candidate: the
/// merge was measured ahead up to 500 k candidates of 1.85 M (DESIGN §6) and
/// not past that, while a straggler's candidates can reach `dim` with
/// duplicates — merge cost follows log entries, scan cost unique nonzeros.
const MERGE_GUARD_DIV_NO_SECONDARY: usize = 4;

/// The parameter server.
pub struct MdtServer {
    theta0: Vec<f32>,
    /// `M_t`: accumulated updates; global model = `θ_0 + M`.
    m: Vec<f32>,
    /// `v_k`: per-worker accumulated deliveries; worker k's model =
    /// `θ_0 + v_k` (exactly, see module docs).
    v: Vec<Vec<f32>>,
    partition: Partition,
    downlink: Downlink,
    /// Server timestamp `t`: number of updates applied.
    t: u64,
    /// `prev(k)`: timestamp of the last update delivered to worker k.
    prev: Vec<u64>,
    staleness: StalenessStats,
    damping: StalenessDamping,
    /// Coordinates touched by each applied sparse update, bounded.
    log: UpdateLog,
    /// Per-worker dirty set: sorted global coordinates where `M − v_k` was
    /// nonzero as of the worker's cursor. Invariant after every reply to
    /// `k`: `support(M − v_k) ⊆ pending[k] ∪ touched-since-prev[k]`.
    pending: Vec<Vec<u32>>,
    /// Incrementally maintained `θ_0 + M` for the dense-model downlink —
    /// O(nnz) per update instead of an O(dim) clone per reply. `Arc` so a
    /// reply is a refcount bump; `Arc::make_mut` clones only while a
    /// worker still holds the previous snapshot.
    model_cache: Option<Arc<Vec<f32>>>,
    /// The per-segment pass behind reply construction: its pool also
    /// recycles the candidate and dirty-set lists, its kernel runs the
    /// dense merge kernels (diff materialisation, gather, histogram fill),
    /// and its fan-out switch is what [`MdtServer::set_par_segments`] sets.
    driver: SegmentDriver,
    /// Pool holding the zeroed-at-rest bitmap over the coordinate domain,
    /// used to merge candidate runs in O(n) instead of comparison-sorting
    /// them (`dim/8` bytes once warm; nothing for the dense-model
    /// downlink). Returned via `release_unchanged` — the merge restores it
    /// to all-zero, so reuse skips the O(dim/8) re-zero per reply.
    mask_pool: BufferPool<u64>,
    /// Per-worker: is `pending[k]` a trustworthy dirty-set superset? A
    /// degenerate dense fallback that skips tracking clears this; the log
    /// path requires it and the next tracked scan re-establishes it.
    pending_valid: Vec<bool>,
    /// Per-worker: should the next dense fallback under secondary
    /// compression pay the O(nnz) dirty pass to rebuild `pending[k]`?
    /// Density hysteresis (off from the reply that trips the merge guard
    /// until a scan sees at most half the guard's nonzeros, see
    /// [`MdtServer::make_diff_dense`]) keeps the degenerate regime — where
    /// the guard would reject the rebuilt set anyway — at pure dense-scan
    /// cost. Small models (`dim < PAR_THRESHOLD`) always track.
    retrack: Vec<bool>,
    /// `guesses[k][segment]`: the secondary-compression boundary worker
    /// `k`'s last dense-scan reply found on that segment, which lets its
    /// next one select in one pass. Cost state only: never checkpointed,
    /// sized on first use, cleared with the worker's `v_k` on a resync.
    guesses: Vec<Vec<Guess>>,
}

impl MdtServer {
    /// Creates a server for `workers` workers from the initial model.
    pub fn new(theta0: Vec<f32>, partition: Partition, workers: usize, downlink: Downlink) -> Self {
        partition.check_covers(&theta0);
        let dim = theta0.len();
        let (v, pending, log, model_cache) = match downlink {
            // Dense-model downlink needs no per-worker tracking.
            Downlink::DenseModel => {
                (Vec::new(), Vec::new(), UpdateLog::new(0), Some(Arc::new(theta0.clone())))
            }
            Downlink::ModelDifference { .. } => (
                vec![vec![0.0f32; dim]; workers],
                vec![Vec::new(); workers],
                // Default budget: one logged index per model coordinate, so
                // the log never outweighs a u32 model replica and a full
                // merge never costs more than the dense scan it replaces.
                UpdateLog::new(dim),
                None,
            ),
        };
        MdtServer {
            theta0,
            m: vec![0.0; dim],
            v,
            partition,
            downlink,
            t: 0,
            prev: vec![0; workers],
            staleness: StalenessStats::new(),
            damping: StalenessDamping::off(),
            log,
            pending,
            model_cache,
            driver: SegmentDriver::new(),
            // One bitmap: the candidate merge runs at most once per reply,
            // under `&mut self`.
            mask_pool: BufferPool::new(1),
            pending_valid: vec![true; workers],
            retrack: vec![true; workers],
            guesses: vec![Vec::new(); workers],
        }
    }

    /// Enables gap-aware staleness damping (see [`StalenessDamping`]).
    pub fn set_damping(&mut self, damping: StalenessDamping) {
        self.damping = damping;
    }

    /// Selects the compute backend for the dense merge kernels (default:
    /// [`Kernel::runtime`], which honours `DGS_KERNEL`). Safe to switch at
    /// any time — backends are bitwise identical, so this changes cost
    /// only, never the wire bytes.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.driver.kernel = kernel;
    }

    /// The active compute backend.
    pub fn kernel(&self) -> Kernel {
        self.driver.kernel
    }

    /// `(one_pass, fallbacks)` over this server's guess-eligible selections
    /// so far, all workers together.
    #[cfg(test)]
    pub(crate) fn select_tally(&self) -> (u64, u64) {
        (self.driver.one_pass, self.driver.fallbacks)
    }

    /// The tunables this server currently runs with (`log_capacity` is its
    /// own budget) — what a restarted server must report unchanged.
    pub fn tunables(&self) -> ServerTunables {
        ServerTunables {
            downlink: self.downlink,
            damping: self.damping,
            log_capacity: self.log.capacity(),
        }
    }

    /// Enables/disables the per-segment rayon fan-out inside reply
    /// construction. On by default; [`crate::shard::ShardedMdtServer`]
    /// turns it off for its shards, whose lock holders must stay off rayon.
    pub fn set_par_segments(&mut self, on: bool) {
        self.driver.par = on;
    }

    /// Replaces the update-log budget, counted in total logged indices
    /// (`0` restores the automatic default of one index per coordinate).
    /// Safe at any time: the new log starts empty with everything up to
    /// the current timestamp declared lost, which the intact dirty sets
    /// make sound (workers behind the current timestamp take one dense
    /// fallback).
    pub fn set_log_capacity(&mut self, capacity: usize) {
        let cap = if capacity == 0 { self.dim() } else { capacity };
        let mut log = UpdateLog::new(cap);
        log.forget_through(self.t);
        self.log = log;
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.m.len()
    }

    /// The initial model `θ_0`. Cross-process training fingerprints these
    /// bytes in the handshake so a worker built from a different seed or
    /// architecture is rejected before it can corrupt the run.
    pub fn theta0(&self) -> &[f32] {
        &self.theta0
    }

    /// Recovery path for a worker whose reply was lost in transit (the
    /// dgs-net reconnect protocol): returns the full current model and
    /// resets the worker's tracking state so the MDT invariant
    /// `θ_worker = θ_0 + v_k` holds again. Specifically `v_k ← M` (the
    /// worker will load exactly `θ_0 + M`), the dirty set becomes empty
    /// (M − v_k is identically zero), and the worker's cursor advances to
    /// now. Subsequent diffs resume the normal O(nnz) path.
    pub fn resync_worker(&mut self, worker: usize) -> DownMsg {
        DownMsg::DenseModel(self.resync_model(worker))
    }

    /// [`Self::resync_worker`] returning the model directly — the
    /// sharded server concatenates per-shard resyncs, and a typed slice
    /// spares it matching on a reply shape this method fixes anyway.
    pub fn resync_model(&mut self, worker: usize) -> Arc<Vec<f32>> {
        self.prev[worker] = self.t;
        match self.downlink {
            Downlink::DenseModel => match &self.model_cache {
                Some(cache) => Arc::clone(cache),
                // The dense downlink maintains the cache from
                // construction; should it ever be absent, rebuilding
                // θ0 + M is still the correct model.
                None => Arc::new(self.current_model()),
            },
            Downlink::ModelDifference { .. } => {
                self.v[worker].copy_from_slice(&self.m);
                self.guesses[worker].clear();
                self.driver.pool.release(std::mem::take(&mut self.pending[worker]));
                self.pending_valid[worker] = true;
                self.retrack[worker] = true;
                Arc::new(self.current_model())
            }
        }
    }

    /// Current server timestamp `t` (updates applied so far).
    pub fn timestamp(&self) -> u64 {
        self.t
    }

    /// The current global model `θ_t = θ_0 + M_t`.
    pub fn current_model(&self) -> Vec<f32> {
        match &self.model_cache {
            // Dense downlink: the incrementally maintained model, so evals
            // see exactly what replies ship.
            Some(cache) => cache.as_ref().clone(),
            None => self.theta0.iter().zip(self.m.iter()).map(|(&a, &b)| a + b).collect(),
        }
    }

    /// The update accumulator `M_t` (for tests).
    pub fn m(&self) -> &[f32] {
        &self.m
    }

    /// Worker `k`'s delivery accumulator `v_k` (for tests). Panics for the
    /// dense-model downlink, which keeps none.
    pub fn v(&self, worker: usize) -> &[f32] {
        &self.v[worker]
    }

    /// Observed staleness statistics.
    pub fn staleness(&self) -> &StalenessStats {
        &self.staleness
    }

    /// Processes one worker update and produces the reply — the body of the
    /// paper's Alg. 2 receive loop.
    pub fn handle_update(&mut self, worker: usize, up: &UpMsg) -> DownMsg {
        let staleness = self.t - self.prev[worker];
        let scale = self.damping.scale(staleness);
        let reply = self.handle_scaled(worker, up.payload.view(), scale);
        self.staleness.record(staleness);
        reply
    }

    /// Scale-explicit core of [`MdtServer::handle_update`]: applies one
    /// already-damped update and builds the reply. Exposed for the sharded
    /// server, whose front door computes the damping scale once from the
    /// *global* clock and then drives every shard with it — a shard's own
    /// clock only counts updates, and since every update visits every shard
    /// (possibly with empty chunks), shard clocks stay equal to the global
    /// clock under sequential replay. Does not record staleness; the caller
    /// owns that statistic.
    pub fn handle_scaled(
        &mut self,
        worker: usize,
        payload: UpPayloadView<'_>,
        scale: f32,
    ) -> DownMsg {
        let since = self.prev[worker];
        let track_log = matches!(self.downlink, Downlink::ModelDifference { .. });
        let t_next = self.t + 1;
        // M_{t+1} = M_t − scale·g (Eq. 1; scale = 1 without damping).
        // Updates arrive lr-scaled.
        match payload {
            UpPayloadView::Dense(g) => self.apply_dense(g, scale, track_log, t_next),
            UpPayloadView::Sparse(chunks) => self.apply_sparse(chunks, scale, track_log, t_next),
            UpPayloadView::TernarySparse(chunks) => {
                // Per-chunk dequantization is exactly what
                // `TernaryUpdate::dequantize` does per segment, so shard
                // slices decode bitwise identically to the whole payload.
                let dequant: Vec<SparseVec> = chunks.iter().map(|c| c.dequantize()).collect();
                self.apply_sparse(&dequant, scale, track_log, t_next)
            }
        }
        self.t = t_next;
        self.prev[worker] = self.t;

        match self.downlink {
            // The cache is maintained whenever the downlink is dense;
            // rebuilding from `θ_0 + M` keeps this total if it is ever
            // absent (same fallback as `resync_model`).
            Downlink::DenseModel => match &self.model_cache {
                Some(cache) => DownMsg::DenseModel(Arc::clone(cache)),
                None => DownMsg::DenseModel(Arc::new(self.current_model())),
            },
            Downlink::ModelDifference { secondary_ratio } => {
                DownMsg::SparseDiff(self.make_diff(worker, since, secondary_ratio))
            }
        }
    }

    /// Applies a dense update to `M` and, when the downlink is dense, to the
    /// cached model in the same pass: the update is read once, and each
    /// element sees the expression it would in a pass of its own.
    fn apply_dense(&mut self, g: &[f32], scale: f32, track_log: bool, t_next: u64) {
        // Our own workers always send exactly `dim` values; a mis-sized
        // update can only come from a non-conforming peer, and a
        // connection thread must not panic on its behalf. Apply nothing
        // (the clock still ticks, so the peer's sequence stays coherent) —
        // debug builds assert.
        debug_assert_eq!(g.len(), self.m.len(), "dense update size");
        if g.len() != self.m.len() {
            return;
        }
        match &mut self.model_cache {
            Some(cache) => {
                let cache = Arc::make_mut(cache).iter_mut();
                for ((m, c), &gi) in self.m.iter_mut().zip(cache).zip(g) {
                    *m -= scale * gi;
                    *c -= scale * gi;
                }
            }
            None => {
                for (m, &gi) in self.m.iter_mut().zip(g) {
                    *m -= scale * gi;
                }
            }
        }
        if track_log {
            // A dense update touches everything; cursors older than it
            // cannot be log-served.
            self.log.mark_dense(t_next);
        }
    }

    /// Applies per-segment sparse chunks to `M` (and the dense-model cache
    /// when one is kept) and logs the touched coordinates.
    fn apply_sparse(&mut self, chunks: &[SparseVec], scale: f32, track_log: bool, t_next: u64) {
        // Same containment as the dense arm: a chunk list cut to some
        // other partition is a peer bug, answered with a no-op apply
        // rather than a panicked connection thread.
        debug_assert_eq!(chunks.len(), self.partition.num_segments(), "update/partition mismatch");
        if chunks.len() != self.partition.num_segments() {
            return;
        }
        for (i, chunk) in chunks.iter().enumerate() {
            scatter_add(self.partition.slice_mut(&mut self.m, i), &chunk.idx, &chunk.val, -scale);
        }
        if let Some(cache) = &mut self.model_cache {
            let cache: &mut Vec<f32> = Arc::make_mut(cache);
            for (i, chunk) in chunks.iter().enumerate() {
                scatter_add(self.partition.slice_mut(cache, i), &chunk.idx, &chunk.val, -scale);
            }
        }
        if track_log {
            let mut touched = self.log.begin();
            for (chunk, seg) in chunks.iter().zip(self.partition.segments()) {
                let off = seg.offset as u32;
                touched.extend(chunk.idx.iter().map(|&i| off + i));
            }
            self.log.record(t_next, touched);
        }
    }

    /// Builds `G = M − v_k`, optionally secondary-compressed, and advances
    /// `v_k` by exactly what is sent. `since` is the worker's cursor at the
    /// time its update arrived. The log merge serves a cursor the log still
    /// covers; everything else takes the dense scan.
    fn make_diff(
        &mut self,
        worker: usize,
        since: u64,
        secondary_ratio: Option<f64>,
    ) -> SparseUpdate {
        if self.pending_valid[worker] && self.log.covers(since) {
            // Degenerate-merge guard: under secondary compression the
            // undelivered dirty set grows toward `dim`, and past
            // `dim / MERGE_GUARD_DIV` candidates the merge costs more than
            // the one-pass scan. Both paths emit bitwise-identical
            // payloads, so take the cheaper one — sized from lengths alone,
            // before copying a single candidate.
            let div = match secondary_ratio {
                Some(_) => MERGE_GUARD_DIV,
                None => MERGE_GUARD_DIV_NO_SECONDARY,
            };
            let candidates = self.pending[worker].len() + self.log.count_since(since);
            if candidates <= self.m.len() / div {
                return self.make_diff_log(worker, since, secondary_ratio);
            }
            // The dirty set the scan could rebuild would fail this guard
            // again at the next reply: do not pay for it. (Without secondary
            // compression the scan tracks for free and ignores this.)
            self.retrack[worker] = false;
        }
        self.make_diff_dense(worker, secondary_ratio)
    }

    /// O(nnz since last pull): visit only `pending[k] ∪ touched(since..t]`.
    /// By the dirty-set invariant that set is a superset of
    /// `support(M − v_k)`, and every emitted value is the same
    /// `m[i] − v[i]` subtraction the dense scan performs, so the payload is
    /// bitwise identical to [`MdtServer::make_diff_dense`]'s.
    fn make_diff_log(
        &mut self,
        worker: usize,
        since: u64,
        secondary_ratio: Option<f64>,
    ) -> SparseUpdate {
        let mut cand = self.driver.pool.acquire();
        cand.extend_from_slice(&self.pending[worker]);
        self.log.collect_since(since, &mut cand);
        // Candidates are a concatenation of sorted runs (dirty set + log
        // entries); past a few thousand entries the domain bitmap merges
        // them ~10× faster than a comparison sort (and ~2× faster than a
        // K-way merge of the runs — the min-of-K head scan is too branchy).
        if cand.len() >= 2048 {
            sort_dedup_pooled(&mut cand, self.m.len(), &mut self.mask_pool);
        } else {
            sort_dedup(&mut cand);
        }

        // Cut the candidates at the segment boundaries and map them global
        // → segment-local in place (no per-segment allocation).
        let segments = self.partition.segments();
        let work = cand.len();
        let mut rest: &mut [u32] = &mut cand;
        let c_segs = segments.iter().map(move |seg| {
            let cut = rest.partition_point(|&g| (g as usize) < seg.offset + seg.len);
            let (c_seg, tail) = std::mem::take(&mut rest).split_at_mut(cut);
            rest = tail;
            for g in c_seg.iter_mut() {
                *g -= seg.offset as u32;
            }
            &*c_seg
        });

        let m = &self.m;
        let job = |seg: &Segment, v_seg: &mut [f32], c_seg: &[u32], sel: &mut SelectScratch| {
            let m_seg = &m[seg.range()];
            match secondary_ratio {
                // No Top-k: everything goes out — one fused pass.
                None => {
                    let mut dirty = Vec::new();
                    let (idx, val) = send_all_at(m_seg, v_seg, c_seg, &mut dirty);
                    (SparseVec { idx, val }, dirty)
                }
                Some(r) => {
                    let (idx, val) = diff_pairs_at(m_seg, v_seg, c_seg);
                    send_segment(m_seg, v_seg, idx, val, k_for_ratio(m_seg.len(), r), sel)
                }
            }
        };
        let results = self.driver.run(segments, &mut self.v[worker], work, c_segs, job);
        self.driver.pool.release(cand);
        self.finish_reply(worker, results)
    }

    /// O(dim) scan of `M` and `v_k` — the fallback that re-establishes the
    /// dirty-set invariant when a straggler's cursor fell off the log, and
    /// the cheaper path when the merge would be degenerate.
    ///
    /// Tracking policy: the no-secondary pass always rebuilds `pending[k]`
    /// (the residue check is fused into the scan and effectively free), but
    /// under secondary compression the dirty pass is a separate O(nnz) walk,
    /// so it is skipped while the worker's diff density sits in the
    /// degenerate regime where the merge guard would reject the rebuilt set
    /// anyway (`retrack` hysteresis: tracking resumes once nnz drops to half
    /// the guard, `dim / (2·MERGE_GUARD_DIV)`). Small models always track —
    /// the absolute cost is negligible and it keeps the log path live for
    /// small-dimension tests.
    fn make_diff_dense(&mut self, worker: usize, secondary_ratio: Option<f64>) -> SparseUpdate {
        let small = self.m.len() < PAR_THRESHOLD;
        let track = secondary_ratio.is_none() || small || self.retrack[worker];
        let segments = self.partition.segments();
        let m = &self.m;
        let job = |seg: &Segment, v_seg: &mut [f32], guess: &mut Guess, sel: &mut SelectScratch| {
            let m_seg = &m[seg.range()];
            let mut dirty = Vec::new();
            let (idx, val, nnz) = match secondary_ratio {
                None => {
                    let (idx, val) = send_all_dense_with(sel.kernel(), m_seg, v_seg, &mut dirty);
                    let nnz = idx.len();
                    (idx, val, nnz)
                }
                // Dense-diff Top-k: selecting on the dense difference
                // skips the (index, value) pair vectors that the
                // candidate-restricted path needs — under secondary
                // compression the diff here is nearly dense, and pair
                // materialisation would dominate. `guess` is what this
                // worker's last dense reply learned about the segment.
                Some(r) => {
                    let k = k_for_ratio(m_seg.len(), r);
                    send_topk_dense(m_seg, v_seg, k, track, &mut dirty, sel, guess)
                }
            };
            ((SparseVec { idx, val }, dirty), nnz)
        };
        let guesses = carried(&mut self.guesses[worker], segments);
        let results = self.driver.run(segments, &mut self.v[worker], m.len(), guesses, job);
        let nnz_total: usize = results.iter().map(|(_, nnz)| nnz).sum();
        self.pending_valid[worker] = track;
        // Hysteresis: resume paying the dirty pass once the observed
        // density clears the guard threshold with margin.
        self.retrack[worker] = small || nnz_total <= self.m.len() / (2 * MERGE_GUARD_DIV);
        // An untracked scan leaves an empty dirty set: the stale one would
        // only mislead a future merge.
        self.finish_reply(worker, results.into_iter().map(|(sent, _)| sent))
    }

    /// Reassembles one reply from its per-segment parts — the chunk to send
    /// and the segment-local coordinates still dirty after the send — into
    /// the chunk list in segment order, and installs the dirty set, in
    /// global coordinates, as `pending[worker]`.
    fn finish_reply(
        &mut self,
        worker: usize,
        parts: impl IntoIterator<Item = (SparseVec, Vec<u32>)>,
    ) -> SparseUpdate {
        let segments = self.partition.segments();
        let mut chunks = Vec::with_capacity(segments.len());
        let mut pending = Vec::new();
        for (seg, (chunk, mut dirty)) in segments.iter().zip(parts) {
            for i in &mut dirty {
                *i += seg.offset as u32;
            }
            pending.extend_from_slice(&dirty);
            chunks.push(chunk);
        }
        self.driver.pool.release(std::mem::replace(&mut self.pending[worker], pending));
        SparseUpdate { chunks }
    }

    /// §5.6.2 memory accounting: bytes of per-worker tracking state
    /// (`Σ_k |v_k|`) plus the accumulator `M`, and the hot-path additions
    /// (update log, dirty sets, dense-model cache).
    pub fn memory_report(&self) -> ServerMemoryReport {
        let f = std::mem::size_of::<f32>();
        let u = std::mem::size_of::<u32>();
        ServerMemoryReport {
            model_bytes: self.m.len() * f,
            tracking_bytes: self.v.iter().map(|v| v.len() * f).sum(),
            log_bytes: self.log.bytes() + self.mask_pool.retained_bytes(),
            pending_bytes: self.pending.iter().map(|p| p.capacity() * u).sum(),
            cache_bytes: self.model_cache.as_ref().map_or(0, |c| c.len() * f),
            workers: self.prev.len(),
        }
    }
}

/// Applies secondary Top-k to the nonzero diff pairs of one segment,
/// advances `v_seg` by exactly what is sent, and recomputes the segment's
/// dirty set: held-back pairs keep their nonzero difference and stay dirty
/// without another memory pass, while sent coordinates are rescanned
/// because f32 rounding can leave a one-ulp remainder.
fn send_segment(
    m_seg: &[f32],
    v_seg: &mut [f32],
    all_idx: Vec<u32>,
    all_val: Vec<f32>,
    k: usize,
    sel: &mut SelectScratch,
) -> (SparseVec, Vec<u32>) {
    let mut dirty = Vec::new();
    // Secondary compression bites only when the diff is denser than the
    // budget (Alg. 2 lines 5-11); at or under budget everything goes.
    let sv = if all_idx.len() > k {
        let (idx, val) = radix_topk_pairs(&all_idx, &all_val, k, sel);
        scatter_track_dirty(m_seg, v_seg, &idx, &val, &all_idx, &mut dirty);
        SparseVec { idx, val }
    } else {
        scatter_track_dirty(m_seg, v_seg, &all_idx, &all_val, &all_idx, &mut dirty);
        SparseVec { idx: all_idx, val: all_val }
    };
    (sv, dirty)
}

/// A serialisable snapshot of the server's entire state, for
/// checkpoint/restore (fault tolerance a production PS deployment needs;
/// the paper's algorithms are otherwise memoryless beyond `M` and `v_k`).
#[derive(Debug, Clone)]
pub struct ServerCheckpoint {
    /// Initial model `θ_0`.
    pub theta0: Vec<f32>,
    /// Update accumulator `M_t`.
    pub m: Vec<f32>,
    /// Per-worker delivery accumulators `v_k`.
    pub v: Vec<Vec<f32>>,
    /// Server timestamp `t`.
    pub t: u64,
    /// `prev(k)` timestamps.
    pub prev: Vec<u64>,
}

dgs_tensor::json_struct!(ServerCheckpoint { theta0, m, v, t, prev });

impl MdtServer {
    /// Captures the full server state (everything needed to resume — the
    /// update log and dirty sets are rebuildable caches and stay out of
    /// the format).
    pub fn checkpoint(&self) -> ServerCheckpoint {
        ServerCheckpoint {
            theta0: self.theta0.clone(),
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
            prev: self.prev.clone(),
        }
    }

    /// Rebuilds a server from a checkpoint. The downlink mode and
    /// partition must match the original configuration; staleness
    /// statistics restart from empty (they are diagnostics, not state).
    ///
    /// The update log restarts empty with everything up to the snapshot
    /// timestamp declared lost; the dirty sets are recomputed exactly from
    /// `M − v_k` (one O(W·dim) scan, cold path), so the restored server's
    /// replies stay bitwise identical to the uninterrupted run.
    pub fn restore(ckpt: ServerCheckpoint, partition: Partition, downlink: Downlink) -> Self {
        partition.check_covers(&ckpt.theta0);
        assert_eq!(ckpt.m.len(), ckpt.theta0.len(), "checkpoint M size");
        if let Downlink::ModelDifference { .. } = downlink {
            assert_eq!(ckpt.v.len(), ckpt.prev.len(), "checkpoint v/prev size");
        }
        let dim = ckpt.theta0.len();
        let model_cache = match downlink {
            Downlink::DenseModel => Some(Arc::new(
                ckpt.theta0.iter().zip(ckpt.m.iter()).map(|(&a, &b)| a + b).collect::<Vec<f32>>(),
            )),
            Downlink::ModelDifference { .. } => None,
        };
        let mut log = UpdateLog::new(if model_cache.is_some() { 0 } else { dim });
        log.forget_through(ckpt.t);
        let workers = ckpt.prev.len();
        let all: Vec<u32> = (0..dim as u32).collect();
        let pending = ckpt
            .v
            .iter()
            .map(|vk| {
                let mut p = Vec::new();
                retain_dirty(&ckpt.m, vk, &all, &mut p);
                p
            })
            .collect();
        MdtServer {
            theta0: ckpt.theta0,
            m: ckpt.m,
            v: ckpt.v,
            partition,
            downlink,
            t: ckpt.t,
            prev: ckpt.prev,
            staleness: StalenessStats::new(),
            damping: StalenessDamping::off(),
            log,
            pending,
            model_cache,
            driver: SegmentDriver::new(),
            mask_pool: BufferPool::new(1),
            pending_valid: vec![true; workers],
            retrack: vec![true; workers],
            guesses: vec![Vec::new(); workers],
        }
    }
}

/// Server-side memory breakdown (paper §5.6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerMemoryReport {
    /// Bytes of the update accumulator `M` (≈ one model).
    pub model_bytes: usize,
    /// Bytes of all `v_k` vectors (= workers × model for MDT, 0 for ASGD).
    pub tracking_bytes: usize,
    /// Bytes retained by the applied-update log (≤ capacity × 4 plus
    /// per-entry headers; capacity defaults to one index per coordinate)
    /// and its pooled candidate-merge bitmap (`dim/8` once warm).
    pub log_bytes: usize,
    /// Bytes of the per-worker dirty sets (bounded by the live diff
    /// supports, typically ≪ one model).
    pub pending_bytes: usize,
    /// Bytes of the dense-model reply cache (one model for ASGD, 0 for
    /// MDT).
    pub cache_bytes: usize,
    /// Number of workers tracked.
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::UpPayload;

    fn part2() -> Partition {
        Partition::from_layer_sizes([("a", 3), ("b", 3)])
    }

    fn sparse_up(part: &Partition, flat: &[f32]) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate::from_nonzero(flat, part)),
            train_loss: 0.0,
        }
    }

    #[test]
    fn dense_downlink_ships_model() {
        let theta0 = vec![1.0f32; 6];
        let mut s = MdtServer::new(theta0, part2(), 2, Downlink::DenseModel);
        let up = UpMsg { payload: UpPayload::Dense(vec![0.5; 6]), train_loss: 0.0 };
        let reply = s.handle_update(0, &up);
        match reply {
            DownMsg::DenseModel(model) => {
                assert!(model.iter().all(|&x| (x - 0.5).abs() < 1e-6));
            }
            _ => panic!("expected dense model"),
        }
        assert_eq!(s.timestamp(), 1);
    }

    #[test]
    fn dense_downlink_cache_tracks_current_model() {
        // The pooled dense reply must stay in lockstep with the reference
        // θ_0 + M across sparse and dense updates.
        let part = part2();
        let mut s = MdtServer::new(vec![0.5f32; 6], part.clone(), 2, Downlink::DenseModel);
        for step in 0..6 {
            let mut g = vec![0.0f32; 6];
            g[step % 6] = 0.25 * (step + 1) as f32;
            let reply = s.handle_update(step % 2, &sparse_up(&part, &g));
            let reference: Vec<f32> =
                s.theta0.iter().zip(s.m().iter()).map(|(&a, &b)| a + b).collect();
            match reply {
                DownMsg::DenseModel(model) => {
                    for (i, (&c, &r)) in model.iter().zip(reference.iter()).enumerate() {
                        assert!((c - r).abs() < 1e-6, "coord {i}: cache {c} vs ref {r}");
                    }
                }
                _ => panic!("expected dense model"),
            }
            assert_eq!(s.current_model(), reply_model(&s));
        }
        // Dense updates fold into `M` and the cache in one pass; the result
        // is bit for bit what a pass over each would give.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let (mut m_ref, mut cache_ref) = (s.m().to_vec(), reply_model(&s));
        for (step, scale) in [(0usize, 0.7f32), (1, 1.0), (2, -0.3)].into_iter() {
            let g: Vec<f32> =
                (0..6).map(|i| (0.1 + i as f32) * 1e-3 * (step as f32 - 1.5)).collect();
            for (m, &gi) in m_ref.iter_mut().zip(&g) {
                *m -= scale * gi;
            }
            for (c, &gi) in cache_ref.iter_mut().zip(&g) {
                *c -= scale * gi;
            }
            let payload = UpPayload::Dense(g);
            match s.handle_scaled(step % 2, payload.view(), scale) {
                DownMsg::DenseModel(model) => assert_eq!(bits(&model), bits(&cache_ref)),
                _ => panic!("expected dense model"),
            }
            assert_eq!(bits(s.m()), bits(&m_ref));
        }
    }

    fn reply_model(s: &MdtServer) -> Vec<f32> {
        s.model_cache.as_ref().expect("dense cache").as_ref().clone()
    }

    #[test]
    fn mdt_equals_asgd_without_secondary() {
        // Invariant 1 / Eq. 5: after receiving G, a worker's model (θ0 +
        // applied Gs) equals the server's current model.
        let part = part2();
        let theta0 = vec![2.0f32, -1.0, 0.0, 3.0, 0.5, -0.5];
        let mut s = MdtServer::new(
            theta0.clone(),
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        let mut worker_model = theta0.clone();
        // Interleave updates from two workers; track worker 0's model.
        for step in 0..10 {
            // Worker 1 pushes an update we never see the reply of (stale!).
            let mut other = vec![0.0f32; 6];
            other[step % 6] = 0.3;
            s.handle_update(1, &sparse_up(&part, &other));
            // Worker 0 pushes and applies its reply.
            let mut mine = vec![0.0f32; 6];
            mine[(step * 2) % 6] = -0.2;
            let reply = s.handle_update(0, &sparse_up(&part, &mine));
            if let DownMsg::SparseDiff(g) = reply {
                g.apply_add(&mut worker_model, &part, 1.0);
            }
            // Exactness: worker model == server model after each receive.
            let server_model = s.current_model();
            for i in 0..6 {
                assert!(
                    (worker_model[i] - server_model[i]).abs() < 1e-5,
                    "step {step} coord {i}: worker {} vs server {}",
                    worker_model[i],
                    server_model[i]
                );
            }
            // v_0 tracks worker model − θ0 (same additions, so any
            // discrepancy is only the float error of the θ0 subtraction).
            for i in 0..6 {
                assert!(
                    (s.v(0)[i] - (worker_model[i] - theta0[i])).abs() < 1e-5,
                    "v tracking broken at {i}"
                );
            }
        }
        assert_eq!(s.timestamp(), 20);
    }

    #[test]
    fn v_bookkeeping_without_secondary_lands_on_m() {
        // Invariant 2: v_k == M after every non-secondary send.
        let part = part2();
        let mut s = MdtServer::new(
            vec![0.0; 6],
            part.clone(),
            1,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        for step in 0..5 {
            let mut g = vec![0.0f32; 6];
            g[step % 6] = 1.0 + step as f32;
            s.handle_update(0, &sparse_up(&part, &g));
            for i in 0..6 {
                assert!((s.v(0)[i] - s.m()[i]).abs() < 1e-6, "v and M diverge at {i}");
            }
        }
    }

    #[test]
    fn secondary_compression_bounds_reply_size() {
        let part = Partition::single(100);
        let mut s = MdtServer::new(
            vec![0.0; 100],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: Some(0.05) },
        );
        // Worker 1 floods the model with many updates.
        for step in 0..30 {
            let mut g = vec![0.0f32; 100];
            for j in 0..10 {
                g[(step * 7 + j * 3) % 100] = 0.1 * (j + 1) as f32;
            }
            s.handle_update(1, &sparse_up(&part, &g));
        }
        // Worker 0's next reply must carry at most k = 5 values even though
        // M − v_0 has far more nonzeros.
        let reply = s.handle_update(0, &sparse_up(&part, &[0.0; 100]));
        match reply {
            DownMsg::SparseDiff(g) => assert!(g.nnz() <= 5, "nnz {}", g.nnz()),
            _ => panic!(),
        }
    }

    #[test]
    fn secondary_compression_residual_eventually_delivered() {
        // The held-back difference is implicitly accumulated and keeps
        // flowing: after enough quiet rounds the worker catches up with M.
        let part = Partition::single(20);
        let mut s = MdtServer::new(
            vec![0.0; 20],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: Some(0.1) }, // k=2
        );
        let mut big = vec![0.0f32; 20];
        for (i, b) in big.iter_mut().enumerate() {
            *b = (i + 1) as f32;
        }
        s.handle_update(1, &sparse_up(&part, &big));
        // Worker 0 receives k=2 coords per round; after 10 quiet rounds the
        // whole difference must have been delivered.
        let mut worker_model = vec![0.0f32; 20];
        for _ in 0..10 {
            let reply = s.handle_update(0, &sparse_up(&part, &[0.0; 20]));
            if let DownMsg::SparseDiff(g) = reply {
                g.apply_add(&mut worker_model, &part, 1.0);
            }
        }
        let server_model = s.current_model();
        for i in 0..20 {
            assert!(
                (worker_model[i] - server_model[i]).abs() < 1e-5,
                "coord {i} not caught up: {} vs {}",
                worker_model[i],
                server_model[i]
            );
        }
    }

    /// Drives two servers — one log-served, one whose one-index log budget
    /// never covers a cursor of this traffic, so every reply takes the
    /// dense scan — through the same update schedule and asserts every
    /// reply is bitwise identical on the wire.
    fn assert_log_merge_equals_dense_scan(
        secondary_ratio: Option<f64>,
        log_capacity: Option<usize>,
        schedule: impl Iterator<Item = usize>,
    ) {
        let part = Partition::from_layer_sizes([("a", 13), ("b", 7), ("c", 20)]);
        let dim = 40;
        let theta0 = vec![0.0f32; dim];
        let downlink = Downlink::ModelDifference { secondary_ratio };
        let mut log_srv = MdtServer::new(theta0.clone(), part.clone(), 3, downlink);
        if let Some(cap) = log_capacity {
            log_srv.set_log_capacity(cap);
        }
        let mut dense_srv = MdtServer::new(theta0, part.clone(), 3, downlink);
        dense_srv.set_log_capacity(1);
        for (step, w) in schedule.enumerate() {
            let mut g = vec![0.0f32; dim];
            for j in 0..4 {
                let i = (step * 11 + j * 7 + w) % dim;
                g[i] = ((step * 31 + j * 13 + w) as f32 * 0.37).sin();
            }
            let up = sparse_up(&part, &g);
            let ra = log_srv.handle_update(w, &up);
            let rb = dense_srv.handle_update(w, &up);
            match (ra, rb) {
                (DownMsg::SparseDiff(da), DownMsg::SparseDiff(db)) => {
                    assert_eq!(
                        da.encode(),
                        db.encode(),
                        "step {step} worker {w}: wire payloads diverge"
                    );
                }
                _ => panic!("expected sparse diffs"),
            }
        }
        assert_eq!(log_srv.m(), dense_srv.m(), "M accumulators diverge");
        for w in 0..3 {
            assert_eq!(log_srv.v(w), dense_srv.v(w), "v_{w} diverges");
        }
    }

    #[test]
    fn log_budgets_and_kernels_bitwise_equal_on_the_wire() {
        // Four servers spanning {log merge, dense scan} × {Scalar, Simd}
        // through identical secondary-compressed traffic: every reply must
        // be byte-identical regardless of the path or compute backend.
        let part = Partition::from_layer_sizes([("a", 13), ("b", 7), ("c", 20)]);
        let dim = 40;
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.1) };
        let mut servers: Vec<MdtServer> = (0..4)
            .map(|i| {
                let mut s = MdtServer::new(vec![0.0f32; dim], part.clone(), 3, downlink);
                if i % 2 == 1 {
                    s.set_log_capacity(1);
                }
                let kernel = if i < 2 { Kernel::Scalar } else { Kernel::Simd };
                s.set_kernel(kernel);
                assert_eq!(s.kernel(), kernel);
                s
            })
            .collect();
        for step in 0..60 {
            let w = (step * 2) % 3;
            let mut g = vec![0.0f32; dim];
            for j in 0..4 {
                let i = (step * 11 + j * 7 + w) % dim;
                g[i] = ((step * 31 + j * 13 + w) as f32 * 0.37).sin();
            }
            let up = sparse_up(&part, &g);
            let replies: Vec<_> = servers
                .iter_mut()
                .map(|s| match s.handle_update(w, &up) {
                    DownMsg::SparseDiff(d) => d.encode(),
                    _ => panic!("expected sparse diff"),
                })
                .collect();
            for (i, r) in replies.iter().enumerate().skip(1) {
                assert_eq!(r, &replies[0], "step {step}: server {i} payload diverges");
            }
        }
        for s in &servers[1..] {
            assert_eq!(s.m(), servers[0].m(), "M accumulators diverge");
        }
    }

    #[test]
    fn log_merge_and_dense_scan_bitwise_equal_plain() {
        assert_log_merge_equals_dense_scan(None, None, (0..60).map(|s| s % 3));
    }

    #[test]
    fn log_merge_and_dense_scan_bitwise_equal_secondary() {
        assert_log_merge_equals_dense_scan(Some(0.1), None, (0..60).map(|s| (s * 2) % 3));
    }

    #[test]
    fn log_truncation_fallback_stays_bitwise_equal() {
        // A 6-index budget overflows constantly (each update logs 4), so
        // stragglers keep falling off the log and exercising the dense
        // fallback — which must be invisible on the wire.
        let skewed = (0..80).map(|s: usize| if s % 8 == 7 { 2 } else { s % 2 });
        assert_log_merge_equals_dense_scan(Some(0.15), Some(6), skewed);
    }

    #[test]
    fn log_budget_change_midrun_stays_bitwise_equal() {
        let part = Partition::single(30);
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.2) };
        let mut a = MdtServer::new(vec![0.0; 30], part.clone(), 2, downlink);
        let mut b = MdtServer::new(vec![0.0; 30], part.clone(), 2, downlink);
        for step in 0..40 {
            // Server `a` flips between a one-index log (every reply a dense
            // scan) and the default budget every 10 steps; `b` stays on the
            // default. Payloads must never diverge.
            if step % 10 == 0 {
                a.set_log_capacity(if (step / 10) % 2 == 0 { 1 } else { 0 });
            }
            let mut g = vec![0.0f32; 30];
            g[(step * 7) % 30] = 1.0 + step as f32;
            g[(step * 3 + 1) % 30] = -0.5;
            let up = sparse_up(&part, &g);
            let (ra, rb) = (a.handle_update(step % 2, &up), b.handle_update(step % 2, &up));
            match (ra, rb) {
                (DownMsg::SparseDiff(da), DownMsg::SparseDiff(db)) => {
                    assert_eq!(da.encode(), db.encode(), "step {step}");
                }
                _ => panic!("expected sparse diffs"),
            }
        }
    }

    #[test]
    fn degenerate_density_hysteresis_stays_bitwise_equal() {
        // Above PAR_THRESHOLD the density hysteresis is live: flooding the
        // model under tight secondary compression must drive the log-served
        // server into untracked dense scans (pending invalidated, retrack
        // off) without ever changing the wire payload.
        let dim = 2 * PAR_THRESHOLD;
        let part = Partition::single(dim);
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.001) };
        let mut log_srv = MdtServer::new(vec![0.0; dim], part.clone(), 2, downlink);
        let mut dense_srv = MdtServer::new(vec![0.0; dim], part.clone(), 2, downlink);
        dense_srv.set_log_capacity(1);
        for step in 0..24 {
            // Each update touches dim/16 coordinates while the downlink
            // returns only ~dim/1000, so nnz(M − v_k) quickly outgrows the
            // merge guard, and stays above the hysteresis threshold below it.
            let mut g = vec![0.0f32; dim];
            for j in 0..dim / 16 {
                g[(step * 97 + j * 16) % dim] = ((step + j) as f32 * 0.61).cos();
            }
            let up = sparse_up(&part, &g);
            let w = step % 2;
            let (ra, rb) = (log_srv.handle_update(w, &up), dense_srv.handle_update(w, &up));
            match (ra, rb) {
                (DownMsg::SparseDiff(da), DownMsg::SparseDiff(db)) => {
                    assert_eq!(da.encode(), db.encode(), "step {step}");
                }
                _ => panic!("expected sparse diffs"),
            }
        }
        for w in 0..2 {
            assert!(!log_srv.pending_valid[w], "worker {w} should be degenerate");
            assert!(!log_srv.retrack[w], "worker {w} should have tracking off");
            assert!(log_srv.pending[w].is_empty(), "stale pending should be dropped");
        }
        assert_eq!(log_srv.m(), dense_srv.m());
    }

    #[test]
    fn resync_worker_restores_tracking_invariant() {
        let part = part2();
        let mut s = MdtServer::new(
            vec![0.25; 6],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: Some(0.34) }, // k=1/chunk
        );
        // Build up undelivered residue for worker 0.
        for step in 0..5 {
            let mut g = vec![0.0f32; 6];
            g[step % 6] = 1.0 + step as f32;
            g[(step + 3) % 6] = -2.0;
            s.handle_update(1, &sparse_up(&part, &g));
        }
        s.handle_update(0, &sparse_up(&part, &[0.0; 6]));
        assert!(!s.pending[0].is_empty(), "secondary compression must hold residue back");
        // Resync: the worker receives θ_0 + M and the server's tracking
        // matches it exactly.
        let model = match s.resync_worker(0) {
            DownMsg::DenseModel(m) => m,
            other => panic!("expected dense model, got {other:?}"),
        };
        assert_eq!(model.as_slice(), s.current_model().as_slice());
        assert_eq!(s.v(0), s.m(), "v_0 must land on M");
        assert!(s.pending[0].is_empty() && s.pending_valid[0]);
        // Training resumes normally: the next reply to worker 0 carries
        // only differences accumulated after the resync.
        let mut g = vec![0.0f32; 6];
        g[2] = 0.5;
        let reply = s.handle_update(0, &sparse_up(&part, &g));
        match reply {
            DownMsg::SparseDiff(d) => assert!(d.nnz() <= 2, "post-resync diff nnz {}", d.nnz()),
            other => panic!("expected sparse diff, got {other:?}"),
        }
    }

    #[test]
    fn staleness_recorded() {
        let part = part2();
        let mut s = MdtServer::new(
            vec![0.0; 6],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        let up = sparse_up(&part, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        s.handle_update(0, &up); // staleness 0
        s.handle_update(1, &up); // staleness 1 (missed worker 0's update)
        s.handle_update(0, &up); // staleness 1 (missed worker 1's update)
        assert_eq!(s.staleness().count(), 3);
        assert_eq!(s.staleness().max(), 1);
        assert!((s.staleness().mean() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn memory_report_scales_with_workers() {
        let part = Partition::single(1000);
        let mdt = MdtServer::new(
            vec![0.0; 1000],
            part.clone(),
            8,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        let rep = mdt.memory_report();
        assert_eq!(rep.model_bytes, 4000);
        assert_eq!(rep.tracking_bytes, 8 * 4000);
        assert_eq!(rep.cache_bytes, 0);
        let asgd = MdtServer::new(vec![0.0; 1000], part, 8, Downlink::DenseModel);
        let arep = asgd.memory_report();
        assert_eq!(arep.tracking_bytes, 0);
        assert_eq!(arep.log_bytes, 0);
        assert_eq!(arep.cache_bytes, 4000);
    }

    #[test]
    fn memory_report_tracks_log_and_pending() {
        let part = Partition::single(50);
        let mut s = MdtServer::new(
            vec![0.0; 50],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: Some(0.04) }, // k=2
        );
        let mut g = vec![0.0f32; 50];
        for i in 0..10 {
            g[i * 5] = (i + 1) as f32;
        }
        s.handle_update(0, &sparse_up(&part, &g));
        let rep = s.memory_report();
        assert!(rep.log_bytes > 0, "applied update must be logged");
        // Worker 0 got k=2 of its 10-nonzero diff: 8 coords stay dirty.
        assert!(rep.pending_bytes >= 8 * 4, "pending {} too small", rep.pending_bytes);
    }

    #[test]
    fn downlink_factory() {
        assert_eq!(Downlink::for_method(Method::Asgd, None), Downlink::DenseModel);
        assert_eq!(
            Downlink::for_method(Method::Dgs, Some(0.01)),
            Downlink::ModelDifference { secondary_ratio: Some(0.01) }
        );
        assert_eq!(
            Downlink::for_method(Method::GdAsync, None),
            Downlink::ModelDifference { secondary_ratio: None }
        );
    }

    #[test]
    #[should_panic(expected = "single-node")]
    fn downlink_rejects_msgd() {
        Downlink::for_method(Method::Msgd, None);
    }

    #[test]
    fn damping_scales_by_staleness() {
        assert_eq!(StalenessDamping::off().scale(100), 1.0);
        let d = StalenessDamping { alpha: 1.0 };
        assert_eq!(d.scale(0), 1.0);
        assert!((d.scale(1) - 0.5).abs() < 1e-6);
        assert!((d.scale(3) - 0.25).abs() < 1e-6);
        let soft = StalenessDamping { alpha: 0.5 };
        assert!(soft.scale(3) > d.scale(3));
    }

    #[test]
    fn damped_server_applies_scaled_updates() {
        let part = part2();
        let mut s = MdtServer::new(
            vec![0.0; 6],
            part.clone(),
            2,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        s.set_damping(StalenessDamping { alpha: 1.0 });
        let mut g = vec![0.0f32; 6];
        g[0] = 1.0;
        // Worker 0's first update: staleness 0, full scale.
        s.handle_update(0, &sparse_up(&part, &g));
        assert!((s.m()[0] + 1.0).abs() < 1e-6);
        // Worker 1's first update arrives at t=1 with prev=0: staleness 1,
        // applied at half scale.
        let mut g2 = vec![0.0f32; 6];
        g2[1] = 1.0;
        s.handle_update(1, &sparse_up(&part, &g2));
        assert!((s.m()[1] + 0.5).abs() < 1e-6, "damped update: {}", s.m()[1]);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let part = part2();
        let downlink = Downlink::ModelDifference { secondary_ratio: None };
        let mut a = MdtServer::new(vec![1.0; 6], part.clone(), 2, downlink);
        // Some traffic.
        for step in 0..7 {
            let mut g = vec![0.0f32; 6];
            g[step % 6] = 0.5;
            a.handle_update(step % 2, &sparse_up(&part, &g));
        }
        // Snapshot, serialise, restore.
        let json = dgs_tensor::json::to_string(&a.checkpoint());
        let ckpt: ServerCheckpoint = dgs_tensor::json::from_str(&json).unwrap();
        let mut b = MdtServer::restore(ckpt, part.clone(), downlink);
        assert_eq!(a.timestamp(), b.timestamp());
        assert_eq!(a.current_model(), b.current_model());
        // Both servers process the same subsequent update identically.
        let mut g = vec![0.0f32; 6];
        g[3] = -0.25;
        let up = sparse_up(&part, &g);
        let ra = a.handle_update(1, &up);
        let rb = b.handle_update(1, &up);
        match (ra, rb) {
            (DownMsg::SparseDiff(da), DownMsg::SparseDiff(db)) => assert_eq!(da, db),
            _ => panic!("expected sparse diffs"),
        }
        assert_eq!(a.current_model(), b.current_model());
    }

    #[test]
    fn checkpoint_restore_exact_under_secondary_compression() {
        // The restored server has no update log, but its rebuilt dirty
        // sets must keep replies bitwise identical to the uninterrupted
        // server even while secondary compression holds residuals back.
        let part = Partition::from_layer_sizes([("a", 10), ("b", 15)]);
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.12) };
        let mut a = MdtServer::new(vec![0.5; 25], part.clone(), 3, downlink);
        for step in 0..17 {
            let mut g = vec![0.0f32; 25];
            g[(step * 9) % 25] = 0.3 * (step + 1) as f32;
            g[(step * 4 + 2) % 25] = -0.7;
            a.handle_update(step % 3, &sparse_up(&part, &g));
        }
        let ckpt = a.checkpoint();
        let mut b = MdtServer::restore(ckpt, part.clone(), downlink);
        for step in 0..12 {
            let mut g = vec![0.0f32; 25];
            g[(step * 6 + 1) % 25] = 0.1 * (step + 1) as f32;
            let up = sparse_up(&part, &g);
            let (ra, rb) = (a.handle_update(step % 3, &up), b.handle_update(step % 3, &up));
            match (ra, rb) {
                (DownMsg::SparseDiff(da), DownMsg::SparseDiff(db)) => {
                    assert_eq!(da.encode(), db.encode(), "step {step} after restore");
                }
                _ => panic!("expected sparse diffs"),
            }
        }
        assert_eq!(a.m(), b.m());
    }

    #[test]
    #[should_panic(expected = "checkpoint M size")]
    fn restore_rejects_mismatched_checkpoint() {
        let part = part2();
        let ckpt = ServerCheckpoint {
            theta0: vec![0.0; 6],
            m: vec![0.0; 5],
            v: vec![],
            t: 0,
            prev: vec![],
        };
        MdtServer::restore(ckpt, part, Downlink::DenseModel);
    }
}
