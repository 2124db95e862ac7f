//! The lock-striped sharded MDT server.
//!
//! [`ShardedMdtServer`] splits one [`MdtServer`] into independent shards
//! along [`Partition`] segment boundaries ([`Partition::shard_spans`]):
//! each shard is a complete `MdtServer` over its own sub-partition — its
//! slice of `θ_0`, `M`, every `v_k`, its own bounded update log, dirty
//! sets, and buffer-pool scratch — behind its own lock. Concurrent worker
//! requests that land on different shards (or the same shard at different
//! times) proceed without a global critical section; the only shared
//! mutable state is a tiny *front* lock holding the global clock, worker
//! cursors, and staleness statistics, held just long enough to stamp the
//! update.
//!
//! # Bitwise equivalence with the single-lock server
//!
//! For any pinned schedule (updates applied in a fixed order) the sharded
//! server's replies are **bitwise identical** to the global
//! [`MdtServer`]'s, by construction:
//!
//! * Uplink chunks map 1:1 onto partition segments and shards own whole
//!   segments, so splitting an update is slicing its chunk array — no
//!   index arithmetic, no re-encoding.
//! * Each shard applies the same `m[i] −= scale·g[i]` and emits the same
//!   `m[i] − v[i]` subtractions over the same segments as the global
//!   server; concatenating shard chunk-lists in shard order reproduces
//!   the global per-segment chunk order exactly.
//! * The damping scale is computed **once** at the front from the global
//!   clock and passed to every shard ([`MdtServer::handle_scaled`]).
//!   Shard-local clocks advance once per update — every update visits
//!   every shard, possibly with empty chunks — so under sequential replay
//!   each shard clock equals the global clock and per-shard staleness
//!   bookkeeping (log coverage, cursor math) matches the global server's.
//! * Every remaining per-shard decision (log merge vs dense fallback,
//!   density hysteresis) is payload-invariant, so shards diverging from
//!   the global server's *cost* choices cannot change the wire bytes.
//!   `tests/shard_equivalence.rs` proves all of this by differential
//!   replay.
//!
//! Under real concurrency the interleaving of updates is nondeterministic
//! (as it already is for the single-lock server), but each shard still
//! serializes its own state, so every interleaving is *some* valid
//! sequential schedule and the MDT tracking invariant
//! (`θ_worker = θ_0 + v_k`) holds coordinatewise.
//!
//! # Deadlock freedom
//!
//! Shard locks are only ever taken one at a time by the rayon fan-out
//! closures; no code path holds two shard locks. Shards run with
//! [`MdtServer::set_par_segments`] off, so a thread holding a shard lock
//! never reaches a rayon join point where work-stealing could hand it a
//! sibling task that blocks on another shard. The front lock is released
//! before any shard lock is taken.

use crate::cluster::{assemble_replies, span_view};
use crate::protocol::{DownMsg, UpMsg, UpPayload};
use crate::server::{
    apportion_log_capacity, Downlink, MdtServer, ServerMemoryReport, ServerTunables,
    StalenessDamping,
};
use crate::PAR_THRESHOLD;
use dgs_psim::StalenessStats;
use dgs_sparsify::{Kernel, Partition, ShardSpan, SparseUpdate};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// Global bookkeeping shared by all shards: the Alg. 2 clock and worker
/// cursors, which exist once per server, not once per shard. Guarded by
/// its own short-lived lock — never held while a shard lock is held.
struct Front {
    /// Global timestamp `t` (updates applied).
    t: u64,
    /// `prev(k)`: global timestamp of the last delivery to worker k.
    prev: Vec<u64>,
    staleness: StalenessStats,
    damping: StalenessDamping,
}

/// A lock-striped [`MdtServer`]: same algorithm, same wire bytes,
/// per-shard locks instead of one global critical section. See the
/// module docs for the equivalence and deadlock-freedom arguments.
pub struct ShardedMdtServer {
    shards: Vec<Mutex<MdtServer>>,
    spans: Vec<ShardSpan>,
    front: Mutex<Front>,
    dim: usize,
}

impl ShardedMdtServer {
    /// Creates a server striped over at most `max_shards` locks (capped by
    /// the partition's segment count; `1` reproduces the global server
    /// behind a single lock).
    pub fn new(
        theta0: Vec<f32>,
        partition: Partition,
        workers: usize,
        downlink: Downlink,
        max_shards: usize,
    ) -> Self {
        partition.check_covers(&theta0);
        assert!(partition.num_segments() > 0, "sharded server needs at least one segment");
        let dim = theta0.len();
        let spans = partition.shard_spans(max_shards);
        let shards = spans
            .iter()
            .map(|span| {
                let sub = partition.subpartition(span);
                let mut shard =
                    MdtServer::new(theta0[span.range()].to_vec(), sub, workers, downlink);
                shard.set_par_segments(false);
                Mutex::new(shard)
            })
            .collect();
        ShardedMdtServer {
            shards,
            spans,
            front: Mutex::new(Front {
                t: 0,
                prev: vec![0; workers],
                staleness: StalenessStats::new(),
                damping: StalenessDamping::off(),
            }),
            dim,
        }
    }

    /// Locks the front counters. A poisoned lock is recovered rather
    /// than propagated: a sibling update's panic must not take down
    /// every connection thread with it. The poison flag itself is left
    /// set, so [`Self::poisoned`] keeps reporting the damage and
    /// transport handlers answer with an error frame instead of
    /// serving torn state.
    fn lock_front(&self) -> MutexGuard<'_, Front> {
        self.front.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks shard `i`; recovers a poisoned lock (see [`Self::lock_front`]).
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, MdtServer> {
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of shards actually created.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shard layout over the partition.
    pub fn spans(&self) -> &[ShardSpan] {
        &self.spans
    }

    /// Global server timestamp `t` (updates applied so far).
    pub fn timestamp(&self) -> u64 {
        self.lock_front().t
    }

    /// Snapshot of the observed staleness statistics.
    pub fn staleness(&self) -> StalenessStats {
        self.lock_front().staleness.clone()
    }

    /// Enables gap-aware staleness damping (see [`StalenessDamping`]).
    pub fn set_damping(&mut self, damping: StalenessDamping) {
        self.front.get_mut().expect("front lock poisoned").damping = damping;
    }

    /// Runs `f` on every shard with its index (construction-time access:
    /// `&mut self` proves no lock is held).
    fn each_shard(&mut self, mut f: impl FnMut(usize, &mut MdtServer)) {
        for (k, shard) in self.shards.iter_mut().enumerate() {
            f(k, shard.get_mut().expect("shard lock poisoned"));
        }
    }

    /// Selects the compute backend on every shard (payload-invariant, see
    /// [`MdtServer::set_kernel`]).
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.each_shard(|_, shard| shard.set_kernel(kernel));
    }

    /// Splits a total update-log budget across shards proportionally to
    /// their coordinate share, using largest-remainder apportionment so
    /// the per-shard capacities sum to exactly `capacity` — the sharded
    /// `--server-log-nnz` budget (and the `memory_report` accounting
    /// built on it) means the same thing it does on the global server.
    /// See [`apportion_log_capacity`] for the one documented exception
    /// (`capacity < num_shards`). `0` restores each shard's automatic
    /// default of one index per owned coordinate — summed over shards
    /// that equals the global default.
    pub fn set_log_capacity(&mut self, capacity: usize) {
        let caps = if capacity == 0 {
            vec![0; self.shards.len()]
        } else {
            apportion_log_capacity(capacity, &self.spans)
        };
        self.each_shard(|k, shard| shard.set_log_capacity(caps[k]));
    }

    /// Applies a config's tunables: every shard through the same
    /// [`ServerTunables::apply`] a span server of the same layout gets,
    /// damping additionally at the front (where the scale is computed).
    pub fn configure(&mut self, tunables: &ServerTunables) {
        self.set_damping(tunables.damping);
        let spans = self.spans.clone();
        self.each_shard(|k, shard| tunables.apply(shard, &spans, k));
    }

    /// Σ over shards of the update-log budgets actually in force.
    pub fn log_capacity(&self) -> usize {
        (0..self.shards.len()).map(|si| self.lock_shard(si).tunables().log_capacity).sum()
    }

    /// Has any lock been poisoned by a panicking update? Transport
    /// handlers check this to answer with an error frame instead of
    /// propagating the panic into a connection thread.
    pub fn poisoned(&self) -> bool {
        self.front.is_poisoned() || self.shards.iter().any(|s| s.is_poisoned())
    }

    /// Concatenation of the shards' initial models — the global `θ_0`,
    /// used by the cross-process handshake fingerprint.
    pub fn theta0(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim);
        for si in 0..self.shards.len() {
            out.extend_from_slice(self.lock_shard(si).theta0());
        }
        out
    }

    /// The current global model `θ_t = θ_0 + M_t`, shard slices
    /// concatenated in shard order. Shards are locked one at a time, so a
    /// concurrent snapshot is a *consistent cut* per shard, not across
    /// shards — same guarantee evals already had under the global lock,
    /// where updates could land between the reply and the eval.
    pub fn current_model(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim);
        for si in 0..self.shards.len() {
            out.extend(self.lock_shard(si).current_model());
        }
        out
    }

    /// Processes one worker update and produces the reply — identical
    /// wire bytes to [`MdtServer::handle_update`] for the same schedule.
    /// Also returns the global timestamp stamped on this update, so
    /// callers can trigger cadence work (evals) exactly once per tick
    /// without re-locking the front.
    pub fn handle_update_timed(&self, worker: usize, up: &UpMsg) -> (DownMsg, u64) {
        let (scale, t) = {
            let mut front = self.lock_front();
            let staleness = front.t - front.prev[worker];
            let scale = front.damping.scale(staleness);
            front.t += 1;
            front.prev[worker] = front.t;
            front.staleness.record(staleness);
            (scale, front.t)
        };
        let replies = self.fan_out(worker, &up.payload, scale);
        (self.assemble(replies), t)
    }

    /// [`ShardedMdtServer::handle_update_timed`] without the timestamp.
    pub fn handle_update(&self, worker: usize, up: &UpMsg) -> DownMsg {
        self.handle_update_timed(worker, up).0
    }

    /// Applies one update to every shard and collects the per-shard
    /// replies in shard order. Rayon carries the fan-out for large models;
    /// each closure takes exactly one shard lock (see module docs).
    fn fan_out(&self, worker: usize, payload: &UpPayload, scale: f32) -> Vec<DownMsg> {
        let run = |si: usize| -> DownMsg {
            // Our own workers always cut updates to the partition; a
            // payload that does not cover a shard is a non-conforming peer,
            // contained like any other apply panic at the handler boundary.
            let view = span_view(payload, &self.spans[si]).expect("update covers every shard");
            self.lock_shard(si).handle_scaled(worker, view, scale)
        };
        if self.shards.len() > 1 && self.dim >= PAR_THRESHOLD {
            (0..self.shards.len()).into_par_iter().map(run).collect()
        } else {
            (0..self.shards.len()).map(run).collect()
        }
    }

    /// Concatenates per-shard replies into the global reply
    /// ([`assemble_replies`]): shard order equals segment order, so sparse
    /// chunk-lists concatenate into exactly the global server's chunk
    /// layout and dense slices into the global model.
    fn assemble(&self, replies: Vec<DownMsg>) -> DownMsg {
        // Shards replying in different shapes is impossible by construction
        // — every shard shares the global downlink config — so that arm is
        // contained as an empty diff (debug builds assert) rather than a
        // panic on a connection thread.
        assemble_replies(replies).unwrap_or_else(|_| {
            debug_assert!(false, "shards of one server replied in different shapes");
            DownMsg::SparseDiff(SparseUpdate { chunks: Vec::new() })
        })
    }

    /// Recovery path for a worker whose reply was lost (see
    /// [`MdtServer::resync_worker`]): full current model, per-shard
    /// tracking reset, cursor advanced to now.
    ///
    /// The front cursor `prev[worker]` is recorded *after* the shard
    /// sweep, so updates from other workers that land mid-sweep are
    /// counted as delivered rather than left to inflate this worker's
    /// next staleness reading. The accounting is still approximate
    /// around a concurrent resync — a shard locked early in the sweep
    /// serves a slightly older slice than the final cursor claims — but
    /// the skew is bounded by the sweep itself, affects only the
    /// staleness statistics and damping input, and never the wire bytes
    /// or the per-shard tracking state (each shard resets its own `v_k`
    /// under its own lock). Under sequential replay no update can land
    /// mid-sweep, so this is bitwise identical to the global server.
    pub fn resync_worker(&self, worker: usize) -> DownMsg {
        let mut model = Vec::with_capacity(self.dim);
        for si in 0..self.shards.len() {
            let m = self.lock_shard(si).resync_model(worker);
            model.extend_from_slice(&m);
        }
        {
            let mut front = self.lock_front();
            let t = front.t;
            front.prev[worker] = t;
        }
        DownMsg::DenseModel(Arc::new(model))
    }

    /// §5.6.2 memory accounting summed over shards (the front lock's
    /// cursors are negligible and uncounted, as `prev` already was in the
    /// global server).
    pub fn memory_report(&self) -> ServerMemoryReport {
        let mut total = ServerMemoryReport {
            model_bytes: 0,
            tracking_bytes: 0,
            log_bytes: 0,
            pending_bytes: 0,
            cache_bytes: 0,
            workers: self.lock_front().prev.len(),
        };
        for si in 0..self.shards.len() {
            let rep = self.lock_shard(si).memory_report();
            total.model_bytes += rep.model_bytes;
            total.tracking_bytes += rep.tracking_bytes;
            total.log_bytes += rep.log_bytes;
            total.pending_bytes += rep.pending_bytes;
            total.cache_bytes += rep.cache_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::UpPayload;
    use dgs_sparsify::{SparseUpdate, TernaryUpdate};
    use std::sync::Arc;
    use std::thread;

    fn part4() -> Partition {
        Partition::from_layer_sizes([("a", 13), ("b", 7), ("c", 20), ("d", 9)])
    }

    fn sparse_up(part: &Partition, flat: &[f32]) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate::from_nonzero(flat, part)),
            train_loss: 0.0,
        }
    }

    /// Replays one pinned schedule through the global server and sharded
    /// servers at several stripe counts, asserting every reply is bitwise
    /// identical on the wire. The heavyweight cross-method version lives
    /// in `tests/shard_equivalence.rs`; this is the in-crate smoke.
    #[test]
    fn sharded_replay_is_bitwise_identical() {
        let part = part4();
        let dim = part.total_len();
        let downlink = Downlink::ModelDifference { secondary_ratio: Some(0.1) };
        let mut global = MdtServer::new(vec![0.0; dim], part.clone(), 3, downlink);
        let sharded: Vec<ShardedMdtServer> = [2, 3, 4]
            .iter()
            .map(|&n| ShardedMdtServer::new(vec![0.0; dim], part.clone(), 3, downlink, n))
            .collect();
        for step in 0..60 {
            let w = (step * 2) % 3;
            let mut g = vec![0.0f32; dim];
            for j in 0..5 {
                g[(step * 11 + j * 7 + w) % dim] = ((step * 31 + j * 13 + w) as f32 * 0.37).sin();
            }
            let up = sparse_up(&part, &g);
            let reference = match global.handle_update(w, &up) {
                DownMsg::SparseDiff(d) => d.encode(),
                _ => panic!("expected sparse diff"),
            };
            for (si, s) in sharded.iter().enumerate() {
                let (reply, t) = s.handle_update_timed(w, &up);
                assert_eq!(t, global.timestamp(), "clock diverges");
                match reply {
                    DownMsg::SparseDiff(d) => {
                        assert_eq!(
                            d.encode(),
                            reference,
                            "step {step}: sharded[{si}] payload diverges"
                        );
                    }
                    _ => panic!("expected sparse diff"),
                }
            }
        }
        for s in &sharded {
            assert_eq!(s.current_model(), global.current_model(), "models diverge");
            assert_eq!(s.staleness().count(), global.staleness().count());
            assert_eq!(s.staleness().max(), global.staleness().max());
        }
    }

    #[test]
    fn sharded_dense_downlink_matches_global() {
        let part = part4();
        let dim = part.total_len();
        let mut global = MdtServer::new(vec![0.25; dim], part.clone(), 2, Downlink::DenseModel);
        let sharded =
            ShardedMdtServer::new(vec![0.25; dim], part.clone(), 2, Downlink::DenseModel, 3);
        for step in 0..20 {
            let g: Vec<f32> = (0..dim).map(|i| ((step * 17 + i) as f32 * 0.23).cos()).collect();
            let up = UpMsg { payload: UpPayload::Dense(g), train_loss: 0.0 };
            let w = step % 2;
            let (ra, rb) = (global.handle_update(w, &up), sharded.handle_update(w, &up));
            match (ra, rb) {
                (DownMsg::DenseModel(a), DownMsg::DenseModel(b)) => {
                    let a: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b, "step {step}: dense models diverge");
                }
                _ => panic!("expected dense models"),
            }
        }
    }

    #[test]
    fn sharded_ternary_and_resync_match_global() {
        let part = part4();
        let dim = part.total_len();
        let downlink = Downlink::ModelDifference { secondary_ratio: None };
        let mut global = MdtServer::new(vec![0.0; dim], part.clone(), 2, downlink);
        let sharded = ShardedMdtServer::new(vec![0.0; dim], part.clone(), 2, downlink, 4);
        for step in 0..24 {
            let mut g = vec![0.0f32; dim];
            for j in 0..6 {
                g[(step * 7 + j * 5) % dim] = ((step + j) as f32 * 0.41).sin();
            }
            let up = UpMsg {
                payload: UpPayload::TernarySparse(TernaryUpdate::quantize(
                    &SparseUpdate::from_topk(&g, &part, 0.2),
                    step as u64,
                )),
                train_loss: 0.0,
            };
            let w = step % 2;
            let (ra, rb) = (global.handle_update(w, &up), sharded.handle_update(w, &up));
            match (ra, rb) {
                (DownMsg::SparseDiff(a), DownMsg::SparseDiff(b)) => {
                    assert_eq!(a.encode(), b.encode(), "step {step}: ternary replies diverge");
                }
                _ => panic!("expected sparse diffs"),
            }
            if step == 11 {
                let (ra, rb) = (global.resync_worker(1), sharded.resync_worker(1));
                match (ra, rb) {
                    (DownMsg::DenseModel(a), DownMsg::DenseModel(b)) => {
                        assert_eq!(a.as_slice(), b.as_slice(), "resync models diverge");
                    }
                    _ => panic!("expected dense resync"),
                }
            }
        }
        assert_eq!(sharded.memory_report().model_bytes, global.memory_report().model_bytes);
        assert_eq!(sharded.memory_report().tracking_bytes, global.memory_report().tracking_bytes);
    }

    /// Multi-worker contention smoke (the target of the TSan CI job): real
    /// threads hammer one sharded server, then the MDT tracking invariant
    /// is checked bitwise. All update values are dyadic (±0.5/±1.0/±2.0)
    /// and damping is off, so every f32 accumulation is exact and
    /// order-independent — the final check does not depend on the
    /// nondeterministic interleaving.
    #[test]
    fn concurrent_updates_preserve_mdt_invariant() {
        let workers = 4;
        let rounds = 25;
        let part = Partition::from_layer_sizes([("a", 40), ("b", 25), ("c", 31)]);
        let dim = part.total_len();
        let theta0 = vec![0.5f32; dim];
        let server = Arc::new(ShardedMdtServer::new(
            theta0.clone(),
            part.clone(),
            workers,
            Downlink::ModelDifference { secondary_ratio: None },
            3,
        ));
        let models: Vec<Vec<f32>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let server = Arc::clone(&server);
                    let part = part.clone();
                    let mut model = theta0.clone();
                    scope.spawn(move || {
                        let vals = [1.0f32, -0.5, 2.0, -1.0, 0.5, -2.0];
                        for round in 0..rounds {
                            let mut g = vec![0.0f32; dim];
                            for j in 0..4 {
                                g[(round * 13 + j * 29 + w * 7) % dim] =
                                    vals[(round + j + w) % vals.len()];
                            }
                            let reply = server.handle_update(w, &sparse_up(&part, &g));
                            match reply {
                                DownMsg::SparseDiff(d) => d.apply_add(&mut model, &part, 1.0),
                                _ => panic!("expected sparse diff"),
                            }
                        }
                        model
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
        });
        assert_eq!(server.timestamp(), (workers * rounds) as u64);
        assert_eq!(server.staleness().count(), (workers * rounds) as u64);
        // Drain each worker sequentially: after a zero update the reply
        // delivers M − v_k, landing the local model exactly on θ_0 + M.
        let zero = vec![0.0f32; dim];
        let reference = server.current_model();
        for (w, mut model) in models.into_iter().enumerate() {
            match server.handle_update(w, &sparse_up(&part, &zero)) {
                DownMsg::SparseDiff(d) => d.apply_add(&mut model, &part, 1.0),
                _ => panic!("expected sparse diff"),
            }
            let got: Vec<u32> = model.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = reference.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "worker {w} model diverges from server");
        }
    }

    /// Same smoke through the rayon fan-out path (dim ≥ PAR_THRESHOLD):
    /// shard locks inside rayon tasks must not deadlock or race.
    #[test]
    fn concurrent_updates_with_rayon_fanout() {
        let workers = 3;
        let rounds = 6;
        let seg = PAR_THRESHOLD / 2;
        let part = Partition::from_layer_sizes([("a", seg), ("b", seg), ("c", seg), ("d", seg)]);
        let dim = part.total_len();
        let server = Arc::new(ShardedMdtServer::new(
            vec![0.0f32; dim],
            part.clone(),
            workers,
            Downlink::ModelDifference { secondary_ratio: None },
            4,
        ));
        thread::scope(|scope| {
            for w in 0..workers {
                let server = Arc::clone(&server);
                let part = part.clone();
                scope.spawn(move || {
                    for round in 0..rounds {
                        let mut g = vec![0.0f32; dim];
                        for j in 0..64 {
                            g[(round * 4099 + j * 257 + w * 31) % dim] = 1.0;
                        }
                        server.handle_update(w, &sparse_up(&part, &g));
                    }
                });
            }
        });
        assert_eq!(server.timestamp(), (workers * rounds) as u64);
        assert!(!server.poisoned());
    }

    #[test]
    fn single_shard_degenerates_to_global() {
        let part = part4();
        let dim = part.total_len();
        let s = ShardedMdtServer::new(vec![0.0; dim], part, 1, Downlink::DenseModel, 1);
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.dim(), dim);
        assert_eq!(s.spans()[0].range(), 0..dim);
    }

    #[test]
    fn log_capacity_split_is_proportional_and_nonzero() {
        let part = Partition::from_layer_sizes([("a", 100), ("b", 1), ("c", 100)]);
        let mut s = ShardedMdtServer::new(
            vec![0.0; 201],
            part,
            1,
            Downlink::ModelDifference { secondary_ratio: None },
            3,
        );
        // Must not panic and must leave every shard with a usable log —
        // apportionment raises a tiny shard's zero quota to one slot.
        s.set_log_capacity(10);
        s.set_log_capacity(0);
        s.set_damping(StalenessDamping { alpha: 0.5 });
        assert!(!s.poisoned());
    }

    /// Per-shard log capacities must sum to exactly the requested budget
    /// (the 1:1 sharded-vs-global memory comparisons depend on it), with
    /// the single documented exception of `capacity < num_shards`.
    #[test]
    fn log_capacity_apportionment_sums_exactly() {
        // Many tiny segments: naive flooring with a per-shard `.max(1)`
        // floor would overshoot (8×1 for small budgets) or undershoot
        // (dropped remainders for large ones).
        let tiny = Partition::from_layer_sizes([
            ("a", 3),
            ("b", 2),
            ("c", 3),
            ("d", 2),
            ("e", 3),
            ("f", 2),
            ("g", 3),
            ("h", 2),
        ]);
        let spans = tiny.shard_spans(8);
        assert_eq!(spans.len(), 8);
        for capacity in [8usize, 9, 13, 20, 100, 1_000_003] {
            let caps = apportion_log_capacity(capacity, &spans);
            assert_eq!(caps.iter().sum::<usize>(), capacity, "budget {capacity} drifted");
            assert!(caps.iter().all(|&c| c >= 1), "budget {capacity} left a zero shard");
        }
        // Skewed spans stay proportional: the big shards carry the bulk,
        // the one-coordinate shard still gets its floor slot.
        let skew = Partition::from_layer_sizes([("a", 100), ("b", 1), ("c", 100)]);
        let spans = skew.shard_spans(3);
        let caps = apportion_log_capacity(11, &spans);
        assert_eq!(caps.iter().sum::<usize>(), 11);
        assert_eq!(caps[1], 1);
        assert!(caps[0].abs_diff(caps[2]) <= 1, "equal spans must split evenly: {caps:?}");
        // Documented deviation: fewer slots than shards — every shard
        // keeps one (an explicit 0 would mean "automatic default"), so
        // the sum is num_shards, not capacity.
        assert_eq!(apportion_log_capacity(2, &spans), vec![1, 1, 1]);
    }
}
