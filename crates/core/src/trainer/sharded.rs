//! Shared-state server logic over the lock-striped [`ShardedMdtServer`].
//!
//! [`AsyncServerLogic`](crate::trainer::threaded::AsyncServerLogic) is a
//! `&mut self` state machine: every transport wraps it in one big lock, so
//! decode → MDT apply → secondary compression → **full validation eval** →
//! encode all serialize, and at 4+ workers the server is a sequential
//! bottleneck. [`ShardedServerLogic`] is the `&self` counterpart built for
//! concurrent callers: MDT state lives behind the sharded server's striped
//! locks, and the only logic-level lock guards the same
//! [`RunRecorder`] the single-lock logic owns outright, never held across
//! shard work. Evaluation — the single most expensive item in the old
//! critical section — runs on the recorder lock only, so workers keep
//! streaming updates through the shards while one thread evaluates.
//!
//! Lock discipline: shard/front locks and the recorder lock are never
//! held at the same time (`process` finishes `handle_update_timed`, then
//! accounts; `current_model` snapshots before the eval lock is taken), so
//! there is no lock-order cycle. The eval cadence fires exactly once per
//! eligible timestamp because [`ShardedMdtServer::handle_update_timed`]
//! hands each update a unique global tick. Under concurrency, curve points
//! can be *recorded* out of timestamp order; the recorder sorts the curve
//! by update count, which is the order the single-lock logic produces.

use crate::config::TrainConfig;
use crate::curves::{RunRecorder, RunResult};
use crate::method::Method;
use crate::protocol::{DownMsg, UpMsg};
use crate::server::ServerTunables;
use crate::shard::ShardedMdtServer;
use crate::trainer::threaded::build_workers;
use crate::trainer::ModelBuilder;
use crate::worker::TrainWorker;
use dgs_nn::data::Dataset;
use std::sync::{Arc, Mutex, MutexGuard};

/// Concurrent (`&self`) server logic: the sharded MDT server plus the run
/// recorder. `dgs-net` serves it to many connection threads at once
/// without a global critical section.
pub struct ShardedServerLogic {
    server: ShardedMdtServer,
    recorder: Mutex<RunRecorder>,
}

impl ShardedServerLogic {
    /// Locks the recorder. A lock poisoned by a panicking eval is
    /// recovered rather than propagated — the counters stay additive
    /// across a torn eval, and [`Self::into_result`] already recovers the
    /// same way — so a wire-path resync never inherits a panic from a
    /// sibling's eval.
    fn lock_recorder(&self) -> MutexGuard<'_, RunRecorder> {
        self.recorder.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies one update and produces the reply; same accounting as the
    /// single-lock logic, with only the recorder behind a lock.
    pub fn process(&self, worker: usize, req: UpMsg) -> DownMsg {
        let (reply, t) = self.server.handle_update_timed(worker, &req);
        let (up, down) = (req.wire_bytes() as u64, reply.wire_bytes() as u64);
        let eval_due = {
            let mut recorder = self.lock_recorder();
            recorder.record(t, up, down, req.train_loss)
        };
        if eval_due {
            // Snapshot the model before retaking the recorder lock so shard
            // locks and the recorder lock are never nested.
            let model = self.server.current_model();
            self.lock_recorder().eval(t, 0.0, &model);
        }
        reply
    }

    /// Recovery for a worker whose reply was lost; the dense reply is
    /// charged to the downlink like any other data message.
    pub fn resync(&self, worker: usize) -> DownMsg {
        let reply = self.server.resync_worker(worker);
        self.lock_recorder().add_down(reply.wire_bytes() as u64);
        reply
    }

    /// The wrapped sharded server.
    pub fn server(&self) -> &ShardedMdtServer {
        &self.server
    }

    /// Accumulated (uplink, downlink) data bytes.
    pub fn traffic(&self) -> (u64, u64) {
        self.lock_recorder().traffic()
    }

    /// Finalises the run record.
    pub fn into_result(self, wall_secs: f64) -> RunResult {
        let tracking = self.server.memory_report().tracking_bytes;
        let recorder = self.recorder.into_inner().unwrap_or_else(|e| e.into_inner());
        recorder.finish(wall_secs, &self.server.staleness(), tracking)
    }
}

/// Builds the lock-striped server side of a run alone — the twin of
/// [`build_server`](crate::trainer::threaded::build_server). `shards` caps
/// the stripe count (clamped to the layer count; `1` yields a
/// single-stripe server, useful as a like-for-like baseline).
pub fn build_sharded_server(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train_len: usize,
    val: &Arc<dyn Dataset>,
    shards: usize,
) -> ShardedServerLogic {
    assert_ne!(cfg.method, Method::Msgd, "MSGD uses train_msgd");
    let net0 = build_model();
    let partition = net0.params().partition().clone();
    let theta0 = net0.params().data().to_vec();
    let tunables = ServerTunables::from_config(cfg);
    let mut server =
        ShardedMdtServer::new(theta0, partition, cfg.workers, tunables.downlink, shards);
    server.configure(&tunables);
    let recorder = RunRecorder::new(cfg, net0, Arc::clone(val), train_len);
    ShardedServerLogic { server, recorder: Mutex::new(recorder) }
}

/// Assembles a sharded server + workers for a config — the lock-striped
/// twin of [`build_participants`](crate::trainer::threaded::build_participants).
pub fn build_sharded_participants(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: &Arc<dyn Dataset>,
    val: &Arc<dyn Dataset>,
    worker_gflops: f64,
    shards: usize,
) -> (ShardedServerLogic, Vec<TrainWorker>) {
    let logic = build_sharded_server(cfg, build_model, train.len(), val, shards);
    let theta0 = logic.server.theta0();
    (logic, build_workers(cfg, build_model, train, worker_gflops, &theta0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::threaded::build_participants;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;
    use std::thread;

    fn datasets() -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
        let blobs = GaussianBlobs::new(256, 8, 4, 0.3, 1);
        let val = Arc::new(blobs.validation(128));
        (Arc::new(blobs), val)
    }

    fn quick_cfg(method: Method, workers: usize) -> TrainConfig {
        let mut cfg = TrainConfig::paper_default(method, workers, 6);
        cfg.batch_per_worker = 16;
        cfg.lr = crate::config::LrSchedule::paper_default(0.05, 6);
        cfg.sparsity_ratio = 0.05;
        cfg.evals = 3;
        cfg
    }

    /// Sequential replay: driving the sharded logic and the single-lock
    /// logic through the same worker round-robin must produce identical
    /// traffic counters and bitwise-identical reply streams.
    #[test]
    fn sharded_logic_matches_single_lock_logic_sequentially() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 3);
        let build = || mlp(8, &[16], 4, 99);
        let (mut single, mut workers_a) = build_participants(&cfg, &build, &train, &val, 50.0);
        let (sharded, mut workers_b) =
            build_sharded_participants(&cfg, &build, &train, &val, 50.0, 4);
        for round in 0..12 {
            let w = round % 3;
            let req_a = workers_a[w].local_step();
            let req_b = workers_b[w].local_step();
            assert_eq!(req_a.wire_bytes(), req_b.wire_bytes(), "round {round}: uplinks diverge");
            let ra = single.process(w, req_a);
            let rb = sharded.process(w, req_b);
            assert_eq!(ra.wire_bytes(), rb.wire_bytes(), "round {round}: downlinks diverge");
            match (&ra, &rb) {
                (DownMsg::SparseDiff(a), DownMsg::SparseDiff(b)) => {
                    assert_eq!(a.encode(), b.encode(), "round {round}: payloads diverge");
                }
                _ => panic!("expected sparse diffs"),
            }
            workers_a[w].apply_reply(ra);
            workers_b[w].apply_reply(rb);
        }
        assert_eq!(single.traffic(), sharded.traffic(), "byte counters diverge");
        assert_eq!(
            single.server().current_model(),
            sharded.server().current_model(),
            "models diverge"
        );
    }

    /// Concurrent smoke: real threads drive workers against the `&self`
    /// logic; the run must complete, account every update, and produce a
    /// usable result record.
    #[test]
    fn sharded_logic_trains_concurrently() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 3);
        let build = || mlp(8, &[16], 4, 99);
        let (logic, workers) = build_sharded_participants(&cfg, &build, &train, &val, 50.0, 4);
        let iters = cfg.iters_per_worker(train.len());
        let logic = Arc::new(logic);
        thread::scope(|scope| {
            for (w, mut worker) in workers.into_iter().enumerate() {
                let logic = Arc::clone(&logic);
                scope.spawn(move || {
                    for _ in 0..iters {
                        let req = worker.local_step();
                        let reply = logic.process(w, req);
                        worker.apply_reply(reply);
                    }
                });
            }
        });
        let logic = Arc::into_inner(logic).expect("all worker threads joined");
        let total = (iters * cfg.workers) as u64;
        assert_eq!(logic.server().timestamp(), total);
        let result = logic.into_result(0.0);
        assert_eq!(result.curve.last().map(|p| p.updates), Some(total));
        assert!(result.curve.windows(2).all(|w| w[0].updates < w[1].updates), "curve unsorted");
        assert!(result.final_acc > 0.6, "sharded run should learn, got {}", result.final_acc);
        assert!(result.bytes_up > 0 && result.bytes_down > 0);
    }
}
