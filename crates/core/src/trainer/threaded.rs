//! Real-thread asynchronous parameter-server training.
//!
//! Builds the [`MdtServer`] and one [`TrainWorker`] per worker, runs them on
//! the [`dgs_psim::thread_engine`], and collects curves/traffic/staleness
//! into a [`RunResult`]. Evaluation happens on the server thread from the
//! reconstructed global model `θ_0 + M` — workers never pause for it.

use crate::config::TrainConfig;
use crate::curves::{RunRecorder, RunResult};
use crate::method::Method;
use crate::protocol::{DownMsg, UpMsg};
use crate::server::{MdtServer, ServerTunables};
use crate::trainer::ModelBuilder;
use crate::worker::TrainWorker;
use dgs_nn::data::Dataset;
use dgs_psim::thread_engine::{run_cluster, ServerLogic, WorkerLogic};
use std::sync::Arc;

/// Server logic shared by every execution engine: MDT server plus the run
/// recorder. The thread engine and the DES drive it in-process; `dgs-net`
/// serves it to loopback and TCP transports behind its `LogicHandler`.
pub struct AsyncServerLogic {
    server: MdtServer,
    recorder: RunRecorder,
    /// Virtual-time hook: the DES sets this before delegating.
    pub(crate) vtime: f64,
}

impl AsyncServerLogic {
    /// Core handling shared by every engine: applies the update, accounts
    /// the traffic, records curve points on the eval cadence.
    pub fn process(&mut self, worker: usize, req: UpMsg) -> DownMsg {
        let reply = self.server.handle_update(worker, &req);
        let t = self.server.timestamp();
        let (up, down) = (req.wire_bytes() as u64, reply.wire_bytes() as u64);
        if self.recorder.record(t, up, down, req.train_loss) {
            self.recorder.eval(t, self.vtime, &self.server.current_model());
        }
        reply
    }

    /// Recovery for a worker whose reply was lost (see
    /// [`MdtServer::resync_worker`]); the dense reply is charged to the
    /// downlink like any other data message.
    pub fn resync(&mut self, worker: usize) -> DownMsg {
        let reply = self.server.resync_worker(worker);
        self.recorder.add_down(reply.wire_bytes() as u64);
        reply
    }

    /// The wrapped MDT server.
    pub fn server(&self) -> &MdtServer {
        &self.server
    }

    /// Accumulated (uplink, downlink) data bytes.
    pub fn traffic(&self) -> (u64, u64) {
        self.recorder.traffic()
    }

    /// Finalises the run record.
    pub fn into_result(self, wall_secs: f64) -> RunResult {
        let tracking = self.server.memory_report().tracking_bytes;
        self.recorder.finish(wall_secs, self.server.staleness(), tracking)
    }
}

impl ServerLogic for AsyncServerLogic {
    type Request = UpMsg;
    type Reply = DownMsg;

    fn handle(&mut self, worker: usize, _seq: u64, req: UpMsg) -> DownMsg {
        self.process(worker, req)
    }

    fn request_bytes(req: &UpMsg) -> usize {
        req.wire_bytes()
    }

    fn reply_bytes(reply: &DownMsg) -> usize {
        reply.wire_bytes()
    }
}

impl WorkerLogic for TrainWorker {
    type Request = UpMsg;
    type Reply = DownMsg;

    fn step(&mut self, _iter: usize) -> UpMsg {
        self.local_step()
    }

    fn apply(&mut self, reply: DownMsg) {
        self.apply_reply(reply);
    }
}

/// Builds the server side of a run alone — no worker is constructed.
/// `train_len` (the training-set size) fixes the update count and with it
/// the evaluation cadence.
pub fn build_server(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train_len: usize,
    val: &Arc<dyn Dataset>,
) -> AsyncServerLogic {
    assert_ne!(cfg.method, Method::Msgd, "MSGD uses train_msgd");
    let net0 = build_model();
    let params = net0.params();
    let whole = params.partition().shard_spans(1);
    let server = ServerTunables::from_config(cfg).build(
        params.data(),
        params.partition(),
        cfg.workers,
        &whole,
        0,
    );
    let recorder = RunRecorder::new(cfg, net0, Arc::clone(val), train_len);
    AsyncServerLogic { server, recorder, vtime: 0.0 }
}

/// Builds the worker fleet of a run; every worker must start from the
/// `theta0` its server was built from.
pub fn build_workers(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: &Arc<dyn Dataset>,
    worker_gflops: f64,
    theta0: &[f32],
) -> Vec<TrainWorker> {
    (0..cfg.workers)
        .map(|k| {
            let net = build_model();
            assert_eq!(net.params().data(), theta0, "builder must be deterministic");
            TrainWorker::new(k, net, Arc::clone(train), cfg.clone(), worker_gflops)
        })
        .collect()
}

/// Assembles server + workers for a config. Shared by the thread engine,
/// the DES, the scheduled driver, and the cross-process runtime.
pub fn build_participants(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: &Arc<dyn Dataset>,
    val: &Arc<dyn Dataset>,
    worker_gflops: f64,
) -> (AsyncServerLogic, Vec<TrainWorker>) {
    let logic = build_server(cfg, build_model, train.len(), val);
    let workers = build_workers(cfg, build_model, train, worker_gflops, logic.server.theta0());
    (logic, workers)
}

/// Trains asynchronously on real threads and returns the run record.
pub fn train_async(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
) -> RunResult {
    let (logic, workers) = build_participants(cfg, build_model, &train, &val, 50.0);
    let report = run_cluster(logic, workers, cfg.iters_per_worker(train.len()));
    report.server.into_result(report.wall_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;

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

    #[test]
    fn dgs_trains_async_on_threads() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 3);
        let build = || mlp(8, &[32], 4, 99);
        let result = train_async(&cfg, &build, train, val);
        assert_eq!(result.curve.len(), 3);
        assert!(result.final_acc > 0.85, "DGS should solve blobs, got {}", result.final_acc);
        assert!(result.bytes_up > 0 && result.bytes_down > 0);
        // Sparse in both directions: far less than dense traffic.
        let net = build();
        let dense_round = 4 * net.num_params() as u64;
        let updates = result.curve.last().unwrap().updates;
        assert!(
            result.bytes_up < updates * dense_round / 4,
            "uplink should be sparse: {} vs dense {}",
            result.bytes_up,
            updates * dense_round
        );
    }

    #[test]
    fn asgd_downlink_is_dense_and_heavier_than_dgs() {
        let (train, val) = datasets();
        let build = || mlp(8, &[32], 4, 99);
        let asgd =
            train_async(&quick_cfg(Method::Asgd, 3), &build, Arc::clone(&train), Arc::clone(&val));
        let dgs = train_async(&quick_cfg(Method::Dgs, 3), &build, train, val);
        // At this tiny model size headers blunt the ratio; on realistic
        // models the ratio is orders of magnitude (see the bench crate).
        assert!(
            asgd.total_bytes() > 3 * dgs.total_bytes(),
            "ASGD {} vs DGS {}",
            asgd.total_bytes(),
            dgs.total_bytes()
        );
    }

    #[test]
    fn all_async_methods_complete_and_learn() {
        let (train, val) = datasets();
        let build = || mlp(8, &[32], 4, 99);
        for method in Method::ASYNC {
            let result =
                train_async(&quick_cfg(method, 2), &build, Arc::clone(&train), Arc::clone(&val));
            assert!(result.final_acc > 0.6, "{method} accuracy too low: {}", result.final_acc);
            assert!(result.mean_staleness >= 0.0);
        }
    }

    #[test]
    fn staleness_observed_with_multiple_workers() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 4);
        let build = || mlp(8, &[16], 4, 99);
        let result = train_async(&cfg, &build, train, val);
        // With 4 racing workers some updates must be stale.
        assert!(result.max_staleness > 0, "expected nonzero staleness");
    }

    #[test]
    fn memory_accounting_exposed() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 2);
        let build = || mlp(8, &[16], 4, 99);
        let result = train_async(&cfg, &build, train, val);
        let model_bytes = build().num_params() * 4;
        assert_eq!(result.server_tracking_bytes, 2 * model_bytes);
        assert_eq!(result.worker_aux_bytes, model_bytes); // SAMomentum u
    }
}
