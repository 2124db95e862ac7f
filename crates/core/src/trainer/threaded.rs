//! Real-thread asynchronous parameter-server training.
//!
//! Builds the [`MdtServer`] and one [`TrainWorker`] per worker, runs each
//! worker on its own OS thread against the server logic on the calling
//! thread, and collects curves/traffic/staleness into a [`RunResult`].
//! Evaluation happens on the server thread from the reconstructed global
//! model `θ_0 + M` — workers never pause for it.

use crate::config::TrainConfig;
use crate::curves::{RunRecorder, RunResult};
use crate::method::Method;
use crate::protocol::{DownMsg, UpMsg};
use crate::server::{MdtServer, ServerTunables};
use crate::trainer::ModelBuilder;
use crate::worker::TrainWorker;
use dgs_nn::data::Dataset;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Server logic shared by every execution engine: MDT server plus the run
/// recorder. [`train_async`] and the DES drive it in-process; `dgs-net`
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

/// Assembles server + workers for a config. Shared by [`train_async`],
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
    let start = std::time::Instant::now();
    let (logic, _workers) = run_workers(logic, workers, cfg.iters_per_worker(train.len()));
    logic.into_result(start.elapsed().as_secs_f64())
}

/// Runs every worker for `iters` round trips on its own scoped thread
/// (worker `k` is `workers[k]`) while the calling thread plays the server:
/// updates arrive over one channel and are applied in arrival order, each
/// answered over its worker's reply channel. Workers genuinely race and
/// staleness arises for real rather than being injected.
///
/// The round trip through the server thread is what keeps the race fair:
/// every worker sleeps once per update, so with more workers than cores
/// they still interleave update by update and mean staleness stays at
/// `workers − 1`. (Workers applying their own update under a shared mutex
/// never sleep while uncontended; one then runs a whole scheduler slice —
/// in a test-sized run, all its iterations — before the next gets a core.)
///
/// Every channel end lives inside the scope, so a panic on either side
/// hangs up on the other, which panics in turn: the run fails, never hangs.
fn run_workers(
    mut logic: AsyncServerLogic,
    workers: Vec<TrainWorker>,
    iters: usize,
) -> (AsyncServerLogic, Vec<TrainWorker>) {
    let workers = std::thread::scope(|s| {
        let (up_tx, up_rx) = channel::<(usize, UpMsg)>();
        let mut down_txs = Vec::with_capacity(workers.len());
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(k, mut worker)| {
                let up_tx = up_tx.clone();
                let (down_tx, down_rx) = channel::<DownMsg>();
                down_txs.push(down_tx);
                s.spawn(move || {
                    for _ in 0..iters {
                        up_tx.send((k, worker.local_step())).expect("server hung up");
                        worker.apply_reply(down_rx.recv().expect("server hung up"));
                    }
                    worker
                })
            })
            .collect();
        drop(up_tx);
        // Ends when the last worker drops its sender.
        for (k, up) in up_rx {
            down_txs[k].send(logic.process(k, up)).expect("worker hung up mid-round-trip");
        }
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    (logic, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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

    /// The four properties the run loop owes its callers, on the returned
    /// server and workers: every update applied exactly once, each one
    /// observed by the staleness histogram, uplink bytes accounted to the
    /// byte, and every worker left on the model the server tracks for it.
    #[test]
    fn run_workers_applies_each_update_once_and_balances_the_ledger() {
        let (train, val) = datasets();
        let build = || mlp(8, &[16], 4, 99);
        for (method, w, iters) in [
            (Method::Dgs, 1usize, 7usize),
            (Method::Dgs, 3, 7),
            (Method::Asgd, 1, 7),
            (Method::Asgd, 3, 7),
            (Method::Dgs, 2, 0),
        ] {
            let cfg = quick_cfg(method, w);
            let (logic, workers) = build_participants(&cfg, &build, &train, &val, 50.0);
            let theta0 = logic.server().theta0().to_vec();
            // Top-R% keeps a fixed count per layer, so every uplink of a
            // method has the size of the first one.
            let up_each = build_workers(&cfg, &build, &train, 50.0, &theta0)[0]
                .local_step()
                .wire_bytes() as u64;
            let (logic, workers) = run_workers(logic, workers, iters);
            let updates = (w * iters) as u64;
            let server = logic.server();
            assert_eq!(server.timestamp(), updates, "{method} W={w}");
            assert_eq!(server.staleness().count(), updates, "{method} W={w}");
            assert!(workers.iter().all(|wk| wk.iterations() == iters), "{method} W={w}");
            let (up, down) = logic.traffic();
            assert_eq!(up, updates * up_each, "{method} W={w}: uplink bytes");
            if method == Method::Asgd {
                // Dense replies have one size; the last worker served holds
                // exactly the final model (v_k = M at delivery).
                let dense = DownMsg::DenseModel(Arc::new(theta0)).wire_bytes() as u64;
                assert_eq!(down, updates * dense, "ASGD W={w}: downlink bytes");
                let model = server.current_model();
                assert!(workers.iter().any(|wk| wk.model_params() == model), "ASGD W={w}");
            } else {
                assert_eq!(down > 0, updates > 0, "DGS W={w}: downlink bytes");
                // Eq. 5: θ_worker = θ_0 + v_k.
                for (k, wk) in workers.iter().enumerate() {
                    let tracked = theta0.iter().zip(server.v(k)).map(|(&t, &v)| t + v);
                    for (i, (&have, want)) in wk.model_params().iter().zip(tracked).enumerate() {
                        assert!(
                            (have - want).abs() < 1e-4,
                            "DGS W={w}: worker {k} coord {i}: {have} vs θ0+v = {want}"
                        );
                    }
                }
            }
        }
    }

    /// Blobs that can be read `reads` times; the next read panics.
    struct Flaky {
        inner: GaussianBlobs,
        reads: AtomicUsize,
    }

    impl Dataset for Flaky {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn sample_shape(&self) -> dgs_tensor::Shape {
            self.inner.sample_shape()
        }
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn fill(&self, index: usize, out: &mut [f32]) -> usize {
            let left = self.reads.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1));
            assert!(left.is_ok(), "dataset unreadable");
            self.inner.fill(index, out)
        }
    }

    // Either side panicking mid-run must fail `train_async`, not hang it:
    // the other side is blocked on a channel the panic has to close.

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn a_worker_panicking_mid_run_fails_the_run() {
        let blobs = GaussianBlobs::new(256, 8, 4, 0.3, 1);
        let val: Arc<dyn Dataset> = Arc::new(blobs.validation(128));
        // Ten-odd minibatches across the three workers, then a step panics.
        let train = Arc::new(Flaky { inner: blobs, reads: AtomicUsize::new(200) });
        let build = || mlp(8, &[16], 4, 99);
        train_async(&quick_cfg(Method::Dgs, 3), &build, train, val);
    }

    #[test]
    #[should_panic(expected = "dataset unreadable")]
    fn the_server_panicking_mid_run_fails_the_run() {
        let blobs = GaussianBlobs::new(256, 8, 4, 0.3, 1);
        // The first evaluation, a third of the way in, panics in `process`.
        let val = Arc::new(Flaky { inner: blobs.validation(128), reads: AtomicUsize::new(0) });
        let build = || mlp(8, &[16], 4, 99);
        train_async(&quick_cfg(Method::Dgs, 3), &build, Arc::new(blobs), val);
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
