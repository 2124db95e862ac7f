//! Discrete-event-simulated asynchronous training.
//!
//! Wraps the same [`AsyncServerLogic`] / [`TrainWorker`] pair
//! [`train_async`](crate::trainer::train_async) runs in the
//! [`dgs_psim::des`] traits, adding the cost models
//! the virtual clock needs: worker compute time (flops / rated GFLOP/s)
//! and server processing time (per-update base cost plus a per-coordinate
//! cost). Used for the paper's wall-clock experiments (Figs. 5 and 6),
//! where the quantity of interest is virtual time, not host time.

use crate::config::TrainConfig;
use crate::curves::RunResult;
use crate::protocol::{DownMsg, UpMsg};
use crate::trainer::threaded::{build_participants, AsyncServerLogic};
use crate::trainer::ModelBuilder;
use crate::worker::TrainWorker;
use dgs_nn::data::Dataset;
use dgs_psim::des::{run_des_budget, Budget, DesNetwork, DesServer, DesWorker};
use dgs_psim::NetworkModel;
use std::sync::Arc;

/// Server processing cost: seconds per update handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCostModel {
    /// Fixed per-update cost in seconds.
    pub base_s: f64,
    /// Additional cost per update coordinate (applies the scatter-add).
    pub per_coord_s: f64,
}

impl Default for ServerCostModel {
    fn default() -> Self {
        // ~50 µs dispatch plus 1 ns per touched coordinate — a fast server.
        ServerCostModel { base_s: 50e-6, per_coord_s: 1e-9 }
    }
}

impl ServerCostModel {
    /// Processing time for an update carrying `nnz` coordinates.
    pub fn time_for(&self, nnz: usize) -> f64 {
        self.base_s + self.per_coord_s * nnz as f64
    }
}

/// Parameters of a DES run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesParams {
    /// Worker↔server link model.
    pub network: NetworkModel,
    /// Model the server NIC as a shared full-duplex channel (the paper's
    /// physical topology; the source of ASGD's scaling collapse).
    pub shared_server_link: bool,
    /// Rated worker compute throughput in GFLOP/s. Calibrated so the
    /// compute:communication ratio at our model sizes matches the paper's
    /// V100 + ResNet-18 regime (see EXPERIMENTS.md §Calibration).
    pub worker_gflops: f64,
    /// Server processing cost model.
    pub server_cost: ServerCostModel,
}

impl DesParams {
    /// The paper's 10 Gbps cluster with a V100-class (relative) worker.
    pub fn ten_gbps() -> Self {
        DesParams {
            network: NetworkModel::ten_gbps(),
            shared_server_link: true,
            worker_gflops: 5.0,
            server_cost: ServerCostModel::default(),
        }
    }

    /// The throttled 1 Gbps setting of Figs. 5-6.
    pub fn one_gbps() -> Self {
        DesParams { network: NetworkModel::one_gbps(), ..DesParams::ten_gbps() }
    }

    /// The [`DesNetwork`] this configuration describes.
    pub fn des_network(&self) -> DesNetwork {
        DesNetwork { model: self.network, shared_server_link: self.shared_server_link }
    }
}

struct DesServerAdapter {
    logic: AsyncServerLogic,
    cost: ServerCostModel,
}

impl DesServer for DesServerAdapter {
    type Up = UpMsg;
    type Down = DownMsg;

    fn handle(&mut self, worker: usize, _seq: u64, vtime: f64, up: UpMsg) -> (DownMsg, usize, f64) {
        let nnz = up.payload.nnz();
        self.logic.vtime = vtime;
        let reply = self.logic.process(worker, up);
        let bytes = reply.wire_bytes();
        (reply, bytes, self.cost.time_for(nnz))
    }
}

impl DesWorker for TrainWorker {
    type Up = UpMsg;
    type Down = DownMsg;

    fn compute(&mut self) -> (UpMsg, usize, f64) {
        let up = self.local_step();
        let bytes = up.wire_bytes();
        (up, bytes, self.compute_secs())
    }

    fn apply(&mut self, down: DownMsg) {
        self.apply_reply(down);
    }
}

/// Trains under the discrete-event simulator and returns the run record
/// (with `virtual_time` populated on every curve point).
pub fn train_des(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
    params: DesParams,
) -> RunResult {
    train_des_stragglers(cfg, build_model, train, val, params, &dgs_psim::StragglerModel::none())
}

/// [`train_des`] with a worker-lag model: each worker's modelled compute
/// time is multiplied by `stragglers.multiplier(worker, iter)`. Used for
/// the straggler ablation that reproduces the paper's §1 motivation.
pub fn train_des_stragglers(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
    params: DesParams,
    stragglers: &dgs_psim::StragglerModel,
) -> RunResult {
    let start = std::time::Instant::now();
    let (logic, mut workers) =
        build_participants(cfg, build_model, &train, &val, params.worker_gflops);
    for w in workers.iter_mut() {
        w.set_stragglers(stragglers.clone());
    }
    let iters = cfg.iters_per_worker(train.len());
    let mut adapter = DesServerAdapter { logic, cost: params.server_cost };
    // With a lag model, consume the budget first-come first-served so fast
    // workers pick up the straggler's slack — the asynchronous cluster's
    // actual behaviour. The uniform case keeps per-worker quotas, which is
    // equivalent there and preserves fig. 6's fixed-work protocol.
    let budget = if stragglers.is_none() {
        Budget::PerWorker(iters)
    } else {
        Budget::Total(iters.saturating_mul(cfg.workers))
    };
    let report = run_des_budget(&mut adapter, &mut workers, budget, params.des_network());
    let mut result = adapter.logic.into_result(start.elapsed().as_secs_f64());
    result.virtual_time = report.total_time;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;

    fn datasets() -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
        let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 1);
        let val = Arc::new(blobs.validation(64));
        (Arc::new(blobs), val)
    }

    fn quick_cfg(method: Method, workers: usize) -> TrainConfig {
        let mut cfg = TrainConfig::paper_default(method, workers, 4);
        cfg.batch_per_worker = 16;
        cfg.lr = crate::config::LrSchedule::paper_default(0.05, 4);
        cfg.sparsity_ratio = 0.05;
        cfg.evals = 4;
        cfg
    }

    #[test]
    fn des_produces_virtual_time_curve() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 2);
        let build = || mlp(8, &[16], 4, 5);
        let result = train_des(&cfg, &build, train, val, DesParams::ten_gbps());
        assert!(result.virtual_time > 0.0);
        // Curve points carry increasing virtual time.
        let times: Vec<f64> = result.curve.iter().map(|p| p.virtual_time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        assert!(result.final_acc > 0.5);
    }

    #[test]
    fn des_is_deterministic() {
        let run = || {
            let (train, val) = datasets();
            let cfg = quick_cfg(Method::Dgs, 3);
            let build = || mlp(8, &[16], 4, 5);
            train_des(&cfg, &build, train, val, DesParams::one_gbps())
        };
        let a = run();
        let b = run();
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(a.bytes_up, b.bytes_up);
        assert_eq!(a.final_acc, b.final_acc);
        for (pa, pb) in a.curve.iter().zip(b.curve.iter()) {
            assert_eq!(pa.train_loss, pb.train_loss);
            assert_eq!(pa.virtual_time, pb.virtual_time);
        }
    }

    #[test]
    fn dgs_faster_than_asgd_on_slow_network() {
        // The Fig. 5 phenomenon in miniature: at 1 Gbps-relative scale the
        // dense model downlink throttles ASGD while DGS's sparse traffic
        // keeps the pipeline busy. Use a bigger model so transfers dominate.
        let (train, val) = datasets();
        let build = || mlp(8, &[256, 256], 4, 5);
        // Slow link to make communication the bottleneck at this model size.
        let params = DesParams { network: NetworkModel::new(0.05, 50.0), ..DesParams::ten_gbps() };
        let dgs = train_des(
            &quick_cfg(Method::Dgs, 2),
            &build,
            Arc::clone(&train),
            Arc::clone(&val),
            params,
        );
        let asgd = train_des(&quick_cfg(Method::Asgd, 2), &build, train, val, params);
        assert!(
            dgs.virtual_time * 3.0 < asgd.virtual_time,
            "DGS {}s vs ASGD {}s",
            dgs.virtual_time,
            asgd.virtual_time
        );
    }

    #[test]
    fn faster_network_reduces_virtual_time() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Asgd, 2);
        let build = || mlp(8, &[128], 4, 5);
        let slow = train_des(
            &cfg,
            &build,
            Arc::clone(&train),
            Arc::clone(&val),
            DesParams { network: NetworkModel::new(0.1, 50.0), ..DesParams::ten_gbps() },
        );
        let fast = train_des(&cfg, &build, train, val, DesParams::ten_gbps());
        assert!(fast.virtual_time < slow.virtual_time);
    }
}
