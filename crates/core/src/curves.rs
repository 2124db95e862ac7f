//! Training-curve records and run results, serialisable for EXPERIMENTS.md,
//! and the one [`RunRecorder`] every asynchronous engine accounts a run with.

use crate::config::TrainConfig;
use crate::memory::MemoryReport;
use dgs_nn::data::Dataset;
use dgs_nn::metrics::evaluate;
use dgs_nn::model::Network;
use dgs_tensor::json_struct;
use std::sync::Arc;

/// Staleness histogram a run is finalised with (re-exported so crates
/// above `dgs-core` can keep one without depending on `dgs-psim`).
pub use dgs_psim::StalenessStats;

/// One evaluation point along a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Logical epoch at this point (1-based at the point of evaluation).
    pub epoch: usize,
    /// Server updates applied so far.
    pub updates: u64,
    /// Mean training loss since the previous point.
    pub train_loss: f64,
    /// Validation cross-entropy loss.
    pub val_loss: f64,
    /// Validation top-1 accuracy in `[0, 1]`.
    pub val_acc: f64,
    /// Virtual seconds elapsed (DES runs; 0 for thread runs).
    pub virtual_time: f64,
    /// Cumulative uplink bytes.
    pub bytes_up: u64,
    /// Cumulative downlink bytes.
    pub bytes_down: u64,
}

json_struct!(CurvePoint {
    epoch,
    updates,
    train_loss,
    val_loss,
    val_acc,
    virtual_time,
    bytes_up,
    bytes_down,
});

/// Outcome of one full training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration that produced this run.
    pub config: TrainConfig,
    /// Evaluation points in chronological order.
    pub curve: Vec<CurvePoint>,
    /// Final validation top-1 accuracy.
    pub final_acc: f64,
    /// Final validation loss.
    pub final_loss: f64,
    /// Total uplink bytes.
    pub bytes_up: u64,
    /// Total downlink bytes.
    pub bytes_down: u64,
    /// Total virtual time (DES runs; 0 otherwise).
    pub virtual_time: f64,
    /// Host wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Mean observed gradient staleness.
    pub mean_staleness: f64,
    /// Maximum observed gradient staleness.
    pub max_staleness: u64,
    /// Server memory: bytes of per-worker tracking state (`Σ v_k`).
    pub server_tracking_bytes: usize,
    /// Worker memory: auxiliary bytes per worker (residual/velocity).
    pub worker_aux_bytes: usize,
}

json_struct!(RunResult {
    config,
    curve,
    final_acc,
    final_loss,
    bytes_up,
    bytes_down,
    virtual_time,
    wall_secs,
    mean_staleness,
    max_staleness,
    server_tracking_bytes,
    worker_aux_bytes,
});

impl RunResult {
    /// The method's display name.
    pub fn method_name(&self) -> &'static str {
        self.config.method.name()
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }

    /// First virtual time at which training loss dropped to `target`, if
    /// ever (Fig. 5's time-to-loss metric).
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.curve.iter().find(|p| p.train_loss <= target).map(|p| p.virtual_time)
    }
}

/// The run record in the making: evaluation cadence, curve points, byte
/// and loss accounting, and [`RunResult`] finalisation. The single-lock
/// logic, the lock-striped logic and the span-cluster driver all keep
/// exactly one, so the three produce the same record from the same ticks.
pub struct RunRecorder {
    cfg: TrainConfig,
    eval_net: Network,
    val: Arc<dyn Dataset>,
    eval_every: u64,
    total_updates: u64,
    updates_per_epoch: u64,
    curve: Vec<CurvePoint>,
    loss_sum: f64,
    loss_n: u64,
    bytes_up: u64,
    bytes_down: u64,
    worker_aux_bytes: usize,
}

impl RunRecorder {
    /// A recorder for `cfg` trained on `train_len` samples. `eval_net` is a
    /// freshly built model: it evaluates every curve point, and its size
    /// fixes the per-worker auxiliary memory the method implies (no worker
    /// needs to exist to report it).
    pub fn new(
        cfg: &TrainConfig,
        eval_net: Network,
        val: Arc<dyn Dataset>,
        train_len: usize,
    ) -> Self {
        let total_updates = (cfg.iters_per_worker(train_len) * cfg.workers) as u64;
        let model_bytes = eval_net.num_params() * std::mem::size_of::<f32>();
        RunRecorder {
            eval_every: (total_updates / cfg.evals.max(1) as u64).max(1),
            updates_per_epoch: (total_updates / cfg.epochs.max(1) as u64).max(1),
            worker_aux_bytes: MemoryReport::analytic(cfg.method, cfg.workers, model_bytes)
                .worker_aux_bytes,
            cfg: cfg.clone(),
            eval_net,
            val,
            total_updates,
            curve: Vec::new(),
            loss_sum: 0.0,
            loss_n: 0,
            bytes_up: 0,
            bytes_down: 0,
        }
    }

    /// The model the recorder was built around (`θ_0` until the first eval).
    pub fn eval_net(&self) -> &Network {
        &self.eval_net
    }

    /// Accounts the update stamped with global tick `t`; `true` when an
    /// evaluation is due at this tick (every `eval_every`-th and the last).
    pub fn record(&mut self, t: u64, up_bytes: u64, down_bytes: u64, train_loss: f64) -> bool {
        self.bytes_up += up_bytes;
        self.bytes_down += down_bytes;
        self.loss_sum += train_loss;
        self.loss_n += 1;
        t.is_multiple_of(self.eval_every) || t == self.total_updates
    }

    /// Charges a recovery reply (resync) to the downlink.
    pub fn add_down(&mut self, bytes: u64) {
        self.bytes_down += bytes;
    }

    /// Evaluates `model` and appends the curve point for tick `t`.
    pub fn eval(&mut self, t: u64, virtual_time: f64, model: &[f32]) {
        self.eval_net.params_mut().load_data(model);
        let res = evaluate(&mut self.eval_net, self.val.as_ref(), self.cfg.eval_batch);
        self.curve.push(CurvePoint {
            epoch: (t / self.updates_per_epoch) as usize,
            updates: t,
            train_loss: if self.loss_n > 0 { self.loss_sum / self.loss_n as f64 } else { 0.0 },
            val_loss: res.loss,
            val_acc: res.top1,
            virtual_time,
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
        });
        self.loss_sum = 0.0;
        self.loss_n = 0;
    }

    /// Accumulated (uplink, downlink) data bytes.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_up, self.bytes_down)
    }

    /// Finalises the run record. Concurrent evals may have recorded points
    /// out of order; the curve comes back sorted by update count.
    pub fn finish(
        mut self,
        wall_secs: f64,
        staleness: &StalenessStats,
        server_tracking_bytes: usize,
    ) -> RunResult {
        self.curve.sort_by_key(|p| p.updates);
        let last = self.curve.last().copied();
        RunResult {
            config: self.cfg,
            final_acc: last.map(|p| p.val_acc).unwrap_or(0.0),
            final_loss: last.map(|p| p.val_loss).unwrap_or(0.0),
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
            virtual_time: last.map(|p| p.virtual_time).unwrap_or(0.0),
            wall_secs,
            mean_staleness: staleness.mean(),
            max_staleness: staleness.max(),
            server_tracking_bytes,
            worker_aux_bytes: self.worker_aux_bytes,
            curve: self.curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;
    use dgs_tensor::json;

    fn recorder(evals: usize) -> RunRecorder {
        let blobs = GaussianBlobs::new(64, 8, 4, 0.3, 1);
        let val: Arc<dyn Dataset> = Arc::new(blobs.validation(32));
        let mut cfg = TrainConfig::paper_default(Method::Dgs, 2, 2);
        cfg.batch_per_worker = 16;
        cfg.evals = evals;
        RunRecorder::new(&cfg, mlp(8, &[16], 4, 7), val, blobs.len())
    }

    /// 2 workers x 2 epochs x 64/(2*16) = 8 updates; with 3 evals the
    /// cadence is every 2nd tick, and the final tick always evaluates.
    #[test]
    fn eval_fires_once_per_eligible_tick_and_at_the_end() {
        let mut rec = recorder(3);
        assert_eq!(rec.total_updates, 8);
        let due: Vec<u64> = (1..=8).filter(|&t| rec.record(t, 10, 20, 1.0)).collect();
        assert_eq!(due, vec![2, 4, 6, 8]);
        // A cadence that does not divide the run still closes it.
        let mut rec = recorder(1);
        rec.total_updates = 7;
        rec.eval_every = 7 / 2;
        let due: Vec<u64> = (1..=7).filter(|&t| rec.record(t, 0, 0, 0.0)).collect();
        assert_eq!(due, vec![3, 6, 7], "last tick evaluates exactly once");
        assert_eq!(rec.traffic(), (0, 0));
    }

    #[test]
    fn out_of_order_points_come_back_sorted_with_their_accounting() {
        let mut rec = recorder(4);
        let model = rec.eval_net().params().data().to_vec();
        for t in [4u64, 2, 8, 6] {
            rec.record(t, 10, 20, t as f64);
            rec.eval(t, 0.0, &model);
        }
        rec.add_down(5);
        let result = rec.finish(1.5, &StalenessStats::new(), 77);
        let updates: Vec<u64> = result.curve.iter().map(|p| p.updates).collect();
        assert_eq!(updates, vec![2, 4, 6, 8]);
        // Each point keeps the loss window and byte totals of its own eval.
        assert_eq!(result.curve[0].train_loss, 2.0);
        assert_eq!(result.curve[0].bytes_up, 20);
        assert_eq!((result.bytes_up, result.bytes_down), (40, 85));
        assert_eq!(result.final_acc, result.curve[3].val_acc);
        assert_eq!(result.server_tracking_bytes, 77);
        assert_eq!(result.worker_aux_bytes, 4 * model.len(), "DGS keeps one velocity buffer");
        assert_eq!(result.wall_secs, 1.5);
    }

    fn dummy_result() -> RunResult {
        let config = TrainConfig::paper_default(Method::Dgs, 4, 3);
        let curve = vec![
            CurvePoint {
                epoch: 1,
                updates: 10,
                train_loss: 2.0,
                val_loss: 2.1,
                val_acc: 0.3,
                virtual_time: 1.0,
                bytes_up: 100,
                bytes_down: 150,
            },
            CurvePoint {
                epoch: 2,
                updates: 20,
                train_loss: 1.0,
                val_loss: 1.2,
                val_acc: 0.6,
                virtual_time: 2.0,
                bytes_up: 200,
                bytes_down: 300,
            },
        ];
        RunResult {
            config,
            curve,
            final_acc: 0.6,
            final_loss: 1.2,
            bytes_up: 200,
            bytes_down: 300,
            virtual_time: 2.0,
            wall_secs: 0.5,
            mean_staleness: 1.5,
            max_staleness: 3,
            server_tracking_bytes: 1024,
            worker_aux_bytes: 256,
        }
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let r = dummy_result();
        assert_eq!(r.time_to_loss(2.5), Some(1.0));
        assert_eq!(r.time_to_loss(1.5), Some(2.0));
        assert_eq!(r.time_to_loss(0.5), None);
    }

    #[test]
    fn totals() {
        let r = dummy_result();
        assert_eq!(r.total_bytes(), 500);
        assert_eq!(r.method_name(), "DGS");
    }

    #[test]
    fn diverged_run_round_trips() {
        let mut r = dummy_result();
        (r.final_loss, r.curve[1].val_loss, r.curve[1].train_loss) =
            (f64::NAN, f64::INFINITY, f64::NEG_INFINITY);
        let text = json::to_string(&r);
        assert!(text.contains("\"final_loss\":null"), "{text}");
        let back: RunResult = json::from_str(&text).unwrap();
        assert!(back.final_loss.is_nan() && back.curve[1].val_loss.is_nan());
        assert_eq!(back.curve[0], r.curve[0]);
        assert_eq!(json::to_string(&back), text);
    }

    /// A result file as `serde_json::to_string_pretty` spelled it when the
    /// types still derived `Serialize`, written while the config had a
    /// since-retired member and by a run that diverged: it loads, and
    /// written again it is the same text less the member nobody reads.
    #[test]
    fn result_files_written_by_serde_json_still_load() {
        let retired = concat!("    \"server_dense", "_scan\": true,\n");
        let text = r#"{
  "config": {
    "method": "Dgs",
    "workers": 4,
    "batch_per_worker": 32,
    "epochs": 3,
    "lr": {
      "base_lr": 0.1,
      "decay_epochs": [
        1,
        2
      ],
      "factor": 0.1
    },
    "momentum": 0.7,
    "weight_decay": 0.0,
    "sparsity_ratio": 0.01,
    "secondary_compression": false,
    "quantize_uplink": false,
    "staleness_damping": 0.0,
    "server_log_nnz": 0,
RETIRED    "clip_norm": 0.0,
    "warmup_epochs": 0,
    "seed": 18446744073709551615,
    "eval_batch": 64,
    "evals": 3
  },
  "curve": [
    {
      "epoch": 1,
      "updates": 10,
      "train_loss": 2.302585092994046,
      "val_loss": null,
      "val_acc": 0.3,
      "virtual_time": 1e-7,
      "bytes_up": 100,
      "bytes_down": 150
    }
  ],
  "final_acc": 0.3,
  "final_loss": null,
  "bytes_up": 100,
  "bytes_down": 150,
  "virtual_time": 0.0,
  "wall_secs": 0.5,
  "mean_staleness": 1.5,
  "max_staleness": 3,
  "server_tracking_bytes": 1024,
  "worker_aux_bytes": 256
}"#;
        let result: RunResult = json::from_str(&text.replace("RETIRED", retired)).unwrap();
        let mut config = TrainConfig::paper_default(Method::Dgs, 4, 3);
        config.seed = u64::MAX;
        assert_eq!(result.config, config);
        assert!(result.final_loss.is_nan() && result.curve[0].val_loss.is_nan());
        assert_eq!(result.curve[0].virtual_time, 1e-7);
        assert_eq!(json::to_string_pretty(&result), text.replace("RETIRED", ""));
    }

    #[test]
    fn serde_round_trip() {
        let r = dummy_result();
        let json = json::to_string(&r);
        let back: RunResult = json::from_str(&json).unwrap();
        assert_eq!(back.final_acc, r.final_acc);
        assert_eq!(back.curve.len(), 2);
        assert_eq!(back.config.method, Method::Dgs);
    }
}
