//! A training worker: model + data stream + compressor.
//!
//! `TrainWorker` implements one iteration of the paper's worker loop
//! (Alg. 1 / Alg. 3): sample a minibatch, run forward/backward, hand the
//! gradient to the method's [`Compressor`](crate::compress::Compressor),
//! and apply whatever the server sends back. The same struct drives both
//! the real-thread engine and the DES.

use crate::compress::{compressor_for, Compressor, StepCtx};
use crate::config::TrainConfig;
use crate::method::Method;
use crate::protocol::{DownMsg, UpMsg};
use dgs_nn::data::Dataset;
use dgs_nn::loader::BatchLoader;
use dgs_nn::model::Network;
use dgs_psim::StragglerModel;
use dgs_sparsify::{Kernel, ShardSpan, TernaryUpdate};
use dgs_tensor::rng::derive_seed;
use std::sync::Arc;

/// One asynchronous training worker.
pub struct TrainWorker {
    worker_id: usize,
    net: Network,
    loader: BatchLoader,
    compressor: Box<dyn Compressor>,
    cfg: TrainConfig,
    dataset_len: usize,
    /// Local iteration counter (the paper's worker-side `t`).
    iter: usize,
    /// Modelled compute seconds per iteration, for the DES.
    compute_secs: f64,
    /// Optional worker-lag model applied to the modelled compute time.
    stragglers: StragglerModel,
}

impl TrainWorker {
    /// Creates worker `worker_id`. All workers must be constructed with the
    /// same `net` initialisation (same arch seed) so they share `θ_0`; the
    /// data stream is seeded per worker.
    pub fn new(
        worker_id: usize,
        net: Network,
        dataset: Arc<dyn Dataset>,
        cfg: TrainConfig,
        worker_gflops: f64,
    ) -> Self {
        assert_ne!(cfg.method, Method::Msgd, "MSGD uses the single-node trainer");
        let dataset_len = dataset.len();
        let loader = BatchLoader::new(
            dataset,
            cfg.batch_per_worker,
            derive_seed(cfg.seed, 1000 + worker_id as u64),
        );
        let dim = net.num_params();
        let compressor = compressor_for(cfg.method, dim, cfg.momentum, cfg.clip_norm);
        let flops = net.flops_per_sample() as f64 * cfg.batch_per_worker as f64;
        let compute_secs = flops / (worker_gflops * 1e9);
        TrainWorker {
            worker_id,
            net,
            loader,
            compressor,
            cfg,
            dataset_len,
            iter: 0,
            compute_secs,
            stragglers: StragglerModel::none(),
        }
    }

    /// Installs a worker-lag model; the DES multiplies the modelled compute
    /// time by `stragglers.multiplier(worker_id, iter)` each iteration.
    pub fn set_stragglers(&mut self, stragglers: StragglerModel) {
        self.stragglers = stragglers;
    }

    /// Local iterations completed.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Modelled compute time per iteration (seconds) for the DES,
    /// including the straggler multiplier for the *next* iteration.
    pub fn compute_secs(&self) -> f64 {
        self.compute_secs * self.stragglers.multiplier(self.worker_id, self.iter as u64)
    }

    /// The worker's current local model parameters.
    pub fn model_params(&self) -> &[f32] {
        self.net.params().data()
    }

    /// Worker-side auxiliary memory in bytes (compressor state).
    pub fn aux_bytes(&self) -> usize {
        self.compressor.aux_floats() * std::mem::size_of::<f32>()
    }

    /// Selects the compute backend for the uplink selection kernels *and*
    /// the training network's GEMM/conv/pool tier (see
    /// [`Compressor::set_kernel`] and `Network::set_kernel`). Backends are
    /// bitwise-identical, so this never changes a trajectory.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.compressor.set_kernel(kernel);
        self.net.set_kernel(kernel);
    }

    /// Runs one local iteration: minibatch gradient + compression.
    pub fn local_step(&mut self) -> UpMsg {
        let (x, labels) = self.loader.next_batch();
        let (loss, _) = self.net.train_step(x, &labels);
        if self.cfg.weight_decay > 0.0 {
            let wd = self.cfg.weight_decay;
            let (data, grad) = self.net.params_mut().data_and_grad_mut();
            for (g, &p) in grad.iter_mut().zip(data.iter()) {
                *g += wd * p;
            }
        }
        let epoch = self.cfg.epoch_of_iter(self.iter, self.dataset_len);
        let lr = self.cfg.lr.lr_at(epoch);
        let ratio = if self.cfg.method == Method::DgcAsync {
            self.cfg.warmup().ratio_at(epoch)
        } else {
            self.cfg.sparsity_ratio
        };
        self.iter += 1;
        let ctx = StepCtx { lr, ratio };
        let params = self.net.params();
        let mut payload = self.compressor.compress(params.grad(), params.partition(), ctx);
        // Optional extension: ternary-quantize the sparse uplink (§6).
        if self.cfg.quantize_uplink {
            if let crate::protocol::UpPayload::Sparse(s) = &payload {
                let qseed =
                    derive_seed(self.cfg.seed, (self.worker_id as u64) << 32 | self.iter as u64);
                payload =
                    crate::protocol::UpPayload::TernarySparse(TernaryUpdate::quantize(s, qseed));
            }
        }
        UpMsg { payload, train_loss: loss }
    }

    /// Applies one *span server's* reply to this worker's slice of the
    /// local model — the per-span counterpart of
    /// [`TrainWorker::apply_reply`] for multi-process cluster training,
    /// where a recovering span answers with its slice alone (a dense
    /// span model on resync, or a span-local diff) while the other spans
    /// proceed normally. A dense reply must be exactly `span.len` long;
    /// a sparse reply's chunks are interpreted against the span's
    /// sub-partition, exactly as `dgs_core::shard` slices them.
    pub fn apply_span_reply(&mut self, span: &ShardSpan, reply: DownMsg) {
        let sub = self.net.params().partition().subpartition(span);
        let data = &mut self.net.params_mut().data_mut()[span.range()];
        match reply {
            DownMsg::DenseModel(model) => {
                assert_eq!(model.len(), span.len, "span reply size");
                data.copy_from_slice(&model);
            }
            DownMsg::SparseDiff(diff) => diff.apply_add(data, &sub, 1.0),
        }
    }

    /// Applies a server reply to the local model.
    pub fn apply_reply(&mut self, reply: DownMsg) {
        match reply {
            DownMsg::DenseModel(model) => {
                self.net.params_mut().load_data(&model);
            }
            DownMsg::SparseDiff(diff) => {
                let (data, partition) = self.net.params_mut().data_mut_and_partition();
                diff.apply_add(data, partition, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::UpPayload;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;

    fn cfg(method: Method) -> TrainConfig {
        let mut c = TrainConfig::paper_default(method, 2, 2);
        c.batch_per_worker = 8;
        c.sparsity_ratio = 0.1;
        c
    }

    fn worker(method: Method) -> TrainWorker {
        let ds: Arc<dyn Dataset> = Arc::new(GaussianBlobs::new(64, 6, 3, 0.3, 5));
        let net = mlp(6, &[16], 3, 7);
        TrainWorker::new(0, net, ds, cfg(method), 10.0)
    }

    #[test]
    fn dgs_step_produces_sparse_update() {
        let mut w = worker(Method::Dgs);
        let up = w.local_step();
        assert!(up.train_loss > 0.0);
        match up.payload {
            UpPayload::Sparse(s) => {
                assert!(s.nnz() > 0);
                assert!(s.nnz() < w.net.num_params() / 2, "should be sparse");
            }
            _ => panic!("DGS must send sparse updates"),
        }
        assert_eq!(w.iterations(), 1);
    }

    #[test]
    fn asgd_step_produces_dense_update() {
        let mut w = worker(Method::Asgd);
        let up = w.local_step();
        match up.payload {
            UpPayload::Dense(v) => assert_eq!(v.len(), w.net.num_params()),
            _ => panic!("ASGD must send dense updates"),
        }
    }

    #[test]
    fn apply_dense_model_replaces_params() {
        let mut w = worker(Method::Asgd);
        let n = w.net.num_params();
        w.apply_reply(DownMsg::DenseModel(std::sync::Arc::new(vec![0.25; n])));
        assert!(w.model_params().iter().all(|&p| p == 0.25));
    }

    #[test]
    fn apply_sparse_diff_adds() {
        let mut w = worker(Method::Dgs);
        let before = w.model_params().to_vec();
        let part = w.net.params().partition().clone();
        let mut diff = vec![0.0f32; before.len()];
        diff[0] = 1.5;
        let sparse = dgs_sparsify::SparseUpdate::from_nonzero(&diff, &part);
        w.apply_reply(DownMsg::SparseDiff(sparse));
        assert!((w.model_params()[0] - (before[0] + 1.5)).abs() < 1e-6);
        assert_eq!(w.model_params()[1], before[1]);
    }

    #[test]
    fn apply_span_reply_touches_only_the_span() {
        let mut w = worker(Method::Dgs);
        let part = w.net.params().partition().clone();
        let spans = part.shard_spans(2);
        assert!(spans.len() >= 2, "mlp partition should shard");
        let before = w.model_params().to_vec();
        // Dense span reply replaces exactly the span's slice.
        let span1 = spans[1];
        w.apply_span_reply(
            &span1,
            DownMsg::DenseModel(std::sync::Arc::new(vec![0.125; span1.len])),
        );
        for (i, (&a, &b)) in w.model_params().iter().zip(&before).enumerate() {
            if span1.range().contains(&i) {
                assert_eq!(a, 0.125, "coord {i} inside the span");
            } else {
                assert_eq!(a, b, "coord {i} outside the span");
            }
        }
        // Sparse span reply adds through the span's sub-partition.
        let span0 = spans[0];
        let sub = part.subpartition(&span0);
        let mut flat = vec![0.0f32; span0.len];
        flat[0] = 1.5;
        let diff = dgs_sparsify::SparseUpdate::from_nonzero(&flat, &sub);
        w.apply_span_reply(&span0, DownMsg::SparseDiff(diff));
        assert!((w.model_params()[0] - (before[0] + 1.5)).abs() < 1e-6);
        assert_eq!(w.model_params()[1], before[1]);
    }

    #[test]
    fn compute_secs_positive_and_scales() {
        let w_fast = worker(Method::Dgs);
        let ds: Arc<dyn Dataset> = Arc::new(GaussianBlobs::new(64, 6, 3, 0.3, 5));
        let net = mlp(6, &[16], 3, 7);
        let w_slow = TrainWorker::new(0, net, ds, cfg(Method::Dgs), 1.0);
        assert!(w_fast.compute_secs() > 0.0);
        assert!((w_slow.compute_secs() / w_fast.compute_secs() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn aux_bytes_match_method() {
        let dim = worker(Method::Dgs).net.num_params();
        assert_eq!(worker(Method::Dgs).aux_bytes(), 4 * dim);
        assert_eq!(worker(Method::GdAsync).aux_bytes(), 4 * dim);
        assert_eq!(worker(Method::DgcAsync).aux_bytes(), 8 * dim);
        assert_eq!(worker(Method::Asgd).aux_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "single-node")]
    fn msgd_rejected() {
        worker(Method::Msgd);
    }

    #[test]
    fn quantized_uplink_produces_ternary_payload() {
        let ds: Arc<dyn Dataset> = Arc::new(GaussianBlobs::new(64, 6, 3, 0.3, 5));
        let net = mlp(6, &[16], 3, 7);
        let mut c = cfg(Method::Dgs);
        c.quantize_uplink = true;
        let mut w = TrainWorker::new(0, net, ds, c, 10.0);
        let up = w.local_step();
        match up.payload {
            UpPayload::TernarySparse(t) => {
                // Stochastic dropping may thin it out, but something of the
                // Top-k selection survives on a real gradient.
                assert!(t.nnz() > 0, "quantized payload empty");
                assert!(t.wire_bytes() > 0);
            }
            other => panic!("expected ternary payload, got {other:?}"),
        }
    }

    #[test]
    fn quantized_uplink_smaller_than_full_precision() {
        let mk = |quantize: bool| {
            let ds: Arc<dyn Dataset> = Arc::new(GaussianBlobs::new(64, 6, 3, 0.3, 5));
            let net = mlp(6, &[16], 3, 7);
            let mut c = cfg(Method::Dgs);
            c.quantize_uplink = quantize;
            let mut w = TrainWorker::new(0, net, ds, c, 10.0);
            w.local_step().wire_bytes()
        };
        assert!(mk(true) < mk(false), "ternary payload should be smaller");
    }
}
