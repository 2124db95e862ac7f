//! End-to-end training behaviour across all five methods: everything
//! learns, traffic relations hold, and memory accounting matches the
//! analytic model of §5.6.2.

use dgs::core::config::{LrSchedule, TrainConfig};
use dgs::core::memory::MemoryReport;
use dgs::core::method::Method;
use dgs::core::trainer::single::train_msgd;
use dgs::core::trainer::threaded::train_async;
use dgs::nn::data::{Dataset, GaussianBlobs};
use dgs::nn::models::mlp;
use std::sync::Arc;

fn datasets() -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
    let blobs = GaussianBlobs::new(256, 10, 4, 0.35, 21);
    let val = Arc::new(blobs.validation(128));
    (Arc::new(blobs), val)
}

fn cfg(method: Method, workers: usize) -> TrainConfig {
    let mut c = TrainConfig::paper_default(method, workers, 6);
    c.batch_per_worker = 16;
    c.lr = LrSchedule::paper_default(0.05, 6);
    c.momentum = 0.45;
    c.sparsity_ratio = 0.05;
    c.clip_norm = 0.0;
    c.seed = 77;
    c.evals = 3;
    c
}

fn build() -> dgs::nn::model::Network {
    mlp(10, &[32, 16], 4, 13)
}

#[test]
fn every_method_learns_the_task() {
    let (train, val) = datasets();
    for method in Method::ALL {
        let c = cfg(method, 3);
        let res = if method == Method::Msgd {
            train_msgd(build(), Arc::clone(&train), Arc::clone(&val), &c)
        } else {
            train_async(&c, &build, Arc::clone(&train), Arc::clone(&val))
        };
        assert!(res.final_acc > 0.8, "{method} failed to learn: acc {}", res.final_acc);
        assert!(res.curve.len() >= 3, "{method} curve too short");
        // Loss decreases over training.
        assert!(
            res.curve.last().unwrap().train_loss < res.curve[0].train_loss,
            "{method} loss did not decrease"
        );
    }
}

#[test]
fn traffic_hierarchy_matches_paper() {
    // ASGD dense ≫ sparse methods in both directions; DGS uplink equals
    // GD-async uplink (same Top-k budget).
    let (train, val) = datasets();
    let asgd = train_async(&cfg(Method::Asgd, 3), &build, Arc::clone(&train), Arc::clone(&val));
    let gd = train_async(&cfg(Method::GdAsync, 3), &build, Arc::clone(&train), Arc::clone(&val));
    let dgs = train_async(&cfg(Method::Dgs, 3), &build, Arc::clone(&train), Arc::clone(&val));
    assert!(asgd.bytes_up > 3 * dgs.bytes_up, "uplink should shrink");
    assert!(asgd.bytes_down > 3 * dgs.bytes_down, "downlink should shrink");
    assert_eq!(gd.bytes_up, dgs.bytes_up, "GD-async and DGS send the same Top-k volume upward");
}

#[test]
fn live_memory_matches_analytic_model() {
    let (train, val) = datasets();
    let model_bytes = build().num_params() * 4;
    for method in Method::ASYNC {
        let res = train_async(&cfg(method, 3), &build, Arc::clone(&train), Arc::clone(&val));
        let analytic = MemoryReport::analytic(method, 3, model_bytes);
        assert_eq!(
            res.server_tracking_bytes, analytic.server_tracking_bytes,
            "{method} server tracking bytes"
        );
        assert_eq!(res.worker_aux_bytes, analytic.worker_aux_bytes, "{method} worker aux bytes");
    }
}

#[test]
fn staleness_grows_with_workers() {
    let (train, val) = datasets();
    let r2 = train_async(&cfg(Method::Dgs, 2), &build, Arc::clone(&train), Arc::clone(&val));
    let r6 = train_async(&cfg(Method::Dgs, 6), &build, Arc::clone(&train), Arc::clone(&val));
    assert!(
        r6.mean_staleness > r2.mean_staleness,
        "staleness should grow with workers: {} vs {}",
        r2.mean_staleness,
        r6.mean_staleness
    );
    // With the round-trip protocol, mean staleness ≈ workers − 1.
    assert!((r2.mean_staleness - 1.0).abs() < 0.5);
    assert!((r6.mean_staleness - 5.0).abs() < 1.0);
}

#[test]
fn secondary_compression_caps_downlink() {
    let (train, val) = datasets();
    let mut with = cfg(Method::Dgs, 4);
    with.secondary_compression = true;
    let mut without = cfg(Method::Dgs, 4);
    without.secondary_compression = false;
    let r_with = train_async(&with, &build, Arc::clone(&train), Arc::clone(&val));
    let r_without = train_async(&without, &build, Arc::clone(&train), Arc::clone(&val));
    assert!(
        r_with.bytes_down < r_without.bytes_down,
        "secondary compression must reduce downlink: {} vs {}",
        r_with.bytes_down,
        r_without.bytes_down
    );
    // And it must not destroy learning.
    assert!(r_with.final_acc > 0.75, "acc {}", r_with.final_acc);
}

#[test]
fn quantized_uplink_trains_with_fewer_bytes() {
    // The §6 extension end-to-end: DGS with a ternary-quantized uplink
    // still learns (the quantizer is unbiased) and sends far fewer bytes.
    let (train, val) = datasets();
    let mut plain = cfg(Method::Dgs, 3);
    plain.sparsity_ratio = 0.1;
    let mut quant = plain.clone();
    quant.quantize_uplink = true;
    let r_plain = train_async(&plain, &build, Arc::clone(&train), Arc::clone(&val));
    let r_quant = train_async(&quant, &build, train, val);
    assert!(
        r_quant.bytes_up * 3 < r_plain.bytes_up * 2,
        "quantized uplink should save bytes: {} vs {}",
        r_quant.bytes_up,
        r_plain.bytes_up
    );
    assert!(r_quant.final_acc > 0.7, "quantized DGS should still learn: {}", r_quant.final_acc);
}

#[test]
fn weight_decay_shrinks_parameter_norm() {
    let (train, val) = datasets();
    let mut no_wd = cfg(Method::Dgs, 2);
    no_wd.sparsity_ratio = 0.2;
    let mut with_wd = no_wd.clone();
    with_wd.weight_decay = 0.05;
    let a = train_async(&no_wd, &build, Arc::clone(&train), Arc::clone(&val));
    let b = train_async(&with_wd, &build, train, val);
    // Both learn; decay keeps the loss landscape bounded. Accuracy is task
    // dependent, so just require both to be functional and distinct runs.
    assert!(a.final_acc > 0.7 && b.final_acc > 0.6);
    assert_ne!(a.final_loss, b.final_loss, "decay must change the trajectory");
}

#[test]
fn kernel_backend_swap_preserves_trained_bits() {
    // The compute tier's bitwise contract, end to end: training the same
    // model on the scalar oracle, the SIMD backend, and the runtime
    // default must produce byte-identical parameter vectors and logits.
    use dgs::nn::models::tiny_cnn;
    use dgs::nn::Kernel;
    use dgs::tensor::Tensor;

    let x = Tensor::randn([8, 1, 8, 8], 1.0, 3030);
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();

    let train = |kernel: Option<Kernel>| -> (Vec<u32>, Vec<u32>) {
        // 1×8×8 input, one conv+pool stage, 3 classes: small but it runs
        // GEMM, im2col conv, max-pool and ReLU on every step.
        let mut net = tiny_cnn(1, 8, 3, 4, 99);
        if let Some(k) = kernel {
            net.set_kernel(k);
        }
        for _ in 0..4 {
            net.train_step(x.clone(), &labels);
            let grads = net.params().grad().to_vec();
            let data = net.params_mut().data_mut();
            for (p, g) in data.iter_mut().zip(grads.iter()) {
                *p -= 0.05 * g;
            }
        }
        let logits = net.forward(x.clone());
        (
            net.params().data().iter().map(|v| v.to_bits()).collect(),
            logits.data().iter().map(|v| v.to_bits()).collect(),
        )
    };

    let (p_scalar, l_scalar) = train(Some(Kernel::Scalar));
    let (p_simd, l_simd) = train(Some(Kernel::Simd));
    let (p_runtime, l_runtime) = train(None);
    assert_eq!(p_scalar, p_simd, "trained parameter bits diverged across kernel backends");
    assert_eq!(l_scalar, l_simd, "final logits bits diverged across kernel backends");
    assert_eq!(p_scalar, p_runtime, "runtime backend diverged from explicit backends");
    assert_eq!(l_scalar, l_runtime, "runtime logits diverged from explicit backends");
}

#[test]
fn run_results_serialise() {
    let (train, val) = datasets();
    let res = train_async(&cfg(Method::Dgs, 2), &build, train, val);
    let json = dgs::tensor::json::to_string(&res);
    let back: dgs::core::curves::RunResult = dgs::tensor::json::from_str(&json).expect("parse");
    assert_eq!(back.final_acc, res.final_acc);
    assert_eq!(back.curve.len(), res.curve.len());
    assert_eq!(back.config.method, Method::Dgs);
}
