//! Integration test for the paper's Eq. (5): model-difference tracking
//! without sparsification is *exactly* vanilla ASGD.
//!
//! Drives the real server and real training workers (real models, real
//! gradients) in a deterministic round-robin and checks that the MDT path
//! (sparse diff downlink, Top-k ratio 1.0 so nothing is dropped) produces
//! the same trajectory as the dense-model ASGD path.

use dgs::core::config::{LrSchedule, TrainConfig};
use dgs::core::method::Method;
mod common;

use dgs::core::protocol::{DownMsg, UpPayload};
use dgs::core::server::{Downlink, MdtServer};
use dgs::core::worker::TrainWorker;
use dgs::nn::data::{Dataset, GaussianBlobs};
use dgs::nn::models::mlp;
use std::sync::Arc;

fn make_cfg(method: Method) -> TrainConfig {
    let mut cfg = TrainConfig::paper_default(method, 2, 4);
    cfg.batch_per_worker = 8;
    cfg.lr = LrSchedule::constant(0.05);
    cfg.sparsity_ratio = 1.0; // keep everything: pure MDT, no dropping
    cfg.seed = 99;
    cfg
}

fn run_round_robin(method: Method, downlink: Downlink, steps: usize) -> Vec<f32> {
    let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 1);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let cfg = make_cfg(method);
    let build = || mlp(8, &[16], 4, 7);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let mut server = MdtServer::new(theta0, partition, 2, downlink);
    let mut workers: Vec<TrainWorker> = (0..2)
        .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
        .collect();
    for t in 0..steps {
        let k = t % 2;
        let up = workers[k].local_step();
        let reply = server.handle_update(k, &up);
        workers[k].apply_reply(reply);
    }
    server.current_model()
}

#[test]
fn mdt_without_sparsification_equals_asgd() {
    // GD-async at ratio 1.0 sends the entire η∇ every step (its residual
    // is always fully flushed), so the only difference from ASGD is the
    // downlink representation: model difference vs whole model. Eq. (5)
    // says the trajectories coincide.
    let steps = 40;
    let asgd = run_round_robin(Method::Asgd, Downlink::DenseModel, steps);
    let mdt = run_round_robin(
        Method::GdAsync,
        Downlink::ModelDifference { secondary_ratio: None },
        steps,
    );
    assert_eq!(asgd.len(), mdt.len());
    let mut max_diff = 0.0f32;
    for (a, b) in asgd.iter().zip(mdt.iter()) {
        max_diff = max_diff.max((a - b).abs());
    }
    assert!(max_diff < 1e-4, "Eq. 5 violated: max parameter difference {max_diff}");
}

#[test]
fn worker_and_server_agree_after_every_receive() {
    // Through a real training sequence, θ0 + v_k must reproduce the
    // worker's local model (the tracking property the downlink relies on).
    let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 2);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let mut cfg = make_cfg(Method::Dgs);
    cfg.sparsity_ratio = 0.1; // genuinely sparse this time
    let build = || mlp(8, &[16], 4, 3);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let mut server = MdtServer::new(
        theta0.clone(),
        partition,
        2,
        Downlink::ModelDifference { secondary_ratio: None },
    );
    let mut workers: Vec<TrainWorker> = (0..2)
        .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
        .collect();
    for t in 0..30 {
        let k = t % 2;
        let up = workers[k].local_step();
        let reply = server.handle_update(k, &up);
        workers[k].apply_reply(reply);
        // After a receive with no secondary compression the worker holds
        // the server's current model (Eq. 5) …
        let server_model = server.current_model();
        for (i, (&w, &s)) in workers[k].model_params().iter().zip(server_model.iter()).enumerate() {
            assert!((w - s).abs() < 1e-4, "step {t}: worker {k} coord {i} drifted: {w} vs {s}");
        }
        // … and θ0 + v_k tracks it exactly.
        for (i, (&w, (&t0, &v))) in
            workers[k].model_params().iter().zip(theta0.iter().zip(server.v(k).iter())).enumerate()
        {
            assert!((w - (t0 + v)).abs() < 1e-4, "v tracking broken at step {t} coord {i}");
        }
    }
}

/// Drives one set of real training workers against two servers — one
/// log-served, one whose one-index log budget never covers a cursor so
/// every reply takes the O(dim) dense scan — and the naive Alg. 2 oracle
/// ([`common::alg2_reply`], which shares no code with either). Asserts
/// every downlink payload is bitwise identical across all three (compared
/// through the wire encoding) and the final states match exactly.
fn run_strategies_against_real_training(
    secondary: Option<f64>,
    log_capacity: Option<usize>,
    n_workers: usize,
    steps: usize,
    schedule: impl Fn(usize) -> usize,
) {
    let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 6);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let mut cfg = make_cfg(Method::Dgs);
    cfg.workers = n_workers;
    cfg.sparsity_ratio = 0.1;
    let build = || mlp(8, &[16], 4, 11);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let downlink = Downlink::ModelDifference { secondary_ratio: secondary };
    let mut log_srv = MdtServer::new(theta0.clone(), partition.clone(), n_workers, downlink);
    let mut dense_srv = MdtServer::new(theta0.clone(), partition.clone(), n_workers, downlink);
    dense_srv.set_log_capacity(1);
    if let Some(cap) = log_capacity {
        log_srv.set_log_capacity(cap);
    }
    let mut m_ref = vec![0.0f32; theta0.len()];
    let mut v_ref = vec![m_ref.clone(); n_workers];
    let mut workers: Vec<TrainWorker> = (0..n_workers)
        .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
        .collect();
    for t in 0..steps {
        let k = schedule(t);
        let up = workers[k].local_step();
        let reply_log = log_srv.handle_update(k, &up);
        let reply_dense = dense_srv.handle_update(k, &up);
        // Eq. 1 (undamped), then the oracle's reply from its own M and v_k.
        match &up.payload {
            UpPayload::Sparse(g) => g.apply_add(&mut m_ref, &partition, -1.0),
            other => panic!("DGS sends sparse updates, got {other:?}"),
        }
        let reply_ref = common::alg2_reply(&m_ref, &mut v_ref[k], &partition, secondary);
        match (&reply_log, &reply_dense) {
            (DownMsg::SparseDiff(a), DownMsg::SparseDiff(b)) => {
                assert_eq!(
                    a.encode(),
                    b.encode(),
                    "downlink payload diverged at step {t} (worker {k})"
                );
                assert_eq!(
                    a.encode(),
                    reply_ref.encode(),
                    "downlink payload left the Alg. 2 oracle at step {t} (worker {k})"
                );
            }
            _ => panic!("expected sparse diff replies"),
        }
        workers[k].apply_reply(reply_log);
    }
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(log_srv.m(), dense_srv.m(), "M diverged");
    assert_eq!(bits(log_srv.m()), bits(&m_ref), "M left the oracle");
    for (w, v_w) in v_ref.iter().enumerate() {
        assert_eq!(log_srv.v(w), dense_srv.v(w), "v_{w} diverged");
        assert_eq!(bits(log_srv.v(w)), bits(v_w), "v_{w} left the oracle");
    }
}

#[test]
fn log_merge_downlink_bitwise_equals_dense_scan() {
    run_strategies_against_real_training(Some(0.05), None, 2, 60, |t| t % 2);
}

#[test]
fn log_truncation_fallback_stays_bitwise_equal() {
    // Capacity 64 logged coordinates holds only ~3 updates of this model
    // (mlp(8,[16],4) at ratio 0.1 touches ~20 coords/update), so worker 2 —
    // pulling only every 11th step — keeps falling off the truncated log
    // and takes the dense-scan fallback, which must still be bitwise equal.
    run_strategies_against_real_training(Some(0.1), Some(64), 3, 66, |t| {
        if t % 11 == 10 {
            2
        } else {
            t % 2
        }
    });
}

#[test]
fn oversized_updates_force_fallback_and_stay_bitwise_equal() {
    // Capacity 8 is smaller than a single update's support: every record
    // flushes the whole log, so *every* pull takes the fallback path while
    // pending-set tracking still has to stay exact.
    run_strategies_against_real_training(None, Some(8), 2, 40, |t| t % 2);
}

#[test]
fn carried_guesses_never_leave_the_alg2_oracle() {
    // A model with a wide layer (64×512 weights = 32,768, the radix
    // engine's wide cutoff) under 5 % secondary compression: every dense
    // reply selects through the guess the server carries for that worker
    // and layer. 96 interleaved rounds against the stateless oracle, through
    // everything that drops, outlives or bypasses a guess: a one-index log
    // (dense scan every reply), a worker resync, checkpoint → restore, and
    // back to the default log.
    let blobs = GaussianBlobs::new(128, 64, 4, 0.3, 21);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let n_workers = 3;
    let mut cfg = make_cfg(Method::Dgs);
    cfg.workers = n_workers;
    cfg.sparsity_ratio = 0.05;
    let build = || mlp(64, &[512], 4, 17);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    assert!(partition.segments().iter().any(|seg| seg.len >= 1 << 15), "no wide layer");
    let secondary = Some(0.05);
    let downlink = Downlink::ModelDifference { secondary_ratio: secondary };
    let mut server = MdtServer::new(theta0.clone(), partition.clone(), n_workers, downlink);
    let mut m_ref = vec![0.0f32; theta0.len()];
    let mut v_ref = vec![m_ref.clone(); n_workers];
    let mut workers: Vec<TrainWorker> = (0..n_workers)
        .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
        .collect();
    for t in 0..96 {
        match t {
            24 => server.set_log_capacity(1),
            40 => {
                // Worker 1 lost a reply: it reloads θ0 + M, and v_1 = M.
                let model = server.resync_worker(1);
                workers[1].apply_reply(model);
                v_ref[1].copy_from_slice(&m_ref);
            }
            56 => server = MdtServer::restore(server.checkpoint(), partition.clone(), downlink),
            72 => server.set_log_capacity(0),
            _ => {}
        }
        let k = if t % 7 == 6 { 2 } else { t % 2 };
        let up = workers[k].local_step();
        let reply = server.handle_update(k, &up);
        match &up.payload {
            UpPayload::Sparse(g) => g.apply_add(&mut m_ref, &partition, -1.0),
            other => panic!("DGS sends sparse updates, got {other:?}"),
        }
        let reply_ref = common::alg2_reply(&m_ref, &mut v_ref[k], &partition, secondary);
        match &reply {
            DownMsg::SparseDiff(d) => assert_eq!(
                d.encode(),
                reply_ref.encode(),
                "downlink payload left the Alg. 2 oracle at step {t} (worker {k})"
            ),
            other => panic!("expected a sparse diff, got {other:?}"),
        }
        workers[k].apply_reply(reply);
    }
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(server.m()), bits(&m_ref), "M left the oracle");
    for (w, v_w) in v_ref.iter().enumerate() {
        assert_eq!(bits(server.v(w)), bits(v_w), "v_{w} left the oracle");
    }
}

fn run_with_kernel(kernel: dgs::sparsify::Kernel) -> (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<u8>>) {
    use dgs::sparsify::SparseUpdate;
    let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 9);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let mut cfg = make_cfg(Method::Dgs);
    cfg.workers = 3;
    cfg.sparsity_ratio = 0.1;
    let build = || mlp(8, &[16], 4, 13);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let mut server = MdtServer::new(
        theta0,
        partition,
        3,
        Downlink::ModelDifference { secondary_ratio: Some(0.1) },
    );
    server.set_kernel(kernel);
    let mut workers: Vec<TrainWorker> = (0..3)
        .map(|k| {
            let mut w = TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0);
            w.set_kernel(kernel);
            w
        })
        .collect();
    let mut downlinks = Vec::new();
    for t in 0..60 {
        let k = (t * 2) % 3;
        let up = workers[k].local_step();
        let reply = server.handle_update(k, &up);
        if let DownMsg::SparseDiff(d) = &reply {
            downlinks.push(SparseUpdate::encode_with(d, kernel));
        }
        workers[k].apply_reply(reply);
    }
    (server.current_model(), workers.iter().map(|w| w.model_params().to_vec()).collect(), downlinks)
}

#[test]
fn kernel_backend_swap_leaves_downlinks_bitwise_unchanged() {
    // End-to-end across the Kernel seam: real models, real gradients, real
    // server, secondary compression on. Every downlink payload and every
    // final model must be byte-identical whether the hot kernels run on
    // the scalar or the SIMD backend (on machines without AVX2 both run
    // scalar and the test degenerates to a tautology).
    use dgs::sparsify::Kernel;
    let (srv_s, wk_s, down_s) = run_with_kernel(Kernel::Scalar);
    let (srv_v, wk_v, down_v) = run_with_kernel(Kernel::Simd);
    assert_eq!(down_s.len(), down_v.len(), "downlink count changed under backend swap");
    for (t, (a, b)) in down_s.iter().zip(down_v.iter()).enumerate() {
        assert_eq!(a, b, "downlink {t} wire bytes changed under backend swap");
    }
    assert_eq!(srv_s, srv_v, "server model changed under backend swap");
    for (k, (a, b)) in wk_s.iter().zip(wk_v.iter()).enumerate() {
        assert_eq!(a, b, "worker {k} model changed under backend swap");
    }
}

#[test]
fn secondary_compression_converges_to_server_model_when_quiet() {
    // With secondary compression the worker lags the server, but once the
    // other workers go quiet the repeated Top-k diffs must deliver
    // everything (implicit server-side residual accumulation).
    let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 4);
    let train: Arc<dyn Dataset> = Arc::new(blobs);
    let mut cfg = make_cfg(Method::Dgs);
    cfg.sparsity_ratio = 0.05;
    let build = || mlp(8, &[16], 4, 5);
    let net0 = build();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let mut server = MdtServer::new(
        theta0,
        partition.clone(),
        2,
        Downlink::ModelDifference { secondary_ratio: Some(0.05) },
    );
    let mut workers: Vec<TrainWorker> = (0..2)
        .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
        .collect();
    // Worker 1 trains for a while; worker 0 only occasionally syncs.
    for _ in 0..40 {
        let up = workers[1].local_step();
        let reply = server.handle_update(1, &up);
        workers[1].apply_reply(reply);
    }
    // Now worker 0 pings with zero-ish updates until it catches up. Top-k
    // per layer delivers a bounded number of coordinates per round, so
    // bound the rounds generously.
    let dim = partition.total_len();
    for _ in 0..400 {
        let up = workers[0].local_step();
        let reply = server.handle_update(0, &up);
        workers[0].apply_reply(reply);
    }
    let server_model = server.current_model();
    let mut lag = 0.0f32;
    for (&w, &s) in workers[0].model_params().iter().zip(server_model.iter()) {
        lag = lag.max((w - s).abs());
    }
    // Worker 0 keeps training too, so exact equality never holds — but the
    // lag must be small relative to the parameter scale, not divergent.
    let scale = server_model.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    assert!(
        lag < 0.2 * scale.max(1.0),
        "worker 0 failed to catch up: lag {lag}, scale {scale}, dim {dim}"
    );
}
