//! Property-based tests of the reproduction's core invariants
//! (DESIGN.md §5), each over 256 seeded random inputs.

use dgs::core::compress::{
    Compressor, DgcCompressor, GradientDroppingCompressor, SaMomentumCompressor, StepCtx,
};
use dgs::core::protocol::{DownMsg, UpMsg, UpPayload};
use dgs::core::server::{Downlink, MdtServer};
use dgs::sparsify::{
    k_for_ratio, topk_indices, topk_threshold, Partition, SparseUpdate, TernaryUpdate,
};
use dgs::tensor::rng::{cases, vec_of, Rng};

fn small_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(-10.0, 10.0)).collect()
}

/// Top-k always returns exactly min(k, n) distinct, sorted indices,
/// and every kept magnitude dominates every dropped magnitude.
#[test]
fn topk_selects_dominating_set() {
    cases(256, |rng| {
        let values = small_vec(rng, 64);
        let k = rng.range(0..80);
        let idx = topk_indices(&values, k);
        let expected = k.min(values.len());
        assert_eq!(idx.len(), expected);
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        if expected > 0 && expected < values.len() {
            let thr = topk_threshold(&values, expected);
            for (i, v) in values.iter().enumerate() {
                if idx.contains(&(i as u32)) {
                    assert!(v.abs() >= thr);
                } else {
                    assert!(v.abs() <= thr);
                }
            }
        }
    });
}

/// COO encode/decode round-trips losslessly and the advertised wire
/// size is exact.
#[test]
fn coo_roundtrip() {
    cases(256, |rng| {
        let values = small_vec(rng, 48);
        let ratio = 0.01 + 0.99 * rng.unit_f64();
        let part = Partition::from_layer_sizes([("a", 16), ("b", 32)]);
        let up = SparseUpdate::from_topk(&values, &part, ratio);
        let encoded = up.encode();
        assert_eq!(encoded.len(), up.wire_bytes());
        let decoded = SparseUpdate::decode(&encoded).expect("decode");
        assert_eq!(decoded, up);
    });
}

/// k_for_ratio is monotone in both arguments and clamped to [1, len]
/// for non-empty inputs.
#[test]
fn k_for_ratio_monotone() {
    cases(256, |rng| {
        let len = rng.range(1..10_000);
        let ratio = 0.0001 + 0.9999 * rng.unit_f64();
        let k = k_for_ratio(len, ratio);
        assert!(k >= 1 && k <= len);
        assert!(k_for_ratio(len, (ratio * 2.0).min(1.0)) >= k);
        assert!(k_for_ratio(len * 2, ratio) >= k);
    });
}

/// Gradient-dropping conservation: at every step, transmitted mass plus
/// residual equals the total accumulated η∇ (no gradient is ever lost).
#[test]
fn gd_conserves_gradient_mass() {
    cases(256, |rng| {
        let grads = vec_of(rng, 1..12, |rng| small_vec(rng, 24));
        let lr = rng.uniform(0.01, 0.5);
        let ratio = 0.05 + 0.85 * rng.unit_f64();
        let dim = 24;
        let part = Partition::from_layer_sizes([("a", 8), ("b", 16)]);
        let mut comp = GradientDroppingCompressor::new(dim);
        let mut total = vec![0.0f64; dim];
        let mut sent = vec![0.0f64; dim];
        for grad in &grads {
            for (t, &g) in total.iter_mut().zip(grad.iter()) {
                *t += (lr * g) as f64;
            }
            let up = comp.compress(grad, &part, StepCtx { lr, ratio });
            if let UpPayload::Sparse(s) = up {
                let dense = s.to_dense(&part);
                for (acc, &v) in sent.iter_mut().zip(dense.iter()) {
                    *acc += v as f64;
                }
            }
            for i in 0..dim {
                let held = comp.residual()[i] as f64;
                assert!(
                    (total[i] - sent[i] - held).abs() < 1e-3,
                    "conservation broken at coord {}: total {} sent {} held {}",
                    i,
                    total[i],
                    sent[i],
                    held
                );
            }
        }
    });
}

/// SAMomentum at ratio 1.0 is bit-for-bit plain momentum (Eq. 16, T=1).
#[test]
fn samomentum_dense_limit() {
    cases(256, |rng| {
        let grads = vec_of(rng, 1..10, |rng| small_vec(rng, 8));
        let m = rng.uniform(0.1, 0.95);
        let lr = rng.uniform(0.01, 0.5);
        let part = Partition::single(8);
        let mut comp = SaMomentumCompressor::new(8, m);
        let mut u_ref = [0.0f32; 8];
        for grad in &grads {
            for (u, &g) in u_ref.iter_mut().zip(grad.iter()) {
                *u = m * *u + lr * g;
            }
            let up = comp.compress(grad, &part, StepCtx { lr, ratio: 1.0 });
            if let UpPayload::Sparse(s) = up {
                let dense = s.to_dense(&part);
                for (a, b) in dense.iter().zip(u_ref.iter()) {
                    assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0));
                }
            }
        }
    });
}

/// SAMomentum telescoping (Eq. 16): for a coordinate never selected,
/// the stored velocity follows u += (lr/m)·g per step, so the value it
/// would transmit after T quiet steps is m·u_c + lr·Σg.
#[test]
fn samomentum_telescopes() {
    cases(256, |rng| {
        let quiet_grads = vec_of(rng, 1..20, |rng| rng.uniform(-0.01, 0.01));
        let m = rng.uniform(0.2, 0.9);
        let lr = 0.1f32;
        let part = Partition::single(2);
        let mut comp = SaMomentumCompressor::new(2, m);
        // Coordinate 0 dominates, k = 1 keeps selecting it.
        comp.compress(&[1000.0, 0.001], &part, StepCtx { lr, ratio: 0.5 });
        let u_start = comp.velocity()[1];
        let mut sum = 0.0f32;
        for &g in &quiet_grads {
            comp.compress(&[1000.0, g], &part, StepCtx { lr, ratio: 0.5 });
            sum += g;
        }
        let next_sent = m * comp.velocity()[1];
        let telescoped = m * u_start + lr * sum;
        assert!(
            (next_sent - telescoped).abs() < 1e-4 * telescoped.abs().max(1.0),
            "Eq. 16: {} vs {}",
            next_sent,
            telescoped
        );
    });
}

/// DGC factor masking: after every step the sent coordinates are zero
/// in both velocity and residual.
#[test]
fn dgc_factor_masking() {
    cases(256, |rng| {
        let grads = vec_of(rng, 1..8, |rng| small_vec(rng, 16));
        let m = rng.uniform(0.1, 0.95);
        let part = Partition::single(16);
        let mut comp = DgcCompressor::new(16, m, 0.0);
        for grad in &grads {
            let up = comp.compress(grad, &part, StepCtx { lr: 0.1, ratio: 0.25 });
            if let UpPayload::Sparse(s) = up {
                for &i in &s.chunks[0].idx {
                    assert_eq!(comp.velocity()[i as usize], 0.0);
                    assert_eq!(comp.residual()[i as usize], 0.0);
                }
            }
        }
    });
}

/// Ternary wire format: encode/decode round-trips for arbitrary inputs,
/// sizes are exact, and dequantized values carry the right signs.
#[test]
fn ternary_roundtrip() {
    cases(256, |rng| {
        let values = small_vec(rng, 40);
        let seed = rng.below(1000) as u64;
        let part = Partition::from_layer_sizes([("a", 16), ("b", 24)]);
        let up = SparseUpdate::from_topk(&values, &part, 0.4);
        let q = TernaryUpdate::quantize(&up, seed);
        let encoded = q.encode();
        assert_eq!(encoded.len(), q.wire_bytes());
        let decoded = TernaryUpdate::decode(&encoded).expect("decode");
        assert_eq!(&decoded, &q);
        // Dequantized values: same indices subset, magnitudes equal the
        // per-chunk scale, signs match the originals.
        let dense_in = up.to_dense(&part);
        let dq = decoded.dequantize();
        for (ci, chunk) in dq.chunks.iter().enumerate() {
            let offset = part.segments()[ci].offset;
            for (&i, &v) in chunk.idx.iter().zip(chunk.val.iter()) {
                let orig = dense_in[offset + i as usize];
                assert!(orig != 0.0, "quantizer kept a zero coordinate");
                assert_eq!(v > 0.0, orig > 0.0, "sign preserved");
            }
        }
    });
}

/// The O(nnz) log-merge downlink is bitwise identical (through the wire
/// encoding) to the O(dim) dense scan — a server with a one-index log
/// budget, which every two-coordinate update overflows — under random
/// worker interleavings, random secondary-compression ratios, and log
/// capacities small enough to force the truncation fallback; the two
/// servers' M / v_k state never diverges.
#[test]
fn log_merge_bitwise_equals_dense_scan() {
    cases(256, |rng| {
        let schedule = vec_of(rng, 1..60, |rng| rng.below(3));
        let theta0 = small_vec(rng, 12);
        let ratio_pct = (rng.below(2) == 1).then(|| rng.range(1..60) as u32);
        let log_capacity = (rng.below(2) == 1).then(|| rng.range(1..24));
        let part = Partition::from_layer_sizes([("a", 4), ("b", 8)]);
        let secondary = ratio_pct.map(|p| p as f64 / 100.0);
        let downlink = Downlink::ModelDifference { secondary_ratio: secondary };
        let mut log_srv = MdtServer::new(theta0.clone(), part.clone(), 3, downlink);
        let mut dense_srv = MdtServer::new(theta0, part.clone(), 3, downlink);
        dense_srv.set_log_capacity(1);
        if let Some(cap) = log_capacity {
            log_srv.set_log_capacity(cap);
        }
        for (step, &k) in schedule.iter().enumerate() {
            let mut g = vec![0.0f32; 12];
            // Exact dyadic values so repeated ± hits produce exact zeros in
            // M − v_k, exercising the dirty-coordinate bookkeeping.
            g[(step * 5 + k) % 12] = ((step % 9) as f32 - 4.0) * 0.125;
            g[(step * 3 + 7) % 12] = 0.25;
            let up = UpMsg {
                payload: UpPayload::Sparse(SparseUpdate::from_nonzero(&g, &part)),
                train_loss: 0.0,
            };
            let reply_log = log_srv.handle_update(k, &up);
            let reply_dense = dense_srv.handle_update(k, &up);
            match (reply_log, reply_dense) {
                (DownMsg::SparseDiff(a), DownMsg::SparseDiff(b)) => {
                    assert_eq!(a.encode(), b.encode(), "payload diverged at step {}", step);
                }
                _ => panic!("expected sparse diff replies"),
            }
        }
        assert_eq!(log_srv.m(), dense_srv.m());
        for w in 0..3 {
            assert_eq!(log_srv.v(w), dense_srv.v(w));
        }
    });
}

/// MDT bookkeeping under random interleavings: v_k equals the sum of
/// everything sent to k, and with no secondary compression every reply
/// leaves the recipient's implied model equal to the server model.
#[test]
fn mdt_random_interleaving() {
    cases(256, |rng| {
        let schedule = vec_of(rng, 1..40, |rng| rng.below(3));
        let seed_vals = small_vec(rng, 12);
        let part = Partition::from_layer_sizes([("a", 4), ("b", 8)]);
        let theta0 = seed_vals.clone();
        let mut server = MdtServer::new(
            theta0.clone(),
            part.clone(),
            3,
            Downlink::ModelDifference { secondary_ratio: None },
        );
        let mut worker_models = vec![theta0.clone(); 3];
        for (step, &k) in schedule.iter().enumerate() {
            let mut g = vec![0.0f32; 12];
            g[(step * 5 + k) % 12] = 0.1 + (step % 7) as f32 * 0.05;
            let up = UpMsg {
                payload: UpPayload::Sparse(SparseUpdate::from_nonzero(&g, &part)),
                train_loss: 0.0,
            };
            let reply = server.handle_update(k, &up);
            if let DownMsg::SparseDiff(diff) = reply {
                diff.apply_add(&mut worker_models[k], &part, 1.0);
            }
            let sm = server.current_model();
            for i in 0..12 {
                assert!(
                    (worker_models[k][i] - sm[i]).abs() < 1e-4,
                    "worker {} coord {} diverged at step {}",
                    k,
                    i,
                    step
                );
                assert!(
                    (server.v(k)[i] - (worker_models[k][i] - theta0[i])).abs() < 1e-4,
                    "v bookkeeping broken"
                );
            }
        }
    });
}
