//! Differential torture suite for the compute tier at the nn level.
//!
//! The `dgs_tensor` crate already proves each kernel bitwise-identical
//! against its scalar twin in isolation; this suite drives the *composed*
//! paths the training loop actually uses — layers, residual blocks, and
//! whole networks — under every backend and asserts the results agree bit
//! for bit on every non-NaN value (infinities, denormals, signed zeros,
//! plateau ties included) with NaN at identical positions. NaN *payload*
//! bits through arithmetic are excluded: LLVM leaves the surviving payload
//! of `fadd`/`fmul` on two NaN operands unspecified (see the accumulation
//! contract in `dgs_tensor::gemm`), so both-NaN pairs compare equal.
//! Data-movement paths (ReLU, pooling) still preserve payloads exactly.
//! The suite also pins the allocation-free steady state of the pooled
//! scratch.

use dgs_nn::layer::{Conv2d, Layer, Linear, MaxPool2d, ReLU};
use dgs_nn::models::{mlp, mlp_on_images, resnet_lite, tiny_cnn};
use dgs_nn::{ComputeScratch, Kernel};
use dgs_tensor::{Shape, Tensor};

/// Deterministic torture generator: mixes normal values with the IEEE-754
/// special cases the bitwise contract must survive.
fn torture_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..len)
        .map(|_| {
            let r = next();
            match r % 13 {
                0 => f32::NAN,
                1 => f32::from_bits(0x7FC0_1234), // NaN with a payload
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => 0.0,
                5 => -0.0,
                6 => f32::from_bits(1), // smallest positive denormal
                7 => -f32::MIN_POSITIVE / 2.0,
                8 => 3.25, // plateau value (repeats → max ties)
                _ => ((r >> 16) as i32 % 1000) as f32 / 250.0 - 2.0,
            }
        })
        .collect()
}

/// Bitwise equality for arithmetic outputs: both-NaN pairs compare equal
/// (payloads through `fadd`/`fmul` are compiler-unspecified); everything
/// else must match to the bit.
fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        if x.is_nan() && y.is_nan() {
            continue;
        }
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit divergence at {i}: {x:?} vs {y:?}");
    }
}

/// Strict bitwise equality — NaN payloads included. For data-movement
/// paths (ReLU, pooling) that copy values without arithmetic.
fn assert_bits_exact(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit divergence at {i}: {x:?} vs {y:?}");
    }
}

#[test]
fn gemm_backends_identical_on_torture_inputs() {
    // Shapes cover the microkernel interior (multiples of 6×16), ragged
    // edges, k = 1 chains, a product past the parallel threshold, squares
    // that span several cache blocks in every dimension, and the skinny
    // products of a batch-4 `widemlp` step, which run unpacked: its three
    // forward shapes (also its `dX` ones, read as `A·B`), a degenerate
    // single row, and its two large weight-gradient shapes (`Aᵀ·B`, k = 4).
    for &(m, k, n) in &[
        (1, 1, 1),
        (6, 8, 16),
        (7, 9, 17),
        (13, 1, 5),
        (48, 32, 64),
        (160, 24, 160),
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (384, 384, 384),
        (4, 768, 1024),
        (4, 1024, 1024),
        (4, 1024, 10),
        (1, 5, 3),
        (1024, 4, 768),
        (1024, 4, 1024),
    ] {
        let a = torture_vec(m * k, 0x5EED_0001);
        let b = torture_vec(k * n, 0x5EED_0002);
        let mut c_scalar = vec![0.0f32; m * n];
        let mut c_simd = vec![0.0f32; m * n];
        Kernel::Scalar.gemm(&a, &b, &mut c_scalar, m, k, n);
        Kernel::Simd.gemm(&a, &b, &mut c_simd, m, k, n);
        assert_bits_eq(&c_scalar, &c_simd, &format!("gemm {m}x{k}x{n}"));

        // Same buffers reinterpreted for the transposed layouts: `a` as a
        // k×m store (Aᵀ·B) and `b` as an n×k store (A·Bᵀ).
        // Accumulated into a seeded `C`: also pins the add-once copy-out.
        let seeded = torture_vec(m * n, 0x5EED_0003);
        c_scalar.copy_from_slice(&seeded);
        c_simd.copy_from_slice(&seeded);
        Kernel::Scalar.gemm_at_b_add(&a, &b, &mut c_scalar, m, k, n);
        Kernel::Simd.gemm_at_b_add(&a, &b, &mut c_simd, m, k, n);
        assert_bits_eq(&c_scalar, &c_simd, &format!("gemm_at_b_add {m}x{k}x{n}"));

        Kernel::Scalar.gemm_a_bt(&a, &b, &mut c_scalar, m, k, n);
        Kernel::Simd.gemm_a_bt(&a, &b, &mut c_simd, m, k, n);
        assert_bits_eq(&c_scalar, &c_simd, &format!("gemm_a_bt {m}x{k}x{n}"));
    }
}

#[test]
fn linear_layer_backends_identical() {
    let x = Tensor::from_vec([4, 10], torture_vec(40, 7)).unwrap();
    let dy = Tensor::from_vec([4, 6], torture_vec(24, 8)).unwrap();
    let mut outs = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        let mut l = Linear::new("fc", 10, 6);
        let mut params = vec![0.0f32; 10 * 6 + 6];
        l.init_params(&mut params, 5);
        let mut s = ComputeScratch::new(kernel);
        let y = l.forward(&params, x.clone(), &mut s);
        let mut grad = vec![0.0f32; params.len()];
        let dx = l.backward(&params, &mut grad, dy.clone(), &mut s);
        outs.push((y, grad, dx));
    }
    assert_bits_eq(outs[0].0.data(), outs[1].0.data(), "linear forward");
    assert_bits_eq(&outs[0].1, &outs[1].1, "linear param grads");
    assert_bits_eq(outs[0].2.data(), outs[1].2.data(), "linear dx");
}

#[test]
fn conv_layer_backends_identical_on_torture_inputs() {
    // Finite weights, torture activations: NaN/Inf propagate through the
    // lowering + GEMM identically on every backend. (batch, cin, hw, cout):
    // a minimal stage, a tiny_cnn-like one and a resnet_lite-like one.
    for &(n, cin, hw, cout) in &[(2usize, 2usize, 6usize, 3usize), (8, 4, 16, 8), (4, 8, 32, 16)] {
        let x = Tensor::from_vec([n, cin, hw, hw], torture_vec(n * cin * hw * hw, 11)).unwrap();
        let mut outs = Vec::new();
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut l = Conv2d::new("conv", cin, cout, 3, 1, 1, true);
            let mut params = vec![0.0f32; cout * cin * 9 + cout];
            l.init_params(&mut params, 6);
            let mut s = ComputeScratch::new(kernel);
            let y = l.forward(&params, x.clone(), &mut s);
            let dy = Tensor::from_vec(y.shape().clone(), torture_vec(y.numel(), 12)).unwrap();
            let mut grad = vec![0.0f32; params.len()];
            let dx = l.backward(&params, &mut grad, dy, &mut s);
            outs.push((y, grad, dx));
        }
        let what = format!("conv {n}x{cin}x{hw}x{hw}->{cout}");
        assert_bits_eq(outs[0].0.data(), outs[1].0.data(), &format!("{what} forward"));
        assert_bits_eq(&outs[0].1, &outs[1].1, &format!("{what} param grads"));
        assert_bits_eq(outs[0].2.data(), outs[1].2.data(), &format!("{what} dx"));
    }
}

#[test]
fn relu_and_maxpool_backends_identical_on_torture_inputs() {
    let x = Tensor::from_vec([2, 3, 8, 8], torture_vec(2 * 3 * 8 * 8, 21)).unwrap();
    let mut outs = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        let mut s = ComputeScratch::new(kernel);
        let mut relu = ReLU::new("relu");
        let mut pool = MaxPool2d::new("pool", 2);
        let h = relu.forward(&[], x.clone(), &mut s);
        let y = pool.forward(&[], h, &mut s);
        let dy = Tensor::from_vec(y.shape().clone(), torture_vec(y.numel(), 22)).unwrap();
        let dh = pool.backward(&[], &mut [], dy, &mut s);
        let dx = relu.backward(&[], &mut [], dh, &mut s);
        outs.push((y, dx));
    }
    assert_bits_exact(outs[0].0.data(), outs[1].0.data(), "relu+maxpool forward");
    assert_bits_exact(outs[0].1.data(), outs[1].1.data(), "relu+maxpool backward");
}

/// One SGD step on `net`, returning (param bits, grad bits).
fn step_bits(net: &mut dgs_nn::Network, x: &Tensor, labels: &[usize]) -> (Vec<u32>, Vec<u32>) {
    net.train_step(x.clone(), labels);
    let grads: Vec<u32> = net.params().grad().iter().map(|v| v.to_bits()).collect();
    let lr = 0.05f32;
    let g = net.params().grad().to_vec();
    let data = net.params_mut().data_mut();
    for (p, gi) in data.iter_mut().zip(g.iter()) {
        *p -= lr * gi;
    }
    (net.params().data().iter().map(|v| v.to_bits()).collect(), grads)
}

#[test]
fn whole_network_training_identical_across_backends() {
    // mlp exercises Linear/ChannelNorm/ReLU; tiny_cnn adds conv + maxpool;
    // resnet_lite adds residual blocks, projections and global avg pool.
    // The 16×16 RGB ones are the shapes of a real step; the batch-4 MLP over
    // images is `widemlp`'s, whose products all take the streamed GEMM arms.
    let builders: Vec<(&str, Box<dyn Fn() -> dgs_nn::Network>, usize)> = vec![
        ("mlp", Box::new(|| mlp(12, &[16, 8], 4, 31)), 6),
        ("tiny_cnn", Box::new(|| tiny_cnn(2, 8, 4, 4, 32)), 6),
        ("resnet_lite", Box::new(|| resnet_lite(1, 8, 3, 4, 33)), 6),
        ("tiny_cnn 16x16", Box::new(|| tiny_cnn(3, 16, 10, 8, 7)), 16),
        ("resnet_lite 16x16", Box::new(|| resnet_lite(3, 16, 10, 8, 7)), 8),
        ("mlp_on_images 16x16", Box::new(|| mlp_on_images(3, 16, &[64, 64], 10, 7)), 4),
    ];
    for (name, build, batch) in builders {
        let mut net_probe = build();
        let in_shape = {
            let mut dims = vec![batch];
            dims.extend_from_slice(net_probe.input_shape().dims());
            Shape::new(dims)
        };
        let x = Tensor::randn(in_shape, 1.0, 41);
        let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
        let _ = net_probe.forward(x.clone());

        let mut results = Vec::new();
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            let mut net = build();
            net.set_kernel(kernel);
            assert_eq!(net.kernel(), kernel);
            let mut last = (Vec::new(), Vec::new());
            for _ in 0..3 {
                last = step_bits(&mut net, &x, &labels);
            }
            results.push(last);
        }
        assert_eq!(results[0].1, results[1].1, "{name}: gradient bits diverged across backends");
        assert_eq!(results[0].0, results[1].0, "{name}: parameter bits diverged across backends");
    }
}

/// `warm` steps to fill the shelves, then `steady` more that must draw
/// every buffer from them; returns the bytes the scratch keeps afterwards.
fn assert_allocation_free_after(net: &mut dgs_nn::Network, batch: usize, warm: usize, steady: usize) -> usize {
    let mut dims = vec![batch];
    dims.extend_from_slice(net.input_shape().dims());
    let x = Tensor::randn(Shape::new(dims), 1.0, 56);
    let labels: Vec<usize> = (0..batch).map(|i| i % 4).collect();
    // A fresh clone per step, as a loader would hand over: tensors the
    // scratch never lent out must not make it grow either.
    for _ in 0..warm {
        net.train_step(x.clone(), &labels);
    }
    let (misses, retained) = (net.scratch_misses(), net.scratch_retained_bytes());
    for step in 0..steady {
        net.train_step(x.clone(), &labels);
        assert_eq!(
            net.scratch_misses(),
            misses,
            "steady-state step {step} must draw every buffer from the pool"
        );
        assert_eq!(net.scratch_retained_bytes(), retained, "the pool holds the step's working set, no more");
    }
    retained
}

#[test]
fn training_reaches_allocation_free_steady_state() {
    // The small case: a few steps populate every buffer class the step
    // needs (forward activations, gradients, argmax maps).
    assert_allocation_free_after(&mut tiny_cnn(2, 8, 4, 4, 55), 8, 3, 5);

    // The benchmark's shape (`resnet_dgs`): flat from the third step, and
    // what the pool keeps is the forward pass's live activations, not a
    // slot count's worth of the largest one. Every buffer of the step is
    // an activation or a gradient of one; in units of the stem's output
    // `a` the forward pass holds 3 (stem) + 8 (stage 1) + 1 + 7/2 (stage 2
    // entry) + 8/2 (stage 2) + 1/2 + 7/4 (stage 3), and the backward pass
    // at most one more in flight.
    let (batch, width, hw) = (32, 16, 16);
    let retained = assert_allocation_free_after(&mut resnet_lite(3, hw, 10, width, 57), batch, 2, 3);
    let a = batch * width * hw * hw * std::mem::size_of::<f32>();
    let bound = 3 * a + 8 * a + (a + 7 * a / 2) + 8 * a / 2 + (a / 2 + 7 * a / 4) + a;
    assert!(retained <= bound, "pool retains {retained} B, activations account for {bound} B");
}

#[test]
fn runtime_kernel_honours_env_and_cpu() {
    // Kernel::runtime() is cached process-wide, so rather than mutating the
    // environment mid-process, check the cached choice against the selection
    // rule for whatever DGS_KERNEL this test process was launched with.
    let auto = if Kernel::simd_available() { Kernel::Simd } else { Kernel::Scalar };
    let expected = match std::env::var("DGS_KERNEL").as_deref() {
        Ok("scalar") => Kernel::Scalar,
        Ok("simd") => auto, // falls back to scalar when AVX2 is missing
        _ => auto,
    };
    assert_eq!(Kernel::runtime(), expected);
    // A fresh network picks up the runtime backend by default.
    assert_eq!(ComputeScratch::default().kernel(), expected);
    assert_eq!(tiny_cnn(1, 4, 2, 2, 1).kernel(), expected);
}
