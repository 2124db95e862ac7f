//! Property-based tests of the NN substrate: gradient correctness on random
//! architectures/inputs and dataset invariants (24 seeded cases each).

use dgs_nn::activations::Tanh;
use dgs_nn::data::{Dataset, GaussianBlobs, SyntheticVision};
use dgs_nn::layer::{Layer, Linear};
use dgs_nn::loss::softmax_cross_entropy;
use dgs_nn::model::Network;
use dgs_tensor::rng::cases;
use dgs_tensor::{Shape, Tensor};

/// A smooth Linear/Tanh stack: finite differences are only trustworthy on
/// smooth functions, so the random-architecture property avoids both
/// ChannelNorm (curvature explodes on near-degenerate batches) and ReLU
/// (kinks within the probe interval give legitimate one-sided slopes).
/// Those layers have controlled-input gradient checks in their unit tests.
fn plain_mlp(input_dim: usize, hidden: usize, classes: usize, seed: u64) -> Network {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Linear::new("fc0", input_dim, hidden)),
        Box::new(Tanh::new("tanh0")),
        Box::new(Linear::new("head", hidden, classes)),
    ];
    Network::new(layers, Shape::from([input_dim]), seed)
}

/// Random MLP geometries: the analytic gradient matches the numerical
/// gradient of the cross-entropy loss at sampled coordinates.
#[test]
fn mlp_gradients_match_numerical() {
    cases(24, |rng| {
        let (input_dim, hidden) = (rng.range(2..6), rng.range(2..8));
        let (classes, batch) = (rng.range(2..5), rng.range(1..6));
        let seed = rng.below(500) as u64;
        let mut net = plain_mlp(input_dim, hidden, classes, seed);
        let x = Tensor::randn([batch, input_dim], 1.0, seed ^ 0xABCD);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        net.train_step(x.clone(), &labels);
        let analytic = net.params().grad().to_vec();

        let eps = 1e-2f32;
        let n = analytic.len();
        for &pi in &[0, n / 3, 2 * n / 3, n - 1] {
            let orig = net.params().data()[pi];
            net.params_mut().data_mut()[pi] = orig + eps;
            let lp = {
                let logits = net.forward(x.clone());
                softmax_cross_entropy(&logits, &labels).0
            };
            net.params_mut().data_mut()[pi] = orig - eps;
            let lm = {
                let logits = net.forward(x.clone());
                softmax_cross_entropy(&logits, &labels).0
            };
            net.params_mut().data_mut()[pi] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - analytic[pi]).abs() <= 3e-2 * num.abs().max(1.0),
                "grad[{}]: numerical {} vs analytic {}",
                pi,
                num,
                analytic[pi]
            );
        }
    });
}

/// Datasets: labels are always in range, fills are idempotent, and the
/// train/validation splits share the task but not the samples.
#[test]
fn dataset_contracts() {
    cases(24, |rng| {
        let (len, classes) = (rng.range(4..40), rng.range(2..6));
        let seed = rng.below(1000) as u64;
        let ds = GaussianBlobs::new(len, 4, classes, 0.5, seed);
        let val = ds.validation(len);
        let n = ds.sample_shape().numel();
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        for i in 0..len.min(8) {
            let la = ds.fill(i, &mut a);
            assert!(la < classes);
            let lb = ds.fill(i, &mut b);
            assert_eq!(la, lb);
            assert_eq!(&a, &b);
            // Validation shares the label layout but not the noise draw.
            let lv = val.fill(i, &mut b);
            assert_eq!(lv, la);
            assert_ne!(&a, &b, "validation sample must differ");
        }
    });
}

/// SyntheticVision: deterministic per (seed, index) and pixel values
/// are bounded (4 unit-amplitude sinusoids + noise).
#[test]
fn vision_bounded_and_deterministic() {
    cases(24, |rng| {
        let seed = rng.below(200) as u64;
        let idx = rng.range(0..64);
        let ds = SyntheticVision::new(64, 2, 8, 4, 0.5, seed);
        let n = ds.sample_shape().numel();
        let mut a = vec![0.0f32; n];
        let mut b = vec![0.0f32; n];
        let la = ds.fill(idx, &mut a);
        let lb = ds.fill(idx, &mut b);
        assert_eq!(la, lb);
        assert_eq!(&a, &b);
        assert!(a.iter().all(|v| v.abs() < 16.0), "pixels bounded");
    });
}

/// Batch assembly preserves per-sample contents and ordering.
#[test]
fn batch_matches_fills() {
    cases(24, |rng| {
        let seed = rng.below(200) as u64;
        let ds = GaussianBlobs::new(16, 3, 2, 0.4, seed);
        let indices = [3usize, 0, 7, 7];
        let (x, labels) = ds.batch(&indices);
        assert_eq!(x.shape().dims(), &[4usize, 3]);
        let mut buf = [0.0f32; 3];
        for (row, &i) in indices.iter().enumerate() {
            let l = ds.fill(i, &mut buf);
            assert_eq!(labels[row], l);
            assert_eq!(&x.data()[row * 3..(row + 1) * 3], &buf[..]);
        }
    });
}
