//! [`Network`]: an ordered layer stack over one flat [`ParamSet`].

use crate::layer::Layer;
use crate::param::ParamSet;
use dgs_sparsify::Partition;
use dgs_tensor::rng::derive_seed;
use dgs_tensor::{ComputeScratch, Kernel, Shape, Tensor};

/// A feed-forward network: layers applied in sequence, parameters stored in
/// one flat vector partitioned per layer parameter.
///
/// The network owns a [`ComputeScratch`]: every layer's GEMM/conv/pool
/// dispatches through its [`Kernel`] (runtime-detected by default,
/// overridable via [`Network::set_kernel`]), and intermediate buffers are
/// recycled through its pools so steady-state training steps allocate
/// nothing. Backends are bitwise identical, so swapping the kernel never
/// changes a single trained bit.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    params: ParamSet,
    input_shape: Shape,
    flops_per_sample: u64,
    /// Each layer's `(start, len)` window in the flat parameter vector.
    windows: Vec<(usize, usize)>,
    scratch: ComputeScratch,
}

impl Network {
    /// Builds a network from layers, laying parameters out consecutively
    /// and initialising them deterministically from `seed`.
    ///
    /// `input_shape` is the *per-sample* shape (no batch dimension); it is
    /// used to validate layer chaining and to compute the flops estimate.
    pub fn new(mut layers: Vec<Box<dyn Layer>>, input_shape: Shape, seed: u64) -> Self {
        // Only parameter-free layers sit in front of the first one that owns
        // parameters, so the input gradient it would hand them feeds nothing.
        if let Some(first) = layers.iter_mut().find(|l| !l.param_sizes().is_empty()) {
            first.skip_input_grad();
        }

        // Lay out partition segments: one per (layer, param) pair.
        let mut sizes: Vec<(String, usize)> = Vec::new();
        for layer in &layers {
            for (suffix, len) in layer.param_sizes() {
                sizes.push((format!("{}.{}", layer.name(), suffix), len));
            }
        }
        let partition = Partition::from_layer_sizes(sizes);
        let mut params = ParamSet::zeros(partition);

        // Initialise each layer's full slice with a per-layer derived seed.
        let mut seg = 0usize;
        {
            let part = params.partition().clone();
            let data = params.data_mut();
            for (li, layer) in layers.iter().enumerate() {
                let n_params: usize = layer.param_sizes().iter().map(|&(_, l)| l).sum();
                if n_params == 0 {
                    continue;
                }
                let start = part.segments()[seg].offset;
                layer.init_params(&mut data[start..start + n_params], derive_seed(seed, li as u64));
                seg += layer.param_sizes().len();
            }
        }

        // Shape-check the chain with a batch-1 probe and total the flops.
        let mut shape = {
            let mut dims = vec![1usize];
            dims.extend_from_slice(input_shape.dims());
            Shape::new(dims)
        };
        let mut flops = 0u64;
        for layer in &layers {
            flops += layer.flops(&shape);
            shape = layer.output_shape(&shape);
        }

        let mut windows = Vec::with_capacity(layers.len());
        let mut seg = 0usize;
        for layer in &layers {
            let segments = &params.partition().segments()[seg..seg + layer.param_sizes().len()];
            windows.push(match (segments.first(), segments.last()) {
                (Some(first), Some(last)) => (first.offset, last.offset + last.len - first.offset),
                _ => (0, 0),
            });
            seg += segments.len();
        }

        Network {
            layers,
            params,
            input_shape,
            flops_per_sample: flops,
            windows,
            scratch: ComputeScratch::default(),
        }
    }

    /// Per-sample input shape (no batch dimension).
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// Pins the compute backend every layer dispatches through. All
    /// backends are bitwise identical, so this changes speed, never bits.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.scratch.set_kernel(kernel);
    }

    /// The compute backend currently in use.
    pub fn kernel(&self) -> Kernel {
        self.scratch.kernel()
    }

    /// Pool-miss count of the owned scratch: stops growing once the
    /// training loop reaches its allocation-free steady state (asserted by
    /// the compute-equivalence suite).
    pub fn scratch_misses(&self) -> u64 {
        self.scratch.misses()
    }

    /// Bytes the owned scratch currently keeps shelved: bounded by the
    /// step's working set, whatever tensors the caller feeds in.
    pub fn scratch_retained_bytes(&self) -> usize {
        self.scratch.retained_bytes()
    }

    /// The flat parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the flat parameter set.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Estimated forward+backward multiply-accumulates per *sample*; the
    /// discrete-event simulator multiplies by batch size and divides by a
    /// worker's flop/s rating to obtain compute time.
    pub fn flops_per_sample(&self) -> u64 {
        self.flops_per_sample
    }

    /// Forward pass over a batch. `x` must have shape `[batch, input...]`.
    pub fn forward(&mut self, x: Tensor) -> Tensor {
        // Field-level split borrow: layers and scratch mutably, params shared.
        let Network { layers, params, windows, scratch, .. } = self;
        let data = params.data();
        let mut cur = x;
        for (layer, &(start, len)) in layers.iter_mut().zip(windows.iter()) {
            cur = layer.forward(&data[start..start + len], cur, scratch);
        }
        cur
    }

    /// Backward pass from the loss gradient w.r.t. the network output.
    /// Accumulates into the flat gradient vector (call
    /// [`ParamSet::zero_grad`] first for a fresh step).
    pub fn backward(&mut self, dy: Tensor) {
        let Network { layers, params, windows, scratch, .. } = self;
        let mut cur = dy;
        for (layer, &(start, len)) in layers.iter_mut().zip(windows.iter()).rev() {
            let (p, g) = params.window_view_mut(start, len);
            cur = layer.backward(p, g, cur, scratch);
        }
        // The input gradient of the first layer has no consumer (and, past
        // the first layer with parameters, no defined contents); recycle it.
        scratch.put_tensor(cur);
    }

    /// Convenience: zero grads, forward, softmax cross-entropy, backward.
    /// Returns `(mean loss, number of top-1 correct)`.
    pub fn train_step(&mut self, x: Tensor, labels: &[usize]) -> (f64, usize) {
        self.params.zero_grad();
        let logits = self.forward(x);
        let correct = crate::loss::top1_correct(&logits, labels);
        let (loss, dlogits) = crate::loss::softmax_cross_entropy(&logits, labels);
        self.backward(dlogits);
        (loss, correct)
    }

    /// Forward-only evaluation returning `(mean loss, top-1 correct)`.
    pub fn eval_batch(&mut self, x: Tensor, labels: &[usize]) -> (f64, usize) {
        let logits = self.forward(x);
        let correct = crate::loss::top1_correct(&logits, labels);
        let (loss, _) = crate::loss::softmax_cross_entropy(&logits, labels);
        (loss, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Linear, ReLU};

    fn tiny_net(seed: u64) -> Network {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Linear::new("fc1", 4, 8)),
            Box::new(ReLU::new("relu1")),
            Box::new(Linear::new("fc2", 8, 3)),
        ];
        Network::new(layers, Shape::from([4]), seed)
    }

    #[test]
    fn partition_layout() {
        let net = tiny_net(0);
        let names: Vec<&str> =
            net.params().partition().segments().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn deterministic_init() {
        let a = tiny_net(7);
        let b = tiny_net(7);
        assert_eq!(a.params().data(), b.params().data());
        let c = tiny_net(8);
        assert_ne!(a.params().data(), c.params().data());
    }

    #[test]
    fn forward_shape() {
        let mut net = tiny_net(1);
        let x = Tensor::randn([5, 4], 1.0, 2);
        let y = net.forward(x);
        assert_eq!(y.shape().dims(), &[5, 3]);
    }

    #[test]
    fn full_network_gradient_check() {
        let mut net = tiny_net(3);
        let x = Tensor::randn([4, 4], 1.0, 4);
        let labels = vec![0usize, 1, 2, 0];
        net.train_step(x.clone(), &labels);
        let analytic = net.params().grad().to_vec();

        let eps = 1e-2f32;
        let loss_at = |net: &mut Network, x: &Tensor| -> f64 {
            let logits = net.forward(x.clone());
            crate::loss::softmax_cross_entropy(&logits, &labels).0
        };
        for &pi in &[0usize, 10, 40, analytic.len() - 1] {
            let orig = net.params().data()[pi];
            net.params_mut().data_mut()[pi] = orig + eps;
            let lp = loss_at(&mut net, &x);
            net.params_mut().data_mut()[pi] = orig - eps;
            let lm = loss_at(&mut net, &x);
            net.params_mut().data_mut()[pi] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - analytic[pi]).abs() < 2e-2 * num.abs().max(1.0),
                "grad[{pi}] numerical {num} vs analytic {}",
                analytic[pi]
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = tiny_net(5);
        let x = Tensor::randn([16, 4], 1.0, 6);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let (first_loss, _) = net.train_step(x.clone(), &labels);
        // Plain SGD steps.
        for _ in 0..100 {
            let (_, _) = net.train_step(x.clone(), &labels);
            let grads = net.params().grad().to_vec();
            let data = net.params_mut().data_mut();
            for (p, g) in data.iter_mut().zip(grads.iter()) {
                *p -= 0.1 * g;
            }
        }
        let (last_loss, correct) = net.eval_batch(x, &labels);
        assert!(last_loss < first_loss * 0.5, "loss should drop: {first_loss} -> {last_loss}");
        assert!(correct >= 11, "should mostly memorise the batch, got {correct}/16");
    }

    #[test]
    fn flops_estimate_positive() {
        let net = tiny_net(0);
        assert!(net.flops_per_sample() > 0);
    }

    #[test]
    fn flops_stay_nominal_under_the_first_layer_skip() {
        // The DES's compute model for `widemlp`: three products per Linear,
        // the first layer's unread `dX` included. Simulated time hangs on it.
        let net = crate::models::mlp_on_images(3, 16, &[1024, 1024], 10, 0);
        assert_eq!(net.flops_per_sample(), 11_089_920);
    }

    #[test]
    fn first_layer_skip_changes_no_gradient_bit_and_no_allocation() {
        use crate::models::{mlp, mlp_on_images, resnet_lite};
        // The reference network's first parameter-owning layer is swapped for
        // a twin that was never told to skip, so every `backward` computes
        // its `dX`: first layer a Linear, a Flatten in front of it, and a
        // conv first (which computes `dX` regardless).
        type Case = (&'static str, fn() -> Network, Option<(usize, Linear)>);
        let cases: [Case; 3] = [
            ("mlp", || mlp(12, &[16, 8], 4, 31), Some((0, Linear::new("fc0", 12, 16)))),
            (
                "mlp_on_images",
                || mlp_on_images(2, 4, &[16, 8], 4, 32),
                Some((1, Linear::new("fc0", 32, 16))),
            ),
            ("resnet_lite", || resnet_lite(1, 8, 3, 4, 33), None),
        ];
        for (name, build, twin) in cases {
            let mut net = build();
            let mut reference = build();
            if let Some((at, linear)) = twin {
                assert_eq!(reference.layers[at].name(), linear.name());
                reference.layers[at] = Box::new(linear);
            }
            let batch = 4;
            let mut dims = vec![batch];
            dims.extend_from_slice(net.input_shape().dims());
            let x = Tensor::randn(Shape::new(dims), 1.0, 41);
            let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();

            reference.train_step(x.clone(), &labels);
            net.train_step(x.clone(), &labels);
            let bits =
                |n: &Network| n.params().grad().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&net), bits(&reference), "{name}: gradient bits");

            // Warm already (one step, and one more for margin): the unfilled
            // buffer is drawn and recycled like the filled one was.
            net.train_step(x.clone(), &labels);
            let misses = net.scratch_misses();
            for _ in 0..8 {
                net.train_step(x.clone(), &labels);
            }
            assert_eq!(net.scratch_misses(), misses, "{name}: warm steps must not allocate");
        }
    }
}
