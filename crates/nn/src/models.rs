//! Ready-made architectures used by the experiments.

use crate::layer::{ChannelNorm, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, ReLU};
use crate::model::Network;
use crate::resnet::ResidualBlock;
use dgs_tensor::Shape;

/// A multi-layer perceptron `input_dim → hidden... → classes` with ReLU
/// activations and per-layer normalisation. Fast; used by the CIFAR-scale
/// sweeps where dozens of full training runs are required.
pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(Linear::new(format!("fc{i}"), prev, h)));
        layers.push(Box::new(ChannelNorm::new(format!("norm{i}"), h)));
        layers.push(Box::new(ReLU::new(format!("relu{i}"))));
        prev = h;
    }
    layers.push(Box::new(Linear::new("head", prev, classes)));
    Network::new(layers, Shape::from([input_dim]), seed)
}

/// An MLP over flattened `channels × hw × hw` images: a leading
/// [`Flatten`] followed by the [`mlp`] stack. Used by the many-run sweeps
/// where a CNN per run would be too slow.
pub fn mlp_on_images(
    channels: usize,
    hw: usize,
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> Network {
    let input_dim = channels * hw * hw;
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Flatten::new("flatten"))];
    let mut prev = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(Linear::new(format!("fc{i}"), prev, h)));
        layers.push(Box::new(ChannelNorm::new(format!("norm{i}"), h)));
        layers.push(Box::new(ReLU::new(format!("relu{i}"))));
        prev = h;
    }
    layers.push(Box::new(Linear::new("head", prev, classes)));
    Network::new(layers, Shape::from([channels, hw, hw]), seed)
}

/// A small plain CNN: conv-norm-relu ×2 with pooling, then a linear head.
/// Mid-sized; exercises convolution without residual topology.
pub fn tiny_cnn(channels: usize, hw: usize, classes: usize, width: usize, seed: u64) -> Network {
    assert!(hw.is_multiple_of(4), "tiny_cnn needs hw divisible by 4");
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv1", channels, width, 3, 1, 1, false)),
        Box::new(ChannelNorm::new("norm1", width)),
        Box::new(ReLU::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2)),
        Box::new(Conv2d::new("conv2", width, 2 * width, 3, 1, 1, false)),
        Box::new(ChannelNorm::new("norm2", 2 * width)),
        Box::new(ReLU::new("relu2")),
        Box::new(MaxPool2d::new("pool2", 2)),
        Box::new(Flatten::new("flat")),
        Box::new(Linear::new("head", 2 * width * (hw / 4) * (hw / 4), classes)),
    ];
    Network::new(layers, Shape::from([channels, hw, hw]), seed)
}

/// The ResNet-18 stand-in: a genuine residual CNN sized for CPU training.
///
/// Structure (matching ResNet-18's shape at reduced width/depth):
/// stem conv → 3 stages of residual blocks (stride-2 transitions,
/// doubling width) → global average pool → linear head. With
/// `base_width = 8` and 16×16 inputs this trains in seconds per epoch
/// while preserving the heterogeneous layer mix (3×3 convs, 1×1
/// projections, norm scales, FC head) the per-layer sparsifier sees in
/// the paper.
pub fn resnet_lite(
    channels: usize,
    hw: usize,
    classes: usize,
    base_width: usize,
    seed: u64,
) -> Network {
    let w = base_width;
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("stem", channels, w, 3, 1, 1, false)),
        Box::new(ChannelNorm::new("stem.norm", w)),
        Box::new(ReLU::new("stem.relu")),
        Box::new(ResidualBlock::new("stage1.block1", w, w, 1)),
        Box::new(ResidualBlock::new("stage2.block1", w, 2 * w, 2)),
        Box::new(ResidualBlock::new("stage2.block2", 2 * w, 2 * w, 1)),
        Box::new(ResidualBlock::new("stage3.block1", 2 * w, 4 * w, 2)),
        Box::new(GlobalAvgPool::new("gap")),
        Box::new(Linear::new("head", 4 * w, classes)),
    ];
    Network::new(layers, Shape::from([channels, hw, hw]), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_tensor::Tensor;

    #[test]
    fn mlp_shapes_and_params() {
        let mut net = mlp(8, &[16, 16], 4, 1);
        let x = Tensor::randn([5, 8], 1.0, 2);
        let y = net.forward(x);
        assert_eq!(y.shape().dims(), &[5, 4]);
        assert!(net.num_params() > 0);
    }

    #[test]
    fn tiny_cnn_shapes() {
        let mut net = tiny_cnn(3, 8, 10, 4, 1);
        let x = Tensor::randn([2, 3, 8, 8], 1.0, 2);
        let y = net.forward(x);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn resnet_lite_shapes() {
        let mut net = resnet_lite(3, 16, 10, 4, 1);
        let x = Tensor::randn([2, 3, 16, 16], 1.0, 2);
        let y = net.forward(x);
        assert_eq!(y.shape().dims(), &[2, 10]);
        // Heterogeneous partition: many segments of differing sizes.
        assert!(net.params().partition().num_segments() > 10);
    }

    #[test]
    fn resnet_lite_trains_on_batch() {
        let mut net = resnet_lite(1, 8, 2, 4, 3);
        let x = Tensor::randn([8, 1, 8, 8], 1.0, 4);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let (first, _) = net.train_step(x.clone(), &labels);
        for _ in 0..30 {
            net.train_step(x.clone(), &labels);
            let grads = net.params().grad().to_vec();
            let data = net.params_mut().data_mut();
            for (p, g) in data.iter_mut().zip(grads.iter()) {
                *p -= 0.05 * g;
            }
        }
        let (last, _) = net.eval_batch(x, &labels);
        assert!(last < first, "resnet_lite should fit one batch: {first} -> {last}");
    }

    #[test]
    fn models_deterministic_per_seed() {
        let a = resnet_lite(3, 8, 4, 4, 42);
        let b = resnet_lite(3, 8, 4, 4, 42);
        assert_eq!(a.params().data(), b.params().data());
    }
}
