//! Residual blocks — self-contained composite layers.
//!
//! A [`ResidualBlock`] owns its two conv+norm sub-layers and implements the
//! [`Layer`] trait itself, managing the sub-layers' parameter layout within
//! its own flat slice. This keeps the `Network` builder a simple sequence
//! while preserving the residual topology of ResNet-18, which matters for
//! the reproduction: per-layer Top-k then operates over heterogeneous
//! parameter tensors (3×3 convs, 1×1 projections, norm scales) exactly as
//! in the paper's ResNet experiments.

use crate::layer::{ChannelNorm, Conv2d, Layer, ReLU};
use dgs_tensor::rng::derive_seed;
use dgs_tensor::{ComputeScratch, Shape, Tensor};

/// A basic pre-activation-free residual block:
/// `y = relu(norm2(conv2(relu(norm1(conv1(x))))) + proj(x))`
/// where `proj` is identity when geometry allows, else a 1×1 strided conv.
pub struct ResidualBlock {
    name: String,
    conv1: Conv2d,
    norm1: ChannelNorm,
    relu1: ReLU,
    conv2: Conv2d,
    norm2: ChannelNorm,
    /// 1×1 projection for channel/stride changes; `None` = identity skip.
    proj: Option<Conv2d>,
    /// `(start, len)` of each sub-layer's window within this block's slice,
    /// in [`ResidualBlock::sublayers`] order.
    windows: Vec<(usize, usize)>,
    /// Cached pre-activation sum for the final ReLU's backward gate.
    cached_pre_relu: Option<Tensor>,
}

/// A copy of `t` in storage from `scratch` (both branches of the block
/// consume their input, so one of them needs its own).
fn pooled_copy(t: &Tensor, scratch: &mut ComputeScratch) -> Tensor {
    let mut v = scratch.take(t.numel());
    v.extend_from_slice(t.data());
    Tensor::from_vec(t.shape().clone(), v).expect("copy keeps the shape")
}

impl ResidualBlock {
    /// Creates a residual block `in_channels → out_channels` with the given
    /// stride on the first conv (stride 2 halves the spatial extent).
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
    ) -> Self {
        let name = name.into();
        let conv1 =
            Conv2d::new(format!("{name}.conv1"), in_channels, out_channels, 3, stride, 1, false);
        let norm1 = ChannelNorm::new(format!("{name}.norm1"), out_channels);
        let relu1 = ReLU::new(format!("{name}.relu1"));
        let conv2 =
            Conv2d::new(format!("{name}.conv2"), out_channels, out_channels, 3, 1, 1, false);
        let norm2 = ChannelNorm::new(format!("{name}.norm2"), out_channels);
        let proj = if in_channels != out_channels || stride != 1 {
            Some(Conv2d::new(
                format!("{name}.proj"),
                in_channels,
                out_channels,
                1,
                stride,
                0,
                false,
            ))
        } else {
            None
        };
        let mut block = ResidualBlock {
            name,
            conv1,
            norm1,
            relu1,
            conv2,
            norm2,
            proj,
            windows: Vec::new(),
            cached_pre_relu: None,
        };
        let mut offset = 0usize;
        block.windows = block
            .sublayers()
            .iter()
            .map(|l| {
                let len: usize = l.param_sizes().iter().map(|&(_, n)| n).sum();
                offset += len;
                (offset - len, len)
            })
            .collect();
        block
    }

    /// Sub-layers in forward order, for layout bookkeeping.
    fn sublayers(&self) -> Vec<&dyn Layer> {
        let mut v: Vec<&dyn Layer> =
            vec![&self.conv1, &self.norm1, &self.relu1, &self.conv2, &self.norm2];
        if let Some(p) = &self.proj {
            v.push(p);
        }
        v
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        // The block exposes one segment per sub-parameter so the partition
        // (and therefore per-layer Top-k) sees the real layer structure.
        let mut sizes = Vec::new();
        for l in self.sublayers() {
            for (_suffix, len) in l.param_sizes() {
                // Leak-free static naming is impossible here (names are
                // dynamic); use a fixed suffix per slot. The partition's
                // human name comes from the block's name; exact suffixes
                // matter only for debugging.
                sizes.push(("param", len));
            }
        }
        sizes
    }

    fn init_params(&self, params: &mut [f32], seed: u64) {
        for (i, (l, &(start, len))) in
            self.sublayers().into_iter().zip(self.windows.iter()).enumerate()
        {
            l.init_params(&mut params[start..start + len], derive_seed(seed, i as u64));
        }
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        self.conv1.output_shape(input)
    }

    fn forward(&mut self, params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let w = &self.windows;
        let window = |i: usize| &params[w[i].0..w[i].0 + w[i].1];
        let h = self.conv1.forward(window(0), pooled_copy(&x, scratch), scratch);
        let h = self.norm1.forward(window(1), h, scratch);
        let h = self.relu1.forward(&[], h, scratch);
        let h = self.conv2.forward(window(3), h, scratch);
        let mut h = self.norm2.forward(window(4), h, scratch);
        // The skip path is the input's last consumer: it takes `x` itself.
        let skip = match &mut self.proj {
            Some(p) => p.forward(window(5), x, scratch),
            None => x,
        };
        h.add_assign(&skip);
        scratch.put_tensor(skip);
        // The pre-activation tensor is cached for the backward gate; the
        // ReLU output itself lives in a pooled buffer.
        let mut y = pooled_copy(&h, scratch);
        scratch.kernel().relu_inplace(y.data_mut());
        self.cached_pre_relu = Some(h);
        y
    }

    fn backward(
        &mut self,
        params: &[f32],
        grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let pre = self.cached_pre_relu.take().expect("block backward without forward");

        // Final ReLU gate (the compute tier's mask: zero where pre ≤ 0).
        let mut d = dy;
        scratch.kernel().relu_grad_mask(pre.data(), d.data_mut());
        scratch.put_tensor(pre);

        // Branch gradients: d flows into both the conv path (a pooled
        // copy) and the skip (d itself, its last consumer).
        let w = &self.windows;
        let mut run = |layer: &mut dyn Layer, i: usize, dh: Tensor, scratch: &mut ComputeScratch| {
            let (start, end) = (w[i].0, w[i].0 + w[i].1);
            layer.backward(&params[start..end], &mut grad[start..end], dh, scratch)
        };
        let dh = pooled_copy(&d, scratch);
        let dh = run(&mut self.norm2, 4, dh, scratch);
        let dh = run(&mut self.conv2, 3, dh, scratch);
        let dh = run(&mut self.relu1, 2, dh, scratch);
        let dh = run(&mut self.norm1, 1, dh, scratch);
        let mut dx = run(&mut self.conv1, 0, dh, scratch);
        let d_skip = match &mut self.proj {
            Some(p) => run(p, 5, d, scratch),
            None => d,
        };
        dx.add_assign(&d_skip);
        scratch.put_tensor(d_skip);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        let mid = self.conv1.output_shape(input);
        let mut f = self.conv1.flops(input) + self.norm1.flops(&mid) + self.relu1.flops(&mid);
        f += self.conv2.flops(&mid) + self.norm2.flops(&mid);
        if let Some(p) = &self.proj {
            f += p.flops(input);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_params(layer: &dyn Layer, seed: u64) -> Vec<f32> {
        let n: usize = layer.param_sizes().iter().map(|&(_, l)| l).sum();
        let mut p = vec![0.0f32; n];
        layer.init_params(&mut p, seed);
        p
    }

    fn sc() -> ComputeScratch {
        ComputeScratch::default()
    }

    #[test]
    fn identity_block_shapes() {
        let mut b = ResidualBlock::new("rb", 4, 4, 1);
        assert!(b.proj.is_none());
        let params = alloc_params(&b, 1);
        let x = Tensor::randn([2, 4, 6, 6], 1.0, 2);
        assert_eq!(b.output_shape(x.shape()).dims(), &[2, 4, 6, 6]);
        let y = b.forward(&params, x, &mut sc());
        assert_eq!(y.shape().dims(), &[2, 4, 6, 6]);
        // Output is post-ReLU: non-negative.
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn projection_block_shapes() {
        let mut b = ResidualBlock::new("rb", 4, 8, 2);
        assert!(b.proj.is_some());
        let params = alloc_params(&b, 1);
        let x = Tensor::randn([2, 4, 8, 8], 1.0, 2);
        assert_eq!(b.output_shape(x.shape()).dims(), &[2, 8, 4, 4]);
        let y = b.forward(&params, x, &mut sc());
        assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn block_gradient_check() {
        let mut b = ResidualBlock::new("rb", 2, 2, 1);
        let params = alloc_params(&b, 3);
        let x = Tensor::randn([2, 2, 4, 4], 1.0, 4);

        let y = b.forward(&params, x.clone(), &mut sc());
        let mut grad = vec![0.0f32; params.len()];
        let dx = b.backward(&params, &mut grad, Tensor::full(y.shape().clone(), 1.0), &mut sc());

        let eps = 1e-2f32;
        let loss = |b: &mut ResidualBlock, params: &[f32], x: &Tensor| -> f64 {
            let s = &mut sc();
            let y = b.forward(params, x.clone(), s);
            // Consume cached state so the next forward is clean.
            b.backward(params, &mut vec![0.0; params.len()], Tensor::zeros(y.shape().clone()), s);
            y.sum()
        };
        for &pi in &[0usize, params.len() / 3, params.len() - 1] {
            let mut pp = params.clone();
            pp[pi] += eps;
            let lp = loss(&mut b, &pp, &x);
            let mut pm = params.clone();
            pm[pi] -= eps;
            let lm = loss(&mut b, &pm, &x);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - grad[pi]).abs() < 5e-2 * num.abs().max(1.0),
                "param[{pi}]: numerical {num} vs analytic {}",
                grad[pi]
            );
        }
        for &xi in &[0usize, x.numel() / 2, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = loss(&mut b, &params, &xp);
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = loss(&mut b, &params, &xm);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[xi]).abs() < 5e-2 * num.abs().max(1.0),
                "dx[{xi}]: numerical {num} vs analytic {}",
                dx.data()[xi]
            );
        }
    }

    #[test]
    fn projection_block_gradient_check_input() {
        let mut b = ResidualBlock::new("rb", 2, 4, 2);
        let params = alloc_params(&b, 5);
        let x = Tensor::randn([1, 2, 4, 4], 1.0, 6);
        let y = b.forward(&params, x.clone(), &mut sc());
        let mut grad = vec![0.0f32; params.len()];
        let dx = b.backward(&params, &mut grad, Tensor::full(y.shape().clone(), 1.0), &mut sc());
        let eps = 1e-2f32;
        let loss = |b: &mut ResidualBlock, x: &Tensor| -> f64 {
            let s = &mut sc();
            let y = b.forward(&params, x.clone(), s);
            b.backward(&params, &mut vec![0.0; params.len()], Tensor::zeros(y.shape().clone()), s);
            y.sum()
        };
        for &xi in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = loss(&mut b, &xp);
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = loss(&mut b, &xm);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[xi]).abs() < 5e-2 * num.abs().max(1.0),
                "dx[{xi}]: numerical {num} vs analytic {}",
                dx.data()[xi]
            );
        }
    }

    #[test]
    fn flops_positive() {
        let b = ResidualBlock::new("rb", 4, 8, 2);
        assert!(b.flops(&Shape::from([1, 4, 8, 8])) > 0);
    }

    #[test]
    fn init_deterministic() {
        let b = ResidualBlock::new("rb", 2, 4, 1);
        let a = alloc_params(&b, 9);
        let c = alloc_params(&b, 9);
        assert_eq!(a, c);
        let d = alloc_params(&b, 10);
        assert_ne!(a, d);
    }
}
