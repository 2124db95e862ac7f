//! The [`Layer`] trait and concrete layers with manual backward passes.
//!
//! Each layer declares its parameter sub-segments at construction time; the
//! [`Network`](crate::model::Network) builder lays them out consecutively in
//! one flat [`ParamSet`](crate::param::ParamSet). During forward/backward a
//! layer receives only *its own* slice of the flat data and gradient
//! vectors, so layers are independent of global layout.
//!
//! Every forward/backward also receives the network's [`ComputeScratch`]:
//! it carries the explicit [`Kernel`](dgs_tensor::Kernel) backend every
//! GEMM/conv/pool/activation dispatches through, plus the buffer pools
//! that make the steady-state training step allocation-free (outputs,
//! gradient buffers and cached activations are all recycled through it).

use dgs_tensor::conv::{conv2d_backward_with, conv2d_forward_with, Conv2dSpec};
use dgs_tensor::pool::{
    global_avg_pool_backward_with, global_avg_pool_forward_with, maxpool2d_backward_with,
    maxpool2d_forward_with, MaxPoolSpec,
};
use dgs_tensor::rng::{fill_normal, seeded};
use dgs_tensor::{ComputeScratch, Shape, Tensor};

/// A differentiable network layer with externally owned parameters.
///
/// Contract: `forward` caches whatever `backward` needs; `backward` must be
/// called at most once per `forward`, with `dy` matching the last output
/// shape, and *accumulates* into its gradient slice (callers zero the flat
/// grad vector once per step).
pub trait Layer: Send {
    /// Diagnostic name, also used to label partition segments.
    fn name(&self) -> &str;

    /// `(suffix, len)` of each parameter segment, e.g. `[("weight", 64),
    /// ("bias", 8)]`. Empty for parameter-free layers.
    fn param_sizes(&self) -> Vec<(&'static str, usize)>;

    /// Writes initial parameter values into this layer's flat slice.
    fn init_params(&self, params: &mut [f32], seed: u64);

    /// Shape of the output for a given input shape (batch included).
    fn output_shape(&self, input: &Shape) -> Shape;

    /// Forward pass; `params` is this layer's slice of the flat vector and
    /// `scratch` supplies the compute backend and pooled buffers.
    fn forward(&mut self, params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor;

    /// Backward pass; accumulates into `grad` (this layer's slice) and
    /// returns the gradient w.r.t. the layer input.
    fn backward(
        &mut self,
        params: &[f32],
        grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor;

    /// Tells the layer that nothing reads the tensor its `backward`
    /// returns, so it may leave that tensor's contents unspecified (shape
    /// and buffer discipline unchanged) instead of computing the input
    /// gradient. [`Network`](crate::model::Network) calls this once, at
    /// construction, on the first layer that owns parameters: everything in
    /// front of it is parameter-free. The default keeps computing it.
    fn skip_input_grad(&mut self) {}

    /// Nominal multiply-accumulate count for a forward+backward pass over
    /// `input` (batch included): the forward product plus the two backward
    /// ones, whatever this CPU path actually runs — a layer told to
    /// [`skip_input_grad`](Layer::skip_input_grad) still counts all three.
    /// It is the discrete-event simulator's compute-time model, not a
    /// profile, so no optimisation here may move it.
    fn flops(&self, input: &Shape) -> u64;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x·Wᵀ + b` with `W: out×in` (row-major).
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    /// Set by [`Layer::skip_input_grad`]: `backward` returns `dX` unfilled.
    skip_dx: bool,
}

impl Linear {
    /// Creates an `in_features → out_features` linear layer.
    pub fn new(name: impl Into<String>, in_features: usize, out_features: usize) -> Self {
        Linear { name: name.into(), in_features, out_features, cached_input: None, skip_dx: false }
    }

    fn weight_len(&self) -> usize {
        self.in_features * self.out_features
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        vec![("weight", self.weight_len()), ("bias", self.out_features)]
    }

    fn init_params(&self, params: &mut [f32], seed: u64) {
        // Kaiming-style: std = sqrt(2 / fan_in); biases zero.
        let std = (2.0 / self.in_features as f32).sqrt();
        let (w, b) = params.split_at_mut(self.weight_len());
        let mut rng = seeded(seed);
        fill_normal(&mut rng, w, 0.0, std);
        b.fill(0.0);
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        let (n, d) = input.as_matrix();
        assert_eq!(d, self.in_features, "linear {} input dim", self.name);
        Shape::from([n, self.out_features])
    }

    fn forward(&mut self, params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let (n, d) = x.shape().as_matrix();
        assert_eq!(d, self.in_features, "linear {} input dim", self.name);
        let w = &params[..self.weight_len()];
        let b = &params[self.weight_len()..];
        // y = x (n×in) · Wᵀ (in×out); W is stored out×in row-major, so the
        // A·Bᵀ kernel reads it straight off the flat parameter slice — no
        // transpose copy, no `w.to_vec()`.
        let mut y = scratch.take_dirty(n * self.out_features);
        scratch.kernel().gemm_a_bt(x.data(), w, &mut y, n, self.in_features, self.out_features);
        for row in y.chunks_mut(self.out_features) {
            for (v, &bi) in row.iter_mut().zip(b.iter()) {
                *v += bi;
            }
        }
        self.cached_input = Some(x);
        Tensor::from_vec([n, self.out_features], y).unwrap()
    }

    fn backward(
        &mut self,
        params: &[f32],
        grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let x = self.cached_input.take().expect("linear backward without forward");
        let w = &params[..self.weight_len()];
        let (n, _) = dy.shape().as_matrix();
        // grad_W += dYᵀ·X  (out×n · n×in): Aᵀ·B with A = dY stored n×out,
        // each finished element added into the gradient at copy-out.
        let (gw, gb) = grad.split_at_mut(self.weight_len());
        scratch.kernel().gemm_at_b_add(
            dy.data(),
            x.data(),
            gw,
            self.out_features,
            n,
            self.in_features,
        );
        for r in 0..n {
            let row = &dy.data()[r * self.out_features..(r + 1) * self.out_features];
            for (g, &v) in gb.iter_mut().zip(row.iter()) {
                *g += v;
            }
        }
        // dX = dY (n×out) · W (out×in) — unless nothing reads it, in which
        // case the buffer goes back as drawn: shape right, contents unspecified.
        let mut dxd = scratch.take_dirty(n * self.in_features);
        if !self.skip_dx {
            scratch.kernel().gemm(dy.data(), w, &mut dxd, n, self.out_features, self.in_features);
        }
        scratch.put_tensor(x);
        scratch.put_tensor(dy);
        Tensor::from_vec([n, self.in_features], dxd).unwrap()
    }

    fn skip_input_grad(&mut self) {
        self.skip_dx = true;
    }

    fn flops(&self, input: &Shape) -> u64 {
        let (n, _) = input.as_matrix();
        // forward + two backward matmuls.
        (6 * n * self.in_features * self.out_features) as u64
    }
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution layer over NCHW tensors (square kernel).
pub struct Conv2d {
    name: String,
    spec: Conv2dSpec,
    with_bias: bool,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        with_bias: bool,
    ) -> Self {
        Conv2d {
            name: name.into(),
            spec: Conv2dSpec { in_channels, out_channels, kernel, stride, padding },
            with_bias,
            cached_input: None,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        let mut v = vec![("weight", self.spec.weight_len())];
        if self.with_bias {
            v.push(("bias", self.spec.out_channels));
        }
        v
    }

    fn init_params(&self, params: &mut [f32], seed: u64) {
        let fan_in = self.spec.in_channels * self.spec.kernel * self.spec.kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let wl = self.spec.weight_len();
        let mut rng = seeded(seed);
        fill_normal(&mut rng, &mut params[..wl], 0.0, std);
        if self.with_bias {
            params[wl..].fill(0.0);
        }
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        let (n, c, h, w) = input.as_nchw();
        assert_eq!(c, self.spec.in_channels, "conv {} input channels", self.name);
        let (oh, ow) = self.spec.out_hw(h, w);
        Shape::from([n, self.spec.out_channels, oh, ow])
    }

    fn forward(&mut self, params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let wl = self.spec.weight_len();
        let (w, b) = params.split_at(wl);
        let y =
            conv2d_forward_with(scratch, &x, w, if self.with_bias { b } else { &[] }, &self.spec);
        self.cached_input = Some(x);
        y
    }

    fn backward(
        &mut self,
        params: &[f32],
        grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let x = self.cached_input.take().expect("conv backward without forward");
        let wl = self.spec.weight_len();
        let w = &params[..wl];
        let grads = conv2d_backward_with(scratch, &x, w, &dy, &self.spec, self.with_bias);
        let (gw, gb) = grad.split_at_mut(wl);
        for (g, &v) in gw.iter_mut().zip(grads.dweight.iter()) {
            *g += v;
        }
        for (g, &v) in gb.iter_mut().zip(grads.dbias.iter()) {
            *g += v;
        }
        scratch.put(grads.dweight);
        scratch.put(grads.dbias);
        scratch.put_tensor(x);
        scratch.put_tensor(dy);
        grads.dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        let (n, _, h, w) = input.as_nchw();
        3 * self.spec.flops(n, h, w)
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Elementwise ReLU.
pub struct ReLU {
    name: String,
    cached_input: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        ReLU { name: name.into(), cached_input: None }
    }
}

impl Layer for ReLU {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn init_params(&self, _params: &mut [f32], _seed: u64) {}

    fn output_shape(&self, input: &Shape) -> Shape {
        input.clone()
    }

    fn forward(&mut self, _params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let mut y = scratch.take(x.numel());
        y.extend_from_slice(x.data());
        scratch.kernel().relu_inplace(&mut y);
        let shape = x.shape().clone();
        self.cached_input = Some(x);
        Tensor::from_vec(shape, y).unwrap()
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let x = self.cached_input.take().expect("relu backward without forward");
        let mut dx = dy;
        scratch.kernel().relu_grad_mask(x.data(), dx.data_mut());
        scratch.put_tensor(x);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        input.numel() as u64
    }
}

// ---------------------------------------------------------------------------
// ChannelNorm (BatchNorm that always uses batch statistics)
// ---------------------------------------------------------------------------

/// Per-channel normalisation with learnable scale/shift.
///
/// Normalises every channel by the mean/variance of the *current batch*
/// (BatchNorm's training behaviour) in both train and eval. This keeps the
/// model a pure function of its parameters — required for the server-side
/// model reconstruction `θ_t = θ_0 + M_t` — see the crate docs.
pub struct ChannelNorm {
    name: String,
    channels: usize,
    eps: f32,
    // Caches for backward.
    cached: Option<NormCache>,
}

struct NormCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

/// Channels whose statistic chains advance together. One channel's sum is
/// a single dependent chain of adds (its `(image, pixel)` order is part of
/// the bitwise contract), so a lone chain runs at add latency; eight
/// independent ones keep the adders busy.
const NORM_LANES: usize = 8;

/// `(n, c, hw)` of a rank-2 (`N×C`, `hw = 1`) or rank-4 (NCHW) input: each
/// `(image, channel)` pair owns one contiguous row of `hw` elements.
fn norm_dims(shape: &Shape, channels: usize) -> (usize, usize, usize) {
    let (n, c, hw) = match shape.rank() {
        2 => {
            let (n, c) = shape.as_matrix();
            (n, c, 1)
        }
        4 => {
            let (n, c, h, w) = shape.as_nchw();
            (n, c, h * w)
        }
        r => panic!("ChannelNorm supports rank 2 or 4 inputs, got rank {r}"),
    };
    assert_eq!(c, channels);
    (n, c, hw)
}

/// Per-channel sums of `S` terms: `out[s][ch] = Σ term(ch, i)[s]` over the
/// channel's flat indices `i` in `(image, pixel)` order, each sum one
/// chain from `0.0`. [`NORM_LANES`] channels advance together; which
/// channels share a group never changes any channel's own order.
fn channel_sums<const S: usize>(
    (n, c, hw): (usize, usize, usize),
    out: [&mut [f32]; S],
    term: impl Fn(usize, usize) -> [f32; S],
) {
    fn group<const G: usize, const S: usize>(
        (n, c, hw): (usize, usize, usize),
        ch0: usize,
        term: &impl Fn(usize, usize) -> [f32; S],
    ) -> [[f32; G]; S] {
        let mut acc = [[0.0f32; G]; S];
        for i in 0..n {
            let base = (i * c + ch0) * hw;
            for p in 0..hw {
                for j in 0..G {
                    let t = term(ch0 + j, base + j * hw + p);
                    for s in 0..S {
                        acc[s][j] += t[s];
                    }
                }
            }
        }
        acc
    }
    let mut ch0 = 0;
    while ch0 < c {
        if c - ch0 >= NORM_LANES {
            let acc = group::<NORM_LANES, S>((n, c, hw), ch0, &term);
            for s in 0..S {
                out[s][ch0..ch0 + NORM_LANES].copy_from_slice(&acc[s]);
            }
            ch0 += NORM_LANES;
        } else {
            let acc = group::<1, S>((n, c, hw), ch0, &term);
            for s in 0..S {
                out[s][ch0] = acc[s][0];
            }
            ch0 += 1;
        }
    }
}

impl ChannelNorm {
    /// Creates a normalisation layer over `channels` channels of an NCHW
    /// tensor (or the feature dim of an N×C tensor).
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        ChannelNorm { name: name.into(), channels, eps: 1e-5, cached: None }
    }
}

impl Layer for ChannelNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        vec![("gamma", self.channels), ("beta", self.channels)]
    }

    fn init_params(&self, params: &mut [f32], _seed: u64) {
        let (g, b) = params.split_at_mut(self.channels);
        g.fill(1.0);
        b.fill(0.0);
    }

    fn output_shape(&self, input: &Shape) -> Shape {
        input.clone()
    }

    fn forward(&mut self, params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let dims @ (_, c, hw) = norm_dims(x.shape(), self.channels);
        let (gamma, beta) = params.split_at(c);
        let count = (x.numel() / c) as f32;
        let mut mean = scratch.take_dirty(c);
        let mut inv_std = scratch.take_dirty(c);
        let xd = x.data();
        channel_sums(dims, [&mut mean], |_, i| [xd[i]]);
        for m in mean.iter_mut() {
            *m /= count;
        }
        channel_sums(dims, [&mut inv_std], |ch, i| {
            let d = xd[i] - mean[ch];
            [d * d]
        });
        for v in inv_std.iter_mut() {
            *v = 1.0 / (*v / count + self.eps).sqrt();
        }
        // Normalise in place — the input tensor becomes the cached x̂ — and
        // write y in the same pass over each (image, channel) row.
        let shape = x.shape().clone();
        let mut x_hat = x;
        let mut yd = scratch.take_dirty(shape.numel());
        let images = x_hat.data_mut().chunks_exact_mut(c * hw).zip(yd.chunks_exact_mut(c * hw));
        for (xh_img, y_img) in images {
            let rows = xh_img.chunks_exact_mut(hw).zip(y_img.chunks_exact_mut(hw));
            for (ch, (xh_row, y_row)) in rows.enumerate() {
                let (m, s, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
                for (xh, y) in xh_row.iter_mut().zip(y_row) {
                    *xh = (*xh - m) * s;
                    *y = *xh * g + b;
                }
            }
        }
        scratch.put(mean);
        self.cached = Some(NormCache { x_hat, inv_std });
        Tensor::from_vec(shape, yd).unwrap()
    }

    fn backward(
        &mut self,
        params: &[f32],
        grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let NormCache { x_hat, inv_std } =
            self.cached.take().expect("norm backward without forward");
        let dims @ (_, c, hw) = norm_dims(x_hat.shape(), self.channels);
        let gamma = &params[..c];
        let count = (x_hat.numel() / c) as f32;

        // Parameter grads.
        let mut dgamma = scratch.take_dirty(c);
        let mut dbeta = scratch.take_dirty(c);
        let (dyd, xh) = (dy.data(), x_hat.data());
        channel_sums(dims, [&mut dgamma, &mut dbeta], |_, i| [dyd[i] * xh[i], dyd[i]]);
        let (gg, gb) = grad.split_at_mut(c);
        for (g, &v) in gg.iter_mut().zip(dgamma.iter()) {
            *g += v;
        }
        for (g, &v) in gb.iter_mut().zip(dbeta.iter()) {
            *g += v;
        }

        // Input grad (standard batch-norm backward), over dy in place:
        // dx = (γ·inv_std/count) · (count·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = dy;
        let images = dx.data_mut().chunks_exact_mut(c * hw).zip(xh.chunks_exact(c * hw));
        for (d_img, xh_img) in images {
            let rows = d_img.chunks_exact_mut(hw).zip(xh_img.chunks_exact(hw));
            for (ch, (d_row, xh_row)) in rows.enumerate() {
                let g = gamma[ch] * inv_std[ch] / count;
                let (db, dg) = (dbeta[ch], dgamma[ch]);
                for (d, &xh) in d_row.iter_mut().zip(xh_row) {
                    *d = g * (count * *d - db - xh * dg);
                }
            }
        }
        scratch.put(dgamma);
        scratch.put(dbeta);
        scratch.put(inv_std);
        scratch.put_tensor(x_hat);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        (input.numel() * 8) as u64
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d / GlobalAvgPool / Flatten
// ---------------------------------------------------------------------------

/// Max pooling with window == stride.
pub struct MaxPool2d {
    name: String,
    spec: MaxPoolSpec,
    cached: Option<(Shape, Vec<u32>)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given square window.
    pub fn new(name: impl Into<String>, window: usize) -> Self {
        MaxPool2d { name: name.into(), spec: MaxPoolSpec { window }, cached: None }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn init_params(&self, _params: &mut [f32], _seed: u64) {}

    fn output_shape(&self, input: &Shape) -> Shape {
        let (n, c, h, w) = input.as_nchw();
        let (oh, ow) = self.spec.out_hw(h, w);
        Shape::from([n, c, oh, ow])
    }

    fn forward(&mut self, _params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let out = maxpool2d_forward_with(scratch, &x, &self.spec);
        self.cached = Some((x.shape().clone(), out.argmax));
        scratch.put_tensor(x);
        out.y
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let (shape, argmax) = self.cached.take().expect("pool backward without forward");
        let dx = maxpool2d_backward_with(scratch, &shape, &argmax, &dy);
        scratch.put_u32(argmax);
        scratch.put_tensor(dy);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        input.numel() as u64
    }
}

/// Global average pooling `N×C×H×W → N×C`.
pub struct GlobalAvgPool {
    name: String,
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool { name: name.into(), cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn init_params(&self, _params: &mut [f32], _seed: u64) {}

    fn output_shape(&self, input: &Shape) -> Shape {
        let (n, c, _, _) = input.as_nchw();
        Shape::from([n, c])
    }

    fn forward(&mut self, _params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        let y = global_avg_pool_forward_with(scratch, &x);
        self.cached_shape = Some(x.shape().clone());
        scratch.put_tensor(x);
        y
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grad: &mut [f32],
        dy: Tensor,
        scratch: &mut ComputeScratch,
    ) -> Tensor {
        let shape = self.cached_shape.take().expect("gap backward without forward");
        let dx = global_avg_pool_backward_with(scratch, &shape, &dy);
        scratch.put_tensor(dy);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        input.numel() as u64
    }
}

/// Flattens `N×C×H×W → N×(C·H·W)`.
pub struct Flatten {
    name: String,
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten { name: name.into(), cached_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn init_params(&self, _params: &mut [f32], _seed: u64) {}

    fn output_shape(&self, input: &Shape) -> Shape {
        let n = input.dim(0);
        Shape::from([n, input.numel() / n])
    }

    fn forward(&mut self, _params: &[f32], x: Tensor, _scratch: &mut ComputeScratch) -> Tensor {
        let shape = x.shape().clone();
        let n = shape.dim(0);
        let flat = shape.numel() / n;
        self.cached_shape = Some(shape);
        x.reshape([n, flat]).unwrap()
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grad: &mut [f32],
        dy: Tensor,
        _scratch: &mut ComputeScratch,
    ) -> Tensor {
        let shape = self.cached_shape.take().expect("flatten backward without forward");
        dy.reshape(shape).unwrap()
    }

    fn flops(&self, _input: &Shape) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_tensor::assert_slice_approx_eq;

    fn alloc_params(layer: &dyn Layer, seed: u64) -> Vec<f32> {
        let n: usize = layer.param_sizes().iter().map(|&(_, l)| l).sum();
        let mut p = vec![0.0f32; n];
        layer.init_params(&mut p, seed);
        p
    }

    fn sc() -> ComputeScratch {
        ComputeScratch::default()
    }

    /// Numerical-vs-analytic gradient check driving a layer through a
    /// sum-of-outputs loss.
    fn grad_check(layer: &mut dyn Layer, x: &Tensor, params: &[f32], tol: f32) {
        let s = &mut sc();
        let y = layer.forward(params, x.clone(), s);
        let dy = Tensor::full(y.shape().clone(), 1.0);
        let mut grad = vec![0.0f32; params.len()];
        let dx = layer.backward(params, &mut grad, dy, s);
        let eps = 1e-2f32;

        // Parameter gradients on a sample of coordinates.
        let sample: Vec<usize> =
            if params.is_empty() { vec![] } else { vec![0, params.len() / 2, params.len() - 1] };
        for &pi in &sample {
            let mut pp = params.to_vec();
            pp[pi] += eps;
            let lp = layer.forward(&pp, x.clone(), s).sum();
            layer.backward(&pp, &mut vec![0.0; params.len()], Tensor::zeros(y.shape().clone()), s);
            let mut pm = params.to_vec();
            pm[pi] -= eps;
            let lm = layer.forward(&pm, x.clone(), s).sum();
            layer.backward(&pm, &mut vec![0.0; params.len()], Tensor::zeros(y.shape().clone()), s);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - grad[pi]).abs() <= tol * num.abs().max(1.0),
                "param grad [{pi}] numerical {num} vs analytic {}",
                grad[pi]
            );
        }
        // Input gradients on a sample of coordinates.
        for &xi in &[0usize, x.numel() / 2, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let lp = layer.forward(params, xp, s).sum();
            layer.backward(
                params,
                &mut vec![0.0; params.len()],
                Tensor::zeros(y.shape().clone()),
                s,
            );
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let lm = layer.forward(params, xm, s).sum();
            layer.backward(
                params,
                &mut vec![0.0; params.len()],
                Tensor::zeros(y.shape().clone()),
                s,
            );
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[xi]).abs() <= tol * num.abs().max(1.0),
                "input grad [{xi}] numerical {num} vs analytic {}",
                dx.data()[xi]
            );
        }
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new("fc", 2, 3);
        // W = [[1,0],[0,1],[1,1]], b = [0.5, -0.5, 0]
        let params = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5, 0.0];
        let x = Tensor::from_vec([1, 2], vec![2.0, 3.0]).unwrap();
        let y = l.forward(&params, x, &mut sc());
        assert_slice_approx_eq(y.data(), &[2.5, 2.5, 5.0], 1e-6);
    }

    #[test]
    fn linear_grad_check() {
        let mut l = Linear::new("fc", 5, 4);
        let params = alloc_params(&l, 1);
        let x = Tensor::randn([3, 5], 1.0, 2);
        grad_check(&mut l, &x, &params, 2e-2);
    }

    #[test]
    fn linear_grad_accumulates() {
        let mut l = Linear::new("fc", 2, 2);
        let params = alloc_params(&l, 1);
        let x = Tensor::randn([2, 2], 1.0, 3);
        let mut grad = vec![0.0f32; params.len()];
        let s = &mut sc();
        let y = l.forward(&params, x.clone(), s);
        l.backward(&params, &mut grad, Tensor::full(y.shape().clone(), 1.0), s);
        let first = grad.clone();
        let y = l.forward(&params, x, s);
        l.backward(&params, &mut grad, Tensor::full(y.shape().clone(), 1.0), s);
        for (a, b) in grad.iter().zip(first.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-5, "grad should double: {a} vs {b}");
        }
    }

    #[test]
    fn conv_layer_grad_check() {
        let mut l = Conv2d::new("conv", 2, 3, 3, 1, 1, true);
        let params = alloc_params(&l, 4);
        let x = Tensor::randn([2, 2, 5, 5], 1.0, 5);
        grad_check(&mut l, &x, &params, 3e-2);
    }

    #[test]
    fn relu_layer_roundtrip() {
        let mut l = ReLU::new("relu");
        let s = &mut sc();
        let x = Tensor::from_vec([1, 4], vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = l.forward(&[], x, s);
        assert_slice_approx_eq(y.data(), &[0.0, 2.0, 0.0, 4.0], 1e-6);
        let dx = l.backward(&[], &mut [], Tensor::full([1, 4], 1.0), s);
        assert_slice_approx_eq(dx.data(), &[0.0, 1.0, 0.0, 1.0], 1e-6);
    }

    #[test]
    fn channelnorm_normalises() {
        let mut l = ChannelNorm::new("norm", 2);
        let params = alloc_params(&l, 0);
        let x = Tensor::randn([8, 2], 3.0, 6);
        let y = l.forward(&params, x, &mut sc());
        // Each channel of the output should have ~zero mean, ~unit variance.
        for ch in 0..2 {
            let vals: Vec<f32> = (0..8).map(|i| y.data()[i * 2 + ch]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 8.0;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn channelnorm_grad_check_2d() {
        let mut l = ChannelNorm::new("norm", 3);
        let mut params = alloc_params(&l, 0);
        // Non-trivial gamma/beta so parameter grads are exercised.
        params.copy_from_slice(&[1.5, 0.5, 2.0, 0.1, -0.2, 0.3]);
        let x = Tensor::randn([6, 3], 1.0, 7);
        grad_check(&mut l, &x, &params, 3e-2);
    }

    #[test]
    fn channelnorm_grad_check_4d() {
        let mut l = ChannelNorm::new("norm", 2);
        let params = alloc_params(&l, 0);
        let x = Tensor::randn([2, 2, 3, 3], 1.0, 8);
        grad_check(&mut l, &x, &params, 3e-2);
    }

    /// The per-element closure form `ChannelNorm` used before its
    /// statistics were grouped: one accumulator per channel, elements
    /// visited in flat `(image, channel, pixel)` order. Kept as the
    /// reference the grouped form must match bit for bit.
    fn norm_reference(
        shape: &Shape,
        c: usize,
        params: &[f32],
        x: &[f32],
        dy: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let for_each = |f: &mut dyn FnMut(usize, usize)| {
            let hw = shape.numel() / (shape.dim(0) * c);
            for i in 0..shape.dim(0) {
                for ch in 0..c {
                    for p in 0..hw {
                        f(ch, (i * c + ch) * hw + p);
                    }
                }
            }
        };
        let (gamma, beta) = params.split_at(c);
        let count = (shape.numel() / c) as f32;
        let mut mean = vec![0.0f32; c];
        for_each(&mut |ch, i| mean[ch] += x[i]);
        for m in mean.iter_mut() {
            *m /= count;
        }
        let mut var = vec![0.0f32; c];
        for_each(&mut |ch, i| {
            let d = x[i] - mean[ch];
            var[ch] += d * d;
        });
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v / count + 1e-5).sqrt()).collect();
        let mut x_hat = x.to_vec();
        for_each(&mut |ch, i| x_hat[i] = (x_hat[i] - mean[ch]) * inv_std[ch]);
        let mut y = x_hat.clone();
        for_each(&mut |ch, i| y[i] = y[i] * gamma[ch] + beta[ch]);

        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for_each(&mut |ch, i| {
            dgamma[ch] += dy[i] * x_hat[i];
            dbeta[ch] += dy[i];
        });
        let mut dx = vec![0.0f32; x.len()];
        for_each(&mut |ch, i| {
            let g = gamma[ch] * inv_std[ch] / count;
            dx[i] = g * (count * dy[i] - dbeta[ch] - x_hat[i] * dgamma[ch]);
        });
        // The layer accumulates into a gradient slice; start it non-zero.
        let grad: Vec<f32> =
            dgamma.iter().chain(dbeta.iter()).enumerate().map(|(i, &v)| (i as f32 - 3.0) + v).collect();
        (y, grad, dx)
    }

    /// Bitwise equality; both-NaN pairs compare equal (payloads through
    /// arithmetic are unspecified, see `dgs_tensor::gemm`).
    fn assert_bits_eq(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if x.is_nan() && y.is_nan() {
                continue;
            }
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: bits diverged at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn channelnorm_matches_per_element_reference_bitwise() {
        // Channel counts below, at, between and above the group width, in
        // both ranks; ordinary values and the torture palette.
        let torture = |n: usize, seed: u64| -> Vec<f32> {
            let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
            (0..n)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    match s % 23 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        4 => 0.0,
                        5 => f32::from_bits((s >> 40) as u32 & 0x007F_FFFF),
                        _ => ((s >> 20) % 2001) as f32 / 500.0 - 2.0,
                    }
                })
                .collect()
        };
        for &c in &[1usize, 3, 8, 13, 16, 64] {
            for shape in [Shape::from([5, c]), Shape::from([3, c, 4, 5])] {
                for palette in [false, true] {
                    let ctx = format!("c={c} rank={} torture={palette}", shape.rank());
                    let n = shape.numel();
                    let (x, dy) = if palette {
                        (torture(n, c as u64), torture(n, 77 + c as u64))
                    } else {
                        (
                            Tensor::randn([n], 2.0, c as u64).into_vec(),
                            Tensor::randn([n], 1.0, 9 + c as u64).into_vec(),
                        )
                    };
                    let params = Tensor::randn([2 * c], 1.0, 31).into_vec();
                    let (y_ref, grad_ref, dx_ref) = norm_reference(&shape, c, &params, &x, &dy);

                    let mut l = ChannelNorm::new("norm", c);
                    let s = &mut sc();
                    // Twice: the second pass draws dirty buffers.
                    for _ in 0..2 {
                        let xt = Tensor::from_vec(shape.clone(), x.clone()).unwrap();
                        let y = l.forward(&params, xt, s);
                        assert_bits_eq(y.data(), &y_ref, &format!("{ctx}: y"));
                        let mut grad: Vec<f32> = (0..2 * c).map(|i| i as f32 - 3.0).collect();
                        let dyt = Tensor::from_vec(shape.clone(), dy.clone()).unwrap();
                        let dx = l.backward(&params, &mut grad, dyt, s);
                        assert_bits_eq(&grad, &grad_ref, &format!("{ctx}: grads"));
                        assert_bits_eq(dx.data(), &dx_ref, &format!("{ctx}: dx"));
                        s.put_tensor(y);
                        s.put_tensor(dx);
                    }
                }
            }
        }
    }

    #[test]
    fn maxpool_layer_shapes() {
        let mut l = MaxPool2d::new("pool", 2);
        let s = &mut sc();
        let x = Tensor::randn([2, 3, 8, 8], 1.0, 9);
        assert_eq!(l.output_shape(x.shape()).dims(), &[2, 3, 4, 4]);
        let y = l.forward(&[], x.clone(), s);
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
        let dx = l.backward(&[], &mut [], Tensor::full(y.shape().clone(), 1.0), s);
        assert_eq!(dx.shape(), x.shape());
        // Each 2x2 window routes exactly one gradient.
        let total: f64 = dx.sum();
        assert!((total - (2 * 3 * 4 * 4) as f64).abs() < 1e-3);
    }

    #[test]
    fn gap_and_flatten_shapes() {
        let mut g = GlobalAvgPool::new("gap");
        let s = &mut sc();
        let x = Tensor::randn([2, 5, 4, 4], 1.0, 10);
        let y = g.forward(&[], x.clone(), s);
        assert_eq!(y.shape().dims(), &[2, 5]);
        let dx = g.backward(&[], &mut [], Tensor::full([2, 5], 1.0), s);
        assert_eq!(dx.shape(), x.shape());

        let mut f = Flatten::new("flat");
        let y = f.forward(&[], x.clone(), s);
        assert_eq!(y.shape().dims(), &[2, 80]);
        let dx = f.backward(&[], &mut [], y, s);
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let l = Linear::new("fc", 10, 10);
        let mut a = vec![0.0f32; 110];
        let mut b = vec![0.0f32; 110];
        l.init_params(&mut a, 42);
        l.init_params(&mut b, 42);
        assert_eq!(a, b);
        l.init_params(&mut b, 43);
        assert_ne!(a, b);
    }

    #[test]
    fn flops_nonzero_for_compute_layers() {
        let l = Linear::new("fc", 8, 8);
        assert!(l.flops(&Shape::from([4, 8])) > 0);
        let c = Conv2d::new("conv", 3, 8, 3, 1, 1, true);
        assert!(c.flops(&Shape::from([4, 3, 16, 16])) > 0);
    }
}
