//! The Tanh activation layer: the one smooth nonlinearity, which the
//! finite-difference gradient property test (`tests/prop.rs`) needs — the
//! networks the experiments train are ReLU-only.

use crate::layer::Layer;
use dgs_tensor::{ComputeScratch, Shape, Tensor};

/// Hyperbolic tangent activation.
pub struct Tanh {
    label: String,
    cached_input: Option<Tensor>,
}

impl Tanh {
    /// Creates the layer.
    pub fn new(label: impl Into<String>) -> Self {
        Tanh { label: label.into(), cached_input: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &str {
        &self.label
    }

    fn param_sizes(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }

    fn init_params(&self, _params: &mut [f32], _seed: u64) {}

    fn output_shape(&self, input: &Shape) -> Shape {
        input.clone()
    }

    fn forward(&mut self, _params: &[f32], x: Tensor, scratch: &mut ComputeScratch) -> Tensor {
        // The transcendental chain has no SIMD twin in the compute tier, so
        // the map stays scalar under every backend; only the output buffer
        // comes from the pool.
        let mut y = scratch.take(x.numel());
        y.extend(x.data().iter().map(|&v| v.tanh()));
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
        let x = self.cached_input.take().expect("activation backward without forward");
        let mut dx = dy;
        for (d, &xi) in dx.data_mut().iter_mut().zip(x.data().iter()) {
            let t = xi.tanh();
            *d *= 1.0 - t * t;
        }
        scratch.put_tensor(x);
        dx
    }

    fn flops(&self, input: &Shape) -> u64 {
        input.numel() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> ComputeScratch {
        ComputeScratch::default()
    }

    #[test]
    fn tanh_gradients() {
        let mut layer = Tanh::new("tanh");
        let s = &mut sc();
        // N(0, 1) inputs sit in tanh's curved range, away from saturation.
        let x = Tensor::randn([2, 6], 1.0, 7);
        let y = layer.forward(&[], x.clone(), s);
        let dx = layer.backward(&[], &mut [], Tensor::full(y.shape().clone(), 1.0), s);
        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = layer.forward(&[], xp, s).sum();
            layer.backward(&[], &mut [], Tensor::zeros(y.shape().clone()), s);
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = layer.forward(&[], xm, s).sum();
            layer.backward(&[], &mut [], Tensor::zeros(y.shape().clone()), s);
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (num - dx.data()[i]).abs() < 1e-2 * num.abs().max(1.0),
                "tanh[{i}]: numerical {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn tanh_bounds() {
        let mut t = Tanh::new("tanh");
        let x = Tensor::from_vec([3], vec![-100.0, 0.0, 100.0]).unwrap();
        let y = t.forward(&[], x, &mut sc());
        assert!((y.data()[0] + 1.0).abs() < 1e-6);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 1.0).abs() < 1e-6);
    }
}
