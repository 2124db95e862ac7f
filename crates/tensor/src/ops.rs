//! Activation and softmax kernels with their backward passes.
//!
//! The ReLU pair dispatches through the [`Kernel`](crate::Kernel) compute
//! tier (see `crate::gemm`'s module docs for the bitwise contract); the
//! log-softmax kernel stays pure scalar — its row max/exp/sum chain is not
//! reassociation-safe, so a SIMD twin could not be bitwise identical.

use crate::{Kernel, Tensor};

/// ReLU forward: `y[i] = if x[i] > 0.0 { x[i] } else { 0.0 }`.
///
/// NaN and `-0.0` inputs both map to `+0.0` (the `vmaxps(x, 0)` lane
/// rule, which the scalar backend mirrors exactly).
pub fn relu(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    Kernel::runtime().relu_inplace(y.data_mut());
    y
}

/// ReLU backward: `dx = dy ⊙ [x > 0]`.
///
/// Uses the *forward input* for the gate so that exact zeros pass no
/// gradient, matching the conventional subgradient choice.
pub fn relu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(x.shape(), dy.shape(), "relu_backward shape mismatch");
    let mut dx = dy.clone();
    Kernel::runtime().relu_grad_mask(x.data(), dx.data_mut());
    dx
}

/// Row-wise log-softmax (stabilised); used by the cross-entropy loss.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.shape().as_matrix();
    let mut y = x.clone();
    for r in 0..rows {
        let row = &mut y.data_mut()[r * cols..(r + 1) * cols];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_approx_eq;

    #[test]
    fn relu_forward_backward() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        let y = relu(&x);
        assert_slice_approx_eq(y.data(), &[0.0, 0.0, 0.5, 2.0], 1e-6);
        let dy = Tensor::full([4], 1.0);
        let dx = relu_backward(&x, &dy);
        assert_slice_approx_eq(dx.data(), &[0.0, 0.0, 1.0, 1.0], 1e-6);
    }

    #[test]
    fn log_softmax_rows_are_log_distributions() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]).unwrap();
        let lp = log_softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = lp.data()[r * 3..(r + 1) * 3].iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Monotone: larger logits get larger log-probabilities.
        assert!(lp.data()[2] > lp.data()[1]);
        assert!(lp.data()[1] > lp.data()[0]);
    }

    #[test]
    fn log_softmax_stable_for_large_logits() {
        let x = Tensor::from_vec([1, 3], vec![1000.0, 1001.0, 1002.0]).unwrap();
        let lp = log_softmax_rows(&x);
        assert!(lp.data().iter().all(|v| v.is_finite()));
        // An ulp at 1002 is 6e-5, so the row's mass is only this close to 1.
        let s: f32 = lp.data().iter().map(|v| v.exp()).sum();
        assert!((s - 1.0).abs() < 1e-3);
    }

    #[test]
    fn log_softmax_uniform_row() {
        let lp = log_softmax_rows(&Tensor::full([1, 4], 2.0));
        assert!(lp.data().iter().all(|&v| (v - (0.25f32).ln()).abs() < 1e-5));
    }
}
