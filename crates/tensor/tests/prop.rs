//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary inputs (32 seeded cases each).

use dgs_tensor::conv::{conv2d_backward_with, conv2d_forward_with, Conv2dSpec};
use dgs_tensor::gemm::{gemm, Layout};
use dgs_tensor::ops::log_softmax_rows;
use dgs_tensor::rng::cases;
use dgs_tensor::{ComputeScratch, Kernel, Tensor};

fn tensor2(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn([rows, cols], 1.0, seed)
}

/// The `m×n` product of `a` and `b` as stored per `layout` (`Tn`: `a` is
/// `k×m`; `Nt`: `b` is `n×k`).
fn product(layout: Layout, a: &Tensor, b: &Tensor) -> Tensor {
    let ((ar, ac), (br, bc)) = (a.shape().as_matrix(), b.shape().as_matrix());
    let (m, k, n) = match layout {
        Layout::Nn => (ar, ac, bc),
        Layout::Tn => (ac, ar, bc),
        Layout::Nt => (ar, ac, br),
    };
    let mut c = Tensor::zeros([m, n]);
    gemm(Kernel::runtime(), layout, a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    product(Layout::Nn, a, b)
}

/// (A·B)·C == A·(B·C) within float tolerance.
#[test]
fn matmul_associative() {
    cases(32, |rng| {
        let (m, k, n, p) = (rng.range(1..8), rng.range(1..8), rng.range(1..8), rng.range(1..8));
        let seed = rng.below(100) as u64;
        let a = tensor2(m, k, seed);
        let b = tensor2(k, n, seed + 1);
        let c = tensor2(n, p, seed + 2);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        for (x, y) in left.data().iter().zip(right.data().iter()) {
            assert!((x - y).abs() < 1e-3 * y.abs().max(1.0));
        }
    });
}

/// The transposed kernels agree with explicit transposition:
/// Tn(Aᵀ-storage, B) == A·B and Nt(A, Bᵀ-storage) == A·B.
#[test]
fn transposed_kernels_consistent() {
    cases(32, |rng| {
        let (m, k, n) = (rng.range(1..7), rng.range(1..7), rng.range(1..7));
        let seed = rng.below(100) as u64;
        let a = tensor2(m, k, seed);
        let b = tensor2(k, n, seed + 9);
        let reference = matmul(&a, &b);
        // Build Aᵀ stored k×m.
        let mut a_t = Tensor::zeros([k, m]);
        for i in 0..m {
            for j in 0..k {
                *a_t.at_mut(&[j, i]) = a.at(&[i, j]);
            }
        }
        let via_at = product(Layout::Tn, &a_t, &b);
        // Build Bᵀ stored n×k.
        let mut b_t = Tensor::zeros([n, k]);
        for i in 0..k {
            for j in 0..n {
                *b_t.at_mut(&[j, i]) = b.at(&[i, j]);
            }
        }
        let via_bt = product(Layout::Nt, &a, &b_t);
        for ((x, y), z) in
            reference.data().iter().zip(via_at.data().iter()).zip(via_bt.data().iter())
        {
            assert!((x - y).abs() < 1e-4 * x.abs().max(1.0));
            assert!((x - z).abs() < 1e-4 * x.abs().max(1.0));
        }
    });
}

/// Convolution is linear in the input: conv(x1 + x2) == conv(x1) + conv(x2)
/// (bias-free).
#[test]
fn conv_linear_in_input() {
    cases(32, |rng| {
        let seed = rng.below(50) as u64;
        let spec = Conv2dSpec { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let w = Tensor::randn([spec.weight_len()], 0.5, seed).into_vec();
        let x1 = Tensor::randn([1, 2, 5, 5], 1.0, seed + 1);
        let x2 = Tensor::randn([1, 2, 5, 5], 1.0, seed + 2);
        let mut x_sum = x1.clone();
        x_sum.add_assign(&x2);
        let y_sum = conv2d_forward_with(&mut ComputeScratch::default(), &x_sum, &w, &[], &spec);
        let mut y1 = conv2d_forward_with(&mut ComputeScratch::default(), &x1, &w, &[], &spec);
        let y2 = conv2d_forward_with(&mut ComputeScratch::default(), &x2, &w, &[], &spec);
        y1.add_assign(&y2);
        for (a, b) in y_sum.data().iter().zip(y1.data().iter()) {
            assert!((a - b).abs() < 1e-3 * b.abs().max(1.0));
        }
    });
}

/// Conv backward is the exact adjoint of forward:
/// <conv(x), dy> == <x, conv_backward(dy).dx> for bias-free convs.
#[test]
fn conv_backward_is_adjoint() {
    cases(32, |rng| {
        let seed = rng.below(50) as u64;
        let spec = Conv2dSpec { in_channels: 2, out_channels: 2, kernel: 3, stride: 2, padding: 1 };
        let w = Tensor::randn([spec.weight_len()], 0.5, seed).into_vec();
        let x = Tensor::randn([2, 2, 6, 6], 1.0, seed + 3);
        let y = conv2d_forward_with(&mut ComputeScratch::default(), &x, &w, &[], &spec);
        let dy = Tensor::randn(y.shape().clone(), 1.0, seed + 4);
        let grads = conv2d_backward_with(&mut ComputeScratch::default(), &x, &w, &dy, &spec, false);
        let lhs: f64 =
            y.data().iter().zip(dy.data().iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let rhs: f64 = x
            .data()
            .iter()
            .zip(grads.dx.data().iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "adjoint identity violated: {} vs {}",
            lhs,
            rhs
        );
    });
}

/// Log-softmax rows are log-probability distributions, invariant to
/// row-wise constant shifts.
#[test]
fn log_softmax_properties() {
    cases(32, |rng| {
        let (rows, cols) = (rng.range(1..6), rng.range(2..8));
        let shift = rng.uniform(-5.0, 5.0);
        let seed = rng.below(100) as u64;
        let x = tensor2(rows, cols, seed);
        let lp = log_softmax_rows(&x);
        for r in 0..rows {
            let row = &lp.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().map(|v| v.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&v| v <= 0.0));
        }
        let mut shifted = x.clone();
        for v in shifted.data_mut() {
            *v += shift;
        }
        let lp2 = log_softmax_rows(&shifted);
        for (a, b) in lp.data().iter().zip(lp2.data().iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    });
}

/// axpy then axpy with the negated coefficient restores the input.
#[test]
fn axpy_inverse() {
    cases(32, |rng| {
        let n = rng.range(1..64);
        let alpha = rng.uniform(-3.0, 3.0);
        let seed = rng.below(100) as u64;
        let mut y = Tensor::randn([n], 1.0, seed);
        let y0 = y.clone();
        let x = Tensor::randn([n], 1.0, seed + 7);
        y.axpy(alpha, &x);
        y.axpy(-alpha, &x);
        for (a, b) in y.data().iter().zip(y0.data().iter()) {
            assert!((a - b).abs() < 1e-4 * b.abs().max(1.0));
        }
    });
}
