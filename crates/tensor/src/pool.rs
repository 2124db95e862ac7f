//! Pooling layers: 2×2-style max pooling and global average pooling.
//!
//! The `_with` entry points are the compute-tier path: they take a
//! [`ComputeScratch`] for an explicit [`Kernel`] choice and pooled output
//! buffers, and the hot 2×2 window dispatches through
//! [`Kernel::maxpool2_plane`] (SIMD across output columns, bitwise
//! identical to the scalar scan). The original
//! signatures remain as convenience wrappers over a throwaway scratch.
//!
//! Global average pooling deliberately stays a sequential scalar sum in
//! **both** backends: an 8-lane partial-sum reduction would reassociate
//! the per-channel chain and break the bitwise contract, and the op is a
//! rounding error of the epoch budget.

use crate::{ComputeScratch, Shape, Tensor};

/// Max-pool geometry (square window, stride = window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPoolSpec {
    /// Pooling window height/width (also the stride).
    pub window: usize,
}

impl MaxPoolSpec {
    /// Output spatial size; requires the window to divide the input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h.is_multiple_of(self.window) && w.is_multiple_of(self.window),
            "maxpool window {} must divide input {}x{}",
            self.window,
            h,
            w
        );
        (h / self.window, w / self.window)
    }
}

/// Result of a max-pool forward pass: output plus the winning indices
/// (flat index into the input) needed by the backward pass.
pub struct MaxPoolOut {
    /// Pooled output, `N×C×OH×OW`.
    pub y: Tensor,
    /// For each output element, the flat input index of its maximum.
    pub argmax: Vec<u32>,
}

/// Max-pool forward over an NCHW tensor: output and argmax are carved
/// from `scratch`'s pools and appended plane by plane.
pub fn maxpool2d_forward_with(scratch: &mut ComputeScratch, x: &Tensor, spec: &MaxPoolSpec) -> MaxPoolOut {
    let (n, c, h, w) = x.shape().as_nchw();
    let (oh, ow) = spec.out_hw(h, w);
    let kernel = scratch.kernel();
    let mut y = scratch.take(n * c * oh * ow);
    let mut argmax = scratch.take_u32(n * c * oh * ow);
    let xd = x.data();
    let win = spec.window;
    for plane in 0..n * c {
        let in_base = plane * h * w;
        if win == 2 {
            kernel.maxpool2_plane(&xd[in_base..in_base + h * w], h, w, in_base as u32, &mut y, &mut argmax);
            continue;
        }
        // General windows: the scalar scan, appended in the same order.
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0usize;
                for ky in 0..win {
                    for kx in 0..win {
                        let idx = in_base + (oy * win + ky) * w + ox * win + kx;
                        if xd[idx] > best {
                            best = xd[idx];
                            best_idx = idx;
                        }
                    }
                }
                y.push(best);
                argmax.push(best_idx as u32);
            }
        }
    }
    let y = Tensor::from_vec([n, c, oh, ow], y).expect("maxpool output size");
    MaxPoolOut { y, argmax }
}

/// Max-pool backward: routes each output gradient to its argmax input
/// (gradient buffer drawn from `scratch`).
pub fn maxpool2d_backward_with(
    scratch: &mut ComputeScratch,
    input_shape: &Shape,
    argmax: &[u32],
    dy: &Tensor,
) -> Tensor {
    let mut dxd = scratch.take_zeroed(input_shape.numel());
    for (&idx, &g) in argmax.iter().zip(dy.data().iter()) {
        dxd[idx as usize] += g;
    }
    Tensor::from_vec(input_shape.clone(), dxd).expect("maxpool dx size")
}

/// Global average pooling: `N×C×H×W → N×C`, output drawn from `scratch`.
/// The per-channel sum is sequential scalar under every [`Kernel`] — see
/// the module docs.
pub fn global_avg_pool_forward_with(scratch: &mut ComputeScratch, x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().as_nchw();
    let area = (h * w) as f32;
    let mut y = scratch.take(n * c);
    let xd = x.data();
    for plane in 0..n * c {
        let base = plane * h * w;
        let s: f32 = xd[base..base + h * w].iter().sum();
        y.push(s / area);
    }
    Tensor::from_vec([n, c], y).expect("gap output size")
}

/// Global average pooling backward: spreads each `N×C` gradient uniformly
/// over the `H×W` plane. The gradient buffer is drawn from `scratch` (a
/// broadcast fill — every element written, no zero-init).
pub fn global_avg_pool_backward_with(scratch: &mut ComputeScratch, input_shape: &Shape, dy: &Tensor) -> Tensor {
    let (n, c, h, w) = input_shape.as_nchw();
    let inv_area = 1.0 / (h * w) as f32;
    let mut dxd = scratch.take(n * c * h * w);
    let dyd = dy.data();
    for plane in 0..n * c {
        let g = dyd[plane] * inv_area;
        dxd.resize(dxd.len() + h * w, g);
    }
    Tensor::from_vec(input_shape.clone(), dxd).expect("gap dx size")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_slice_approx_eq, Kernel};

    #[test]
    fn maxpool_forward_simple() {
        // 1x1x4x4 image with known 2x2 maxima.
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.5, 0.0,
            ],
        )
        .unwrap();
        let spec = MaxPoolSpec { window: 2 };
        let out = maxpool2d_forward_with(&mut ComputeScratch::default(), &x, &spec);
        assert_slice_approx_eq(out.y.data(), &[4.0, 8.0, -1.0, 0.5], 1e-6);
        assert_eq!(out.argmax, vec![5, 7, 8, 14]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let spec = MaxPoolSpec { window: 2 };
        let out = maxpool2d_forward_with(&mut ComputeScratch::default(), &x, &spec);
        let dy = Tensor::from_vec([1, 1, 1, 1], vec![2.5]).unwrap();
        let dx =
            maxpool2d_backward_with(&mut ComputeScratch::default(), x.shape(), &out.argmax, &dy);
        assert_slice_approx_eq(dx.data(), &[0.0, 2.5, 0.0, 0.0], 1e-6);
    }

    #[test]
    fn maxpool_numerical_gradient() {
        let x = Tensor::randn([2, 3, 4, 4], 1.0, 55);
        let spec = MaxPoolSpec { window: 2 };
        let out = maxpool2d_forward_with(&mut ComputeScratch::default(), &x, &spec);
        let dy = Tensor::full(out.y.shape().clone(), 1.0);
        let dx =
            maxpool2d_backward_with(&mut ComputeScratch::default(), x.shape(), &out.argmax, &dy);
        let eps = 1e-3f32;
        for &xi in &[0usize, 10, 47, x.numel() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let num = (maxpool2d_forward_with(&mut ComputeScratch::default(), &xp, &spec).y.sum()
                - maxpool2d_forward_with(&mut ComputeScratch::default(), &xm, &spec).y.sum())
                / (2.0 * eps as f64);
            assert!(
                (num - dx.data()[xi] as f64).abs() < 1e-2,
                "dx[{xi}]: {num} vs {}",
                dx.data()[xi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn maxpool_rejects_nondivisible() {
        let x = Tensor::zeros([1, 1, 5, 4]);
        maxpool2d_forward_with(&mut ComputeScratch::default(), &x, &MaxPoolSpec { window: 2 });
    }

    #[test]
    fn maxpool_general_window_matches_window2_composition() {
        // A 4x4 window equals two nested 2x2 pools on monotone data; more
        // usefully here, the window=4 general path must agree with an
        // explicit scan.
        let x = Tensor::randn([2, 2, 4, 4], 1.0, 91);
        let spec = MaxPoolSpec { window: 4 };
        let out = maxpool2d_forward_with(&mut ComputeScratch::default(), &x, &spec);
        for plane in 0..4 {
            let base = plane * 16;
            let (mut best, mut bi) = (f32::NEG_INFINITY, 0usize);
            for (off, &v) in x.data()[base..base + 16].iter().enumerate() {
                if v > best {
                    best = v;
                    bi = base + off;
                }
            }
            assert_eq!(out.y.data()[plane], best);
            assert_eq!(out.argmax[plane], bi as u32);
        }
    }

    #[test]
    fn maxpool_backends_bitwise_identical_via_scratch() {
        let x = Tensor::randn([2, 3, 8, 12], 1.0, 17);
        let mut ss = ComputeScratch::new(Kernel::Scalar);
        let mut sv = ComputeScratch::new(Kernel::Simd);
        let spec = MaxPoolSpec { window: 2 };
        let a = maxpool2d_forward_with(&mut ss, &x, &spec);
        let b = maxpool2d_forward_with(&mut sv, &x, &spec);
        assert_eq!(a.argmax, b.argmax);
        for (p, q) in a.y.data().iter().zip(b.y.data().iter()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn gap_forward_backward() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
            .unwrap();
        let y = global_avg_pool_forward_with(&mut ComputeScratch::default(), &x);
        assert_slice_approx_eq(y.data(), &[2.5, 25.0], 1e-6);
        let dy = Tensor::from_vec([1, 2], vec![4.0, 8.0]).unwrap();
        let dx = global_avg_pool_backward_with(&mut ComputeScratch::default(), x.shape(), &dy);
        assert_slice_approx_eq(dx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 1e-6);
    }

    #[test]
    fn gap_gradient_is_exact_adjoint() {
        // <GAP(x), dy> == <x, GAPᵀ(dy)> for random inputs.
        let x = Tensor::randn([3, 4, 5, 5], 1.0, 77);
        let dy = Tensor::randn([3, 4], 1.0, 78);
        let y = global_avg_pool_forward_with(&mut ComputeScratch::default(), &x);
        let dx = global_avg_pool_backward_with(&mut ComputeScratch::default(), x.shape(), &dy);
        let lhs: f64 =
            y.data().iter().zip(dy.data().iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let rhs: f64 =
            x.data().iter().zip(dx.data().iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0));
    }

    #[test]
    fn pooled_paths_are_allocation_free_when_warm() {
        let x = Tensor::randn([2, 2, 6, 6], 1.0, 31);
        let spec = MaxPoolSpec { window: 2 };
        let mut s = ComputeScratch::default();
        for _ in 0..2 {
            let out = maxpool2d_forward_with(&mut s, &x, &spec);
            let dy = Tensor::full(out.y.shape().clone(), 1.0);
            let dx = maxpool2d_backward_with(&mut s, x.shape(), &out.argmax, &dy);
            s.put_u32(out.argmax);
            s.put_tensor(out.y);
            s.put_tensor(dx);
        }
        let warm = s.misses();
        let out = maxpool2d_forward_with(&mut s, &x, &spec);
        let dy = Tensor::full(out.y.shape().clone(), 1.0);
        let dx = maxpool2d_backward_with(&mut s, x.shape(), &out.argmax, &dy);
        s.put_u32(out.argmax);
        s.put_tensor(out.y);
        s.put_tensor(dx);
        assert_eq!(s.misses(), warm, "warm pooling must not grow buffers");
    }
}
