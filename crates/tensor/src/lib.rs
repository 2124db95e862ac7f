#![warn(missing_docs)]

//! # dgs-tensor
//!
//! A small, dependency-light dense `f32` tensor library that serves as the
//! compute substrate for the DGS (Dual-Way Gradient Sparsification)
//! reproduction. It stands in for the GPU tensor backend the original paper
//! used (PyTorch + CUDA): the DGS algorithms only consume flat gradient
//! vectors, so any substrate that produces real stochastic gradients from
//! real optimisation problems exercises the same code paths.
//!
//! The crate provides:
//!
//! * [`Shape`] / [`Tensor`] — contiguous row-major storage with elementwise
//!   kernels, BLAS-1 style `axpy`/`scale`, and reductions.
//! * [`gemm`] — the compute tier: cache-blocked, register-tiled,
//!   rayon-parallel GEMM (plain and both transposed layouts) behind the
//!   [`Kernel`] seam, bitwise identical across backends; used by linear
//!   layers and the convolution.
//! * [`conv`] — 2-D convolution forward/backward: image patches lowered
//!   straight into the GEMM's packed panels.
//! * [`pool`] — max pooling and global average pooling forward/backward.
//! * [`ops`] — activation and softmax kernels.
//! * [`scratch`] — [`ComputeScratch`]: per-network kernel choice plus
//!   buffer pools that make the training loop allocation-free.
//! * [`rng`] — the in-tree seeded generator (SplitMix64) and its helpers,
//!   including Gaussian sampling (hand-rolled Box–Muller) and the seeded
//!   property loop ([`rng::cases`]) the test suites draw from.
//! * [`json`] — the workspace's one JSON reader/writer and the
//!   [`json_struct!`] macro the serialised types implement it with.
//! * [`bufpool`] — a free-list [`BufferPool`] for allocation-free scratch
//!   buffers on hot paths (used by the server's reply construction).
//! * [`kernel`] / [`simd`] — the runtime-selected [`Kernel`] backend seam:
//!   portable scalar kernels (the differential oracle) and their bitwise
//!   identical AVX2 twins, chosen by CPU detection or `DGS_KERNEL`.
//!
//! All kernels are deterministic for a fixed input (parallel loops never
//! change the per-element summation order), which the test-suite relies on.

pub mod bufpool;
pub mod conv;
pub mod gemm;
pub mod json;
pub mod kernel;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use bufpool::BufferPool;
pub use kernel::Kernel;
pub use scratch::ComputeScratch;
pub use shape::Shape;
pub use tensor::Tensor;

/// Errors produced by tensor operations.
///
/// Shape mismatches are programmer errors in this codebase and most internal
/// call-sites use the panicking variants; the fallible API exists for the
/// public surface where inputs may come from configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Human-readable context for the failed operation.
        context: String,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A dimension parameter was invalid (zero where nonzero required, etc.).
    InvalidDimension(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { context, lhs, rhs } => {
                write!(f, "shape mismatch in {context}: {lhs:?} vs {rhs:?}")
            }
            TensorError::InvalidDimension(msg) => write!(f, "invalid dimension: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Relative-tolerance float comparison used throughout the test suites.
///
/// Returns `true` when `a` and `b` are within `tol` of each other, scaled by
/// the larger magnitude (with an absolute floor of `tol` near zero).
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= tol * scale
}

/// Asserts two slices are elementwise approximately equal.
///
/// Panics with the first offending index on failure. Intended for tests.
pub fn assert_slice_approx_eq(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(approx_eq(x, y, tol), "slices differ at index {i}: {x} vs {y} (tol {tol})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-7, 1e-5));
        assert!(!approx_eq(1.0, 1.1, 1e-5));
        assert!(approx_eq(0.0, 1e-7, 1e-5));
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-6), 1e-5));
    }

    #[test]
    fn error_display() {
        let e = TensorError::ShapeMismatch {
            context: "matmul".into(),
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        assert!(e.to_string().contains("matmul"));
        let e = TensorError::InvalidDimension("zero".into());
        assert!(e.to_string().contains("zero"));
    }
}
