//! The dense row-major `f32` tensor type.

use crate::rng::{fill_normal, seeded};
use crate::{Result, Shape, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is intentionally simple: no views, no broadcasting beyond what
/// the NN layers need, and data always owned. This keeps gradient exchange
/// (the object of study in the DGS paper) a matter of flat `&[f32]` slices.
///
/// ```
/// use dgs_tensor::Tensor;
///
/// let mut t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// t.scale(2.0);
/// assert_eq!(t.at(&[1, 0]), 6.0);
/// assert_eq!(t.sum(), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// Returns an error when the buffer length does not match the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeMismatch {
                context: "Tensor::from_vec".into(),
                lhs: shape.dims().to_vec(),
                rhs: vec![data.len()],
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with `N(0, std^2)` entries from a seed.
    pub fn randn(shape: impl Into<Shape>, std: f32, seed: u64) -> Self {
        let mut t = Tensor::zeros(shape);
        let mut rng = seeded(seed);
        fill_normal(&mut rng, &mut t.data, 0.0, std);
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable flat view of the data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterprets the data under a new shape with the same element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                context: "Tensor::reshape".into(),
                lhs: shape.dims().to_vec(),
                rhs: self.shape.dims().to_vec(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// `self += other`, elementwise. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self *= s`, elementwise scaling.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// `self += alpha * other` (BLAS `axpy`). Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        axpy_slice(self.data_mut(), alpha, other.data());
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements. Returns 0 for empty tensors.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            let mut best_v = f32::NEG_INFINITY;
            for (i, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            out.push(best);
        }
        out
    }
}

/// `y += alpha * x` over raw slices; the workhorse of every optimizer here.
pub fn axpy_slice(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy_slice length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a raw slice (f64 accumulator).
pub fn l2_norm_slice(x: &[f32]) -> f64 {
    x.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_approx_eq;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full([4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
        let v = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(v.at(&[1, 0]), 3.0);
        assert!(Tensor::from_vec([2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn randn_deterministic() {
        let a = Tensor::randn([32], 1.0, 11);
        let b = Tensor::randn([32], 1.0, 11);
        assert_eq!(a, b);
        let c = Tensor::randn([32], 1.0, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![0.5, 0.5, 0.5]).unwrap();
        a.add_assign(&b);
        assert_slice_approx_eq(a.data(), &[1.5, 2.5, 3.5], 1e-6);
        a.scale(2.0);
        assert_slice_approx_eq(a.data(), &[3.0, 5.0, 7.0], 1e-6);
        a.axpy(-1.0, &b);
        assert_slice_approx_eq(a.data(), &[2.5, 4.5, 6.5], 1e-6);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        assert!((t.sum() + 2.0).abs() < 1e-9);
        assert!((t.mean() + 0.5).abs() < 1e-9);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.9, 5.0, -1.0, 2.0]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.clone().reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([7]).is_err());
    }

    #[test]
    fn slice_helpers() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        axpy_slice(&mut y, 2.0, &[1.0, 1.0, 1.0]);
        assert_slice_approx_eq(&y, &[3.0, 4.0, 5.0], 1e-6);
        assert!((l2_norm_slice(&[3.0, 4.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn at_mut_writes() {
        let mut t = Tensor::zeros([2, 2]);
        *t.at_mut(&[0, 1]) = 7.0;
        assert_eq!(t.at(&[0, 1]), 7.0);
        assert_eq!(t.data()[1], 7.0);
    }
}
