//! Tensor shapes: dimension lists plus row-major index arithmetic.

/// The shape of a dense row-major tensor.
///
/// A `Shape` is an ordered list of dimension extents. Rank-0 (scalar) shapes
/// are represented by an empty dimension list and have `numel() == 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape { dims: dims.into() }
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `i`. Panics if out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// All dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides: `strides[i]` is the linear-index step when
    /// dimension `i` increments by one.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-dimensional index. Panics (debug) on
    /// out-of-range coordinates and on rank mismatch.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for (i, (&ix, &d)) in index.iter().zip(self.dims.iter()).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of range for dim {i} (extent {d})");
            off += ix * stride;
            stride *= d;
            let _ = i;
        }
        off
    }

    /// Interprets the shape as a 2-D matrix `(rows, cols)`.
    ///
    /// Panics unless the rank is exactly 2.
    pub fn as_matrix(&self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "expected rank-2 shape, got {self}");
        (self.dims[0], self.dims[1])
    }

    /// Interprets the shape as an NCHW image batch `(n, c, h, w)`.
    ///
    /// Panics unless the rank is exactly 4.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected rank-4 (NCHW) shape, got {self}");
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s = Shape::from([5]);
        assert_eq!(s.strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::from([2, 3, 4]);
        let strides = s.strides();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let expect = i * strides[0] + j * strides[1] + k * strides[2];
                    assert_eq!(s.offset(&[i, j, k]), expect);
                }
            }
        }
    }

    #[test]
    fn matrix_and_nchw_views() {
        assert_eq!(Shape::from([3, 7]).as_matrix(), (3, 7));
        assert_eq!(Shape::from([8, 3, 32, 32]).as_nchw(), (8, 3, 32, 32));
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn as_matrix_wrong_rank_panics() {
        Shape::from([1, 2, 3]).as_matrix();
    }

    #[test]
    fn display() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn zero_extent_dims() {
        let s = Shape::from([2, 0, 3]);
        assert_eq!(s.numel(), 0);
    }
}
