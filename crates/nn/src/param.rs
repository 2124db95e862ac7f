//! Flat parameter storage shared by every layer of a network.

use dgs_sparsify::Partition;

/// A model's trainable state: one flat `data` vector, one parallel flat
/// `grad` vector, and the per-layer [`Partition`] describing which range
/// belongs to which layer parameter.
///
/// Keeping parameters flat makes the distributed-training side of the
/// reproduction trivial: workers and server exchange `&[f32]` slices, and
/// the sparsifiers iterate over the partition exactly as the paper's
/// per-layer loops do.
#[derive(Debug, Clone)]
pub struct ParamSet {
    data: Vec<f32>,
    grad: Vec<f32>,
    partition: Partition,
}

impl ParamSet {
    /// Creates a zero-initialised parameter set covering `partition`.
    pub fn zeros(partition: Partition) -> Self {
        let n = partition.total_len();
        ParamSet { data: vec![0.0; n], grad: vec![0.0; n], partition }
    }

    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the model has no parameters.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The layer partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Parameter values, flat.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable parameter values, flat.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Accumulated gradients, flat.
    pub fn grad(&self) -> &[f32] {
        &self.grad
    }

    /// Simultaneous access to an arbitrary `[start, start+len)` window of
    /// the parameter data (shared) and gradient (mutable) vectors. Used by
    /// the network to hand each layer its own multi-segment window.
    pub fn window_view_mut(&mut self, start: usize, len: usize) -> (&[f32], &mut [f32]) {
        (&self.data[start..start + len], &mut self.grad[start..start + len])
    }

    /// Simultaneous full-vector access: parameters shared, gradients
    /// mutable (e.g. weight decay's `∇ += wd·θ`).
    pub fn data_and_grad_mut(&mut self) -> (&[f32], &mut [f32]) {
        (&self.data, &mut self.grad)
    }

    /// Simultaneous access to the mutable parameters and the partition they
    /// are laid out by (e.g. applying a per-segment sparse reply in place).
    pub fn data_mut_and_partition(&mut self) -> (&mut [f32], &Partition) {
        (&mut self.data, &self.partition)
    }

    /// Zeroes all gradients (start of a fresh backward pass).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Overwrites parameter values from a flat slice.
    pub fn load_data(&mut self, data: &[f32]) {
        assert_eq!(self.data.len(), data.len(), "ParamSet size mismatch");
        self.data.copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps() -> ParamSet {
        ParamSet::zeros(Partition::from_layer_sizes([("w", 4), ("b", 2)]))
    }

    #[test]
    fn construction_and_sizes() {
        let p = ps();
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert_eq!(p.partition().num_segments(), 2);
    }

    #[test]
    fn window_view_disjoint_borrow() {
        let mut p = ps();
        p.data_mut()[4] = 3.0;
        let (data, grad) = p.window_view_mut(4, 2);
        assert_eq!(data, &[3.0, 0.0]);
        grad[0] = 1.5;
        assert_eq!(p.grad()[4], 1.5);
        assert_eq!(p.grad()[0], 0.0);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = ps();
        p.data_and_grad_mut().1.fill(2.0);
        p.zero_grad();
        assert!(p.grad().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn load_overwrites() {
        let mut a = ps();
        a.load_data(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn load_rejects_wrong_len() {
        ps().load_data(&[0.0; 5]);
    }
}
