//! The evaluation loop.

use crate::data::Dataset;
use crate::loader::EvalIter;
use crate::model::Network;

/// Result of one full validation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean cross-entropy loss over the validation set.
    pub loss: f64,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f64,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Evaluates a network over an entire dataset in fixed-size batches.
///
/// A fixed `batch_size` matters because [`ChannelNorm`](crate::layer::ChannelNorm)
/// normalises by batch statistics; all experiments use the same evaluation
/// batch size so numbers are comparable across methods.
pub fn evaluate(net: &mut Network, dataset: &dyn Dataset, batch_size: usize) -> EvalResult {
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut samples = 0usize;
    for (x, labels) in EvalIter::new(dataset, batch_size) {
        let n = labels.len();
        let (loss, c) = net.eval_batch(x, &labels);
        total_loss += loss * n as f64;
        correct += c;
        samples += n;
    }
    EvalResult {
        loss: if samples > 0 { total_loss / samples as f64 } else { 0.0 },
        top1: if samples > 0 { correct as f64 / samples as f64 } else { 0.0 },
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::GaussianBlobs;
    use crate::layer::{Layer, Linear};
    use dgs_tensor::Shape;

    #[test]
    fn evaluate_runs_over_whole_set() {
        let ds = GaussianBlobs::new(25, 4, 2, 0.2, 3);
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new("fc", 4, 2))];
        let mut net = Network::new(layers, Shape::from([4]), 1);
        let res = evaluate(&mut net, &ds, 8);
        assert_eq!(res.samples, 25);
        assert!(res.loss > 0.0);
        assert!((0.0..=1.0).contains(&res.top1));
    }

    #[test]
    fn evaluate_is_deterministic() {
        let ds = GaussianBlobs::new(16, 4, 2, 0.2, 3);
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new("fc", 4, 2))];
        let mut net = Network::new(layers, Shape::from([4]), 1);
        let a = evaluate(&mut net, &ds, 4);
        let b = evaluate(&mut net, &ds, 4);
        assert_eq!(a, b);
    }
}
