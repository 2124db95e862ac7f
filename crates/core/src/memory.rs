//! §5.6.2 memory accounting: where each method keeps its state.
//!
//! The paper's claim: DGS moves memory from workers to the server — the
//! server keeps one `v_k` per worker (N × model), while each DGS worker
//! keeps only the SAMomentum velocity (1 × model) instead of vanilla
//! momentum *plus* a residual buffer (2 × model for DGC). Total memory is
//! unchanged; its placement differs.

use crate::method::Method;
use dgs_tensor::json_struct;

/// Memory footprint of one training configuration, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Method.
    pub method: Method,
    /// Number of workers.
    pub workers: usize,
    /// Bytes of one model's parameters.
    pub model_bytes: usize,
    /// Server: update accumulator `M` (or the model for ASGD).
    pub server_model_bytes: usize,
    /// Server: per-worker tracking state `Σ_k v_k`.
    pub server_tracking_bytes: usize,
    /// Per worker: local model copy.
    pub worker_model_bytes: usize,
    /// Per worker: auxiliary buffers (residual and/or velocity).
    pub worker_aux_bytes: usize,
}

json_struct!(MemoryReport {
    method,
    workers,
    model_bytes,
    server_model_bytes,
    server_tracking_bytes,
    worker_model_bytes,
    worker_aux_bytes,
});

impl MemoryReport {
    /// Builds the analytic report for a method (matches what the live
    /// server/worker objects report; the integration tests cross-check).
    pub fn analytic(method: Method, workers: usize, model_bytes: usize) -> Self {
        let (tracking, aux) = match method {
            Method::Msgd => (0, model_bytes), // single-node velocity
            Method::Asgd => (0, 0),
            Method::GdAsync => (workers * model_bytes, model_bytes), // residual
            Method::DgcAsync => (workers * model_bytes, 2 * model_bytes), // u + r
            Method::Dgs => (workers * model_bytes, model_bytes),     // u only
        };
        MemoryReport {
            method,
            workers,
            model_bytes,
            server_model_bytes: model_bytes,
            server_tracking_bytes: tracking,
            worker_model_bytes: model_bytes,
            worker_aux_bytes: aux,
        }
    }

    /// Total bytes at the server.
    pub fn server_total(&self) -> usize {
        self.server_model_bytes + self.server_tracking_bytes
    }

    /// Total bytes per worker.
    pub fn worker_total(&self) -> usize {
        self.worker_model_bytes + self.worker_aux_bytes
    }

    /// Total cluster bytes (server + all workers).
    pub fn cluster_total(&self) -> usize {
        self.server_total() + self.workers * self.worker_total()
    }

    /// How many workers a server with `server_budget` bytes can track —
    /// the paper's ">300 ResNet-18 workers on a 16 GB V100" calculation.
    pub fn max_workers_for_budget(model_bytes: usize, server_budget: usize) -> usize {
        server_budget.saturating_sub(model_bytes) / model_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    #[test]
    fn dgs_moves_memory_to_server() {
        let dgs = MemoryReport::analytic(Method::Dgs, 8, 46 * MB);
        let dgc = MemoryReport::analytic(Method::DgcAsync, 8, 46 * MB);
        // Same server tracking; DGS workers hold one fewer model buffer.
        assert_eq!(dgs.server_tracking_bytes, dgc.server_tracking_bytes);
        assert_eq!(dgc.worker_aux_bytes - dgs.worker_aux_bytes, 46 * MB);
    }

    #[test]
    fn asgd_has_no_tracking() {
        let r = MemoryReport::analytic(Method::Asgd, 8, 46 * MB);
        assert_eq!(r.server_tracking_bytes, 0);
        assert_eq!(r.worker_aux_bytes, 0);
        assert_eq!(r.server_total(), 46 * MB);
    }

    #[test]
    fn paper_claim_300_resnet_workers() {
        // ResNet-18 ≈ 46 MB; a 16 GB card tracks > 300 workers.
        let n = MemoryReport::max_workers_for_budget(46 * MB, 16 * 1024 * MB);
        assert!(n > 300, "got {n}");
    }

    #[test]
    fn cluster_totals_add_up() {
        let r = MemoryReport::analytic(Method::Dgs, 4, 100);
        assert_eq!(r.server_total(), 100 + 400);
        assert_eq!(r.worker_total(), 200);
        assert_eq!(r.cluster_total(), 500 + 800);
    }
}
