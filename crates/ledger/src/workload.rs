//! The four benchmark workloads. Later issues cite them by name.
//!
//! Everything here is plain data; `seam.rs` turns it into workspace
//! types. Round counts are fixed constants (never time-boxed), so bytes,
//! losses and model CRCs are exact functions of the seed.

/// Network architecture, by the workspace constructor it maps to; fields
/// are that constructor's parameters.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    /// `resnet_lite(channels, hw, classes, width, seed)`.
    ResnetLite { channels: usize, hw: usize, classes: usize, width: usize },
    /// `mlp_on_images(channels, hw, hidden, classes, seed)`.
    MlpOnImages { channels: usize, hw: usize, hidden: &'static [usize], classes: usize },
    /// `mlp(input, hidden, classes, seed)`.
    Mlp { input: usize, hidden: &'static [usize], classes: usize },
}

/// Synthetic dataset family.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// `SyntheticVision::cifar_like`: 10 classes of 3×16×16 images.
    CifarLike,
    /// `GaussianBlobs::new(len, dim, classes, 0.5, seed)`.
    Blobs { dim: usize, classes: usize },
}

/// A claim about where a workload's round time goes: the summed self-time
/// share of `layers` is at least (or at most) `share`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Purpose {
    /// Layer names as `metrics::Shares::get` knows them.
    pub layers: &'static [&'static str],
    /// `true`: the sum must be ≥ `share`; `false`: ≤ `share`.
    pub at_least: bool,
    /// The threshold, as a share of the round.
    pub share: f64,
}

impl Purpose {
    /// Whether measured shares bear the claim out.
    pub fn holds(&self, shares: &crate::metrics::Shares) -> bool {
        let sum: f64 = self.layers.iter().map(|l| shares.get(l)).sum();
        if self.at_least {
            sum >= self.share
        } else {
            sum <= self.share
        }
    }

    /// The claim in words.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {}",
            self.layers.join("+"),
            if self.at_least { ">=" } else { "<=" },
            self.share
        )
    }
}

/// One workload: what trains, how it is sparsified, and for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Stable name (CLI, BENCHMARK.json, later issues).
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Architecture.
    pub model: Model,
    /// Dataset family.
    pub data: Data,
    /// `true` = dual-way sparsified DGS (R = 1 %) with secondary
    /// compression; `false` = dense ASGD.
    pub dgs: bool,
    /// Workers `W` (one driver thread steps them all).
    pub workers: usize,
    /// Minibatch per worker round.
    pub batch: usize,
    /// Training-set size; with `rounds` and `batch` it fixes the epoch
    /// count the config carries (`rounds × batch ÷ dataset_len`).
    pub dataset_len: usize,
    /// Rounds per trial: `2·W` warm-up, then the timed region, then one
    /// final round that carries the evaluation.
    pub rounds: usize,
    /// Rounds per trial under `--smoke`.
    pub smoke_rounds: usize,
    /// Constant learning rate.
    pub lr: f32,
    /// `time_to_target_s` stops when the trailing-32-round mean training
    /// loss first reaches this (the loss the seed commit reaches roughly
    /// 60 % through the timed region).
    pub target_loss: f64,
    /// What the traced shares must look like for the workload to still
    /// serve its purpose; a miss is reported as `workload_drift`.
    pub purpose: &'static [Purpose],
}

impl Workload {
    /// Warm-up rounds: they run before the clock starts and count as set-up.
    pub fn warmup_rounds(&self) -> usize {
        2 * self.workers
    }

    /// Round count for this mode.
    pub fn rounds_for(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_rounds
        } else {
            self.rounds
        }
    }

    /// Epochs the training config must carry so that the workspace's own
    /// `iters_per_worker` yields exactly `rounds ÷ W` per worker.
    pub fn epochs_for(&self, smoke: bool) -> usize {
        self.rounds_for(smoke) * self.batch / self.dataset_len
    }
}

/// Sparsification ratio `R/100` of the DGS workloads.
pub const SPARSITY: f64 = 0.01;

/// All workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "resnet_dgs",
        why: "Compute-bound: conv/GEMM forward+backward is >=75% of a round and messages are a few KB; the bypass workload for sparsify/codec/net changes.",
        model: Model::ResnetLite { channels: 3, hw: 16, classes: 10, width: 16 },
        data: Data::CifarLike,
        dgs: true,
        workers: 4,
        batch: 32,
        dataset_len: 512,
        rounds: 96,
        smoke_rounds: 16,
        lr: 0.05,
        target_loss: 1.7,
        purpose: &[Purpose { layers: &["nn"], at_least: true, share: 0.75 }],
    },
    Workload {
        name: "widemlp_dgs",
        why: "Dimension-bound: 1.85M params at small batch, so SAMomentum + Top-R% both ways, make_diff and the COO codec dominate; selection/merge/index-encoding changes show here in time and bytes.",
        model: Model::MlpOnImages { channels: 3, hw: 16, hidden: &[1024, 1024], classes: 10 },
        data: Data::CifarLike,
        dgs: true,
        workers: 4,
        batch: 4,
        dataset_len: 128,
        rounds: 128,
        smoke_rounds: 32,
        lr: 0.05,
        target_loss: 1.5,
        purpose: &[
            Purpose { layers: &["nn"], at_least: false, share: 0.50 },
            Purpose { layers: &["compress", "server", "codec"], at_least: true, share: 0.40 },
        ],
    },
    Workload {
        name: "widemlp_asgd",
        why: "Same model and schedule as widemlp_dgs but dense ASGD (7.4 MB each way): largest message, dense apply, Arc-cached reply, load_data; sparsify idle. The paper's 1 Gbps baseline.",
        model: Model::MlpOnImages { channels: 3, hw: 16, hidden: &[1024, 1024], classes: 10 },
        data: Data::CifarLike,
        dgs: false,
        workers: 4,
        batch: 4,
        dataset_len: 128,
        rounds: 128,
        smoke_rounds: 32,
        lr: 0.05,
        target_loss: 1.8,
        purpose: &[Purpose { layers: &["codec", "transport", "server", "apply"], at_least: true, share: 0.50 }],
    },
    Workload {
        name: "tinymlp_dgs",
        why: "Smallest message (~0.3 KB frames): framing, CRC, syscalls, poller wake-up and sequence check are >=50% of a round; catches per-round fixed overhead added anywhere.",
        model: Model::Mlp { input: 32, hidden: &[64], classes: 10 },
        data: Data::Blobs { dim: 32, classes: 10 },
        dgs: true,
        workers: 4,
        batch: 8,
        dataset_len: 512,
        rounds: 16384,
        smoke_rounds: 512,
        lr: 0.0004,
        target_loss: 0.6,
        purpose: &[
            Purpose { layers: &["nn"], at_least: false, share: 0.30 },
            Purpose { layers: &["server", "codec", "transport"], at_least: true, share: 0.45 },
        ],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_counts_map_to_whole_epochs_and_whole_worker_iterations() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let rounds = w.rounds_for(smoke);
                assert_eq!(rounds * w.batch % w.dataset_len, 0, "{}: whole epochs", w.name);
                assert!(w.epochs_for(smoke) >= 1, "{}", w.name);
                assert_eq!(rounds % w.workers, 0, "{}: equal rounds per worker", w.name);
                // Warm-up, a tail of 64 for final_loss, the eval round, and
                // 5 throughput blocks must all fit.
                assert!(rounds >= w.warmup_rounds() + 1 + 5, "{}", w.name);
            }
            assert!(w.rounds >= w.warmup_rounds() + 64 + 1, "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(by_name(w.name), Some(w));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
        }
        assert_eq!(by_name("nope"), None);
    }
}
