//! The one fixture of the transport differential suites
//! (`transport_`/`evented_`/`cluster_equivalence`, `topology_matrix`): a
//! small 3-worker run on Gaussian blobs, and the bitwise comparisons. Plus
//! the Alg. 2 oracle `mdt_equivalence` holds the server against.
#![allow(dead_code)] // each suite uses its own subset

use dgs::core::config::{LrSchedule, TrainConfig};
use dgs::core::curves::RunResult;
use dgs::core::method::Method;
use dgs::core::trainer::{schedule_for, Schedule, ScheduledRun};
use dgs::net::runtime::{train, Fault, IoConfig, Topology, TransportRun};
use dgs::nn::data::{Dataset, GaussianBlobs};
use dgs::nn::model::Network;
use dgs::nn::models::mlp;
use dgs::sparsify::merge::topk_pairs;
use dgs::sparsify::{k_for_ratio, Partition, SparseUpdate, SparseVec};
use std::sync::Arc;

/// Span / shard count of every striped topology in these suites (the
/// 6-/12-/3-unit MLP partition splits into exactly 3 whole-segment spans).
pub const SPANS: usize = 3;

pub fn datasets() -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
    let blobs = GaussianBlobs::new(96, 6, 3, 0.4, 5);
    let val = Arc::new(blobs.validation(48));
    (Arc::new(blobs), val)
}

pub fn quick_cfg(method: Method) -> TrainConfig {
    let mut cfg = TrainConfig::paper_default(method, 3, 2);
    cfg.batch_per_worker = 8;
    cfg.lr = LrSchedule::paper_default(0.05, 2);
    cfg.momentum = 0.4;
    cfg.sparsity_ratio = 0.25;
    cfg.clip_norm = 0.0;
    cfg.seed = 11;
    cfg.evals = 2;
    cfg
}

/// The model every participant of a `cfg` run starts from.
pub fn builder(cfg: &TrainConfig) -> impl Fn() -> Network + Sync {
    let seed = cfg.seed;
    move || mlp(6, &[12], 3, seed)
}

/// The seeded, non-trivial arrival order the suites replay.
pub fn interleaved(cfg: &TrainConfig) -> Schedule {
    schedule_for(cfg, datasets().0.len(), Some(0xD6A1))
}

pub fn tcp(shards: usize, io: IoConfig) -> Topology {
    Topology::Tcp { shards, io }
}

pub fn span_cluster(io: IoConfig, edge: bool) -> Topology {
    Topology::Cluster { max_spans: SPANS, io, edge }
}

/// One lockstep run of the fixture over `topology`.
pub fn run(
    cfg: &TrainConfig,
    schedule: &Schedule,
    topology: &Topology,
    faults: &[Fault],
) -> TransportRun {
    let (train_ds, val) = datasets();
    train(cfg, &builder(cfg), train_ds, val, schedule, topology, faults)
        .unwrap_or_else(|e| panic!("{topology:?} run failed: {e}"))
}

/// What any engine's finished run says about the training itself.
pub struct Training<'a> {
    pub server_model: &'a [f32],
    pub worker_models: &'a [Vec<f32>],
    pub result: &'a RunResult,
}

impl<'a> From<&'a TransportRun> for Training<'a> {
    fn from(r: &'a TransportRun) -> Self {
        Training {
            server_model: &r.server_model,
            worker_models: &r.worker_models,
            result: &r.result,
        }
    }
}

impl<'a> From<&'a ScheduledRun> for Training<'a> {
    fn from(r: &'a ScheduledRun) -> Self {
        Training {
            server_model: &r.server_model,
            worker_models: &r.worker_models,
            result: &r.result,
        }
    }
}

/// The cross-topology identity: models, curves (with the byte accounting
/// embedded in each point), total accounting, staleness — bitwise. Raw
/// wire counters are *not* compared here: a cluster worker sends K framed
/// sub-updates where the single server sees one frame, so across
/// topologies only the assembled accounting is comparable.
pub fn assert_same_training<'a>(
    a: impl Into<Training<'a>>,
    b: impl Into<Training<'a>>,
    what: &str,
) {
    let (a, b) = (a.into(), b.into());
    assert_eq!(a.server_model, b.server_model, "{what}: server model diverged");
    assert_eq!(a.worker_models, b.worker_models, "{what}: a worker model diverged");
    let (a, b) = (a.result, b.result);
    assert_eq!(a.bytes_up, b.bytes_up, "{what}: uplink accounting diverged");
    assert_eq!(a.bytes_down, b.bytes_down, "{what}: downlink accounting diverged");
    assert_eq!(a.mean_staleness, b.mean_staleness, "{what}: staleness telemetry diverged");
    assert_eq!(a.max_staleness, b.max_staleness, "{what}: max staleness diverged");
    assert_eq!(a.curve.len(), b.curve.len(), "{what}: curve lengths diverged");
    for (x, y) in a.curve.iter().zip(&b.curve) {
        assert_eq!(x.updates, y.updates, "{what}: eval cadence diverged");
        assert_eq!(x.val_acc, y.val_acc, "{what}: curves diverged");
        assert_eq!(x.val_loss, y.val_loss, "{what}: curves diverged");
        assert_eq!(x.train_loss, y.train_loss, "{what}: curves diverged");
        assert_eq!(x.bytes_up, y.bytes_up, "{what}: per-point uplink accounting diverged");
        assert_eq!(x.bytes_down, y.bytes_down, "{what}: per-point downlink accounting diverged");
    }
}

/// Bitwise identity between two runs of the *same* topology, including
/// exact wire counters on both endpoints. `WireStats` is `PartialEq` over
/// every counter, so one assert per endpoint covers data/control/frame/
/// reject counts and the per-link breakdown down to the byte.
pub fn assert_runs_identical(a: &TransportRun, b: &TransportRun, what: &str) {
    assert_same_training(a, b, what);
    assert_eq!(a.server_stats, b.server_stats, "{what}: server wire counters diverged");
    assert_eq!(a.worker_stats, b.worker_stats, "{what}: worker wire counters diverged");
    assert_eq!(a.edge_stats, b.edge_stats, "{what}: edge wire counters diverged");
}

/// One reply of the paper's Alg. 2 (lines 4-11), written naively and
/// sharing no code with the server under test: `G = M − v_k` by a plain
/// loop over every coordinate, the comparator Top-k per segment under
/// secondary compression, then `v_k += sent`.
pub fn alg2_reply(
    m: &[f32],
    v: &mut [f32],
    part: &Partition,
    secondary: Option<f64>,
) -> SparseUpdate {
    let chunk = |seg: &dgs::sparsify::Segment| {
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for i in seg.range() {
            let g = m[i] - v[i];
            if g != 0.0 {
                idx.push((i - seg.offset) as u32);
                val.push(g);
            }
        }
        if let Some(ratio) = secondary {
            (idx, val) = topk_pairs(&idx, &val, k_for_ratio(seg.len, ratio));
        }
        for (&i, &g) in idx.iter().zip(&val) {
            v[seg.offset + i as usize] += g;
        }
        SparseVec { idx, val }
    };
    SparseUpdate { chunks: part.segments().iter().map(chunk).collect() }
}
