//! Differential replay: the lock-striped [`ShardedMdtServer`] must be a
//! bitwise drop-in for the global-lock [`MdtServer`].
//!
//! One set of real training workers (real models, real gradients, pinned
//! round-robin schedules) drives both servers with identical uplinks;
//! every downlink payload is compared through its wire encoding, byte
//! counters are accumulated on both sides, a resync is fired mid-run, and
//! the final server state (model, timestamp, staleness histogram) must
//! match exactly. Covered across every method family the server hosts:
//! GD-async, DGC-async, DGS with and without secondary compression,
//! ternary-quantized uplinks, dense ASGD, and staleness damping — at
//! multiple stripe counts.

use dgs::core::config::{LrSchedule, TrainConfig};
use dgs::core::method::Method;
use dgs::core::protocol::DownMsg;
use dgs::core::server::{Downlink, MdtServer, StalenessDamping};
use dgs::core::shard::ShardedMdtServer;
use dgs::core::worker::TrainWorker;
use dgs::nn::data::{Dataset, GaussianBlobs};
use dgs::nn::models::mlp;
use std::sync::Arc;

/// The exact bytes a downlink would put on the wire — the comparison
/// medium, so "equal" means equal after every encode decision (diff
/// strategy, density hysteresis, secondary Top-k), not merely numerically
/// close.
fn down_bits(msg: &DownMsg) -> Vec<u8> {
    match msg {
        DownMsg::SparseDiff(s) => s.encode(),
        DownMsg::DenseModel(v) => v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect(),
    }
}

fn model_bits(model: &[f32]) -> Vec<u32> {
    model.iter().map(|x| x.to_bits()).collect()
}

struct Replay {
    method: Method,
    downlink: Downlink,
    quantize_uplink: bool,
    damping: Option<f64>,
    shards: usize,
    workers: usize,
    steps: usize,
}

impl Replay {
    fn run(self, schedule: impl Fn(usize) -> usize) {
        let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 6);
        let train: Arc<dyn Dataset> = Arc::new(blobs);
        let mut cfg = TrainConfig::paper_default(self.method, self.workers, 4);
        cfg.batch_per_worker = 8;
        cfg.lr = LrSchedule::constant(0.05);
        cfg.sparsity_ratio = 0.1;
        cfg.seed = 99;
        cfg.quantize_uplink = self.quantize_uplink;
        let build = || mlp(8, &[16], 4, 11);
        let net0 = build();
        let theta0 = net0.params().data().to_vec();
        let partition = net0.params().partition().clone();
        let mut global =
            MdtServer::new(theta0.clone(), partition.clone(), self.workers, self.downlink);
        let mut sharded =
            ShardedMdtServer::new(theta0, partition, self.workers, self.downlink, self.shards);
        assert!(
            sharded.num_shards() > 1,
            "replay must exercise a genuinely striped server, got {} shard(s)",
            sharded.num_shards()
        );
        if let Some(alpha) = self.damping {
            global.set_damping(StalenessDamping { alpha });
            sharded.set_damping(StalenessDamping { alpha });
        }
        let mut workers: Vec<TrainWorker> = (0..self.workers)
            .map(|k| TrainWorker::new(k, build(), Arc::clone(&train), cfg.clone(), 10.0))
            .collect();

        let mut up_bytes = 0u64;
        let mut down_bytes_global = 0u64;
        let mut down_bytes_sharded = 0u64;
        for t in 0..self.steps {
            let k = schedule(t);
            if t == self.steps / 2 {
                // A mid-run resync resets worker k's tracking (v_k, prev)
                // on both servers; the full-model replies must already be
                // identical, and the run must stay identical afterwards.
                let rg = global.resync_worker(k);
                let rs = sharded.resync_worker(k);
                assert_eq!(down_bits(&rg), down_bits(&rs), "resync diverged at step {t}");
                assert_eq!(rg.wire_bytes(), rs.wire_bytes());
                workers[k].apply_reply(rg);
            }
            let up = workers[k].local_step();
            up_bytes += up.wire_bytes() as u64;
            let reply_global = global.handle_update(k, &up);
            let reply_sharded = sharded.handle_update(k, &up);
            assert_eq!(
                down_bits(&reply_global),
                down_bits(&reply_sharded),
                "downlink payload diverged at step {t} (worker {k})"
            );
            down_bytes_global += reply_global.wire_bytes() as u64;
            down_bytes_sharded += reply_sharded.wire_bytes() as u64;
            workers[k].apply_reply(reply_global);
        }
        assert!(up_bytes > 0, "replay sent no uplink traffic");
        assert_eq!(down_bytes_global, down_bytes_sharded, "byte accounting diverged");
        assert_eq!(global.timestamp(), sharded.timestamp(), "server clocks diverged");
        assert_eq!(
            model_bits(&global.current_model()),
            model_bits(&sharded.current_model()),
            "final server models diverged"
        );
        assert_eq!(
            format!("{:?}", global.staleness()),
            format!("{:?}", sharded.staleness()),
            "staleness histograms diverged"
        );
    }
}

fn replay(method: Method, downlink: Downlink, shards: usize) -> Replay {
    Replay {
        method,
        downlink,
        quantize_uplink: false,
        damping: None,
        shards,
        workers: 3,
        steps: 60,
    }
}

#[test]
fn gd_async_replay_is_bitwise_identical() {
    for shards in [2, 3] {
        replay(Method::GdAsync, Downlink::ModelDifference { secondary_ratio: None }, shards)
            .run(|t| (t * 2) % 3);
    }
}

#[test]
fn dgc_async_replay_is_bitwise_identical() {
    replay(Method::DgcAsync, Downlink::ModelDifference { secondary_ratio: None }, 2)
        .run(|t| (t * 2) % 3);
}

#[test]
fn dgs_with_secondary_compression_is_bitwise_identical() {
    // Secondary compression makes the downlink depend on per-worker dirty
    // sets and the update log — the state the sharding split most deeply.
    for shards in [2, 3] {
        replay(Method::Dgs, Downlink::ModelDifference { secondary_ratio: Some(0.1) }, shards)
            .run(|t| (t * 2) % 3);
    }
}

#[test]
fn ternary_uplink_replay_is_bitwise_identical() {
    let mut r = replay(Method::Dgs, Downlink::ModelDifference { secondary_ratio: None }, 2);
    r.quantize_uplink = true;
    r.run(|t| (t * 2) % 3);
}

#[test]
fn dense_asgd_replay_is_bitwise_identical() {
    // Dense uplink split by coordinate range, dense downlink reassembled
    // by shard-order concatenation.
    replay(Method::Asgd, Downlink::DenseModel, 2).run(|t| (t * 2) % 3);
}

#[test]
fn staleness_damping_matches_under_striping() {
    // Damping scales every shard's apply by 1/(1+s)^alpha; the scale is
    // computed once at the front lock from the *global* clock, so an
    // uneven schedule (worker 2 pulls rarely, accumulating staleness)
    // must still replay bitwise. This is the case that would expose a
    // shard-local staleness clock.
    let mut r = replay(Method::Dgs, Downlink::ModelDifference { secondary_ratio: Some(0.1) }, 3);
    r.damping = Some(0.7);
    r.steps = 66;
    r.run(|t| if t % 11 == 10 { 2 } else { t % 2 });
}
