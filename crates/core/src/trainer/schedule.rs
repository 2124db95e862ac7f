//! Deterministic arrival schedules and the sequential scheduled trainer.
//!
//! The real-thread engine races workers against each other, so its update
//! arrival order — and therefore the trained model — varies run to run.
//! That nondeterminism makes it useless as a reference for transport
//! testing: "did the wire change the result?" cannot be answered when the
//! result changes by itself.
//!
//! A [`Schedule`] pins the arrival order. [`train_scheduled`] then drives
//! the *same* server logic and workers the threaded engine uses, but
//! sequentially in schedule order, making the entire run a pure function
//! of `(config, model seed, schedule)`.
//! `dgs_net::runtime::train(.., &Topology::Loopback, ..)` replays the
//! identical schedule with every message round-tripped through the wire
//! codec; bitwise-equal final models prove the encoding is lossless (the
//! `transport_equivalence` integration test).

use crate::config::TrainConfig;
use crate::curves::RunResult;
use crate::trainer::threaded::build_participants;
use crate::trainer::ModelBuilder;
use dgs_nn::data::Dataset;
use std::sync::Arc;
use std::time::Instant;

/// A fixed update-arrival order: element `i` is the worker whose update
/// the server processes `i`-th. Every worker appears exactly
/// `iters`-times; per-worker order is inherently sequential (a worker
/// cannot send update `n+1` before receiving reply `n`), so any
/// interleaving of the multiset is a valid asynchronous execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    order: Vec<usize>,
    workers: usize,
}

impl Schedule {
    /// Strict round-robin arrival: `0, 1, …, W−1, 0, 1, …`.
    pub fn round_robin(workers: usize, iters: usize) -> Self {
        assert!(workers > 0, "schedule needs at least one worker");
        let order = (0..workers * iters).map(|i| i % workers).collect();
        Schedule { order, workers }
    }

    /// Seeded pseudo-random interleaving: each slot picks uniformly among
    /// the updates still owed, so staleness patterns vary with `seed`
    /// while per-worker counts stay exact. xorshift64* keeps it
    /// dependency-free and reproducible across platforms.
    pub fn interleaved(workers: usize, iters: usize, seed: u64) -> Self {
        assert!(workers > 0, "schedule needs at least one worker");
        let mut remaining = vec![iters; workers];
        let mut left = workers * iters;
        let mut state = seed | 1;
        let mut order = Vec::with_capacity(left);
        while left > 0 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let mut pick = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % left;
            for (k, rem) in remaining.iter_mut().enumerate() {
                if pick < *rem {
                    order.push(k);
                    *rem -= 1;
                    left -= 1;
                    break;
                }
                pick -= *rem;
            }
        }
        Schedule { order, workers }
    }

    /// The arrival order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of workers the schedule covers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total updates scheduled.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no updates are scheduled.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Updates scheduled for one worker.
    pub fn count_for(&self, worker: usize) -> usize {
        self.order.iter().filter(|&&w| w == worker).count()
    }
}

/// A finished scheduled run: the usual run record plus the final model
/// states, exposed so differential tests can compare them bitwise.
pub struct ScheduledRun {
    /// Curves, traffic, staleness — same record the other engines produce.
    pub result: RunResult,
    /// Server's final global model `θ_0 + M`.
    pub server_model: Vec<f32>,
    /// Each worker's final local model.
    pub worker_models: Vec<Vec<f32>>,
}

/// Builds a full-length schedule for `cfg` (each worker appears
/// `cfg.iters_per_worker` times) with the given arrival seed;
/// `seed = None` gives round-robin.
pub fn schedule_for(cfg: &TrainConfig, dataset_len: usize, seed: Option<u64>) -> Schedule {
    let iters = cfg.iters_per_worker(dataset_len);
    match seed {
        None => Schedule::round_robin(cfg.workers, iters),
        Some(s) => Schedule::interleaved(cfg.workers, iters, s),
    }
}

/// Trains with a pinned arrival order: the same participants as
/// [`crate::trainer::train_async`], driven sequentially, so the run is
/// fully deterministic.
pub fn train_scheduled(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
    schedule: &Schedule,
) -> ScheduledRun {
    assert_eq!(schedule.workers(), cfg.workers, "schedule/config worker count mismatch");
    let iters = cfg.iters_per_worker(train.len());
    for k in 0..cfg.workers {
        assert_eq!(
            schedule.count_for(k),
            iters,
            "schedule must give worker {k} exactly {iters} updates"
        );
    }
    let (mut logic, mut workers) = build_participants(cfg, build_model, &train, &val, 50.0);
    let start = Instant::now();
    for &k in schedule.order() {
        let up = workers[k].local_step();
        let reply = logic.process(k, up);
        workers[k].apply_reply(reply);
    }
    let server_model = logic.server().current_model();
    let worker_models = workers.iter().map(|w| w.model_params().to_vec()).collect();
    let result = logic.into_result(start.elapsed().as_secs_f64());
    ScheduledRun { result, server_model, worker_models }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LrSchedule;
    use crate::method::Method;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;

    fn datasets() -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
        let blobs = GaussianBlobs::new(192, 8, 4, 0.3, 1);
        let val = Arc::new(blobs.validation(96));
        (Arc::new(blobs), val)
    }

    fn quick_cfg(method: Method, workers: usize) -> TrainConfig {
        let mut cfg = TrainConfig::paper_default(method, workers, 4);
        cfg.batch_per_worker = 16;
        cfg.lr = LrSchedule::paper_default(0.05, 4);
        cfg.sparsity_ratio = 0.05;
        cfg.evals = 2;
        cfg
    }

    #[test]
    fn round_robin_counts_exact() {
        let s = Schedule::round_robin(3, 5);
        assert_eq!(s.len(), 15);
        for k in 0..3 {
            assert_eq!(s.count_for(k), 5);
        }
        assert_eq!(&s.order()[..4], &[0, 1, 2, 0]);
    }

    #[test]
    fn interleaved_counts_exact_and_seed_sensitive() {
        let a = Schedule::interleaved(4, 10, 7);
        let b = Schedule::interleaved(4, 10, 8);
        let a2 = Schedule::interleaved(4, 10, 7);
        assert_eq!(a, a2, "same seed must reproduce");
        assert_ne!(a, b, "different seeds should interleave differently");
        for k in 0..4 {
            assert_eq!(a.count_for(k), 10);
            assert_eq!(b.count_for(k), 10);
        }
    }

    #[test]
    fn scheduled_run_is_deterministic() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 3);
        let build = || mlp(8, &[16], 4, 42);
        let schedule = schedule_for(&cfg, train.len(), Some(5));
        let a = train_scheduled(&cfg, &build, Arc::clone(&train), Arc::clone(&val), &schedule);
        let b = train_scheduled(&cfg, &build, train, val, &schedule);
        assert_eq!(a.server_model, b.server_model, "same schedule must be bit-reproducible");
        assert_eq!(a.worker_models, b.worker_models);
        assert_eq!(a.result.bytes_up, b.result.bytes_up);
        assert_eq!(a.result.bytes_down, b.result.bytes_down);
    }

    #[test]
    fn arrival_order_changes_the_run() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 3);
        let build = || mlp(8, &[16], 4, 42);
        let rr = schedule_for(&cfg, train.len(), None);
        let mixed = schedule_for(&cfg, train.len(), Some(11));
        assert_ne!(rr, mixed);
        let a = train_scheduled(&cfg, &build, Arc::clone(&train), Arc::clone(&val), &rr);
        let b = train_scheduled(&cfg, &build, train, val, &mixed);
        // Different staleness pattern ⇒ different trajectories. (Equality
        // here would mean the schedule isn't actually reaching the server.)
        assert_ne!(a.server_model, b.server_model);
    }

    #[test]
    fn scheduled_learns_like_the_threaded_engine() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 2);
        let build = || mlp(8, &[16], 4, 42);
        let schedule = schedule_for(&cfg, train.len(), Some(3));
        let run = train_scheduled(&cfg, &build, train, val, &schedule);
        assert!(run.result.final_acc > 0.7, "acc {}", run.result.final_acc);
        assert!(run.result.bytes_up > 0 && run.result.bytes_down > 0);
        assert_eq!(run.worker_models.len(), 2);
    }

    #[test]
    #[should_panic(expected = "worker count mismatch")]
    fn schedule_worker_mismatch_rejected() {
        let (train, val) = datasets();
        let cfg = quick_cfg(Method::Dgs, 2);
        let build = || mlp(8, &[16], 4, 42);
        let schedule = Schedule::round_robin(3, 4);
        train_scheduled(&cfg, &build, train, val, &schedule);
    }
}
