#![warn(missing_docs)]

//! # dgs-core
//!
//! The paper's contribution: **Dual-Way Gradient Sparsification (DGS)** for
//! asynchronous parameter-server training, plus every baseline it is
//! evaluated against.
//!
//! * [`protocol`] — the worker↔server messages with byte-exact wire sizes.
//! * [`config`] — experiment configuration ([`TrainConfig`]), learning-rate
//!   schedules, DGC warm-up ramps.
//! * [`method`] — the five training methods and their technique matrix
//!   (paper Table 5).
//! * [`compress`] — worker-side update construction: dense (ASGD), Top-k
//!   with residual accumulation (GD-async, Alg. 1), DGC's momentum
//!   correction + factor masking, and **SAMomentum** (DGS, Alg. 3 /
//!   Eq. 14-16).
//! * [`server`] — the **Model-Difference-Tracking** server (Alg. 2 /
//!   Eq. 1-6): update accumulator `M`, per-worker delivered vectors `v_k`,
//!   difference `G = M − v_k`, optional secondary compression, plus the
//!   dense-model downlink that vanilla ASGD uses.
//! * [`shard`] — the lock-striped sharded server: the same Alg. 2 state
//!   split along partition segments behind per-shard locks, bitwise
//!   identical on the wire to [`server`] (see `DESIGN.md` §"Sharded
//!   server").
//! * [`cluster`] — the wire-serialisable partition map a multi-process
//!   span-server cluster agrees on at handshake time.
//! * [`update_log`] — the bounded applied-update log behind the server's
//!   O(nnz) downlink construction (see `DESIGN.md` §"Server hot path").
//! * [`worker`] — a training worker: model + data loader + compressor,
//!   usable by both execution engines.
//! * [`trainer`] — orchestration: single-node MSGD, the real-thread
//!   asynchronous cluster, the deterministic DES cluster, synchronous
//!   SSGD, pinned-schedule replay and the sharded server logic.
//! * [`curves`] — training-curve records serialised for EXPERIMENTS.md.
//! * [`memory`] — §5.6.2 memory accounting.

/// Below this many model coordinates the per-segment hot paths (server
/// reply construction, worker uplink selection) run sequentially instead of
/// fanning segments out to rayon — same threshold idiom as
/// `dgs_tensor::gemm`.
pub(crate) const PAR_THRESHOLD: usize = 16 * 1024;

pub mod cluster;
pub mod compress;
pub mod config;
pub mod curves;
pub mod memory;
pub mod method;
pub mod protocol;
mod segments;
pub mod server;
pub mod shard;
pub mod trainer;
pub mod update_log;
pub mod worker;

pub use cluster::{ClusterLayout, SpanInfo};
pub use config::{LrSchedule, TrainConfig};
pub use curves::{CurvePoint, RunRecorder, RunResult};
pub use method::Method;
pub use protocol::{DownMsg, UpMsg};
pub use server::MdtServer;
pub use shard::ShardedMdtServer;
pub use worker::TrainWorker;
