#![warn(missing_docs)]

//! # dgs-psim
//!
//! Parameter-server cluster simulation infrastructure for the DGS
//! reproduction. Two execution engines share the same worker/server logic
//! traits so the algorithms in `dgs-core` run unchanged on both:
//!
//! * [`thread_engine`] — one OS thread per worker plus a server thread over
//!   `std::sync::mpsc` channels. Real asynchrony: workers race, updates
//!   interleave nondeterministically, exactly like the paper's PyTorch/gloo
//!   cluster.
//!   Used for the accuracy experiments.
//! * [`des`] — a deterministic discrete-event simulator with a virtual
//!   clock and a bandwidth/latency [`network::NetworkModel`]. Used for the
//!   wall-clock experiments (paper Figs. 5 and 6), where what matters is
//!   the *ratio* of compute time to bytes-on-the-wire, not host speed.
//!
//! Plus:
//!
//! * [`network`] — link model mapping message bytes to transfer seconds.
//! * [`stats`] — lock-free traffic counters and staleness histograms.
//! * [`straggler`] — heterogeneous/jittery worker compute-time model (the
//!   paper's motivation for asynchrony: synchronous SGD "may suffer from
//!   worker lags").

pub mod des;
pub mod network;
pub mod stats;
pub mod straggler;
pub mod thread_engine;

pub use des::{
    run_des, run_des_budget, run_des_faulty, Budget, DesNetwork, DesReport, DesServer, DesWorker,
    WorkerFailure,
};
pub use network::NetworkModel;
pub use stats::{StalenessStats, TrafficStats};
pub use straggler::StragglerModel;
pub use thread_engine::{run_cluster, ClusterReport, ServerLogic, WorkerLogic};
