#![warn(missing_docs)]

//! # dgs-psim
//!
//! Parameter-server cluster simulation for the DGS reproduction: the
//! deterministic side of the wall-clock experiments. (Real asynchrony —
//! racing worker threads — lives in `dgs-core`'s `train_async` and in the
//! `dgs-net` transports; nothing here spawns a thread.)
//!
//! * [`des`] — a deterministic discrete-event simulator with a virtual
//!   clock and a bandwidth/latency [`network::NetworkModel`]. Used for the
//!   wall-clock experiments (paper Figs. 5 and 6), where what matters is
//!   the *ratio* of compute time to bytes-on-the-wire, not host speed.
//! * [`network`] — link model mapping message bytes to transfer seconds.
//! * [`stats`] — the staleness histogram.
//! * [`straggler`] — heterogeneous/jittery worker compute-time model (the
//!   paper's motivation for asynchrony: synchronous SGD "may suffer from
//!   worker lags").

pub mod des;
pub mod network;
pub mod stats;
pub mod straggler;

pub use des::{
    run_des, run_des_budget, run_des_faulty, Budget, DesNetwork, DesReport, DesServer, DesWorker,
    WorkerFailure,
};
pub use network::NetworkModel;
pub use stats::StalenessStats;
pub use straggler::StragglerModel;
