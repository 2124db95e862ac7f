//! Training orchestration over the six execution modes.
//!
//! * [`single`] — single-node momentum SGD (the paper's MSGD baseline).
//! * [`threaded`] — real-thread asynchronous parameter-server training:
//!   scoped worker threads racing over channels to the server logic on
//!   the calling thread (accuracy experiments: Figs. 2-4, Tables 2-4).
//! * [`des`] — deterministic discrete-event simulation with a modelled
//!   network (wall-clock experiments: Figs. 5-6).
//! * [`sync`] — synchronous SSGD with an explicit barrier and straggler
//!   model (the paper's motivating comparison, §1).
//! * [`schedule`] — deterministic arrival schedules and the sequential
//!   scheduled driver, the reference side of the transport differential
//!   tests (`dgs-net`).
//! * [`sharded`] — concurrent (`&self`) server logic over the
//!   lock-striped [`ShardedMdtServer`](crate::shard::ShardedMdtServer),
//!   used by the cross-process transport to scale with cores.
//!
//! All engines produce the same [`RunResult`](crate::curves::RunResult) so
//! the experiment harness and plots treat them uniformly.

pub mod des;
pub mod schedule;
pub mod sharded;
pub mod single;
pub mod sync;
pub mod threaded;

pub use des::{train_des, train_des_stragglers, DesParams, ServerCostModel};
pub use schedule::{schedule_for, train_scheduled, Schedule, ScheduledRun};
pub use sharded::{build_sharded_participants, build_sharded_server, ShardedServerLogic};
pub use single::train_msgd;
pub use sync::{train_ssgd, SyncCompression};
pub use threaded::{
    build_participants, build_server, build_workers, train_async, AsyncServerLogic,
};

use dgs_nn::model::Network;

/// Builds a fresh, identically initialised model. All participants of a run
/// call this with the same captured seed so they agree on `θ_0`.
pub type ModelBuilder<'a> = &'a (dyn Fn() -> Network + Sync);
