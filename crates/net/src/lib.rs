//! dgs-net: wire protocol and transports for cross-process DGS training.
//!
//! The simulator (`dgs-psim`) and the threaded trainer exchange protocol
//! structs directly and only *account* for bytes via `wire_bytes()`. This
//! crate gives those messages a real binary encoding and moves them over
//! real media:
//!
//! * [`frame`] — length-delimited framing: 20-byte header (magic,
//!   version, type, worker, seq, length, CRC-32) + payload. The header
//!   size is compile-time asserted equal to the simulated accounting's
//!   `HEADER_BYTES`, and every data frame's total length equals the
//!   message's `wire_bytes()` — the real network and the simulator charge
//!   identical byte counts by construction.
//! * [`codec`] — payload encodings for every uplink/downlink variant
//!   (dense, sparse COO, ternary sparse) plus the handshake payload.
//!   Hand-rolled on `std` only; decoding is bounds-checked and never
//!   panics on hostile input.
//! * [`transport`] — the [`transport::Transport`] trait with the
//!   [`transport::Loopback`] implementation (in-process, but every byte
//!   still round-trips through the codec), and [`transport::WireConn`],
//!   the shared framed-connection engine.
//! * [`tcp`] — blocking TCP across processes: handshake with dim/θ0
//!   validation, heartbeats, reconnect with backoff, duplicate
//!   suppression, graceful shutdown.
//! * [`poll`] / [`event_loop`] — the readiness-driven alternative to the
//!   thread-per-connection server: a std-only `poll(2)` poller driving
//!   per-connection state machines with incremental decoding ([`frame::FrameDecoder`])
//!   and bounded, `writev`-coalesced write queues. Protocol decisions are
//!   shared with the threaded server (`conn::protocol_step`), so the two
//!   backends are bitwise interchangeable.
//! * [`cluster`] — the span-sharded multi-process parameter-server
//!   client: [`cluster::ClusterTransport`] fans each uplink out per
//!   [`msg::ShardSpan`] over independent TCP links (per-span handshake
//!   carrying the partition map + θ0 CRC, per-span seq/reconnect); the
//!   cut and the reassembly are `dgs_core::cluster`'s — the in-process
//!   sharding seam of `dgs_core::shard` lifted onto the wire.
//! * [`edge`] — the two-level aggregation tier: [`edge::EdgeHandler`]
//!   merges a worker group's uplinks with the shared sparse-merge
//!   kernels and forwards one combined update to the root spans, so
//!   root ingress scales with the number of groups, not workers.
//! * [`runtime`] — glue binding the transports to the training stack
//!   (`AsyncServerLogic`, `ShardedServerLogic`, `TrainWorker`): one
//!   handler ([`runtime::LogicHandler`]), one serve entry
//!   ([`runtime::serve_training_io`]) with its worker half
//!   ([`runtime::run_worker`]), and one lockstep driver
//!   ([`runtime::train`] over a [`runtime::Topology`]).
//!
//! Layering note: every module except [`runtime`] imports protocol types
//! through [`msg`] only, so the codec/transport layers never name the
//! training crates. When cargo cannot reach a registry,
//! `crates/ledger/offline/build.sh` builds the whole workspace with bare
//! `rustc` (see the verify skill).

#![warn(missing_docs)]
// The "error, never panic" wire-path promise, enforced twice: clippy here
// (non-test code only) and dgs-audit's no-panic-io rule with waivers.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod cluster;
pub mod codec;
pub(crate) mod conn;
pub mod crc;
pub(crate) mod crc_simd;
pub mod edge;
pub mod error;
pub mod event_loop;
pub mod frame;
pub mod msg;
pub mod poll;
pub mod runtime;
pub mod tcp;
pub mod transport;

pub use cluster::ClusterTransport;
pub use codec::Hello;
pub use edge::EdgeHandler;
pub use error::{NetError, NetResult};
pub use event_loop::{serve_cluster_evented, EventedOpts};
pub use frame::{FrameDecoder, FrameHeader, MsgType, HEADER_LEN, MAGIC, VERSION};
pub use transport::{
    Event, Loopback, Sequenced, SharedUpdateHandler, Transport, UpdateHandler, WireConn, WireStats,
};
