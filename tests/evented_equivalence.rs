//! Differential test: the evented server backend is a bitwise drop-in
//! for the thread-per-connection oracle.
//!
//! Every scenario runs the *same* pinned schedule twice over real TCP —
//! once with `IoMode::Threads` (the blocking accept loop that has been
//! the oracle since PR 2) and once with `IoMode::Evented` (one poller,
//! per-connection state machines, incremental decoding, coalesced
//! writes) — and asserts byte-for-byte identity: server model, worker
//! models, training curves, the logic's traffic accounting, and the
//! **exact** transport byte counters on both endpoints. Covered across
//! every method family, the lock-striped sharded server, and mid-run
//! reconnect + resync faults. The clean runs are additionally anchored
//! to the in-process loopback oracle, which `transport_equivalence`
//! already proves bitwise equal to struct-passing training.

mod common;

use common::{assert_runs_identical, interleaved, quick_cfg, run, tcp};
use dgs::core::config::TrainConfig;
use dgs::core::method::Method;
use dgs::net::runtime::{Fault, IoConfig, Topology};

/// Clean run (no faults): threaded vs evented, anchored to loopback.
fn assert_backends_agree(cfg: &TrainConfig) {
    let schedule = interleaved(cfg);

    let threaded = run(cfg, &schedule, &tcp(1, IoConfig::default()), &[]);
    let evented = run(cfg, &schedule, &tcp(1, IoConfig::evented(64)), &[]);
    assert_runs_identical(&threaded, &evented, &format!("{:?}", cfg.method));
    assert_eq!(evented.server_stats.rejected_conns, 0);

    // Anchor to the loopback oracle: identical models, and the data-frame
    // byte counters match exactly (control traffic differs by design —
    // TCP adds hello/ack/shutdown frames that loopback doesn't need).
    let wired = run(cfg, &schedule, &Topology::Loopback, &[]);
    assert_eq!(evented.server_model, wired.server_model, "evented drifted from loopback");
    assert_eq!(evented.worker_models, wired.worker_models, "evented drifted from loopback");
    assert_eq!(evented.server_stats.data_up, wired.server_stats.data_up);
    assert_eq!(evented.server_stats.data_down, wired.server_stats.data_down);
}

#[test]
fn asgd_backends_are_bitwise_identical() {
    assert_backends_agree(&quick_cfg(Method::Asgd));
}

#[test]
fn gd_async_backends_are_bitwise_identical() {
    assert_backends_agree(&quick_cfg(Method::GdAsync));
}

#[test]
fn dgc_async_backends_are_bitwise_identical() {
    assert_backends_agree(&quick_cfg(Method::DgcAsync));
}

#[test]
fn dgs_backends_are_bitwise_identical() {
    assert_backends_agree(&quick_cfg(Method::Dgs));
}

#[test]
fn dgs_with_secondary_compression_backends_are_bitwise_identical() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    assert_backends_agree(&cfg);
}

#[test]
fn dgs_with_ternary_uplink_backends_are_bitwise_identical() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.quantize_uplink = true;
    assert_backends_agree(&cfg);
}

/// Mid-run reconnect (dropped connection + re-handshake) and an explicit
/// resync both replay identically on the two backends: the faults fire
/// at fixed schedule steps, so hello/resync control frames and the
/// dense-model recovery replies land in the same places byte-for-byte.
#[test]
fn reconnect_and_resync_mid_run_are_bitwise_identical() {
    let cfg = quick_cfg(Method::Dgs);
    let schedule = interleaved(&cfg);
    let len = schedule.len();
    assert!(len >= 6, "schedule too short to place mid-run faults");
    let order = schedule.order();
    // Pin the faults to steps owned by the workers actually scheduled
    // there, so each fault really fires.
    let faults = [
        Fault::Reconnect { step: len / 3, worker: order[len / 3] },
        Fault::Resync { step: 2 * len / 3, worker: order[2 * len / 3] },
    ];

    let threaded = run(&cfg, &schedule, &tcp(1, IoConfig::default()), &faults);
    let evented = run(&cfg, &schedule, &tcp(1, IoConfig::evented(64)), &faults);
    assert_runs_identical(&threaded, &evented, "faulted dgs");
    // The faults actually happened: a resync is a control frame on top of
    // the clean run's traffic, so control bytes must exceed a no-fault
    // run's on the same schedule.
    let clean = run(&cfg, &schedule, &tcp(1, IoConfig::default()), &[]);
    assert!(
        threaded.server_stats.control > clean.server_stats.control,
        "faults produced no extra control traffic — did they fire?"
    );
}

/// The lock-striped sharded server behind the evented loop: the deepest
/// stack (sharded logic + per-worker locks + event loop) still replays
/// the threaded oracle bitwise, faults included.
#[test]
fn sharded_server_backends_are_bitwise_identical() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    let schedule = interleaved(&cfg);
    let faults = [Fault::Reconnect {
        step: schedule.len() / 2,
        worker: schedule.order()[schedule.len() / 2],
    }];

    let threaded = run(&cfg, &schedule, &tcp(3, IoConfig::default()), &faults);
    let evented = run(&cfg, &schedule, &tcp(3, IoConfig::evented(64)), &faults);
    assert_runs_identical(&threaded, &evented, "sharded dgs");
}
