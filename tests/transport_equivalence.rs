//! Differential test: the transport stack is invisible to training.
//!
//! `train_scheduled` hands `UpMsg`/`DownMsg` structs straight to the
//! server logic; `train(.., &Topology::Loopback, ..)` replays the *same*
//! arrival schedule but pushes every message through the `dgs-net` codec
//! (encode → bytes →
//! decode, both directions). Because the codec is lossless on every
//! payload variant, the two runs must be **bitwise identical** — same
//! server model, same worker models, same curves — for every training
//! method. This is the proof that moving to a real transport (TCP)
//! changes nothing about the learning dynamics.

mod common;

use common::{assert_same_training, builder, datasets, interleaved, quick_cfg, run};
use dgs::core::config::TrainConfig;
use dgs::core::method::Method;
use dgs::core::trainer::{schedule_for, train_scheduled};
use dgs::net::runtime::Topology;

/// Runs both drivers on an interleaved (seeded, non-trivial) schedule and
/// asserts bitwise model equality plus byte-counter agreement between the
/// server logic's accounting and the transport's frame counters.
fn assert_transport_invisible(cfg: &TrainConfig) {
    let (train, val) = datasets();
    let schedule = interleaved(cfg);

    let direct = train_scheduled(cfg, &builder(cfg), train, val, &schedule);
    let wired = run(cfg, &schedule, &Topology::Loopback, &[]);

    // Models, accounting, staleness and every curve point, bitwise.
    assert_same_training(&direct, &wired, &format!("{:?} through the codec", cfg.method));

    // The transport counted real encoded frames; the logic counted
    // `wire_bytes()`. In a clean run (no resyncs) they must agree exactly,
    // on both endpoints.
    let up: u64 = wired.worker_stats.iter().map(|s| s.data_up).sum();
    let down: u64 = wired.worker_stats.iter().map(|s| s.data_down).sum();
    assert_eq!(up, wired.result.bytes_up, "{:?}: uplink frames != wire_bytes", cfg.method);
    assert_eq!(down, wired.result.bytes_down, "{:?}: downlink frames != wire_bytes", cfg.method);
    assert_eq!(wired.server_stats.data_up, up);
    assert_eq!(wired.server_stats.data_down, down);
    let frames: u64 = wired.worker_stats.iter().map(|s| s.frames_up).sum();
    assert_eq!(frames as usize, schedule.len(), "one uplink data frame per scheduled step");
}

#[test]
fn asgd_is_transport_invariant() {
    assert_transport_invisible(&quick_cfg(Method::Asgd));
}

#[test]
fn gd_async_is_transport_invariant() {
    assert_transport_invisible(&quick_cfg(Method::GdAsync));
}

#[test]
fn dgc_async_is_transport_invariant() {
    assert_transport_invisible(&quick_cfg(Method::DgcAsync));
}

#[test]
fn dgs_is_transport_invariant() {
    assert_transport_invisible(&quick_cfg(Method::Dgs));
}

#[test]
fn dgs_with_secondary_compression_is_transport_invariant() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    assert_transport_invisible(&cfg);
}

#[test]
fn dgs_with_ternary_uplink_is_transport_invariant() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.quantize_uplink = true;
    assert_transport_invisible(&cfg);
}

#[test]
fn round_robin_schedule_also_matches() {
    let cfg = quick_cfg(Method::Dgs);
    let (train, val) = datasets();
    let schedule = schedule_for(&cfg, train.len(), None);
    let direct = train_scheduled(&cfg, &builder(&cfg), train, val, &schedule);
    let wired = run(&cfg, &schedule, &Topology::Loopback, &[]);
    assert_eq!(direct.server_model, wired.server_model);
    assert_eq!(direct.worker_models, wired.worker_models);
}
