//! One driver, every topology: `dgs::net::runtime::train` over each
//! [`Topology`] × [`IoMode`](dgs::net::runtime::IoMode) replays
//! `train_scheduled` bitwise, and refuses faults it cannot inject.
//!
//! The per-topology suites (`transport_`/`evented_`/`cluster_equivalence`)
//! go deep on one seam each; this one is the table that says no cell of
//! the matrix was forgotten.

mod common;

use common::{
    assert_runs_identical, assert_same_training, builder, datasets, interleaved, quick_cfg, run,
    span_cluster, tcp, SPANS,
};
use dgs::core::method::Method;
use dgs::core::trainer::train_scheduled;
use dgs::net::runtime::{train, Fault, IoConfig, Topology, TransportRun};
use dgs::net::transport::Tier;
use dgs::net::WireStats;

fn merged(stats: &[WireStats]) -> WireStats {
    let mut total = WireStats::default();
    stats.iter().for_each(|s| total.merge(s));
    total
}

/// Both endpoints of every hop counted the same bytes: frame for frame,
/// data and control, link for link.
fn assert_endpoints_agree(run: &TransportRun, what: &str) {
    let workers = merged(&run.worker_stats);
    if run.edge_stats.is_empty() {
        assert_eq!(workers, run.server_stats, "{what}: worker-side vs server-side counters");
        return;
    }
    // Two hops: member ↔ edge (an `Edge` link per aggregator), edge ↔ spans.
    let edges = merged(&run.edge_stats);
    let member_up: u64 = (0..run.edge_stats.len() as u16)
        .map(|w| edges.link(Tier::Edge, w).expect("member link").uplink_bytes)
        .sum();
    assert_eq!(workers.data_up, member_up, "{what}: member uplink vs edge ingress");
    for k in 0..SPANS as u16 {
        assert_eq!(
            edges.link(Tier::Root, k),
            run.server_stats.link(Tier::Root, k),
            "{what}: edge upstream vs span {k} counters"
        );
    }
    assert_eq!(
        edges.control,
        workers.control + run.server_stats.control,
        "{what}: an edge sees its members' control frames and its spans'"
    );
}

#[test]
fn every_topology_and_io_mode_replays_train_scheduled_bitwise() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    let schedule = interleaved(&cfg);
    let (train_ds, val) = datasets();
    let direct = train_scheduled(&cfg, &builder(&cfg), train_ds, val, &schedule);

    let loopback = run(&cfg, &schedule, &Topology::Loopback, &[]);
    assert_same_training(&direct, &loopback, "loopback");
    assert_endpoints_agree(&loopback, "loopback");

    type Over = fn(IoConfig) -> Topology;
    let over_tcp: [(&str, Over); 4] = [
        ("tcp", |io| tcp(1, io)),
        ("tcp, striped server", |io| tcp(SPANS, io)),
        ("span cluster", |io| span_cluster(io, false)),
        ("span cluster behind edges", |io| span_cluster(io, true)),
    ];
    for (name, topology) in over_tcp {
        let threads = run(&cfg, &schedule, &topology(IoConfig::default()), &[]);
        let evented = run(&cfg, &schedule, &topology(IoConfig::evented(64)), &[]);
        assert_same_training(&direct, &threads, name);
        assert_runs_identical(&threads, &evented, &format!("{name}: threads vs evented"));
        assert_endpoints_agree(&threads, name);
    }
}

/// Loopback can inject the one fault that needs no connection, and the
/// recovery is the TCP one bit for bit.
#[test]
fn loopback_resync_replays_the_tcp_resync() {
    let cfg = quick_cfg(Method::Dgs);
    let schedule = interleaved(&cfg);
    let step = schedule.len() / 2;
    let faults = [Fault::Resync { step, worker: schedule.order()[step] }];
    let loopback = run(&cfg, &schedule, &Topology::Loopback, &faults);
    let over_tcp = run(&cfg, &schedule, &tcp(1, IoConfig::default()), &faults);
    assert_same_training(&loopback, &over_tcp, "resync over loopback vs tcp");
    let clean = run(&cfg, &schedule, &Topology::Loopback, &[]);
    assert!(
        loopback.result.bytes_down > clean.result.bytes_down,
        "the resync reply is charged to the downlink — did the fault fire?"
    );
}

/// A fault the topology cannot inject is an error naming both, before any
/// server is started or step taken — even when its step would never come.
fn assert_rejected(topology: Topology, fault: Fault) {
    let cfg = quick_cfg(Method::Dgs);
    let schedule = interleaved(&cfg);
    let (train_ds, val) = datasets();
    let err = match train(&cfg, &builder(&cfg), train_ds, val, &schedule, &topology, &[fault]) {
        Ok(_) => panic!("{fault:?} on {topology:?} ran as if it had fired"),
        Err(e) => e.to_string(),
    };
    let fault_name = format!("{fault:?}");
    let topology_name = format!("{topology:?}");
    let name = |s: &str| s.split([' ', '{']).next().unwrap().to_string();
    assert!(err.contains(&name(&fault_name)), "error must name the fault: {err}");
    assert!(err.contains(&name(&topology_name)), "error must name the topology: {err}");
}

const NEVER: usize = usize::MAX;

#[test]
fn loopback_rejects_reconnect() {
    assert_rejected(Topology::Loopback, Fault::Reconnect { step: NEVER, worker: 0 });
}

#[test]
fn loopback_rejects_kill_span() {
    assert_rejected(Topology::Loopback, Fault::KillSpan { step: NEVER, span: 0 });
}

#[test]
fn loopback_rejects_resync_span() {
    assert_rejected(Topology::Loopback, Fault::ResyncSpan { step: NEVER, worker: 0, span: 0 });
}

#[test]
fn tcp_rejects_kill_span() {
    assert_rejected(tcp(1, IoConfig::default()), Fault::KillSpan { step: 3, span: 1 });
}

#[test]
fn tcp_rejects_resync_span() {
    assert_rejected(tcp(1, IoConfig::default()), Fault::ResyncSpan { step: 3, worker: 0, span: 1 });
}

#[test]
fn striped_tcp_rejects_span_faults() {
    assert_rejected(tcp(SPANS, IoConfig::evented(64)), Fault::KillSpan { step: 3, span: 1 });
    assert_rejected(
        tcp(SPANS, IoConfig::evented(64)),
        Fault::ResyncSpan { step: 3, worker: 0, span: 1 },
    );
}

#[test]
fn edge_tier_rejects_reconnect() {
    assert_rejected(
        span_cluster(IoConfig::default(), true),
        Fault::Reconnect { step: 3, worker: 0 },
    );
}

#[test]
fn edge_tier_rejects_resync() {
    assert_rejected(span_cluster(IoConfig::default(), true), Fault::Resync { step: 3, worker: 0 });
}

#[test]
fn edge_tier_rejects_kill_span() {
    assert_rejected(span_cluster(IoConfig::default(), true), Fault::KillSpan { step: 3, span: 1 });
}

#[test]
fn edge_tier_rejects_resync_span() {
    assert_rejected(
        span_cluster(IoConfig::default(), true),
        Fault::ResyncSpan { step: 3, worker: 0, span: 1 },
    );
}
