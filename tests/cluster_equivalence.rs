//! Differential test: the K-process span-server cluster (and the
//! two-level edge tier on top of it) is a bitwise drop-in for the
//! single-process sharded server.
//!
//! Every scenario replays the *same* pinned schedule on three
//! topologies —
//!
//! 1. one process hosting the lock-striped `ShardedMdtServer` over TCP
//!    (`Topology::Tcp { shards: 3, .. }`, the oracle since PR 5/6),
//! 2. a K-process cluster: one span server per shard span, workers
//!    fanning out per span over `ClusterTransport` (`Topology::Cluster`),
//! 3. the same cluster behind per-worker edge aggregators with G = 1
//!    (`Topology::Cluster { edge: true, .. }`), where members speak the plain
//!    single-server protocol and payloads are forwarded verbatim —
//!
//! and asserts bitwise identity of the server model, every worker model,
//! the training curves (val-acc, train-loss, and the byte accounting
//! embedded in each point), and the staleness telemetry. Wire counters
//! are compared where the encoding makes them comparable: the assembled
//! uplink/downlink accounting matches the single-process run exactly,
//! edge members' data bytes match the single-process workers' exactly
//! (same frames, byte for byte), and the cluster's per-tier `LinkStats`
//! must balance — each worker's per-span uplink equals that span
//! server's per-worker ingress. A kill-one-span-server fault case checks
//! per-span recovery: the restarted span resumes from its checkpoint and
//! the run stays bitwise identical to the clean one (every update applied
//! exactly once — the MDT invariant makes a double apply visible in the
//! final model).

mod common;

use common::{assert_same_training, interleaved, quick_cfg, run, span_cluster, tcp, SPANS};
use dgs::core::config::TrainConfig;
use dgs::core::method::Method;
use dgs::net::runtime::{Fault, IoConfig, TransportRun};
use dgs::net::transport::Tier;

/// Per-tier byte bookkeeping inside one cluster run must balance: every
/// worker carries one `Root` link per span, the server side aggregates
/// the same spans, and link sums equal the endpoint totals.
fn assert_cluster_links_balance(run: &TransportRun, what: &str) {
    for (w, stats) in run.worker_stats.iter().enumerate() {
        assert_eq!(stats.links.len(), SPANS, "{what}: worker {w} span link count");
        let up: u64 = stats.links.iter().map(|l| l.uplink_bytes).sum();
        let down: u64 = stats.links.iter().map(|l| l.downlink_bytes).sum();
        assert_eq!(up, stats.data_up, "{what}: worker {w} link uplinks don't sum to data_up");
        assert_eq!(down, stats.data_down, "{what}: worker {w} link downlinks");
    }
    for k in 0..SPANS as u16 {
        let server_link = run
            .server_stats
            .link(Tier::Root, k)
            .unwrap_or_else(|| panic!("{what}: server missing span {k} link"));
        let worker_up: u64 = run
            .worker_stats
            .iter()
            .map(|s| s.link(Tier::Root, k).map(|l| l.uplink_bytes).unwrap_or(0))
            .sum();
        let worker_down: u64 = run
            .worker_stats
            .iter()
            .map(|s| s.link(Tier::Root, k).map(|l| l.downlink_bytes).unwrap_or(0))
            .sum();
        assert_eq!(server_link.uplink_bytes, worker_up, "{what}: span {k} ingress imbalance");
        assert_eq!(server_link.downlink_bytes, worker_down, "{what}: span {k} egress imbalance");
    }
}

/// Clean-run triple: sharded single process vs cluster vs cluster+edge.
fn assert_topologies_agree(cfg: &TrainConfig) {
    let schedule = interleaved(cfg);

    let sharded = run(cfg, &schedule, &tcp(SPANS, IoConfig::default()), &[]);
    let cluster = run(cfg, &schedule, &span_cluster(IoConfig::default(), false), &[]);
    let what = format!("{:?}", cfg.method);
    assert_same_training(&sharded, &cluster, &what);
    assert_cluster_links_balance(&cluster, &what);

    let edged = run(cfg, &schedule, &span_cluster(IoConfig::default(), true), &[]);
    assert_same_training(&cluster, &edged, &format!("{what} edge"));

    // G = 1 forwards verbatim: a member's data frames are bitwise the
    // frames the single-process worker sent, so the data counters match
    // exactly per worker.
    for (w, (member, single)) in edged.worker_stats.iter().zip(&sharded.worker_stats).enumerate() {
        assert_eq!(member.data_up, single.data_up, "{what}: member {w} uplink data bytes");
        assert_eq!(member.data_down, single.data_down, "{what}: member {w} downlink data bytes");
    }
    // Each edge records its member link and its upstream per-span links;
    // the member-side bytes must mirror the member's own counters.
    assert_eq!(edged.edge_stats.len(), cfg.workers);
    for (w, (edge, member)) in edged.edge_stats.iter().zip(&edged.worker_stats).enumerate() {
        let link = edge
            .link(Tier::Edge, w as u16)
            .unwrap_or_else(|| panic!("{what}: edge {w} missing member link"));
        assert_eq!(link.uplink_bytes, member.data_up, "{what}: edge {w} member ingress");
        assert_eq!(link.downlink_bytes, member.data_down, "{what}: edge {w} member egress");
        for k in 0..SPANS as u16 {
            assert!(edge.link(Tier::Root, k).is_some(), "{what}: edge {w} missing span {k} link");
        }
    }
    // Root ingress is the same whether workers or edges feed the spans.
    for k in 0..SPANS as u16 {
        let direct = cluster.server_stats.link(Tier::Root, k).expect("cluster span link");
        let via_edge = edged.server_stats.link(Tier::Root, k).expect("edge-run span link");
        assert_eq!(direct.uplink_bytes, via_edge.uplink_bytes, "{what}: span {k} root ingress");
        assert_eq!(direct.downlink_bytes, via_edge.downlink_bytes, "{what}: span {k} root egress");
    }
}

#[test]
fn asgd_cluster_replays_sharded_bitwise() {
    assert_topologies_agree(&quick_cfg(Method::Asgd));
}

#[test]
fn dgc_cluster_replays_sharded_bitwise() {
    assert_topologies_agree(&quick_cfg(Method::DgcAsync));
}

#[test]
fn dgs_cluster_replays_sharded_bitwise() {
    assert_topologies_agree(&quick_cfg(Method::Dgs));
}

#[test]
fn dgs_with_secondary_compression_cluster_replays_sharded_bitwise() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    assert_topologies_agree(&cfg);
}

#[test]
fn dgs_with_ternary_uplink_cluster_replays_sharded_bitwise() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.quantize_uplink = true;
    assert_topologies_agree(&cfg);
}

/// The cluster behind the evented backend is bitwise the threaded
/// cluster — including the raw per-span wire counters, which ARE
/// comparable when the topology is held fixed.
#[test]
fn cluster_backends_are_bitwise_identical() {
    let mut cfg = quick_cfg(Method::Dgs);
    cfg.secondary_compression = true;
    let schedule = interleaved(&cfg);

    let threaded = run(&cfg, &schedule, &span_cluster(IoConfig::default(), false), &[]);
    let evented = run(&cfg, &schedule, &span_cluster(IoConfig::evented(64), false), &[]);
    assert_same_training(&threaded, &evented, "cluster io backends");
    assert_eq!(threaded.server_stats, evented.server_stats, "server wire counters diverged");
    assert_eq!(threaded.worker_stats, evented.worker_stats, "worker wire counters diverged");
}

/// Kill-one-span-server mid-run: the span restarts from its checkpoint,
/// every worker re-handshakes against the same partition map, and the
/// run converges to the clean run's exact bits — the MDT reply
/// `G = M − v_k` depends only on applied updates, so a double apply (or
/// a lost one) would change the final model. The extra hellos are
/// control traffic on top of the clean run's.
#[test]
fn killed_span_server_recovers_without_double_apply() {
    let cfg = quick_cfg(Method::Dgs);
    let schedule = interleaved(&cfg);
    let len = schedule.len();
    assert!(len >= 6, "schedule too short to place mid-run faults");
    let kill_only = [Fault::KillSpan { step: len / 3, span: 1 }];

    let clean = run(&cfg, &schedule, &span_cluster(IoConfig::default(), false), &[]);
    let killed = run(&cfg, &schedule, &span_cluster(IoConfig::default(), false), &kill_only);

    // The kill/restart must be invisible in the training bits: same
    // models, same curves, same data accounting — the recovery costs
    // only control frames (re-handshakes).
    assert_same_training(&clean, &killed, "killed span vs clean");
    let killed_control: u64 = killed.worker_stats.iter().map(|s| s.control).sum();
    let clean_control: u64 = clean.worker_stats.iter().map(|s| s.control).sum();
    assert!(
        killed_control > clean_control,
        "kill/restart produced no extra handshakes — did the fault fire?"
    );

    // Add a single-span resync on top (the mixed per-span reply path —
    // one span answers dense while the others stay on sparse diffs).
    // Resyncing from the live model M genuinely perturbs the worker, so
    // the bar here is exact replay across I/O backends plus the byte
    // accounting of the extra dense span reply.
    let mixed = [
        Fault::KillSpan { step: len / 3, span: 1 },
        Fault::ResyncSpan { step: 2 * len / 3, worker: schedule.order()[2 * len / 3], span: 1 },
    ];
    let faulted = run(&cfg, &schedule, &span_cluster(IoConfig::default(), false), &mixed);
    assert!(
        faulted.result.bytes_down > clean.result.bytes_down,
        "span resync should add accounted downlink bytes"
    );
    let faulted_evented = run(&cfg, &schedule, &span_cluster(IoConfig::evented(64), false), &mixed);
    assert_same_training(&faulted, &faulted_evented, "faulted cluster io backends");
    assert_eq!(faulted.server_stats, faulted_evented.server_stats);
    assert_eq!(faulted.worker_stats, faulted_evented.worker_stats);
    assert_eq!(
        faulted.worker_models, faulted_evented.worker_models,
        "faulted worker models must replay bitwise"
    );
}
