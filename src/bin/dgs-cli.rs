//! `dgs-cli` — run a DGS training configuration from a JSON file.
//!
//! ```text
//! dgs-cli run <config.json> [--out results.json]
//! dgs-cli serve <config.json> --listen ADDR [--out results.json] [--deadline-secs N]
//!               [--shards S] [--span K/N] [--clients N]
//!               [--io threads|evented] [--max-conns N]
//! dgs-cli edge <config.json> --connect A1,A2,... --listen ADDR --group G
//!              [--base B] [--out stats.json] [--deadline-secs N]
//! dgs-cli work <config.json> (--connect ADDR | --connect-cluster A1,A2,...) --worker K
//! dgs-cli init > config.json          # print an annotated default config
//! dgs-cli methods                     # list methods + technique matrix
//! ```
//!
//! `serve`/`work` run the same training as `run`, but across OS processes
//! over the `dgs-net` TCP transport: one `serve` process hosts the MDT
//! server, and `train.workers` separate `work` processes each drive one
//! training worker. `--shards S` (S > 1) hosts the lock-striped
//! [`ShardedMdtServer`](dgs::core::ShardedMdtServer) instead of the
//! single-lock server: worker connections apply updates concurrently, and
//! the wire traffic stays byte-identical for a given update order.
//! `--io evented` serves every connection from one readiness event loop
//! (`poll(2)`) instead of one thread per connection — same protocol, same
//! bytes, but it scales to tens of thousands of workers; `--max-conns N`
//! caps concurrent connections (over-budget accepts get an error frame and
//! are counted in the serve-side stats). All processes must load the
//! *same* config file — the TCP handshake fingerprints `θ_0` (CRC-32 of
//! the initial parameters) and rejects workers whose seed/model/dimension
//! drift from the server's.
//!
//! The **multi-process cluster** splits the server across OS processes:
//! `serve --span K/N` hosts span K of an N-process span-sharded cluster
//! (each process owns one contiguous slice of the model; the handshake
//! additionally carries the partition map and the span's θ0 CRC), and
//! `work --connect-cluster A1,...,AN` fans each worker uplink out per
//! span and reassembles the downlink in shard order. `edge` inserts the
//! two-level aggregation tier between them: G workers connect to one
//! edge process (which looks exactly like a single full-model server to
//! them), their uplinks are merged and forwarded upstream as one logical
//! worker, so root ingress scales with the number of groups. With
//! `--listen 127.0.0.1:0`, `serve`/`edge` write the bound address (plus
//! span index and partition-map hash for spans) to `--out` **at bind
//! time**, so launchers can discover ports instead of preassigning them;
//! the file is rewritten with results and wire stats when the run ends.
//! `serve --span ... --clients N` sets how many direct clients (workers,
//! or edge aggregators) the span waits for before finishing.
//!
//! The config file selects a synthetic workload, a model, a training
//! method, and an engine; see [`CliConfig`] for every field. Example:
//!
//! ```json
//! {
//!   "workload": { "kind": "vision", "samples": 1024, "classes": 20,
//!                 "hw": 12, "channels": 3, "noise": 2.2, "val_samples": 256 },
//!   "model": { "kind": "resnet_lite", "width": 6, "hidden": [128, 64] },
//!   "train": { "method": "dgs", "workers": 4, "batch_per_worker": 16,
//!               "epochs": 8, "lr": 0.2, "momentum": 0.3,
//!               "sparsity_ratio": 0.05, "secondary_compression": false,
//!               "quantize_uplink": false, "seed": 42 },
//!   "engine": { "kind": "threads" }
//! }
//! ```

use dgs::core::cluster::ClusterLayout;
use dgs::core::config::{LrSchedule, TrainConfig};
use dgs::core::curves::RunResult;
use dgs::core::method::Method;
use dgs::core::trainer::des::{train_des, DesParams};
use dgs::core::trainer::sharded::build_sharded_server;
use dgs::core::trainer::single::train_msgd;
use dgs::core::trainer::threaded::{build_server, train_async};
use dgs::core::worker::TrainWorker;
use dgs::net::runtime::{
    cluster_layout, run_worker, serve_training_io, serve_with_io, span_server, theta0_crc,
    IoConfig, IoMode, Link, ServeLogic, EDGE_ROUND_TIMEOUT,
};
use dgs::net::tcp::{serve_cluster, ServerOpts, TcpWorkerTransport};
use dgs::net::transport::Tier;
use dgs::net::{ClusterTransport, EdgeHandler, WireStats};
use dgs::nn::data::{Dataset, GaussianBlobs, SyntheticVision};
use dgs::nn::model::Network;
use dgs::nn::models::{mlp, mlp_on_images, resnet_lite, tiny_cnn};
use dgs::psim::NetworkModel;
use dgs::sparsify::Partition;
use dgs::tensor::json::{self, ToJson, Value};
use dgs::tensor::json_struct;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload section of the config file.
#[derive(Debug, Clone)]
struct WorkloadConfig {
    /// `"vision"` (synthetic images) or `"blobs"` (Gaussian clusters).
    kind: String,
    samples: usize,
    val_samples: usize,
    classes: usize,
    hw: usize,
    channels: usize,
    noise: f32,
    dim: usize,
}

json_struct!(WorkloadConfig {
    kind,
    samples,
    val_samples,
    classes,
    hw = 12,
    channels = 3,
    noise = 2.2,
    dim = 16,
});

/// Model section of the config file.
#[derive(Debug, Clone)]
struct ModelConfig {
    /// `"resnet_lite"`, `"tiny_cnn"`, `"mlp"`, or `"mlp_on_images"`.
    kind: String,
    width: usize,
    hidden: Vec<usize>,
}

json_struct!(ModelConfig { kind, width = 6, hidden = vec![128, 64] });

/// Training section of the config file.
#[derive(Debug, Clone)]
struct TrainSection {
    /// `"msgd"`, `"asgd"`, `"gd-async"`, `"dgc-async"`, or `"dgs"`.
    method: String,
    workers: usize,
    batch_per_worker: usize,
    epochs: usize,
    lr: f32,
    momentum: f32,
    sparsity_ratio: f64,
    secondary_compression: bool,
    quantize_uplink: bool,
    seed: u64,
}

json_struct!(TrainSection {
    method,
    workers,
    batch_per_worker,
    epochs,
    lr,
    momentum,
    sparsity_ratio = 0.05,
    secondary_compression = false,
    quantize_uplink = false,
    seed = 42,
});

/// Engine section of the config file.
#[derive(Debug, Clone)]
struct EngineConfig {
    /// `"threads"` (real async threads) or `"des"` (virtual-time simulator).
    kind: String,
    bandwidth_gbps: f64,
    worker_gflops: f64,
}

json_struct!(EngineConfig { kind, bandwidth_gbps = 10.0, worker_gflops = 5.0 });

/// Top-level config file format.
#[derive(Debug, Clone)]
struct CliConfig {
    workload: WorkloadConfig,
    model: ModelConfig,
    train: TrainSection,
    engine: EngineConfig,
}

json_struct!(CliConfig { workload, model, train, engine });

impl CliConfig {
    fn example() -> Self {
        CliConfig {
            workload: WorkloadConfig {
                kind: "vision".into(),
                samples: 1024,
                val_samples: 256,
                classes: 20,
                hw: 12,
                channels: 3,
                noise: 2.2,
                dim: 16,
            },
            model: ModelConfig { kind: "resnet_lite".into(), width: 6, hidden: vec![128, 64] },
            train: TrainSection {
                method: "dgs".into(),
                workers: 4,
                batch_per_worker: 16,
                epochs: 8,
                lr: 0.2,
                momentum: 0.3,
                sparsity_ratio: 0.05,
                secondary_compression: false,
                quantize_uplink: false,
                seed: 42,
            },
            engine: EngineConfig {
                kind: "threads".into(),
                bandwidth_gbps: 10.0,
                worker_gflops: 5.0,
            },
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("dgs-cli: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("init") => {
            println!("{}", json::to_string_pretty(&CliConfig::example()));
        }
        Some("methods") => {
            println!(
                "{:<10} {:<18} {:<12} {:<12} residuals",
                "method", "sparsification", "momentum", "correction"
            );
            for m in Method::ALL {
                let t = m.techniques();
                println!(
                    "{:<10} {:<18} {:<12} {:<12} {}",
                    t.method,
                    t.sparsification,
                    t.momentum,
                    if t.momentum_correction { "yes" } else { "no" },
                    if t.residual_accumulation { "yes" } else { "no" }
                );
            }
        }
        Some("run") => {
            let path = args
                .get(1)
                .unwrap_or_else(|| fail("usage: dgs-cli run <config.json> [--out results.json]"));
            let out = flag_value(&args, "--out");
            let config = load_config(path);
            let result = run(&config);
            print_summary(&result);
            if let Some(out) = out {
                std::fs::write(&out, json::to_string_pretty(&result))
                    .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
                println!("wrote {out}");
            }
        }
        Some("serve") => {
            let usage = "usage: dgs-cli serve <config.json> --listen ADDR \
                         [--out results.json] [--deadline-secs N] [--shards S] \
                         [--span K/N] [--clients N] [--io threads|evented] [--max-conns N]";
            let path = args.get(1).unwrap_or_else(|| fail(usage));
            let endpoint = Endpoint::from_flags(&args, usage);
            let shards: usize = flag_parsed(&args, "--shards", "an integer").unwrap_or(1);
            if shards == 0 {
                fail("--shards must be at least 1");
            }
            let mut io = IoConfig::default();
            if let Some(mode) = flag_value(&args, "--io") {
                io.mode = mode.parse().unwrap_or_else(|e: String| fail(&e));
            }
            if let Some(mc) = flag_parsed(&args, "--max-conns", "a positive integer") {
                io.evented.max_conns = mc;
                if io.evented.max_conns == 0 {
                    fail("--max-conns must be a positive integer");
                }
                if io.mode != IoMode::Evented {
                    fail("--max-conns only applies to --io evented");
                }
            }
            let span = flag_value(&args, "--span").map(|s| parse_span(&s));
            let clients: Option<usize> = flag_parsed(&args, "--clients", "a positive integer");
            if span.is_some() && shards > 1 {
                fail("--shards and --span are mutually exclusive");
            }
            if clients.is_some() && span.is_none() {
                fail("--clients only applies to --span serving");
            }
            if clients == Some(0) {
                fail("--clients must be a positive integer");
            }
            match span {
                Some(span) => serve_span(&load_config(path), endpoint, span, clients, &io),
                None => serve(&load_config(path), endpoint, shards, &io),
            }
        }
        Some("edge") => {
            let usage = "usage: dgs-cli edge <config.json> --connect A1,A2,... --listen ADDR \
                         --group G [--base B] [--out stats.json] [--deadline-secs N]";
            let path = args.get(1).unwrap_or_else(|| fail(usage));
            let connect = flag_value(&args, "--connect").unwrap_or_else(|| fail(usage));
            let endpoint = Endpoint::from_flags(&args, usage);
            let group: usize =
                flag_parsed(&args, "--group", "a positive integer").unwrap_or_else(|| fail(usage));
            if group == 0 {
                fail("--group must be a positive integer");
            }
            let base: usize = flag_parsed(&args, "--base", "an integer").unwrap_or(0);
            edge(&load_config(path), endpoint, &connect, group, base);
        }
        Some("work") => {
            let usage = "usage: dgs-cli work <config.json> \
                         (--connect ADDR | --connect-cluster A1,A2,...) --worker K";
            let path = args.get(1).unwrap_or_else(|| fail(usage));
            let connect = flag_value(&args, "--connect");
            let cluster = flag_value(&args, "--connect-cluster");
            let worker: usize =
                flag_parsed(&args, "--worker", "an integer").unwrap_or_else(|| fail(usage));
            match (connect, cluster) {
                (Some(addr), None) => work(&load_config(path), Server::Single(&addr), worker),
                (None, Some(addrs)) => work(&load_config(path), Server::Cluster(&addrs), worker),
                _ => fail(usage),
            }
        }
        _ => fail("usage: dgs-cli <run|serve|work|edge|init|methods>"),
    }
}

/// Parses `--span K/N` (0-based span index out of N span servers).
fn parse_span(s: &str) -> (usize, usize) {
    let parsed = s
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
    match parsed {
        Some((k, n)) if n >= 1 && k < n => (k, n),
        _ => fail("--span must be K/N with K < N (e.g. 0/3)"),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// `--flag VALUE` parsed, or exit saying what it must be.
fn flag_parsed<T: std::str::FromStr>(args: &[String], flag: &str, must_be: &str) -> Option<T> {
    let parse =
        |s: String| s.parse().unwrap_or_else(|_| fail(&format!("{flag} must be {must_be}")));
    flag_value(args, flag).map(parse)
}

fn load_config(path: &str) -> CliConfig {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    json::from_str(&text).unwrap_or_else(|e| fail(&format!("invalid config {path}: {e}")))
}

/// Builds the train/validation datasets the config describes. Everything
/// is seeded from `train.seed`, so every process that loads the same
/// config materialises the same data.
fn datasets(config: &CliConfig) -> (Arc<dyn Dataset>, Arc<dyn Dataset>) {
    let seed = config.train.seed;
    let w = &config.workload;
    match w.kind.as_str() {
        "vision" => {
            let data = SyntheticVision::new(w.samples, w.channels, w.hw, w.classes, w.noise, seed);
            let val = Arc::new(data.validation(w.val_samples));
            (Arc::new(data), val)
        }
        "blobs" => {
            let data = GaussianBlobs::new(w.samples, w.dim, w.classes, w.noise, seed);
            let val = Arc::new(data.validation(w.val_samples));
            (Arc::new(data), val)
        }
        other => fail(&format!("unknown workload kind '{other}'")),
    }
}

/// Deterministic model builder for the config: same config + seed → the
/// same `θ_0` in every process (the TCP handshake checks this by CRC).
fn model_builder(config: &CliConfig) -> impl Fn() -> Network + Sync {
    let seed = config.train.seed;
    let m = config.model.clone();
    let wk = config.workload.clone();
    move || match m.kind.as_str() {
        "resnet_lite" => resnet_lite(wk.channels, wk.hw, wk.classes, m.width, seed),
        "tiny_cnn" => tiny_cnn(wk.channels, wk.hw, wk.classes, m.width, seed),
        "mlp_on_images" => mlp_on_images(wk.channels, wk.hw, &m.hidden, wk.classes, seed),
        "mlp" => mlp(wk.dim, &m.hidden, wk.classes, seed),
        other => fail(&format!("unknown model kind '{other}'")),
    }
}

/// Translates the `train` section into the engine-level [`TrainConfig`].
fn train_config(config: &CliConfig) -> TrainConfig {
    let method: Method = config.train.method.parse().unwrap_or_else(|e: String| fail(&e));
    let mut cfg = TrainConfig::paper_default(method, config.train.workers, config.train.epochs);
    cfg.batch_per_worker = config.train.batch_per_worker;
    cfg.lr = LrSchedule::paper_default(config.train.lr, config.train.epochs);
    cfg.momentum = config.train.momentum;
    cfg.sparsity_ratio = config.train.sparsity_ratio;
    cfg.secondary_compression = config.train.secondary_compression;
    cfg.quantize_uplink = config.train.quantize_uplink;
    cfg.clip_norm = 0.0;
    cfg.seed = config.train.seed;
    cfg.evals = config.train.epochs;
    cfg
}

fn run(config: &CliConfig) -> RunResult {
    let (train_ds, val_ds) = datasets(config);
    let builder = model_builder(config);
    let cfg = train_config(config);

    if cfg.method == Method::Msgd {
        return train_msgd(builder(), train_ds, val_ds, &cfg);
    }
    match config.engine.kind.as_str() {
        "threads" => train_async(&cfg, &builder, train_ds, val_ds),
        "des" => {
            let params = DesParams {
                network: NetworkModel::new(config.engine.bandwidth_gbps, 50.0),
                worker_gflops: config.engine.worker_gflops,
                ..DesParams::ten_gbps()
            };
            train_des(&cfg, &builder, train_ds, val_ds, params)
        }
        other => fail(&format!("unknown engine kind '{other}'")),
    }
}

/// The async-method [`TrainConfig`] of a distributed subcommand.
fn distributed_config(config: &CliConfig) -> TrainConfig {
    let cfg = train_config(config);
    if cfg.method == Method::Msgd {
        fail("msgd is single-node; use `dgs-cli run`");
    }
    cfg
}

/// The initial model, and its span layout over the `servers` span servers
/// that `flag` named. Every process derives the same one from the config.
fn span_cluster(
    config: &CliConfig,
    servers: usize,
    flag: &str,
) -> (Vec<f32>, Partition, ClusterLayout) {
    let net0 = model_builder(config)();
    let theta0 = net0.params().data().to_vec();
    let partition = net0.params().partition().clone();
    let layout = cluster_layout(&theta0, &partition, servers);
    if layout.num_spans() != servers {
        fail(&format!(
            "model splits into {} spans but {flag} names {servers} servers",
            layout.num_spans()
        ));
    }
    (theta0, partition, layout)
}

/// Where a `serve`/`edge` process listens and reports.
struct Endpoint {
    listen: String,
    out: Option<String>,
    deadline: Option<Duration>,
}

/// A bound [`Endpoint`]: the actual address and the `--out` document.
struct Bound {
    local: String,
    out: Option<String>,
    doc: Vec<(&'static str, Value)>,
}

impl Endpoint {
    /// `--listen ADDR [--out FILE] [--deadline-secs N]`.
    fn from_flags(args: &[String], usage: &str) -> Endpoint {
        Endpoint {
            listen: flag_value(args, "--listen").unwrap_or_else(|| fail(usage)),
            out: flag_value(args, "--out"),
            deadline: flag_parsed(args, "--deadline-secs", "an integer").map(Duration::from_secs),
        }
    }

    /// Binds the listener. With `--listen 127.0.0.1:0` a launcher learns
    /// the real port by polling `--out`, which is written here — at bind
    /// time — with the address and `identity`, and rewritten with the
    /// results by [`Bound::finish`].
    fn bind(&self, identity: Vec<(&'static str, Value)>) -> (TcpListener, Bound) {
        let listener = TcpListener::bind(&self.listen)
            .unwrap_or_else(|e| fail(&format!("cannot listen on {}: {e}", self.listen)));
        let local =
            listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| self.listen.clone());
        let mut doc = vec![("listen", local.to_json())];
        doc.extend(identity);
        let bound = Bound { local, out: self.out.clone(), doc };
        bound.write();
        (listener, bound)
    }
}

impl Bound {
    fn write(&self) {
        if let Some(out) = &self.out {
            std::fs::write(out, json::to_string_pretty(&object(self.doc.clone())))
                .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        }
    }

    /// Rewrites `--out` with the finished run's `results` added.
    fn finish(mut self, results: Vec<(&'static str, Value)>) {
        self.doc.extend(results);
        self.write();
        if let Some(out) = &self.out {
            println!("wrote {out}");
        }
    }
}

fn backend_tag(io: &IoConfig) -> String {
    match io.mode {
        IoMode::Threads => "thread-per-connection".to_string(),
        IoMode::Evented => format!("evented (max {} conns)", io.evented.max_conns),
    }
}

/// `dgs-cli serve`: host the parameter server over TCP until every worker
/// process has finished and shut down gracefully. `shards > 1` hosts the
/// lock-striped server. Only the server side is built — no worker.
fn serve(config: &CliConfig, endpoint: Endpoint, shards: usize, io: &IoConfig) {
    let cfg = distributed_config(config);
    let (train_ds, val_ds) = datasets(config);
    let builder = model_builder(config);
    let (listener, bound) = endpoint.bind(Vec::new());
    // NOTE: process_mode tests parse the address out of this banner via
    // `" on "` / `": waiting"` — keep the backend tag after the colon.
    println!(
        "serving {} on {}: waiting for {} workers x {} iterations [{}]",
        cfg.method.name(),
        bound.local,
        cfg.workers,
        cfg.iters_per_worker(train_ds.len()),
        backend_tag(io)
    );
    let (result, stats) = if shards > 1 {
        let logic = build_sharded_server(&cfg, &builder, train_ds.len(), &val_ds, shards);
        println!("server state striped across {} shards", logic.server().num_shards());
        host(listener, logic, cfg.workers, endpoint.deadline, io)
    } else {
        let logic = build_server(&cfg, &builder, train_ds.len(), &val_ds);
        host(listener, logic, cfg.workers, endpoint.deadline, io)
    };
    print_summary(&result);
    print_wire_stats("server", &stats);
    bound.finish(vec![("result", result.to_json()), ("wire", wire_json(&stats))]);
}

/// Serves `logic` until the run completes and finalises its record.
fn host<L: ServeLogic>(
    listener: TcpListener,
    logic: L,
    workers: usize,
    deadline: Option<Duration>,
    io: &IoConfig,
) -> (RunResult, WireStats) {
    let start = Instant::now();
    let (logic, stats) = serve_training_io(listener, logic, workers, deadline, io)
        .unwrap_or_else(|e| fail(&format!("serve failed: {e}")));
    (logic.finish(start.elapsed().as_secs_f64()).1, stats)
}

/// `dgs-cli serve --span K/N`: host ONE span of an N-process span-sharded
/// parameter-server cluster — the in-process sharding seam lifted onto
/// the wire. Every process (spans, edges, workers) must load the same
/// config file; the cluster handshake checks the partition-map hash and
/// this span's θ0 CRC on top of the usual dim check.
fn serve_span(
    config: &CliConfig,
    endpoint: Endpoint,
    (span_index, num_spans): (usize, usize),
    clients: Option<usize>,
    io: &IoConfig,
) {
    let cfg = distributed_config(config);
    let (train_ds, _val_ds) = datasets(config);
    let (theta0, partition, layout) = span_cluster(config, num_spans, "--span");
    let expected = clients.unwrap_or(cfg.workers);
    let (handler, mut opts) = span_server(&cfg, &theta0, &partition, &layout, span_index, expected);
    opts.deadline = endpoint.deadline;
    let (listener, bound) = endpoint.bind(vec![
        ("span", span_index.to_json()),
        ("spans", num_spans.to_json()),
        ("layout_hash", layout.layout_hash().to_json()),
    ]);
    println!(
        "serving {} span {span_index}/{num_spans} ({} of {} coords) on {}: \
         waiting for {expected} clients x {} iterations [{}]",
        cfg.method.name(),
        layout.spans[span_index].len,
        theta0.len(),
        bound.local,
        cfg.iters_per_worker(train_ds.len()),
        backend_tag(io)
    );
    let stats = serve_with_io(listener, Arc::new(handler), opts, io)
        .unwrap_or_else(|e| fail(&format!("span serve failed: {e}")));
    print_wire_stats(&format!("span {span_index}"), &stats);
    bound.finish(vec![("wire", wire_json(&stats))]);
}

/// `dgs-cli edge`: the two-level aggregation tier. G member workers see
/// an ordinary full-model server; their uplinks are merged per round and
/// forwarded to the root span servers as one logical worker, so root
/// ingress scales with the number of groups rather than workers.
fn edge(config: &CliConfig, endpoint: Endpoint, connect: &str, group: usize, base: usize) {
    let cfg = distributed_config(config);
    if base + group > cfg.workers {
        fail(&format!(
            "group [{base}, {}) exceeds the config's {} workers",
            base + group,
            cfg.workers
        ));
    }
    let addrs: Vec<String> = connect.split(',').map(str::to_string).collect();
    let (theta0, partition, layout) = span_cluster(config, addrs.len(), "--connect");
    let layout_hash = layout.layout_hash();
    // Members block on the round barrier, so the member-facing listener
    // must be thread-per-connection (an evented single thread would
    // deadlock); the root tier's backend is the span servers' choice.
    let mut opts = ServerOpts::new(base + group, theta0.len() as u64, theta0_crc(&theta0));
    opts.deadline = endpoint.deadline;
    opts.done_target = group;
    let upstream = ClusterTransport::new(layout, &addrs, base as u16)
        .unwrap_or_else(|e| fail(&format!("cannot reach root spans: {e}")));
    let handler =
        EdgeHandler::new(upstream, partition, theta0, base as u16, group, EDGE_ROUND_TIMEOUT)
            .unwrap_or_else(|e| fail(&format!("bad edge config: {e}")));
    let (listener, bound) = endpoint.bind(vec![
        ("base", base.to_json()),
        ("group", group.to_json()),
        ("layout_hash", layout_hash.to_json()),
    ]);
    println!(
        "edge on {}: merging group [{base}, {}) toward {} root spans: \
         waiting for {group} members",
        bound.local,
        base + group,
        addrs.len()
    );
    let member_side = serve_cluster(listener, Arc::clone(&handler), opts)
        .unwrap_or_else(|e| fail(&format!("edge serve failed: {e}")));
    let upstream_side =
        handler.finish().unwrap_or_else(|e| fail(&format!("edge shutdown failed: {e}")));
    print_wire_stats("edge members", &member_side);
    print_wire_stats("edge upstream", &upstream_side);
    bound.finish(vec![
        ("member_wire", wire_json(&member_side)),
        ("upstream_wire", wire_json(&upstream_side)),
    ]);
}

/// What a `work` process trains against.
enum Server<'a> {
    /// `--connect ADDR`: one whole-model server (or an edge aggregator).
    Single(&'a str),
    /// `--connect-cluster A1,A2,...`: one span server per address — every
    /// uplink fans out per span, every downlink reassembles in shard order
    /// (mixed per-span replies are applied spanwise).
    Cluster(&'a str),
}

/// `dgs-cli work`: run one worker's training loop against a remote server.
fn work(config: &CliConfig, server: Server<'_>, worker_id: usize) {
    let cfg = distributed_config(config);
    if worker_id >= cfg.workers {
        fail(&format!("--worker {worker_id} out of range (config has {} workers)", cfg.workers));
    }
    let (train_ds, _val_ds) = datasets(config);
    let iters = cfg.iters_per_worker(train_ds.len());
    let worker = TrainWorker::new(
        worker_id,
        model_builder(config)(),
        train_ds,
        cfg,
        config.engine.worker_gflops,
    );
    let (link, target) = match server {
        Server::Single(addr) => {
            let opts = Link::tcp_opts(addr, worker_id, &worker);
            (Link::Tcp(TcpWorkerTransport::new(opts)), addr.to_string())
        }
        Server::Cluster(addrs) => {
            let addrs: Vec<String> = addrs.split(',').map(str::to_string).collect();
            let (_, _, layout) = span_cluster(config, addrs.len(), "--connect-cluster");
            let spans =
                ClusterTransport::new(layout, &addrs, worker_id as u16).unwrap_or_else(|e| {
                    fail(&format!("worker {worker_id} cannot reach the cluster: {e}"))
                });
            (Link::Spans(spans), format!("{} span servers", addrs.len()))
        }
    };
    println!("worker {worker_id}: {iters} iterations against {target}");
    let (worker, stats) = run_worker(link, worker, iters)
        .unwrap_or_else(|e| fail(&format!("worker {worker_id} failed: {e}")));
    println!("worker {worker_id}: done after {} iterations", worker.iterations());
    print_wire_stats(&format!("worker {worker_id}"), &stats);
}

fn print_wire_stats(who: &str, stats: &WireStats) {
    println!(
        "{who} wire: data_up={} data_down={} control={} frames_up={} frames_down={} \
         rejected_conns={}",
        stats.data_up,
        stats.data_down,
        stats.control,
        stats.frames_up,
        stats.frames_down,
        stats.rejected_conns
    );
}

/// An object from `(key, value)` pairs, in their order.
fn object(members: Vec<(&'static str, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn wire_json(stats: &WireStats) -> Value {
    let links: Vec<Value> = stats
        .links
        .iter()
        .map(|l| {
            let tier = match l.tier {
                Tier::Root => "root",
                Tier::Edge => "edge",
            };
            object(vec![
                ("tier", tier.to_json()),
                ("span", l.span.to_json()),
                ("uplink_bytes", l.uplink_bytes.to_json()),
                ("downlink_bytes", l.downlink_bytes.to_json()),
            ])
        })
        .collect();
    object(vec![
        ("data_up", stats.data_up.to_json()),
        ("data_down", stats.data_down.to_json()),
        ("control", stats.control.to_json()),
        ("frames_up", stats.frames_up.to_json()),
        ("frames_down", stats.frames_down.to_json()),
        ("rejected_conns", stats.rejected_conns.to_json()),
        ("links", links.to_json()),
    ])
}

fn print_summary(result: &RunResult) {
    println!("method           : {}", result.method_name());
    println!("final top-1      : {:.2}%", 100.0 * result.final_acc);
    println!("final val loss   : {:.4}", result.final_loss);
    println!("uplink bytes     : {}", result.bytes_up);
    println!("downlink bytes   : {}", result.bytes_down);
    println!("mean staleness   : {:.2}", result.mean_staleness);
    if result.virtual_time > 0.0 {
        println!("virtual time     : {:.2}s", result.virtual_time);
    }
    println!("host wall time   : {:.2}s", result.wall_secs);
    println!();
    println!("epoch  updates  val-acc   train-loss");
    for p in &result.curve {
        println!(
            "{:>5}  {:>7}  {:>6.2}%   {:.4}",
            p.epoch,
            p.updates,
            100.0 * p.val_acc,
            p.train_loss
        );
    }
}
