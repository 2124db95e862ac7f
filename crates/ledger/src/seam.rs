//! The pinned seam: every call the ledger makes into the workspace.
//!
//! No other file of this crate names a `dgs_*` item. While the benchmark
//! directory is frozen, a consolidation PR that renames or removes one of
//! the functions used here must keep a forwarding shim with the old
//! signature (the list is in README.md, "Pinned seam").
//!
//! Two ways of driving the same stack live here:
//!
//! * [`Stack<TrainWorker>`] — the program as users run it: whole
//!   `local_step`/`apply_reply` calls against `serve_training_io`.
//! * [`Stack<PartsWorker>`] — the traced twin: `local_step` replaced by
//!   its public parts so each can be timed, and the server's real
//!   `Mutex<LogicHandler>` wrapped in a handler that timestamps around
//!   the inner call. Bitwise equality of the two is an output check.

use crate::span::ns_since;
use crate::workload::{Data, Model, Workload, SPARSITY};
use dgs_core::compress::{compressor_for, Compressor, StepCtx};
use dgs_core::config::{LrSchedule, TrainConfig};
use dgs_core::method::Method;
use dgs_core::protocol::{DownMsg, UpMsg};
use dgs_core::trainer::{build_participants, schedule_for, AsyncServerLogic, Schedule};
use dgs_core::worker::TrainWorker;
use dgs_net::codec::{
    decode_down, decode_up, down_msg_type, encode_down_frame, encode_up_frame, up_msg_type, Hello,
};
use dgs_net::runtime::{serve_training_io, serve_with_io, theta0_crc, IoConfig, LogicHandler};
use dgs_net::tcp::{ServerOpts, TcpOpts, TcpWorkerTransport};
use dgs_net::{
    NetError, NetResult, Sequenced, SharedUpdateHandler, Transport, WireStats, HEADER_LEN,
};
use dgs_nn::data::{Dataset, GaussianBlobs, SyntheticVision};
use dgs_nn::loader::BatchLoader;
use dgs_nn::loss::{softmax_cross_entropy, top1_correct};
use dgs_nn::model::Network;
use dgs_nn::models::{mlp, mlp_on_images, resnet_lite};
use dgs_psim::NetworkModel;
use dgs_sparsify::SparseUpdate;
use dgs_tensor::rng::derive_seed;
use dgs_tensor::{Kernel, Tensor};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An uplink message (opaque outside this file).
pub type Up = UpMsg;
/// A downlink message (opaque outside this file).
pub type Down = DownMsg;
/// A minibatch: inputs and labels.
pub type Batch = (Tensor, Vec<usize>);

/// Connection budget of the evented server; W is 4.
const MAX_CONNS: usize = 64;
/// A wedged run fails instead of hanging the benchmark.
const SERVE_DEADLINE: Duration = Duration::from_secs(150);
/// Lockstep replies arrive at once; a long read timeout keeps idle-probe
/// heartbeats out of the byte counters.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Validation samples for the single final evaluation.
const VAL_LEN: usize = 64;

/// Bytes of one frame header (a control frame is exactly this long).
pub const HEADER_BYTES: u64 = HEADER_LEN as u64;

/// The compute backend the workspace selected at runtime.
pub fn kernel_backend() -> String {
    format!("{:?}", Kernel::runtime()).to_lowercase()
}

/// Modelled seconds to move `bytes` over the paper's 1 Gbps and 10 Gbps
/// links (`psim::network`).
pub fn wire_seconds(bytes: usize) -> (f64, f64) {
    (NetworkModel::one_gbps().transfer_time(bytes), NetworkModel::ten_gbps().transfer_time(bytes))
}

/// Exact wire size of an uplink message.
pub fn up_wire_bytes(up: &Up) -> usize {
    up.wire_bytes()
}

/// Exact wire size of a downlink message.
pub fn down_wire_bytes(down: &Down) -> usize {
    down.wire_bytes()
}

/// Coordinates carried by an uplink message.
pub fn up_nnz(up: &Up) -> usize {
    up.payload.nnz()
}

/// Training loss carried by an uplink message.
pub fn up_loss(up: &Up) -> f64 {
    up.train_loss
}

/// Coordinates carried by a downlink message, and whether it is the dense
/// model rather than a sparse difference.
pub fn down_nnz(down: &Down) -> (usize, bool) {
    match down {
        DownMsg::DenseModel(m) => (m.len(), true),
        DownMsg::SparseDiff(d) => (d.nnz(), false),
    }
}

/// Everything one trial is a pure function of: config, data, arrival
/// order. Built from the workload and `--seed` alone.
pub struct Plan {
    workload: Workload,
    cfg: TrainConfig,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
    schedule: Schedule,
}

fn build_net(model: Model, seed: u64) -> Network {
    match model {
        Model::ResnetLite { channels, hw, classes, width } => {
            resnet_lite(channels, hw, classes, width, seed)
        }
        Model::MlpOnImages { channels, hw, hidden, classes } => {
            mlp_on_images(channels, hw, hidden, classes, seed)
        }
        Model::Mlp { input, hidden, classes } => mlp(input, hidden, classes, seed),
    }
}

impl Plan {
    /// Synthesises the datasets and derives config and schedule. `--seed`
    /// drives dataset synthesis, model init and the arrival schedule.
    pub fn new(workload: &Workload, seed: u64, smoke: bool) -> Plan {
        let w = *workload;
        let data_seed = derive_seed(seed, 1);
        let (train, val): (Arc<dyn Dataset>, Arc<dyn Dataset>) = match w.data {
            Data::CifarLike => {
                let d = SyntheticVision::cifar_like(w.dataset_len, data_seed);
                let v = d.validation(VAL_LEN);
                (Arc::new(d), Arc::new(v))
            }
            Data::Blobs { dim, classes } => {
                let d = GaussianBlobs::new(w.dataset_len, dim, classes, 0.5, data_seed);
                let v = d.validation(VAL_LEN);
                (Arc::new(d), Arc::new(v))
            }
        };
        let method = if w.dgs { Method::Dgs } else { Method::Asgd };
        let mut cfg = TrainConfig::paper_default(method, w.workers, w.epochs_for(smoke));
        cfg.batch_per_worker = w.batch;
        cfg.lr = LrSchedule::constant(w.lr);
        cfg.sparsity_ratio = SPARSITY;
        cfg.secondary_compression = w.dgs;
        cfg.seed = seed;
        cfg.eval_batch = VAL_LEN;
        cfg.evals = 1;
        let schedule = schedule_for(&cfg, train.len(), Some(derive_seed(seed, 2)));
        assert_eq!(schedule.len(), w.rounds_for(smoke), "schedule covers the round count");
        Plan { workload: w, cfg, train, val, schedule }
    }

    /// Arrival order: element `i` is the worker that runs round `i`.
    pub fn order(&self) -> &[usize] {
        self.schedule.order()
    }

    fn model_seed(&self) -> u64 {
        derive_seed(self.cfg.seed, 3)
    }

    fn net(&self) -> Network {
        build_net(self.workload.model, self.model_seed())
    }
}

/// Byte and frame counters of one endpoint (the part of `WireStats` a
/// single-server run populates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    /// Worker→server data bytes.
    pub data_up: u64,
    /// Server→worker data bytes.
    pub data_down: u64,
    /// Control bytes, both directions.
    pub control: u64,
    /// Data frames up.
    pub frames_up: u64,
    /// Data frames down.
    pub frames_down: u64,
}

impl From<&WireStats> for Wire {
    fn from(s: &WireStats) -> Self {
        Wire {
            data_up: s.data_up,
            data_down: s.data_down,
            control: s.control,
            frames_up: s.frames_up,
            frames_down: s.frames_down,
        }
    }
}

/// What a finished trial leaves behind, for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// CRC-32 of the server's final model `θ_0 + M`.
    pub server_crc: u32,
    /// CRC-32 of each worker's final local model.
    pub worker_crcs: Vec<u32>,
    /// Worker-side counters, summed over workers.
    pub worker_wire: Wire,
    /// Server-side counters.
    pub server_wire: Wire,
    /// `(up, down)` data bytes the server logic accounted via `wire_bytes()`.
    pub logic_bytes: (u64, u64),
    /// Mean staleness the server observed.
    pub staleness_mean: f64,
    /// Control bytes a clean run exchanges: per worker one hello, one
    /// hello-ack, one shutdown and one shutdown-ack.
    pub clean_control: u64,
    /// Model dimensionality.
    pub dim: usize,
}

type ServerThread = JoinHandle<NetResult<(AsyncServerLogic, WireStats)>>;

/// One running training stack: the in-process server thread, `W` workers
/// and their TCP transports, all owned by the calling (driver) thread.
pub struct Stack<W> {
    /// The workers, indexed by id.
    pub workers: Vec<W>,
    transports: Vec<TcpWorkerTransport>,
    server: ServerThread,
    dim: usize,
}

/// A worker whose local model can be fingerprinted.
pub trait ModelView {
    /// The worker's current local parameters.
    fn params(&self) -> &[f32];
}

impl ModelView for TrainWorker {
    fn params(&self) -> &[f32] {
        self.model_params()
    }
}

fn net_err(e: NetError) -> String {
    e.to_string()
}

/// A listener on an OS-assigned loopback port, and its address.
fn bind() -> Result<(TcpListener, String), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    Ok((listener, addr))
}

fn connect(addr: &str, theta0: &[f32], workers: usize) -> Vec<TcpWorkerTransport> {
    let crc = theta0_crc(theta0);
    (0..workers)
        .map(|k| {
            let mut opts = TcpOpts::new(addr, k as u16, theta0.len() as u64, crc);
            opts.read_timeout = READ_TIMEOUT;
            TcpWorkerTransport::new(opts)
        })
        .collect()
}

impl Stack<TrainWorker> {
    /// Builds server + workers, binds `127.0.0.1:0` and starts the evented
    /// server thread on `serve_training_io`. Connections are made lazily
    /// by each worker's first exchange (inside the warm-up rounds).
    pub fn start(plan: &Plan) -> Result<Self, String> {
        let builder = || plan.net();
        let (logic, workers) =
            build_participants(&plan.cfg, &builder, &plan.train, &plan.val, 50.0);
        let (listener, addr) = bind()?;
        let dim = logic.server().dim();
        let transports = connect(&addr, logic.server().theta0(), plan.cfg.workers);
        let n = plan.cfg.workers;
        let server = std::thread::spawn(move || {
            serve_training_io(
                listener,
                logic,
                n,
                Some(SERVE_DEADLINE),
                &IoConfig::evented(MAX_CONNS),
            )
        });
        Ok(Stack { workers, transports, server, dim })
    }

    /// `TrainWorker::local_step`: minibatch gradient + compression.
    pub fn local_step(&mut self, k: usize) -> Up {
        self.workers[k].local_step()
    }

    /// `TrainWorker::apply_reply`.
    pub fn apply(&mut self, k: usize, down: Down) {
        self.workers[k].apply_reply(down);
    }
}

impl<W: ModelView> Stack<W> {
    /// `Transport::exchange` on worker `k`'s TCP transport: send the
    /// update, block until the matching reply.
    pub fn exchange(&mut self, k: usize, up: &Up) -> Result<Down, String> {
        self.transports[k].exchange(up).map_err(net_err)
    }

    /// Graceful shutdown of every transport, server join, fingerprints.
    pub fn finish(mut self) -> Result<Outcome, String> {
        for t in &mut self.transports {
            t.shutdown().map_err(net_err)?;
        }
        let (logic, server_stats) = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(net_err)?;
        let mut worker_stats = WireStats::default();
        for t in &self.transports {
            worker_stats.merge(&t.stats());
        }
        let hello = Hello { dim: 0, applied: 0, theta0_crc: 0 }.encode().len();
        let clean_control =
            (self.workers.len() * (2 * (HEADER_LEN + hello) + 2 * HEADER_LEN)) as u64;
        Ok(Outcome {
            server_crc: theta0_crc(&logic.server().current_model()),
            worker_crcs: self.workers.iter().map(|w| theta0_crc(w.params())).collect(),
            worker_wire: Wire::from(&worker_stats),
            server_wire: Wire::from(&server_stats),
            logic_bytes: logic.traffic(),
            staleness_mean: logic.server().staleness().mean(),
            clean_control,
            dim: self.dim,
        })
    }
}

// ---------------------------------------------------------------------------
// traced twin

/// Where the timing handler publishes the latest `handle_sequenced`
/// interval. Lockstep means exactly one exchange is in flight, so the
/// driver reads the pair right after its exchange returns; the reply's
/// trip through the socket orders the stores before the loads.
#[derive(Debug)]
pub struct HandleClock {
    epoch: Instant,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    duplicates: AtomicU64,
}

impl HandleClock {
    /// A clock whose nanoseconds count from `epoch` (share it with the
    /// span log so both sit on one time line).
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(HandleClock {
            epoch,
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        })
    }

    /// `(start, end)` of the most recent server-side apply, in
    /// nanoseconds since the epoch.
    pub fn last(&self) -> (u64, u64) {
        (self.start_ns.load(Ordering::SeqCst), self.end_ns.load(Ordering::SeqCst))
    }

    /// Updates the server answered as duplicates (resync instead of apply).
    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::SeqCst)
    }
}

/// The real `Mutex<LogicHandler>` behind the `SharedUpdateHandler` seam,
/// with timestamps around the inner call.
struct TimedHandler {
    inner: Mutex<LogicHandler>,
    clock: Arc<HandleClock>,
}

impl SharedUpdateHandler for TimedHandler {
    fn handle_sequenced(
        &self,
        worker: u16,
        seq: u32,
        up: UpMsg,
    ) -> Result<Sequenced, &'static str> {
        let start = Instant::now();
        let out = self.inner.handle_sequenced(worker, seq, up);
        let end = Instant::now();
        self.clock.start_ns.store(ns_since(self.clock.epoch, start), Ordering::SeqCst);
        self.clock.end_ns.store(ns_since(self.clock.epoch, end), Ordering::SeqCst);
        if matches!(out, Ok(Sequenced::Duplicate(_))) {
            self.clock.duplicates.fetch_add(1, Ordering::SeqCst);
        }
        out
    }

    fn handle_resync(&self, worker: u16) -> Result<DownMsg, &'static str> {
        self.inner.handle_resync(worker)
    }

    fn applied(&self, worker: u16) -> Result<u64, &'static str> {
        self.inner.applied(worker)
    }
}

/// `TrainWorker` taken apart into the public calls `local_step` and
/// `apply_reply` are made of, so each can be timed on its own. Mirrors
/// `TrainWorker::new` (loader seed, compressor) and `local_step` (epoch →
/// learning rate, constant Top-R % ratio, no weight decay, no ternary
/// uplink — neither is used by any workload).
pub struct PartsWorker {
    net: Network,
    loader: BatchLoader,
    compressor: Box<dyn Compressor>,
    cfg: TrainConfig,
    dataset_len: usize,
    iter: usize,
}

impl ModelView for PartsWorker {
    fn params(&self) -> &[f32] {
        self.net.params().data()
    }
}

impl PartsWorker {
    fn new(id: usize, plan: &Plan) -> Self {
        let cfg = plan.cfg.clone();
        assert!(cfg.weight_decay == 0.0 && !cfg.quantize_uplink, "not mirrored by PartsWorker");
        let net = plan.net();
        let loader = BatchLoader::new(
            Arc::clone(&plan.train),
            cfg.batch_per_worker,
            derive_seed(cfg.seed, 1000 + id as u64),
        );
        let compressor = compressor_for(cfg.method, net.num_params(), cfg.momentum, cfg.clip_norm);
        PartsWorker { net, loader, compressor, dataset_len: plan.train.len(), cfg, iter: 0 }
    }

    /// `BatchLoader::next_batch`.
    pub fn load(&mut self) -> Batch {
        self.loader.next_batch()
    }

    /// `ParamSet::zero_grad`.
    pub fn zero_grad(&mut self) {
        self.net.params_mut().zero_grad();
    }

    /// `Network::forward`.
    pub fn forward(&mut self, x: Tensor) -> Tensor {
        self.net.forward(x)
    }

    /// `loss::top1_correct` + `loss::softmax_cross_entropy`, as
    /// `Network::train_step` calls them.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
        std::hint::black_box(top1_correct(logits, labels));
        softmax_cross_entropy(logits, labels)
    }

    /// `Network::backward`.
    pub fn backward(&mut self, dlogits: Tensor) {
        self.net.backward(dlogits);
    }

    /// `Compressor::compress` on this round's gradient.
    pub fn compress(&mut self, train_loss: f64) -> Up {
        let epoch = self.cfg.epoch_of_iter(self.iter, self.dataset_len);
        let ctx = StepCtx { lr: self.cfg.lr.lr_at(epoch), ratio: self.cfg.sparsity_ratio };
        self.iter += 1;
        let partition = self.net.params().partition().clone();
        let payload = self.compressor.compress(self.net.params().grad(), &partition, ctx);
        UpMsg { payload, train_loss }
    }

    /// What `TrainWorker::apply_reply` does, on a borrowed reply so the
    /// message survives for the codec replay.
    pub fn apply(&mut self, down: &Down) {
        match down {
            DownMsg::DenseModel(model) => self.net.params_mut().load_data(model),
            DownMsg::SparseDiff(diff) => {
                let partition = self.net.params().partition().clone();
                diff.apply_add(self.net.params_mut().data_mut(), &partition, 1.0);
            }
        }
    }

    /// `SparseUpdate::from_topk` replayed on this round's gradient and
    /// partition: selection alone, off the blocking path. Returns nnz.
    pub fn topk_replay(&self) -> usize {
        let params = self.net.params();
        SparseUpdate::from_topk(params.grad(), params.partition(), self.cfg.sparsity_ratio).nnz()
    }

    /// `Network::scratch_misses`: stops growing once warm.
    pub fn scratch_misses(&self) -> u64 {
        self.net.scratch_misses()
    }

    /// Forward+backward multiply-accumulates of one round.
    pub fn flops_per_round(&self) -> f64 {
        self.net.flops_per_sample() as f64 * self.cfg.batch_per_worker as f64
    }
}

impl Stack<PartsWorker> {
    /// Like [`Stack::<TrainWorker>::start`], but with [`PartsWorker`]s and
    /// the server's handler wrapped to publish its busy interval on
    /// `clock`, served through `serve_with_io`.
    pub fn start_traced(plan: &Plan, clock: Arc<HandleClock>) -> Result<Self, String> {
        let builder = || plan.net();
        let (logic, _whole) = build_participants(&plan.cfg, &builder, &plan.train, &plan.val, 50.0);
        let workers: Vec<PartsWorker> =
            (0..plan.cfg.workers).map(|k| PartsWorker::new(k, plan)).collect();
        let (listener, addr) = bind()?;
        let dim = logic.server().dim();
        let crc = theta0_crc(logic.server().theta0());
        let transports = connect(&addr, logic.server().theta0(), plan.cfg.workers);
        let n = plan.cfg.workers;
        let handler =
            Arc::new(TimedHandler { inner: Mutex::new(LogicHandler::new(logic, n)), clock });
        let server = std::thread::spawn(move || {
            let mut opts = ServerOpts::new(n, dim as u64, crc);
            opts.deadline = Some(SERVE_DEADLINE);
            let stats =
                serve_with_io(listener, Arc::clone(&handler), opts, &IoConfig::evented(MAX_CONNS))?;
            let handler = Arc::try_unwrap(handler)
                .map_err(|_| NetError::Protocol("server still holds the handler".into()))?;
            let inner = handler
                .inner
                .into_inner()
                .map_err(|_| NetError::Protocol("server handler mutex poisoned".into()))?;
            Ok((inner.into_logic(), stats))
        });
        Ok(Stack { workers, transports, server, dim })
    }
}

/// One message pair pushed through the frame codec in isolation.
#[derive(Debug, Clone, Copy)]
pub struct CodecReplay {
    /// `encode_up_frame`.
    pub encode_up: Duration,
    /// `decode_up`.
    pub decode_up: Duration,
    /// `encode_down_frame`.
    pub encode_down: Duration,
    /// `decode_down`.
    pub decode_down: Duration,
    /// Encoded uplink frame length.
    pub up_frame_bytes: usize,
    /// Encoded downlink frame length.
    pub down_frame_bytes: usize,
}

impl CodecReplay {
    /// All four codec calls together.
    pub fn total(&self) -> Duration {
        self.encode_up + self.decode_up + self.encode_down + self.decode_down
    }

    /// Multiplies the four durations by `factor`.
    pub fn rescale(&mut self, factor: f64) {
        for d in
            [&mut self.encode_up, &mut self.decode_up, &mut self.encode_down, &mut self.decode_down]
        {
            *d = d.mul_f64(factor);
        }
    }
}

/// Replays a round's identical `UpMsg`/`DownMsg` through
/// `encode_up_frame`/`decode_up`/`encode_down_frame`/`decode_down`.
pub fn codec_replay(worker: usize, seq: u32, up: &Up, down: &Down) -> Result<CodecReplay, String> {
    let worker = worker as u16;
    let t0 = Instant::now();
    let up_frame = encode_up_frame(worker, seq, up).map_err(net_err)?;
    let t1 = Instant::now();
    let up_back = decode_up(up_msg_type(&up.payload), &up_frame[HEADER_LEN..]).map_err(net_err)?;
    let t2 = Instant::now();
    let down_frame = encode_down_frame(worker, seq, down).map_err(net_err)?;
    let t3 = Instant::now();
    let down_back = decode_down(down_msg_type(down), &down_frame[HEADER_LEN..]).map_err(net_err)?;
    let t4 = Instant::now();
    if up_back.wire_bytes() != up.wire_bytes() || down_back.wire_bytes() != down.wire_bytes() {
        return Err("codec replay changed a message's size".to_string());
    }
    Ok(CodecReplay {
        encode_up: t1 - t0,
        decode_up: t2 - t1,
        encode_down: t3 - t2,
        decode_down: t4 - t3,
        up_frame_bytes: up_frame.len(),
        down_frame_bytes: down_frame.len(),
    })
}
