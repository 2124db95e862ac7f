//! Glue between the transports and the training stack: one handler, one
//! serve entry, one lockstep driver.
//!
//! * [`LogicHandler`] puts any server logic behind the transport layer's
//!   [`SharedUpdateHandler`] seam. It owns the per-worker applied counts the
//!   reconnect protocol needs and runs every update through
//!   [`sequenced_apply`]. A `&mut` logic (`AsyncServerLogic`, a span
//!   server's `MdtServer`) is served as `Mutex<LogicHandler<_>>`, so
//!   connections take turns; the lock-striped `ShardedServerLogic` is
//!   served bare, with one small lock per *worker*, so connections of
//!   different workers apply concurrently.
//! * [`serve_training_io`] hosts either logic over TCP on either I/O
//!   backend until every worker has shut down; [`run_worker`] is the
//!   worker half. `dgs-cli serve` / `dgs-cli work` call these.
//! * [`train`] replays a pinned [`Schedule`] in lockstep over a
//!   [`Topology`] — loopback, TCP (single-lock or striped server), a span
//!   cluster, or a span cluster behind edge aggregators — with optional
//!   injected [`Fault`]s. It is the transport side of the differential
//!   tests against `train_scheduled`.

use crate::cluster::ClusterTransport;
use crate::edge::EdgeHandler;
use crate::error::{NetError, NetResult};
use crate::event_loop::{serve_cluster_evented, EventedOpts};
use crate::tcp::{serve_cluster, ServerOpts, SpanOpts, TcpOpts, TcpWorkerTransport};
use crate::transport::{
    contain, sequenced_apply, Loopback, Sequenced, SharedUpdateHandler, Tier, Transport,
    UpdateHandler, WireStats, POISONED_REASON,
};
use dgs_core::cluster::{apply_span_replies, ClusterLayout};
use dgs_core::config::TrainConfig;
use dgs_core::curves::{RunRecorder, RunResult, StalenessStats};
use dgs_core::protocol::{DownMsg, UpMsg};
use dgs_core::server::{MdtServer, ServerTunables};
use dgs_core::trainer::sharded::{build_sharded_server, ShardedServerLogic};
use dgs_core::trainer::threaded::{build_server, build_workers, AsyncServerLogic};
use dgs_core::trainer::{ModelBuilder, Schedule};
use dgs_core::worker::TrainWorker;
use dgs_nn::data::Dataset;
use dgs_sparsify::{Partition, ShardSpan};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// CRC-32 fingerprint of a model's parameters (little-endian f32 bytes).
/// Both sides of the TCP handshake compute this over their `θ_0` so a
/// worker built from a different seed, architecture, or config is
/// rejected up front instead of silently corrupting the run.
pub fn theta0_crc(params: &[f32]) -> u32 {
    let mut state = crate::crc::CRC_INIT;
    let mut buf = [0u8; 4 * 1024];
    for chunk in params.chunks(1024) {
        let mut n = 0;
        for &v in chunk {
            buf[n..n + 4].copy_from_slice(&v.to_le_bytes());
            n += 4;
        }
        state = crate::crc::crc32_update(state, &buf[..n]);
    }
    crate::crc::crc32_finish(state)
}

impl UpdateHandler for AsyncServerLogic {
    fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
        self.process(usize::from(worker), up)
    }

    fn on_resync(&mut self, worker: u16) -> DownMsg {
        self.resync(usize::from(worker))
    }
}

/// The lock-striped logic applies through `&self`, so a shared reference
/// is all the "exclusive" access [`sequenced_apply`] needs.
impl UpdateHandler for &ShardedServerLogic {
    fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
        self.process(usize::from(worker), up)
    }

    fn on_resync(&mut self, worker: u16) -> DownMsg {
        self.resync(usize::from(worker))
    }
}

/// One span server of a cluster: a plain [`MdtServer`] over the span's
/// sub-partition. The run record lives with the driver (no single span
/// owns the model), so there is nothing to account here.
///
/// Bitwise equivalence with the in-process sharded server: a span's
/// server is built by the same `ServerTunables::build` as one
/// `ShardedMdtServer` shard, every update visits every span — possibly
/// with empty chunks — so under lockstep replay each span's own clock
/// equals the global clock, and the damping scale it derives matches the
/// one the sharded front computes.
impl UpdateHandler for MdtServer {
    fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
        MdtServer::handle_update(self, usize::from(worker), &up)
    }

    fn on_resync(&mut self, worker: u16) -> DownMsg {
        self.resync_worker(usize::from(worker))
    }
}

const UNKNOWN_WORKER: &str = "unknown worker id";

/// Any server logic behind the [`SharedUpdateHandler`] seam: the logic,
/// how many updates of each worker it has completely applied — the count
/// the handshake and duplicate suppression are built on — and a latch that
/// refuses everything once an apply has panicked.
///
/// The worker's count is guarded across the whole
/// sequence-check → apply/resync → publish span of [`sequenced_apply`]:
///
/// * `Mutex<LogicHandler<L>>` for a `&mut` logic: the one handler lock
///   guards everything, and the per-worker slots are reached through
///   `get_mut` (no second acquisition).
/// * bare `LogicHandler<L>` for a `&self` logic: each worker's slot is its
///   own lock, so a retransmit racing its own apply blocks and then takes
///   the duplicate path, a reconnecting worker's resync can never overlap
///   that worker's in-flight apply, and [`SharedUpdateHandler::applied`]
///   reports only *completed* applies — while different workers hold
///   different locks and fan out to the shard locks in parallel.
pub struct LogicHandler<L = AsyncServerLogic> {
    logic: L,
    applied: Vec<Mutex<u64>>,
    poisoned: AtomicBool,
}

impl<L> LogicHandler<L> {
    /// Wraps server logic for `workers` workers.
    pub fn new(logic: L, workers: usize) -> Self {
        LogicHandler {
            logic,
            applied: (0..workers).map(|_| Mutex::new(0)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// The wrapped logic (read access).
    pub fn logic(&self) -> &L {
        &self.logic
    }

    /// Unwraps the logic for result finalisation.
    pub fn into_logic(self) -> L {
        self.logic
    }
}

/// Refuses once poisoned, and latches the first contained panic: the
/// training state cannot be trusted after one, so every later call answers
/// with the poisoned reason instead of serving torn state.
fn latched<T>(
    poisoned: &AtomicBool,
    f: impl FnOnce() -> Result<T, &'static str>,
) -> Result<T, &'static str> {
    // Release on the store pairs with this Acquire: a thread that sees the
    // latch also sees whatever the panicking apply wrote before unwinding.
    if poisoned.load(Ordering::Acquire) {
        return Err(POISONED_REASON);
    }
    let out = f();
    if out.is_err() {
        poisoned.store(true, Ordering::Release);
    }
    out
}

impl<L: UpdateHandler + Send> SharedUpdateHandler for Mutex<LogicHandler<L>> {
    fn handle_sequenced(
        &self,
        worker: u16,
        seq: u32,
        up: UpMsg,
    ) -> Result<Sequenced, &'static str> {
        let mut guard = self.lock().map_err(|_| POISONED_REASON)?;
        let h = &mut *guard;
        let slot = h.applied.get_mut(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        let applied = slot.get_mut().map_err(|_| POISONED_REASON)?;
        latched(&h.poisoned, || sequenced_apply(&mut h.logic, applied, worker, seq, up))
    }

    fn handle_resync(&self, worker: u16) -> Result<DownMsg, &'static str> {
        let mut guard = self.lock().map_err(|_| POISONED_REASON)?;
        let h = &mut *guard;
        h.applied.get(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        latched(&h.poisoned, || contain(|| h.logic.on_resync(worker)))
    }

    fn applied(&self, worker: u16) -> Result<u64, &'static str> {
        let mut guard = self.lock().map_err(|_| POISONED_REASON)?;
        let h = &mut *guard;
        let slot = h.applied.get_mut(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        latched(&h.poisoned, || slot.get_mut().map(|a| *a).map_err(|_| POISONED_REASON))
    }
}

impl<L: Send + Sync> SharedUpdateHandler for LogicHandler<L>
where
    for<'a> &'a L: UpdateHandler,
{
    fn handle_sequenced(
        &self,
        worker: u16,
        seq: u32,
        up: UpMsg,
    ) -> Result<Sequenced, &'static str> {
        let slot = self.applied.get(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        // The lock cannot poison: `sequenced_apply` contains any apply
        // panic inside the section.
        let mut applied = slot.lock().map_err(|_| POISONED_REASON)?;
        latched(&self.poisoned, || sequenced_apply(&mut &self.logic, &mut applied, worker, seq, up))
    }

    fn handle_resync(&self, worker: u16) -> Result<DownMsg, &'static str> {
        let slot = self.applied.get(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        // Serialize with this worker's own applies: a resync racing an
        // in-flight apply would hand back a model the tail of that apply
        // then silently advances v_k past.
        let _applied = slot.lock().map_err(|_| POISONED_REASON)?;
        let mut logic = &self.logic;
        latched(&self.poisoned, || contain(|| logic.on_resync(worker)))
    }

    fn applied(&self, worker: u16) -> Result<u64, &'static str> {
        let slot = self.applied.get(usize::from(worker)).ok_or(UNKNOWN_WORKER)?;
        latched(&self.poisoned, || slot.lock().map(|a| *a).map_err(|_| POISONED_REASON))
    }
}

/// Which I/O backend drives the server's connections.
///
/// Both backends speak the identical protocol (they share
/// `conn::protocol_step`) and produce bitwise-identical wire traffic for
/// the same update schedule; they differ only in how connections are
/// multiplexed onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// One blocking OS thread per connection ([`serve_cluster`]).
    #[default]
    Threads,
    /// One readiness event loop for all connections
    /// ([`serve_cluster_evented`]): scales to tens of thousands of
    /// connections on a single thread.
    Evented,
}

impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(IoMode::Threads),
            "evented" => Ok(IoMode::Evented),
            other => Err(format!("unknown io mode {other:?} (expected threads|evented)")),
        }
    }
}

/// Server I/O configuration: the backend plus the evented backend's
/// knobs (ignored under [`IoMode::Threads`]).
#[derive(Debug, Clone, Default)]
pub struct IoConfig {
    /// Which backend accepts and drives connections.
    pub mode: IoMode,
    /// Connection budget and write-queue bound for the evented backend.
    pub evented: EventedOpts,
}

impl IoConfig {
    /// An evented config with the given connection budget.
    pub fn evented(max_conns: usize) -> Self {
        IoConfig {
            mode: IoMode::Evented,
            evented: EventedOpts { max_conns, ..EventedOpts::default() },
        }
    }
}

/// Dispatches to the configured accept loop: serves `listener` with
/// either the thread-per-connection or the evented backend until the
/// run completes, returning the server-side byte counters.
pub fn serve_with_io<H: SharedUpdateHandler + 'static>(
    listener: TcpListener,
    handler: Arc<H>,
    opts: ServerOpts,
    io: &IoConfig,
) -> NetResult<WireStats> {
    match io.mode {
        IoMode::Threads => serve_cluster(listener, handler, opts),
        IoMode::Evented => serve_cluster_evented(listener, handler, opts, io.evented.clone()),
    }
}

/// A whole-model server logic [`serve_training_io`] can host. The two
/// implementations differ in exactly one decision — how the logic is shared
/// between connections.
pub trait ServeLogic: Sized + Send + 'static {
    /// The handler connections share: `Mutex<LogicHandler<Self>>` for a
    /// `&mut` logic, bare `LogicHandler<Self>` for a `&self` one.
    type Shared: SharedUpdateHandler + From<LogicHandler<Self>> + 'static;

    /// Takes the handler back once the server is done with it.
    fn unshare(shared: Self::Shared) -> NetResult<LogicHandler<Self>>;

    /// Model dimension and `θ_0` fingerprint for the handshake.
    fn fingerprint(&self) -> (u64, u32);

    /// The final global model and the finalised run record.
    fn finish(self, wall_secs: f64) -> (Vec<f32>, RunResult);
}

impl ServeLogic for AsyncServerLogic {
    type Shared = Mutex<LogicHandler<Self>>;

    fn unshare(shared: Self::Shared) -> NetResult<LogicHandler<Self>> {
        shared.into_inner().map_err(|_| NetError::Protocol("server handler mutex poisoned".into()))
    }

    fn fingerprint(&self) -> (u64, u32) {
        (self.server().dim() as u64, theta0_crc(self.server().theta0()))
    }

    fn finish(self, wall_secs: f64) -> (Vec<f32>, RunResult) {
        (self.server().current_model(), self.into_result(wall_secs))
    }
}

impl ServeLogic for ShardedServerLogic {
    type Shared = LogicHandler<Self>;

    fn unshare(shared: Self::Shared) -> NetResult<LogicHandler<Self>> {
        Ok(shared)
    }

    fn fingerprint(&self) -> (u64, u32) {
        (self.server().dim() as u64, theta0_crc(&self.server().theta0()))
    }

    fn finish(self, wall_secs: f64) -> (Vec<f32>, RunResult) {
        (self.server().current_model(), self.into_result(wall_secs))
    }
}

/// Takes the logic back out of a handler no connection holds any more.
fn reclaim<L: ServeLogic>(handler: Arc<L::Shared>) -> NetResult<L> {
    let shared = Arc::try_unwrap(handler)
        .map_err(|_| NetError::Protocol("server still holds the handler".into()))?;
    Ok(L::unshare(shared)?.into_logic())
}

/// Serves a training run over TCP on `io`'s backend until all `workers`
/// have gracefully shut down (or `deadline` expires). Returns the logic
/// (for result reporting) and the server-side byte counters. Byte for byte
/// the wire traffic is the same for either logic on either backend, given
/// the same update order.
pub fn serve_training_io<L: ServeLogic>(
    listener: TcpListener,
    logic: L,
    workers: usize,
    deadline: Option<Duration>,
    io: &IoConfig,
) -> NetResult<(L, WireStats)> {
    let (dim, crc) = logic.fingerprint();
    let handler = Arc::new(L::Shared::from(LogicHandler::new(logic, workers)));
    let mut opts = ServerOpts::new(workers, dim, crc);
    opts.deadline = deadline;
    let stats = serve_with_io(listener, Arc::clone(&handler), opts, io)?;
    Ok((reclaim(handler)?, stats))
}

/// A worker's link to its server side, and the one place a reply meets a
/// worker's model.
pub enum Link {
    /// In-process through the codec, straight onto the single-lock handler.
    Loopback(Loopback<Mutex<LogicHandler>>),
    /// One TCP connection: a whole-model server, or an edge aggregator.
    Tcp(TcpWorkerTransport),
    /// One TCP connection per span server of a cluster.
    Spans(ClusterTransport),
}

impl Link {
    /// Options for a TCP link of `worker_id`, fingerprinted from the
    /// worker's parameters — call before any local training has happened.
    pub fn tcp_opts(addr: &str, worker_id: usize, worker: &TrainWorker) -> TcpOpts {
        let params = worker.model_params();
        TcpOpts::new(addr, worker_id as u16, params.len() as u64, theta0_crc(params))
    }

    /// One training round over the link: local step, exchange, apply the
    /// reply (one per span on a cluster). Returns the update that was sent
    /// and the downlink bytes to account.
    pub fn round(&mut self, worker: &mut TrainWorker) -> NetResult<(UpMsg, u64)> {
        let up = worker.local_step();
        let reply = match self {
            Link::Loopback(t) => t.exchange(&up)?,
            Link::Tcp(t) => t.exchange(&up)?,
            Link::Spans(t) => {
                let replies = t.exchange(&up)?;
                return Ok((up, apply_span_replies(worker, t.layout(), replies)));
            }
        };
        Ok((up, apply_reply(worker, reply)))
    }

    /// Full-model resynchronisation of `worker`, like a recovering
    /// straggler; returns the downlink bytes to account.
    fn recover(&mut self, worker: &mut TrainWorker) -> NetResult<u64> {
        let reply = match self {
            Link::Loopback(t) => t.resync()?,
            Link::Tcp(t) => t.resync()?,
            Link::Spans(t) => {
                let replies = t.resync()?;
                return Ok(apply_span_replies(worker, t.layout(), replies));
            }
        };
        Ok(apply_reply(worker, reply))
    }

    /// Drops every connection of the link without telling the server; the
    /// next exchange reconnects through the handshake.
    fn reconnect(&mut self) -> NetResult<()> {
        match self {
            Link::Loopback(_) => Err(NetError::Protocol("loopback has no connection".into())),
            Link::Tcp(t) => {
                t.force_reconnect();
                Ok(())
            }
            Link::Spans(t) => (0..t.num_spans()).try_for_each(|j| t.drop_span_conn(j)),
        }
    }

    /// Gracefully ends the run on this link; returns the worker-side byte
    /// counters.
    pub fn finish(&mut self) -> NetResult<WireStats> {
        match self {
            Link::Loopback(t) => t.shutdown().map(|()| t.stats()),
            Link::Tcp(t) => t.shutdown().map(|()| t.stats()),
            Link::Spans(t) => t.shutdown().map(|()| t.stats()),
        }
    }
}

fn apply_reply(worker: &mut TrainWorker, reply: DownMsg) -> u64 {
    let bytes = reply.wire_bytes() as u64;
    worker.apply_reply(reply);
    bytes
}

/// Runs one worker's training loop over `link`: `iters` local steps, each
/// exchanged and applied, then a graceful shutdown.
pub fn run_worker(
    mut link: Link,
    mut worker: TrainWorker,
    iters: usize,
) -> NetResult<(TrainWorker, WireStats)> {
    for _ in 0..iters {
        link.round(&mut worker)?;
    }
    Ok((worker, link.finish()?))
}

/// Builds the cluster partition map for `theta0` striped over at most
/// `max_spans` span servers: the spans come from
/// [`Partition::shard_spans`] (the same greedy whole-segment fill the
/// in-process sharded server uses), each fingerprinted with the CRC-32
/// of its slice of θ0 so a span server and its clients agree on both the
/// geometry and the initial model at handshake time.
pub fn cluster_layout(theta0: &[f32], partition: &Partition, max_spans: usize) -> ClusterLayout {
    let spans = partition.shard_spans(max_spans);
    let crcs: Vec<u32> = spans.iter().map(|s| theta0_crc(&theta0[s.range()])).collect();
    ClusterLayout::from_spans(theta0.len() as u64, &spans, &crcs)
}

/// The handler of span `k` of `layout`, and the [`ServerOpts`] its server
/// announces (span dimension and θ0 CRC, cluster handshake coordinates)
/// for `clients` direct clients — workers, or edge aggregators.
pub fn span_server(
    cfg: &TrainConfig,
    theta0: &[f32],
    partition: &Partition,
    layout: &ClusterLayout,
    k: usize,
    clients: usize,
) -> (Mutex<LogicHandler<MdtServer>>, ServerOpts) {
    let spans = layout_spans(layout);
    let server = ServerTunables::from_config(cfg).build(theta0, partition, cfg.workers, &spans, k);
    let mut opts = ServerOpts::new(cfg.workers, layout.spans[k].len, layout.spans[k].theta0_crc);
    opts.done_target = clients;
    opts.span = Some(SpanOpts {
        index: k as u32,
        num_spans: layout.num_spans() as u32,
        layout_hash: layout.layout_hash(),
        layout_bytes: layout.encode(),
    });
    (Mutex::new(LogicHandler::new(server, cfg.workers)), opts)
}

fn layout_spans(layout: &ClusterLayout) -> Vec<ShardSpan> {
    layout.spans.iter().map(|s| s.shard_span()).collect()
}

/// How long an edge member may wait for the rest of its round before the
/// group is torn down.
pub const EDGE_ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Safety net for in-process server threads: far beyond any test's
/// runtime, just low enough that a wedged run fails instead of hanging.
const SERVE_SAFETY_DEADLINE: Duration = Duration::from_secs(120);

/// Lockstep replies arrive immediately; a long timeout keeps idle-probe
/// heartbeats out of the byte counters so runs are deterministic across
/// backends.
const LOCKSTEP_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A finished transport-mode run: the usual record plus final model
/// states and both endpoints' byte counters.
pub struct TransportRun {
    /// Curves, traffic, staleness — the engine-standard record.
    pub result: RunResult,
    /// Server's final global model.
    pub server_model: Vec<f32>,
    /// Each worker's final local model.
    pub worker_models: Vec<Vec<f32>>,
    /// Per-worker transport byte counters.
    pub worker_stats: Vec<WireStats>,
    /// Aggregated server-side byte counters.
    pub server_stats: WireStats,
    /// Per-edge aggregator counters (member side as a `Tier::Edge` link,
    /// upstream side with its per-span `Tier::Root` links). Empty for
    /// runs without an edge tier.
    pub edge_stats: Vec<WireStats>,
}

/// A deterministic fault injected during [`train`]'s schedule replay, fired
/// just before the named worker's exchange at the named step. Because
/// faults fire at fixed schedule steps from the single driver thread, a
/// faulted run is still bitwise reproducible — and backend-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop the worker's TCP connection(s); the next exchange reconnects
    /// (handshake + applied-count realignment, resyncing if needed).
    Reconnect {
        /// Schedule step index the fault fires at.
        step: usize,
        /// Worker whose connection is dropped.
        worker: usize,
    },
    /// Issue an explicit resync request: the worker refreshes its local
    /// model from the server's dense reply, like a recovering straggler.
    Resync {
        /// Schedule step index the fault fires at.
        step: usize,
        /// Worker that requests the resync.
        worker: usize,
    },
    /// Cluster runs only: crash-restart one span server from its own
    /// checkpoint and drop **every** worker's connection to it. The
    /// restarted span rebuilds its dirty sets from `M − v_k` and each
    /// worker's next exchange re-handshakes against the same layout hash —
    /// per-span recovery with no double apply, while the other spans keep
    /// training undisturbed.
    KillSpan {
        /// Schedule step index the fault fires at.
        step: usize,
        /// Span server to crash-restart.
        span: usize,
    },
    /// Cluster runs only: one worker resyncs a **single** span (dense
    /// span-slice reply applied through the span sub-partition) while
    /// its other spans continue on the sparse-diff path — exercising the
    /// mixed per-span reply reassembly.
    ResyncSpan {
        /// Schedule step index the fault fires at.
        step: usize,
        /// Worker that requests the span resync.
        worker: usize,
        /// Span index to resync.
        span: usize,
    },
}

/// Where [`train`] puts the server side of a run, and how workers reach it.
#[derive(Debug, Clone)]
pub enum Topology {
    /// In-process: every message encoded to bytes and decoded back, over
    /// the single-lock server — `train_scheduled` seen through the wire.
    Loopback,
    /// Real TCP against one in-process server thread on `io`'s backend:
    /// the single-lock server for `shards == 1`, the lock-striped one
    /// (`shards` stripes) otherwise.
    Tcp {
        /// Lock stripes of the server.
        shards: usize,
        /// Server I/O backend.
        io: IoConfig,
    },
    /// A span-server cluster: one in-process server thread per
    /// [`Partition::shard_spans`] span, workers fanning uplinks out per
    /// span over a [`ClusterTransport`]. With `edge`, every worker instead
    /// talks the plain single-server protocol to its own [`EdgeHandler`]
    /// (singleton group), which forwards the payload verbatim upstream —
    /// every uplink crosses two tiers with exact per-tier byte accounting
    /// ([`TransportRun::edge_stats`]).
    Cluster {
        /// Upper bound on the number of span servers.
        max_spans: usize,
        /// Span servers' I/O backend. Member-facing edge listeners always
        /// run thread-per-connection: edge members block on the group
        /// round barrier (see [`crate::edge`]).
        io: IoConfig,
        /// Put an edge aggregator between each worker and the spans.
        edge: bool,
    },
}

impl Topology {
    /// A fault this topology has no way to inject would silently not
    /// fire; refuse the run instead.
    fn check_faults(&self, faults: &[Fault]) -> NetResult<()> {
        for fault in faults {
            let span_fault = matches!(fault, Fault::KillSpan { .. } | Fault::ResyncSpan { .. });
            let injectable = match self {
                Topology::Loopback => matches!(fault, Fault::Resync { .. }),
                Topology::Tcp { .. } => !span_fault,
                Topology::Cluster { edge, .. } => !edge,
            };
            if !injectable {
                return Err(NetError::Protocol(format!(
                    "{fault:?} cannot be injected into {self:?}"
                )));
            }
        }
        Ok(())
    }
}

/// What ends a run whose server side keeps its own record: the final
/// model, the run record, the server-side counters.
type Finish = Box<dyn FnOnce(f64) -> NetResult<(Vec<f32>, RunResult, WireStats)>>;

fn join<T>(handle: JoinHandle<NetResult<T>>, what: &str) -> NetResult<T> {
    handle.join().map_err(|_| NetError::Protocol(format!("{what} thread panicked")))?
}

fn bind_local() -> NetResult<(TcpListener, String)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    Ok((listener, addr))
}

/// Starts `logic` on an in-process server thread; returns its address and
/// what to call once every worker has shut down.
fn spawn_server<L: ServeLogic>(
    logic: L,
    workers: usize,
    io: &IoConfig,
) -> NetResult<(String, Finish)> {
    let (listener, addr) = bind_local()?;
    let io = io.clone();
    let server = std::thread::spawn(move || {
        serve_training_io(listener, logic, workers, Some(SERVE_SAFETY_DEADLINE), &io)
    });
    let finish = move |wall_secs| {
        let (logic, stats) = join(server, "server")?;
        let (model, result) = logic.finish(wall_secs);
        Ok((model, result, stats))
    };
    Ok((addr, Box::new(finish)))
}

fn lockstep_tcp(mut opts: TcpOpts) -> TcpWorkerTransport {
    opts.read_timeout = LOCKSTEP_READ_TIMEOUT;
    TcpWorkerTransport::new(opts)
}

fn lockstep_spans(
    layout: &ClusterLayout,
    addrs: &[String],
    id: usize,
) -> NetResult<ClusterTransport> {
    ClusterTransport::with_opts(layout.clone(), addrs, id as u16, |o| {
        o.read_timeout = LOCKSTEP_READ_TIMEOUT;
    })
}

type SpanHandler = Arc<Mutex<LogicHandler<MdtServer>>>;

/// The in-process span tier (and optional edge tier) of a cluster run, plus
/// the run record: no single span owns the full model, so the lockstep
/// driver — which sees every assembled update and reply — keeps the
/// recorder and the global clock, with the accounting rules the server
/// logics apply (the bitwise curve equality in
/// `tests/cluster_equivalence.rs` rests on this).
struct ClusterSide {
    cfg: TrainConfig,
    partition: Partition,
    layout: ClusterLayout,
    handlers: Vec<SpanHandler>,
    spans: Vec<JoinHandle<NetResult<WireStats>>>,
    edges: Vec<(Arc<EdgeHandler>, JoinHandle<NetResult<WireStats>>)>,
    recorder: RunRecorder,
    t: u64,
    prev: Vec<u64>,
    staleness: StalenessStats,
}

fn lock_span(h: &SpanHandler) -> NetResult<std::sync::MutexGuard<'_, LogicHandler<MdtServer>>> {
    h.lock().map_err(|_| NetError::Protocol("span handler poisoned".to_string()))
}

impl ClusterSide {
    /// Binds and serves one span server per layout entry on `io`'s
    /// backend, then (with `edge`) one singleton-group edge aggregator per
    /// worker. Returns the side and the address(es) each worker connects to.
    fn start(
        cfg: &TrainConfig,
        recorder: RunRecorder,
        max_spans: usize,
        io: &IoConfig,
        edge: bool,
    ) -> NetResult<(Self, Vec<String>)> {
        let params = recorder.eval_net().params();
        let (theta0, partition) = (params.data().to_vec(), params.partition().clone());
        let layout = cluster_layout(&theta0, &partition, max_spans);
        let mut addrs = Vec::new();
        let mut handlers = Vec::new();
        let mut spans = Vec::new();
        for k in 0..layout.num_spans() {
            // The tier's direct clients are the workers, or — one logical
            // worker per singleton group — the edges: `cfg.workers` both ways.
            let (handler, mut opts) =
                span_server(cfg, &theta0, &partition, &layout, k, cfg.workers);
            opts.deadline = Some(SERVE_SAFETY_DEADLINE);
            let handler = Arc::new(handler);
            let (listener, addr) = bind_local()?;
            let (h, io) = (Arc::clone(&handler), io.clone());
            spans.push(std::thread::spawn(move || serve_with_io(listener, h, opts, &io)));
            addrs.push(addr);
            handlers.push(handler);
        }
        let mut edges = Vec::new();
        if edge {
            let (dim, crc) = (theta0.len() as u64, theta0_crc(&theta0));
            let mut edge_addrs = Vec::new();
            for w in 0..cfg.workers {
                let upstream = lockstep_spans(&layout, &addrs, w)?;
                let handler = EdgeHandler::new(
                    upstream,
                    partition.clone(),
                    theta0.clone(),
                    w as u16,
                    1,
                    EDGE_ROUND_TIMEOUT,
                )?;
                let (listener, addr) = bind_local()?;
                let mut opts = ServerOpts::new(w + 1, dim, crc);
                opts.deadline = Some(SERVE_SAFETY_DEADLINE);
                opts.done_target = 1;
                let h = Arc::clone(&handler);
                edges.push((handler, std::thread::spawn(move || serve_cluster(listener, h, opts))));
                edge_addrs.push(addr);
            }
            addrs = edge_addrs;
        }
        let side = ClusterSide {
            cfg: cfg.clone(),
            partition,
            layout,
            handlers,
            spans,
            edges,
            recorder,
            t: 0,
            prev: vec![0; cfg.workers],
            staleness: StalenessStats::new(),
        };
        Ok((side, addrs))
    }

    /// Concatenation of the spans' current models in span order — the
    /// cluster's global `θ_t`, read at lockstep-quiescent points (evals and
    /// run finalisation), exactly like `ShardedMdtServer::current_model`.
    fn model(&self) -> NetResult<Vec<f32>> {
        let mut out = Vec::with_capacity(self.layout.dim as usize);
        for h in &self.handlers {
            out.extend(lock_span(h)?.logic().current_model());
        }
        Ok(out)
    }

    /// Stamps one applied update on the global clock and accounts it,
    /// evaluating when the cadence says so.
    fn account(&mut self, worker: usize, up: &UpMsg, down_bytes: u64) -> NetResult<()> {
        self.staleness.record(self.t - self.prev[worker]);
        self.t += 1;
        self.prev[worker] = self.t;
        if self.recorder.record(self.t, up.wire_bytes() as u64, down_bytes, up.train_loss) {
            let model = self.model()?;
            self.recorder.eval(self.t, 0.0, &model);
        }
        Ok(())
    }

    /// Simulates a span-server crash/restart: checkpoint the span's MDT
    /// state, rebuild a fresh server from it (update log empty, dirty sets
    /// recomputed from `M − v_k` — replies stay bitwise identical, see
    /// [`MdtServer::restore`]) with the tunables the crashed one had, and
    /// swap it in under the handler lock. Applied counters survive (they
    /// are derived state the real process would persist with the
    /// checkpoint). Dropping the workers' connections is the caller's job.
    fn restart_span(&self, k: usize) -> NetResult<()> {
        let mut handler = lock_span(&self.handlers[k])?;
        let ckpt = handler.logic.checkpoint();
        handler.logic = ServerTunables::from_config(&self.cfg).restore(
            ckpt,
            &self.partition,
            &layout_spans(&self.layout),
            k,
        );
        Ok(())
    }

    /// Joins every tier and finalises the run record. The server-side
    /// counters carry one `Tier::Root` link per span; each edge's carry its
    /// member side as a `Tier::Edge` link plus its upstream links.
    fn finish(
        mut self,
        wall_secs: f64,
    ) -> NetResult<(Vec<f32>, RunResult, WireStats, Vec<WireStats>)> {
        let mut edge_stats = Vec::with_capacity(self.edges.len());
        for (w, (edge, serve)) in std::mem::take(&mut self.edges).into_iter().enumerate() {
            let member_side = join(serve, "edge aggregator")?;
            let mut s = WireStats::default();
            s.add_link(Tier::Edge, w as u16, member_side.data_up, member_side.data_down);
            s.merge(&member_side);
            s.merge(&edge.finish().map_err(|e| NetError::Protocol(e.to_string()))?);
            edge_stats.push(s);
        }
        let mut server_stats = WireStats::default();
        for (k, serve) in std::mem::take(&mut self.spans).into_iter().enumerate() {
            let s = join(serve, "span server")?;
            server_stats.add_link(Tier::Root, k as u16, s.data_up, s.data_down);
            server_stats.merge(&s);
        }
        let model = self.model()?;
        let mut tracking = 0;
        for h in &self.handlers {
            tracking += lock_span(h)?.logic().memory_report().tracking_bytes;
        }
        let result = self.recorder.finish(wall_secs, &self.staleness, tracking);
        Ok((model, result, server_stats, edge_stats))
    }
}

/// The server side of a lockstep run.
enum ServerSide {
    /// One server logic that keeps the run record itself.
    Logic(Finish),
    /// A span tier; the driver keeps the record.
    Cluster(Box<ClusterSide>),
}

impl Topology {
    /// Starts the server side and connects one [`Link`] per worker.
    fn start(
        &self,
        cfg: &TrainConfig,
        build_model: ModelBuilder<'_>,
        train_len: usize,
        val: &Arc<dyn Dataset>,
        workers: &[TrainWorker],
    ) -> NetResult<(ServerSide, Vec<Link>)> {
        let tcp =
            |k: usize, addr: &str| Link::Tcp(lockstep_tcp(Link::tcp_opts(addr, k, &workers[k])));
        match self {
            Topology::Loopback => {
                let logic = build_server(cfg, build_model, train_len, val);
                let handler = Arc::new(Mutex::new(LogicHandler::new(logic, cfg.workers)));
                let link = |k| Link::Loopback(Loopback::new(k as u16, Arc::clone(&handler)));
                let links = (0..cfg.workers).map(link).collect();
                let finish = move |wall_secs| {
                    let (model, result) = reclaim::<AsyncServerLogic>(handler)?.finish(wall_secs);
                    Ok((model, result, WireStats::default()))
                };
                Ok((ServerSide::Logic(Box::new(finish)), links))
            }
            Topology::Tcp { shards, io } => {
                let (addr, finish) = if *shards > 1 {
                    let logic = build_sharded_server(cfg, build_model, train_len, val, *shards);
                    spawn_server(logic, cfg.workers, io)?
                } else {
                    spawn_server(build_server(cfg, build_model, train_len, val), cfg.workers, io)?
                };
                let links = (0..cfg.workers).map(|k| tcp(k, &addr)).collect();
                Ok((ServerSide::Logic(finish), links))
            }
            Topology::Cluster { max_spans, io, edge } => {
                let recorder = RunRecorder::new(cfg, build_model(), Arc::clone(val), train_len);
                let (side, addrs) = ClusterSide::start(cfg, recorder, *max_spans, io, *edge)?;
                let links = if *edge {
                    addrs.iter().enumerate().map(|(k, addr)| tcp(k, addr)).collect()
                } else {
                    let spans = |k| lockstep_spans(&side.layout, &addrs, k).map(Link::Spans);
                    (0..cfg.workers).map(spans).collect::<NetResult<_>>()?
                };
                Ok((ServerSide::Cluster(Box::new(side)), links))
            }
        }
    }
}

/// Replays `schedule` in lockstep over `topology`: a single driver thread
/// owns every worker and its [`Link`] and runs one exchange at a time, so
/// the server-side arrival order is exactly the schedule order. For an
/// empty fault list every topology is therefore **bitwise identical** to
/// `train_scheduled` — same models, same curves, same staleness, same
/// assembled byte accounting — and two runs that differ only in the I/O
/// backend are bitwise identical including both endpoints' byte counters,
/// faults or not.
///
/// `faults` injects deterministic mid-run recovery scenarios. A fault the
/// topology cannot inject is an error before the first step, not a fault
/// that silently never fires.
pub fn train(
    cfg: &TrainConfig,
    build_model: ModelBuilder<'_>,
    train: Arc<dyn Dataset>,
    val: Arc<dyn Dataset>,
    schedule: &Schedule,
    topology: &Topology,
    faults: &[Fault],
) -> NetResult<TransportRun> {
    assert_eq!(schedule.workers(), cfg.workers, "schedule/config worker count mismatch");
    topology.check_faults(faults)?;
    let start = Instant::now();
    let theta0 = build_model().params().data().to_vec();
    let mut workers = build_workers(cfg, build_model, &train, 50.0, &theta0);
    let (mut server, mut links) = topology.start(cfg, build_model, train.len(), &val, &workers)?;

    for (i, &k) in schedule.order().iter().enumerate() {
        for fault in faults {
            // Downlink bytes of a recovery reply. Server logics charge
            // those themselves; in a cluster the driver keeps the record.
            let recovered = match *fault {
                Fault::Reconnect { step, worker } if (step, worker) == (i, k) => {
                    links[k].reconnect()?;
                    0
                }
                Fault::Resync { step, worker } if (step, worker) == (i, k) => {
                    links[k].recover(&mut workers[k])?
                }
                Fault::KillSpan { step, span } if step == i => {
                    if let ServerSide::Cluster(side) = &server {
                        side.restart_span(span)?;
                    }
                    for link in &mut links {
                        if let Link::Spans(t) = link {
                            t.drop_span_conn(span)?;
                        }
                    }
                    0
                }
                Fault::ResyncSpan { step, worker, span } if (step, worker) == (i, k) => {
                    let Link::Spans(t) = &mut links[k] else { continue };
                    let reply = t.resync_span(span)?;
                    let bytes = reply.wire_bytes() as u64;
                    workers[k].apply_span_reply(&t.layout().shard_span(span), reply);
                    bytes
                }
                _ => 0,
            };
            if let ServerSide::Cluster(side) = &mut server {
                side.recorder.add_down(recovered);
            }
        }
        let (up, down_bytes) = links[k].round(&mut workers[k])?;
        if let ServerSide::Cluster(side) = &mut server {
            side.account(k, &up, down_bytes)?;
        }
    }

    let worker_stats = links.iter_mut().map(Link::finish).collect::<NetResult<_>>()?;
    let mut loopback_stats = WireStats::default();
    for link in links {
        if let Link::Loopback(t) = link {
            loopback_stats.merge(&t.server_stats());
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let (server_model, result, server_stats, edge_stats) = match server {
        ServerSide::Cluster(side) => side.finish(wall_secs)?,
        ServerSide::Logic(finish) => {
            let (model, result, mut stats) = finish(wall_secs)?;
            stats.merge(&loopback_stats);
            (model, result, stats, Vec::new())
        }
    };
    let worker_models = workers.iter().map(|w| w.model_params().to_vec()).collect();
    Ok(TransportRun { result, server_model, worker_models, worker_stats, server_stats, edge_stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use dgs_core::trainer::sharded::build_sharded_participants;
    use dgs_core::Method;
    use dgs_nn::data::GaussianBlobs;
    use dgs_nn::models::mlp;
    use std::thread;

    /// A small sharded logic + its workers, for driving the handler the
    /// way connection threads do.
    fn sharded_fixture(workers: usize) -> (LogicHandler<ShardedServerLogic>, Vec<TrainWorker>) {
        let blobs = GaussianBlobs::new(128, 8, 4, 0.3, 1);
        let val: Arc<dyn Dataset> = Arc::new(blobs.validation(64));
        let train: Arc<dyn Dataset> = Arc::new(blobs);
        let mut cfg = dgs_core::config::TrainConfig::paper_default(Method::Dgs, workers, 2);
        cfg.batch_per_worker = 16;
        cfg.sparsity_ratio = 0.05;
        cfg.evals = 1;
        let build = || mlp(8, &[16], 4, 7);
        let (logic, w) = build_sharded_participants(&cfg, &build, &train, &val, 50.0, 3);
        (LogicHandler::new(logic, workers), w)
    }

    /// The per-worker critical section's sequential contract: in-order
    /// seqs apply and advance the counter, a retransmit takes the
    /// duplicate path without re-applying, a gap reports the completed
    /// count, and unknown worker ids are errors, not panics.
    #[test]
    fn sharded_handler_sequence_contract() {
        let (handler, mut workers) = sharded_fixture(2);
        let up1 = workers[0].local_step();
        match handler.handle_sequenced(0, 1, up1.clone()).unwrap() {
            Sequenced::Applied(reply) => workers[0].apply_reply(reply),
            other => panic!("first seq must apply, got {other:?}"),
        }
        assert_eq!(handler.applied(0).unwrap(), 1);
        assert_eq!(handler.applied(1).unwrap(), 0, "other worker untouched");
        let t_after_first = handler.logic().server().timestamp();
        // Retransmit of seq 1: must NOT fold the update in again — the
        // clock stays put and the answer is a dense resync model.
        match handler.handle_sequenced(0, 1, up1).unwrap() {
            Sequenced::Duplicate(dgs_core::protocol::DownMsg::DenseModel(m)) => {
                assert_eq!(m.len(), handler.logic().server().dim());
            }
            other => panic!("retransmit must resync, got {other:?}"),
        }
        assert_eq!(handler.applied(0).unwrap(), 1, "duplicate must not advance the counter");
        assert_eq!(handler.logic().server().timestamp(), t_after_first);
        // A gap reports how far the server actually got.
        let up3 = workers[0].local_step();
        match handler.handle_sequenced(0, 3, up3).unwrap() {
            Sequenced::Gap { applied } => assert_eq!(applied, 1),
            other => panic!("gap must be reported, got {other:?}"),
        }
        assert!(handler.handle_sequenced(9, 1, workers[0].local_step()).is_err());
        assert!(handler.handle_resync(9).is_err());
        assert!(handler.applied(9).is_err());
    }

    /// Retransmit storm: many threads race the *same* (worker, seq) while
    /// other workers make progress and a reconnect-style resync fires
    /// mid-storm. Exactly one submission per seq may apply; the applied
    /// counters and the server clock must agree with the dedup exactly —
    /// the regression this guards is a duplicate/resync overlapping its
    /// own in-flight apply (per-worker lock, not a pre-apply claim).
    #[test]
    fn sharded_handler_retransmit_storm_applies_once() {
        let (handler, workers) = sharded_fixture(2);
        let rounds = 8u32;
        let racers = 3;
        let handler = Arc::new(handler);
        let mut steppers = workers;
        let ups0: Vec<_> = (0..rounds).map(|_| steppers[0].local_step()).collect();
        let ups1: Vec<_> = (0..rounds).map(|_| steppers[1].local_step()).collect();
        thread::scope(|scope| {
            // Worker 1 runs a clean in-order lane.
            let h = Arc::clone(&handler);
            let lane = &ups1;
            scope.spawn(move || {
                for (i, up) in lane.iter().enumerate() {
                    match h.handle_sequenced(1, i as u32 + 1, up.clone()) {
                        Ok(Sequenced::Applied(_)) => {}
                        other => panic!("clean lane must apply: {other:?}"),
                    }
                }
            });
            // Worker 0's update storm: every seq submitted by N racers.
            for _ in 0..racers {
                let h = Arc::clone(&handler);
                let lane = &ups0;
                scope.spawn(move || {
                    for (i, up) in lane.iter().enumerate() {
                        let seq = i as u32 + 1;
                        loop {
                            match h.handle_sequenced(0, seq, up.clone()) {
                                Ok(Sequenced::Applied(_) | Sequenced::Duplicate(_)) => break,
                                // Another racer hasn't applied seq-1 yet.
                                Ok(Sequenced::Gap { .. }) => thread::yield_now(),
                                Err(e) => panic!("storm hit a poisoned server: {e}"),
                            }
                        }
                    }
                });
            }
            // Reconnect-style probes while applies are in flight: the
            // counters may only ever show *completed* applies — every
            // completed apply has already advanced the global clock, so
            // Σ applied ≤ t at any instant (reading t last is safe: it
            // only grows). The pre-apply claim this replaced published
            // the counter first and could violate exactly this. The
            // resync also must serialize with worker 0's own applies.
            let h = Arc::clone(&handler);
            scope.spawn(move || {
                for _ in 0..16 {
                    let sum = h.applied(0).unwrap() + h.applied(1).unwrap();
                    let t = h.logic().server().timestamp();
                    assert!(
                        sum <= t,
                        "counters over-report: {sum} applies published but clock is {t}"
                    );
                    h.handle_resync(0).unwrap();
                    thread::yield_now();
                }
            });
        });
        let handler = Arc::into_inner(handler).expect("threads joined");
        assert_eq!(handler.applied(0).unwrap(), u64::from(rounds));
        assert_eq!(handler.applied(1).unwrap(), u64::from(rounds));
        // Every seq folded in exactly once: the global clock counts each
        // worker's rounds once, no double applies from the storm.
        assert_eq!(handler.logic().server().timestamp(), u64::from(rounds) * 2);
        assert!(!handler.logic().server().poisoned());
    }

    /// The exclusive handler's contract is the striped one's: same
    /// sequence rule through the same function, and the first contained
    /// panic latches — every later call, from any worker, is refused.
    #[test]
    fn exclusive_handler_sequences_and_latches_a_panic() {
        struct Fragile {
            applies: u64,
        }
        impl UpdateHandler for Fragile {
            fn on_update(&mut self, _worker: u16, up: UpMsg) -> DownMsg {
                assert!(up.train_loss >= 0.0, "negative loss blows the apply up");
                self.applies += 1;
                DownMsg::DenseModel(Arc::new(vec![self.applies as f32]))
            }
            fn on_resync(&mut self, worker: u16) -> DownMsg {
                DownMsg::DenseModel(Arc::new(vec![f32::from(worker); 2]))
            }
        }
        let up = |loss: f64| UpMsg {
            payload: dgs_core::protocol::UpPayload::Dense(vec![0.0]),
            train_loss: loss,
        };
        let handler = Mutex::new(LogicHandler::new(Fragile { applies: 0 }, 2));
        assert!(matches!(handler.handle_sequenced(0, 1, up(0.0)), Ok(Sequenced::Applied(_))));
        assert!(matches!(handler.handle_sequenced(0, 1, up(0.0)), Ok(Sequenced::Duplicate(_))));
        assert!(matches!(
            handler.handle_sequenced(0, 3, up(0.0)),
            Ok(Sequenced::Gap { applied: 1 })
        ));
        assert_eq!((handler.applied(0), handler.applied(1)), (Ok(1), Ok(0)));
        assert_eq!(handler.lock().unwrap().logic().applies, 1, "duplicate and gap did not apply");
        assert_eq!(handler.handle_sequenced(9, 1, up(0.0)).unwrap_err(), UNKNOWN_WORKER);
        assert_eq!(handler.handle_resync(9).unwrap_err(), UNKNOWN_WORKER);
        assert_eq!(handler.applied(9).unwrap_err(), UNKNOWN_WORKER);
        // Worker 1's apply panics: contained, never published, latched.
        assert_eq!(handler.handle_sequenced(1, 1, up(-1.0)).unwrap_err(), POISONED_REASON);
        assert_eq!(handler.handle_sequenced(0, 2, up(0.0)).unwrap_err(), POISONED_REASON);
        assert_eq!(handler.handle_resync(0).unwrap_err(), POISONED_REASON);
        assert_eq!(handler.applied(1).unwrap_err(), POISONED_REASON);
        assert_eq!(handler.lock().unwrap().logic().applies, 1, "nothing applied after the latch");
    }

    /// A 3-span cluster fixture: config with every server tunable set, the
    /// model, and its layout.
    fn span_fixture() -> (TrainConfig, Vec<f32>, Partition, ClusterLayout) {
        let mut cfg = TrainConfig::paper_default(Method::Dgs, 2, 2);
        cfg.secondary_compression = true;
        cfg.staleness_damping = 0.5;
        cfg.server_log_nnz = 101; // does not divide over the spans
        let net = mlp(8, &[16], 4, 7);
        let (theta0, partition) = (net.params().data().to_vec(), net.params().partition().clone());
        let layout = cluster_layout(&theta0, &partition, 3);
        assert_eq!(layout.num_spans(), 3);
        (cfg, theta0, partition, layout)
    }

    /// Span servers and in-process shards split `server_log_nnz` by the
    /// same apportionment: both sum to exactly the configured budget.
    #[test]
    fn span_log_budgets_sum_to_the_configured_total_like_the_sharded_server() {
        let (cfg, theta0, partition, layout) = span_fixture();
        let tunables = ServerTunables::from_config(&cfg);
        let mut span_total = 0;
        let mut floor_total = 0;
        for k in 0..layout.num_spans() {
            let (handler, _) = span_server(&cfg, &theta0, &partition, &layout, k, cfg.workers);
            let got = handler.lock().unwrap().logic().tunables();
            assert_eq!((got.downlink, got.damping), (tunables.downlink, tunables.damping));
            span_total += got.log_capacity;
            floor_total += cfg.server_log_nnz * layout.spans[k].len as usize / theta0.len();
        }
        assert!(floor_total < cfg.server_log_nnz, "fixture must make per-span flooring lose slots");
        assert_eq!(span_total, cfg.server_log_nnz);
        let mut sharded =
            dgs_core::ShardedMdtServer::new(theta0, partition, cfg.workers, tunables.downlink, 3);
        sharded.configure(&tunables);
        assert_eq!(sharded.log_capacity(), cfg.server_log_nnz);
    }

    /// A crash-restarted span runs with exactly the tunables it had
    /// (`MdtServer::restore` alone resets them) and keeps its state.
    #[test]
    fn restarted_span_reports_the_tunables_it_had_before_the_crash() {
        let (mut cfg, _, _, _) = span_fixture();
        cfg.workers = 1;
        let blobs = GaussianBlobs::new(64, 8, 4, 0.3, 1);
        let val: Arc<dyn Dataset> = Arc::new(blobs.validation(32));
        let recorder = RunRecorder::new(&cfg, mlp(8, &[16], 4, 7), val, blobs.len());
        let (side, addrs) =
            ClusterSide::start(&cfg, recorder, 3, &IoConfig::default(), false).unwrap();
        let mut link = lockstep_spans(&side.layout, &addrs, 0).unwrap();
        let train: Arc<dyn Dataset> = Arc::new(blobs);
        let mut worker = TrainWorker::new(0, mlp(8, &[16], 4, 7), train, cfg.clone(), 50.0);
        link.exchange(&worker.local_step()).unwrap();
        let probe = |k: usize| {
            let span = lock_span(&side.handlers[k]).unwrap();
            (span.logic().tunables(), span.logic().timestamp(), span.logic().current_model())
        };
        let before = probe(1);
        // Non-defaults a bare `MdtServer::restore` would have reset: damping
        // off, and this span's automatic log budget (its own length).
        assert!(before.0.damping.alpha > 0.0);
        assert_ne!(before.0.log_capacity, side.layout.spans[1].len as usize);
        side.restart_span(1).unwrap();
        assert_eq!(probe(1), before, "restart changed the span's tunables or state");
        link.shutdown().unwrap();
        side.finish(0.0).unwrap();
    }

    #[test]
    fn theta0_crc_matches_oneshot_and_detects_drift() {
        let params = [0.5f32, -1.25, 3.0, f32::MIN_POSITIVE, 0.0];
        let mut bytes = Vec::new();
        for v in params {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(theta0_crc(&params), crc32(&bytes));
        let mut drifted = params;
        drifted[2] = 3.0 + f32::EPSILON * 4.0;
        assert_ne!(theta0_crc(&params), theta0_crc(&drifted));
        // Chunking boundary: > 1024 params takes the multi-chunk path.
        let big: Vec<f32> = (0..3000).map(|i| i as f32 * 0.25).collect();
        let mut big_bytes = Vec::new();
        for v in &big {
            big_bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(theta0_crc(&big), crc32(&big_bytes));
    }
}
