//! Transport scalability bench: connections × message-rate grid over the
//! two TCP server backends — thread-per-connection (`serve_cluster`) and
//! the readiness event loop (`serve_cluster_evented`) — measuring
//! round-trip latency percentiles, with and without a synchronized
//! retransmit storm.
//!
//! Every scenario opens `conns` real localhost connections against one
//! server, completes the hello handshake on all of them, then drives
//! `rounds` pipelined exchange rounds: each client thread batch-sends one
//! sparse update per connection it owns, then drains the replies,
//! timing each fresh update from its send to its reply read. In storm
//! rounds (every third round) each connection first re-sends its previous
//! sequence number — a duplicate the server must answer with a dense
//! resync reply, exactly the recovery path a real retransmit hits — so
//! the server absorbs a synchronized wave of `conns` duplicates on top of
//! the fresh traffic.
//!
//! The headline cell is `evented / conns ≥ 1000 / storm`: tens of
//! hundreds of concurrent sockets on ONE server OS thread with bounded
//! p99. The thread-per-connection rows are the oracle baseline (one OS
//! thread per socket). Results are recorded in `BENCH_net.json` at the
//! repo root, with provenance caveats — on a 1-core container every
//! latency includes scheduler serialization, so percentiles are upper
//! bounds and cross-backend *shape*, not absolute numbers, is the signal.
//!
//! Not a criterion bench (`harness = false`, plain `main`): the unit of
//! work is a whole multi-connection session, and we want latency
//! percentiles across individual exchanges, which criterion's
//! throughput-of-one-closure model does not express.
//!
//! Usage: `cargo bench --bench net_scale -- [--quick] [--out PATH]`

use dgs_core::protocol::{DownMsg, UpMsg, UpPayload};
use dgs_net::tcp::ServerOpts;
use dgs_net::{
    serve_cluster_evented, Event, EventedOpts, Hello, MsgType, Sequenced, SharedUpdateHandler,
    WireConn, WireStats,
};
use dgs_sparsify::{Partition, SparseUpdate};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model dimensionality for the synthetic session. Small on purpose: the
/// bench stresses connection count and frame cadence, not payload
/// bandwidth (the codec benches cover bytes/sec).
const DIM: usize = 1024;
/// Top-k ratio for the uplink updates (~51 of 1024 coordinates).
const RATIO: f64 = 0.05;
/// Shared CRC both sides advertise for θ0 — the handshake only checks
/// that they agree.
const THETA0_CRC: u32 = 0x6d74_6453;
/// Client threads driving the connection pool.
const CLIENT_THREADS: usize = 8;

/// Minimal `SharedUpdateHandler`: per-worker applied counters (atomics, so
/// the threaded backend's connection threads stay lock-free) and canned
/// replies. Fresh updates get a sparse diff; duplicates get the dense
/// resync model, mirroring what `LogicHandler` sends on the real recovery
/// path — so a storm round costs the server real dense-encode traffic.
struct EchoHandler {
    applied: Vec<AtomicU64>,
    reply: DownMsg,
    resync: DownMsg,
}

impl EchoHandler {
    fn new(workers: usize) -> Self {
        let part = Partition::single(DIM);
        let flat: Vec<f32> =
            (0..DIM).map(|i| ((i as f64 * 0.7391).sin() * 2.0) as f32).collect();
        EchoHandler {
            applied: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            reply: DownMsg::SparseDiff(SparseUpdate::from_topk(&flat, &part, RATIO)),
            resync: DownMsg::DenseModel(Arc::new(flat)),
        }
    }
}

impl SharedUpdateHandler for EchoHandler {
    fn handle_sequenced(
        &self,
        worker: u16,
        seq: u32,
        _up: UpMsg,
    ) -> Result<Sequenced, &'static str> {
        let slot = &self.applied[usize::from(worker)];
        let applied = slot.load(Ordering::Acquire);
        Ok(if u64::from(seq) == applied + 1 {
            slot.store(applied + 1, Ordering::Release);
            Sequenced::Applied(self.reply.clone())
        } else if u64::from(seq) <= applied {
            Sequenced::Duplicate(self.resync.clone())
        } else {
            Sequenced::Gap { applied }
        })
    }

    fn handle_resync(&self, _worker: u16) -> Result<DownMsg, &'static str> {
        Ok(self.resync.clone())
    }

    fn applied(&self, worker: u16) -> Result<u64, &'static str> {
        Ok(self.applied[usize::from(worker)].load(Ordering::Acquire))
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Threads,
    Evented,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Evented => "evented",
        }
    }
}

struct Cell {
    backend: Backend,
    conns: usize,
    rounds: usize,
    storm: bool,
    /// Fresh (non-duplicate) exchanges completed.
    messages: usize,
    duplicates: usize,
    elapsed: Duration,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    server_stats: WireStats,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

/// One client-side connection: framed conn plus its sequence state.
struct Client {
    wire: WireConn<TcpStream>,
    worker: u16,
    seq: u32,
    sent_at: Instant,
}

/// Drives `conns/CLIENT_THREADS`-ish connections through `rounds`
/// pipelined rounds; returns per-exchange RTTs (µs) and the duplicate
/// count this thread injected.
fn drive_clients(
    mut clients: Vec<Client>,
    rounds: usize,
    storm: bool,
    up: &UpMsg,
) -> (Vec<f64>, usize) {
    let mut rtts = Vec::with_capacity(clients.len() * rounds);
    let mut duplicates = 0usize;
    for round in 0..rounds {
        let storm_round = storm && round % 3 == 2;
        // Batch-send phase: every connection this thread owns gets its
        // frame(s) on the wire before any reply is read, so the server
        // sees the whole pool active at once.
        for c in clients.iter_mut() {
            if storm_round && c.seq > 0 {
                // Deliberate retransmit of the already-applied sequence:
                // the server must answer with the dense resync reply.
                c.wire.send_update(c.worker, c.seq, up).expect("send duplicate");
                duplicates += 1;
            }
            c.seq += 1;
            c.sent_at = Instant::now();
            c.wire.send_update(c.worker, c.seq, up).expect("send update");
        }
        // Drain phase: replies come back in per-connection order
        // (duplicate's resync first, then the fresh reply).
        for c in clients.iter_mut() {
            if storm_round && c.seq > 1 {
                match c.wire.read_event().expect("read resync reply") {
                    Event::Reply { .. } => {}
                    other => panic!("unexpected reply to duplicate: {other:?}"),
                }
            }
            match c.wire.read_event().expect("read reply") {
                Event::Reply { seq, .. } => assert_eq!(seq, c.seq, "reply out of order"),
                other => panic!("unexpected event: {other:?}"),
            }
            rtts.push(c.sent_at.elapsed().as_secs_f64() * 1e6);
        }
    }
    // Graceful teardown: shutdown + ack, so the server's exit condition
    // (all expected workers departed) fires without waiting on a timeout.
    for c in clients.iter_mut() {
        c.wire.send_control(MsgType::Shutdown, c.worker).expect("send shutdown");
        match c.wire.read_event().expect("read shutdown ack") {
            Event::ShutdownAck => {}
            other => panic!("unexpected shutdown reply: {other:?}"),
        }
    }
    (rtts, duplicates)
}

fn run_cell(backend: Backend, conns: usize, rounds: usize, storm: bool) -> Cell {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handler = Arc::new(EchoHandler::new(conns));
    let mut opts = ServerOpts::new(conns, DIM as u64, THETA0_CRC);
    opts.deadline = Some(Duration::from_secs(300));

    let server = std::thread::spawn(move || match backend {
        Backend::Threads => dgs_net::tcp::serve_cluster(listener, handler, opts),
        Backend::Evented => {
            // Budget above the pool size: this grid measures steady-state
            // latency, not the reject path (unit tests cover that).
            let ev = EventedOpts { max_conns: conns + 8, ..EventedOpts::default() };
            serve_cluster_evented(listener, handler, opts, ev)
        }
    });

    // Handshake every connection up front so the measured rounds run with
    // the full pool concurrently established.
    let mut pool: Vec<Vec<Client>> = (0..CLIENT_THREADS).map(|_| Vec::new()).collect();
    for worker in 0..conns {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let mut wire = WireConn::new(stream);
        let hello = Hello { dim: DIM as u64, applied: 0, theta0_crc: THETA0_CRC };
        wire.send_hello(MsgType::Hello, worker as u16, &hello).expect("send hello");
        match wire.read_event().expect("read hello ack") {
            Event::HelloAck { .. } => {}
            other => panic!("unexpected handshake reply: {other:?}"),
        }
        pool[worker % CLIENT_THREADS].push(Client {
            wire,
            worker: worker as u16,
            seq: 0,
            sent_at: Instant::now(),
        });
    }

    let up = Arc::new(UpMsg {
        payload: UpPayload::Sparse(SparseUpdate::from_topk(
            &(0..DIM).map(|i| ((i as f64 * 1.313).cos() * 3.0) as f32).collect::<Vec<_>>(),
            &Partition::single(DIM),
            RATIO,
        )),
        train_loss: 0.25,
    });

    let started = Instant::now();
    let drivers: Vec<_> = pool
        .into_iter()
        .map(|clients| {
            let up = Arc::clone(&up);
            std::thread::spawn(move || drive_clients(clients, rounds, storm, &up))
        })
        .collect();
    let mut rtts = Vec::new();
    let mut duplicates = 0usize;
    for d in drivers {
        let (r, dups) = d.join().expect("client thread");
        rtts.extend(r);
        duplicates += dups;
    }
    let elapsed = started.elapsed();
    let server_stats = server.join().expect("server thread").expect("server result");

    rtts.sort_by(|a, b| a.partial_cmp(b).expect("finite rtt"));
    Cell {
        backend,
        conns,
        rounds,
        storm,
        messages: rtts.len(),
        duplicates,
        elapsed,
        p50_us: percentile(&rtts, 0.50),
        p99_us: percentile(&rtts, 0.99),
        max_us: rtts.last().copied().unwrap_or(0.0),
        server_stats,
    }
}

fn cell_json(c: &Cell) -> String {
    let rate = c.messages as f64 / c.elapsed.as_secs_f64();
    format!(
        concat!(
            "    {{ \"backend\": \"{}\", \"conns\": {}, \"rounds\": {}, ",
            "\"retransmit_storm\": {}, \"messages\": {}, \"duplicates\": {}, ",
            "\"elapsed_ms\": {:.1}, \"msgs_per_sec\": {:.0}, ",
            "\"rtt_p50_us\": {:.1}, \"rtt_p99_us\": {:.1}, \"rtt_max_us\": {:.1}, ",
            "\"server_frames_up\": {}, \"server_frames_down\": {}, ",
            "\"server_data_up\": {}, \"server_data_down\": {}, \"server_control\": {} }}"
        ),
        c.backend.name(),
        c.conns,
        c.rounds,
        c.storm,
        c.messages,
        c.duplicates,
        c.elapsed.as_secs_f64() * 1e3,
        rate,
        c.p50_us,
        c.p99_us,
        c.max_us,
        c.server_stats.frames_up,
        c.server_stats.frames_down,
        c.server_stats.data_up,
        c.server_stats.data_down,
        c.server_stats.control,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // Grid: connection counts × storm on/off, on both backends. Rounds are
    // issued back-to-back (no pacing): on a contended 1-core box a target
    // wall-clock rate is noise, so the achieved msgs_per_sec per cell IS
    // the rate axis.
    let conn_grid: &[usize] = if quick { &[32, 128] } else { &[64, 256, 1024] };
    let rounds = if quick { 4 } else { 9 };

    let mut cells = Vec::new();
    for &conns in conn_grid {
        for storm in [false, true] {
            for backend in [Backend::Threads, Backend::Evented] {
                eprintln!(
                    "net_scale: {} conns={conns} rounds={rounds} storm={storm} ...",
                    backend.name()
                );
                let cell = run_cell(backend, conns, rounds, storm);
                eprintln!(
                    "  -> {} msgs in {:.1} ms, p50 {:.0} us, p99 {:.0} us",
                    cell.messages,
                    cell.elapsed.as_secs_f64() * 1e3,
                    cell.p50_us,
                    cell.p99_us
                );
                cells.push(cell);
            }
        }
    }

    let body: Vec<String> = cells.iter().map(cell_json).collect();
    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net_scale\",\n",
            "  \"description\": \"TCP transport scalability: connections x message-rate grid, ",
            "thread-per-connection vs readiness event loop, with synchronized retransmit storms ",
            "(every 3rd round re-sends the previous seq on every connection, forcing dense resync ",
            "replies)\",\n",
            "  \"config\": {{ \"dim\": {}, \"topk_ratio\": {}, \"client_threads\": {}, ",
            "\"quick\": {} }},\n",
            "  \"provenance\": {{\n",
            "    \"caveats\": [\n",
            "      \"1-core container: client threads, server thread(s), and the poller all share ",
            "one CPU, so every latency includes scheduler serialization; percentiles are upper ",
            "bounds and cross-backend shape is the signal, not absolute numbers\",\n",
            "      \"localhost TCP: no real network, RTTs measure framing + protocol + scheduling ",
            "cost only\",\n",
            "      \"RTT is measured send-to-reply-read under pipelining: a round batch-sends on ",
            "every connection a client thread owns before draining, so tail latencies include ",
            "queueing behind the whole pool -- that is the intended concurrent-load measurement\"\n",
            "    ]\n",
            "  }},\n",
            "  \"cells\": [\n{}\n  ]\n",
            "}}\n"
        ),
        DIM,
        RATIO,
        CLIENT_THREADS,
        quick,
        body.join(",\n")
    );

    match out_path {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write --out file");
            eprintln!("net_scale: wrote {path}");
        }
        None => print!("{doc}"),
    }
}
