//! TCP transport: the same framed protocol as [`crate::transport`], but
//! across processes.
//!
//! Worker side — [`TcpWorkerTransport`]:
//!
//! ```text
//! connect ──► Hello(dim, applied, θ0-crc) ──► HelloAck ──► ready
//!    ▲            │ mismatch → Handshake error (fatal, no retry)
//!    │ backoff    ▼
//!    └── io error / unresponsive peer (heartbeat_limit misses)
//! ```
//!
//! While waiting for a reply the worker sends a [`MsgType::Heartbeat`]
//! every read-timeout tick; `heartbeat_limit` unanswered probes mark the
//! connection dead and trigger reconnect-with-backoff. After a reconnect
//! the handshake's `applied` counters disambiguate the three possible
//! states of the in-flight update:
//!
//! * server `applied  < seq` — the update never arrived: retransmit it;
//! * server `applied >= seq` — it was applied but the reply was lost: the
//!   worker's model no longer matches the server's `v_k`, so it requests a
//!   [`MsgType::Resync`] and receives a fresh dense model (the server
//!   resets its per-worker tracking in [`UpdateHandler::on_resync`]).
//!
//! Server side — [`serve_cluster`]: one blocking connection thread per
//! worker, updates serialized through a shared `Mutex<H>`. Duplicate
//! sequence numbers (a retransmit that raced its own reply) are answered
//! with a resync instead of a second apply, so an update is never folded
//! into the model twice. Graceful end: each worker sends
//! [`MsgType::Shutdown`] after its last reply has been received — the
//! byte stream is ordered, so nothing can still be in flight — and the
//! server exits once every expected worker has done so.

use crate::codec::{ClusterHello, Hello};
use crate::conn::{protocol_step, ConnPhase};
use crate::error::{NetError, NetResult};
use crate::frame::MsgType;
use crate::msg::{DownMsg, UpMsg};
use crate::transport::{Event, SharedUpdateHandler, Transport, WireConn, WireStats, MAX_PAYLOAD};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Worker-side connection options.
#[derive(Debug, Clone)]
pub struct TcpOpts {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// This worker's id (must be `< expected_workers` on the server).
    pub worker: u16,
    /// Model dimensionality; must match the server's exactly.
    pub dim: u64,
    /// CRC-32 of the initial model bytes; must match the server's.
    pub theta0_crc: u32,
    /// Socket read timeout — also the heartbeat cadence while waiting.
    pub read_timeout: Duration,
    /// Unanswered heartbeats before the connection is declared dead.
    pub heartbeat_limit: u32,
    /// Connection attempts (with exponential backoff) before giving up.
    pub connect_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// When talking to one span server of a PS cluster: the span
    /// coordinates this client expects on the other end. In this mode
    /// `dim` and `theta0_crc` above describe the *span* (its length and
    /// the CRC of its slice of θ0), and the handshake is a
    /// [`MsgType::ClusterHello`] instead of a plain hello.
    pub cluster: Option<ClusterClientOpts>,
}

/// Span coordinates for a cluster-mode [`TcpWorkerTransport`].
#[derive(Debug, Clone)]
pub struct ClusterClientOpts {
    /// Span index `K` (0-based) the remote server must own.
    pub span_index: u32,
    /// Total span count `N` of the cluster.
    pub num_spans: u32,
    /// Hash of the encoded partition map both sides must share.
    pub layout_hash: u32,
    /// The encoded partition map this client derived locally; the ack's
    /// layout bytes must match exactly.
    pub expected_layout: Vec<u8>,
}

impl TcpOpts {
    /// Sensible defaults for localhost training runs.
    pub fn new(addr: impl Into<String>, worker: u16, dim: u64, theta0_crc: u32) -> Self {
        TcpOpts {
            addr: addr.into(),
            worker,
            dim,
            theta0_crc,
            read_timeout: Duration::from_millis(500),
            heartbeat_limit: 20,
            connect_attempts: 8,
            backoff_base: Duration::from_millis(50),
            cluster: None,
        }
    }
}

/// Blocking TCP implementation of [`Transport`].
pub struct TcpWorkerTransport {
    opts: TcpOpts,
    conn: Option<WireConn<TcpStream>>,
    /// Sequence of the last update sent (1-based; 0 = none yet).
    sent: u32,
    /// Sequence of the last reply applied locally.
    acked: u32,
    /// Counters carried over from connections that have been torn down.
    closed_stats: WireStats,
}

impl TcpWorkerTransport {
    /// Creates a transport; the first connection is made lazily.
    pub fn new(opts: TcpOpts) -> Self {
        TcpWorkerTransport {
            opts,
            conn: None,
            sent: 0,
            acked: 0,
            closed_stats: WireStats::default(),
        }
    }

    /// Connects (with backoff) and completes the handshake. Returns the
    /// server's applied-count for this worker.
    fn connect(&mut self) -> NetResult<u64> {
        let mut delay = self.opts.backoff_base;
        let mut last: Option<NetError> = None;
        for attempt in 0..self.opts.connect_attempts {
            if attempt > 0 {
                thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
            match self.try_connect() {
                Ok(applied) => return Ok(applied),
                // Handshake rejections are config errors; retrying cannot
                // fix a dim or θ0 mismatch.
                Err(e @ NetError::Handshake(_)) => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(NetError::Closed))
    }

    fn try_connect(&mut self) -> NetResult<u64> {
        let addr = self
            .opts
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Handshake(format!("cannot resolve {}", self.opts.addr)))?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(self.opts.read_timeout))?;
        stream.set_nodelay(true)?;
        let mut conn = WireConn::new(stream);
        if self.opts.cluster.is_some() {
            return self.cluster_handshake(conn);
        }
        conn.send_hello(
            MsgType::Hello,
            self.opts.worker,
            &Hello {
                dim: self.opts.dim,
                applied: u64::from(self.acked),
                theta0_crc: self.opts.theta0_crc,
            },
        )?;
        let ack = loop {
            match conn.read_event()? {
                Event::HelloAck { hello } => break hello,
                Event::Error { reason } => return Err(NetError::Handshake(reason)),
                other => {
                    return Err(NetError::Protocol(format!("expected hello ack, got {other:?}")))
                }
            }
        };
        if ack.dim != self.opts.dim {
            return Err(NetError::Handshake(format!(
                "dim mismatch: server {} vs worker {}",
                ack.dim, self.opts.dim
            )));
        }
        if ack.theta0_crc != self.opts.theta0_crc {
            return Err(NetError::Handshake(format!(
                "initial model mismatch: server θ0 crc {:#010x} vs worker {:#010x}",
                ack.theta0_crc, self.opts.theta0_crc
            )));
        }
        self.conn = Some(conn);
        Ok(ack.applied)
    }

    /// Cluster-mode handshake: send a [`MsgType::ClusterHello`] with our
    /// span coordinates and validate the echoed ack field-for-field,
    /// including the byte-exact partition map — after this, both sides
    /// provably slice θ at the same boundaries. The reconnect/resync
    /// semantics are untouched: `applied` counts flow exactly as in the
    /// plain handshake, just per span.
    fn cluster_handshake(&mut self, mut conn: WireConn<TcpStream>) -> NetResult<u64> {
        let Some(cluster) = self.opts.cluster.clone() else {
            return Err(NetError::Protocol("cluster handshake without cluster opts".to_string()));
        };
        conn.send_cluster_hello(
            MsgType::ClusterHello,
            self.opts.worker,
            &ClusterHello {
                span_index: cluster.span_index,
                num_spans: cluster.num_spans,
                layout_hash: cluster.layout_hash,
                dim: self.opts.dim,
                applied: u64::from(self.acked),
                span_crc: self.opts.theta0_crc,
            },
            &[],
        )?;
        let (ack, layout) = loop {
            match conn.read_event()? {
                Event::ClusterHelloAck { hello, layout } => break (hello, layout),
                Event::Error { reason } => return Err(NetError::Handshake(reason)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected cluster hello ack, got {other:?}"
                    )))
                }
            }
        };
        if (ack.span_index, ack.num_spans) != (cluster.span_index, cluster.num_spans) {
            return Err(NetError::Handshake(format!(
                "span mismatch: server is span {}/{}, client expects {}/{}",
                ack.span_index, ack.num_spans, cluster.span_index, cluster.num_spans
            )));
        }
        if ack.layout_hash != cluster.layout_hash || layout != cluster.expected_layout {
            return Err(NetError::Handshake(format!(
                "partition layout mismatch: server {:#010x} vs client {:#010x}",
                ack.layout_hash, cluster.layout_hash
            )));
        }
        if ack.dim != self.opts.dim {
            return Err(NetError::Handshake(format!(
                "span dim mismatch: server {} vs client {}",
                ack.dim, self.opts.dim
            )));
        }
        if ack.span_crc != self.opts.theta0_crc {
            return Err(NetError::Handshake(format!(
                "span θ0 mismatch: server crc {:#010x} vs client {:#010x}",
                ack.span_crc, self.opts.theta0_crc
            )));
        }
        self.conn = Some(conn);
        Ok(ack.applied)
    }

    /// Tears down the current connection, keeping its byte counters.
    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.closed_stats.merge(&conn.stats());
        }
    }

    /// Drops the live connection without telling the server — the next
    /// exchange reconnects and runs the handshake recovery path
    /// (retransmit or resync, depending on the server's applied count).
    /// Fault-injection hook for the reconnect/resync equivalence tests.
    pub fn force_reconnect(&mut self) {
        self.drop_conn();
    }

    /// Reads events until a data reply arrives, heartbeating through
    /// timeouts. `want_seq == None` accepts any reply (resync).
    fn await_reply(&mut self, want_seq: Option<u32>) -> NetResult<DownMsg> {
        let conn = self
            .conn
            .as_mut()
            .ok_or_else(|| NetError::Protocol("await_reply without a connection".to_string()))?;
        let worker = self.opts.worker;
        let mut unanswered = 0u32;
        loop {
            match conn.read_event() {
                Ok(Event::Reply { worker: w, seq, msg }) => {
                    if w != worker {
                        return Err(NetError::Protocol(format!(
                            "reply addressed to worker {w}, this is {worker}"
                        )));
                    }
                    if let Some(want) = want_seq {
                        if seq != want {
                            return Err(NetError::Protocol(format!(
                                "reply for seq {seq}, expected {want}"
                            )));
                        }
                    }
                    return Ok(msg);
                }
                Ok(Event::HeartbeatAck) => {
                    // The server is alive, just slow; reset the clock.
                    unanswered = 0;
                }
                Ok(Event::Error { reason }) => return Err(NetError::Remote(reason)),
                Ok(other) => {
                    return Err(NetError::Protocol(format!("expected reply, got {other:?}")))
                }
                Err(e) if e.is_timeout() => {
                    unanswered += 1;
                    if unanswered > self.opts.heartbeat_limit {
                        // Recoverable: exchange() reconnects and recovers.
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            format!("server unresponsive after {unanswered} heartbeats"),
                        )));
                    }
                    conn.send_control(MsgType::Heartbeat, worker)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends a resync request on the live connection and applies the
    /// dense-model reply.
    fn resync_on_conn(&mut self) -> NetResult<DownMsg> {
        let worker = self.opts.worker;
        let acked = self.acked;
        self.conn.as_mut().ok_or(NetError::Closed)?.send_resync(worker, acked)?;
        self.await_reply(None)
    }
}

impl Transport for TcpWorkerTransport {
    fn exchange(&mut self, up: &UpMsg) -> NetResult<DownMsg> {
        self.sent += 1;
        let seq = self.sent;
        let mut recoveries = 0u32;
        loop {
            if self.conn.is_none() {
                let server_applied = self.connect()?;
                if server_applied >= u64::from(seq) {
                    // The update landed but its reply died with the old
                    // connection; a resync both recovers the model and
                    // realigns the server's v_k with what we now hold.
                    let model = self.resync_on_conn()?;
                    self.acked = seq;
                    return Ok(model);
                }
            }
            let worker = self.opts.worker;
            // connect() just populated `conn` above; treat a gap as a
            // recoverable close rather than a panic.
            let send = match self.conn.as_mut() {
                Some(conn) => conn.send_update(worker, seq, up),
                None => Err(NetError::Closed),
            };
            let result = match send {
                Ok(()) => self.await_reply(Some(seq)),
                Err(e) => Err(e),
            };
            match result {
                Ok(reply) => {
                    self.acked = seq;
                    return Ok(reply);
                }
                Err(e) if e.is_recoverable() && recoveries < self.opts.connect_attempts => {
                    recoveries += 1;
                    self.drop_conn();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn resync(&mut self) -> NetResult<DownMsg> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let model = self.resync_on_conn()?;
        self.acked = self.sent;
        Ok(model)
    }

    fn shutdown(&mut self) -> NetResult<()> {
        if let Some(conn) = self.conn.as_mut() {
            let worker = self.opts.worker;
            conn.send_control(MsgType::Shutdown, worker)?;
            loop {
                match conn.read_event() {
                    Ok(Event::ShutdownAck) => break,
                    Ok(Event::HeartbeatAck) => continue,
                    Ok(other) => {
                        return Err(NetError::Protocol(format!(
                            "expected shutdown ack, got {other:?}"
                        )))
                    }
                    // The ack is a courtesy; a server that already exited
                    // still counts as a clean shutdown.
                    Err(NetError::Closed) => break,
                    Err(e) if e.is_timeout() => break,
                    Err(e) => return Err(e),
                }
            }
        }
        self.drop_conn();
        Ok(())
    }

    fn stats(&self) -> WireStats {
        let mut s = self.closed_stats.clone();
        if let Some(conn) = &self.conn {
            s.merge(&conn.stats());
        }
        s
    }
}

// ---------------------------------------------------------------------------
// server

/// Server-side options for [`serve_cluster`].
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Highest acceptable worker id + 1 (handshake bound).
    pub expected_workers: usize,
    /// Model dimensionality advertised in the handshake. For a span
    /// server this is the *span* length.
    pub dim: u64,
    /// CRC-32 of the initial model bytes (the span's slice of θ0 for a
    /// span server).
    pub theta0_crc: u32,
    /// Per-connection socket read timeout (idle poll cadence).
    pub read_timeout: Duration,
    /// Largest payload a connection will accept.
    pub max_payload: usize,
    /// Overall wall-clock budget; `None` waits forever. On expiry the
    /// server stops accepting, asks live connections to wind down, and
    /// returns an error.
    pub deadline: Option<Duration>,
    /// Number of graceful worker shutdowns that end the serve loop.
    /// Defaults to `expected_workers`; an edge aggregator listening for a
    /// worker *group* sets this to the group size while keeping
    /// `expected_workers` as the id bound.
    pub done_target: usize,
    /// When set, this process serves one span of a PS cluster: plain
    /// hellos are refused and cluster hellos are validated against these
    /// coordinates (see [`SpanOpts`]).
    pub span: Option<SpanOpts>,
}

/// Span-server identity for the cluster handshake. Kept to primitives
/// (plus the pre-encoded layout bytes) so the protocol layer never needs
/// to understand the partition map itself.
#[derive(Debug, Clone)]
pub struct SpanOpts {
    /// This server's span index `K` (0-based).
    pub index: u32,
    /// Total span count `N`.
    pub num_spans: u32,
    /// Hash of the encoded partition map.
    pub layout_hash: u32,
    /// The encoded partition map, appended verbatim to every ack.
    pub layout_bytes: Vec<u8>,
}

impl ServerOpts {
    /// Defaults for localhost training runs.
    pub fn new(expected_workers: usize, dim: u64, theta0_crc: u32) -> Self {
        ServerOpts {
            expected_workers,
            dim,
            theta0_crc,
            read_timeout: Duration::from_millis(200),
            max_payload: MAX_PAYLOAD,
            deadline: None,
            done_target: expected_workers,
            span: None,
        }
    }
}

/// Runs the accept loop until every expected worker has sent a graceful
/// shutdown. Updates go through the shared `handler` — a
/// `Mutex<LogicHandler<L>>` serializes a `&mut` logic through one lock, a
/// bare `LogicHandler<L>` over a `&self` logic (or the edge aggregator)
/// lets connection threads apply updates in parallel; see
/// [`crate::runtime::LogicHandler`]. Returns the aggregated server-side
/// byte counters.
pub fn serve_cluster<H: SharedUpdateHandler + 'static>(
    listener: TcpListener,
    handler: Arc<H>,
    opts: ServerOpts,
) -> NetResult<WireStats> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicUsize::new(0));
    let stats = Arc::new(Mutex::new(WireStats::default()));
    let started = Instant::now();
    let mut threads = Vec::new();
    let deadline_hit = loop {
        if done.load(Ordering::SeqCst) >= opts.done_target {
            break false;
        }
        if let Some(limit) = opts.deadline {
            if started.elapsed() > limit {
                break true;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                let done = Arc::clone(&done);
                let stats = Arc::clone(&stats);
                let opts = opts.clone();
                threads.push(thread::spawn(move || {
                    let conn_stats = serve_conn(stream, handler, &opts, &stop, &done);
                    // Counters are plain integers; a sibling thread's panic
                    // cannot leave them half-updated, so recover the lock.
                    stats.lock().unwrap_or_else(|e| e.into_inner()).merge(&conn_stats);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                stop.store(true, Ordering::SeqCst);
                for t in threads {
                    let _ = t.join();
                }
                return Err(NetError::Io(e));
            }
        }
    };
    stop.store(true, Ordering::SeqCst);
    for t in threads {
        let _ = t.join();
    }
    if deadline_hit {
        return Err(NetError::Protocol(format!(
            "deadline expired with {}/{} workers finished",
            done.load(Ordering::SeqCst),
            opts.done_target
        )));
    }
    let s = stats.lock().unwrap_or_else(|e| e.into_inner()).clone();
    Ok(s)
}

/// Serves one connection to completion. Returns its byte counters.
///
/// The protocol decisions all live in [`protocol_step`] — shared with the
/// evented backend — so this function is only the blocking I/O shell:
/// read a frame, step the state machine, write the frames it produced,
/// heartbeat-timeout housekeeping.
fn serve_conn<H: SharedUpdateHandler>(
    stream: TcpStream,
    handler: Arc<H>,
    opts: &ServerOpts,
    stop: &AtomicBool,
    done: &AtomicUsize,
) -> WireStats {
    if stream.set_read_timeout(Some(opts.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return WireStats::default();
    }
    let mut conn = WireConn::with_max_payload(stream, opts.max_payload);
    let mut phase = ConnPhase::Handshake;

    loop {
        match conn.read_event() {
            Ok(event) => {
                let step = protocol_step(&mut phase, event, handler.as_ref(), opts);
                // Failed sends close the connection; error frames are
                // best-effort (the peer may already be gone).
                let mut send_failed = false;
                for out in &step.send {
                    if conn.send_outgoing(out).is_err() {
                        send_failed = true;
                        break;
                    }
                }
                if step.done {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                if step.close || send_failed {
                    break;
                }
            }
            Err(e) if e.is_timeout() => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Closed or malformed: the worker may be reconnecting on a new
            // socket; this thread's job is done either way.
            Err(_) => break,
        }
    }
    conn.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{write_frame, HEADER_LEN};
    use crate::msg::{SparseUpdate, SparseVec, UpPayload};
    use crate::runtime::LogicHandler;
    use crate::transport::UpdateHandler;

    /// Same toy handler as the transport tests: dense reply tagging the
    /// per-worker apply count.
    struct ToyHandler {
        applied: Vec<u64>,
        resyncs: usize,
    }

    impl ToyHandler {
        fn shared(workers: usize) -> Arc<Mutex<LogicHandler<ToyHandler>>> {
            let toy = ToyHandler { applied: vec![0; workers], resyncs: 0 };
            Arc::new(Mutex::new(LogicHandler::new(toy, workers)))
        }
    }

    impl UpdateHandler for ToyHandler {
        fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
            self.applied[worker as usize] += 1;
            let tag = self.applied[worker as usize] as f32 + up.train_loss as f32;
            DownMsg::SparseDiff(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![u32::from(worker)], val: vec![tag] }],
            })
        }

        fn on_resync(&mut self, worker: u16) -> DownMsg {
            self.resyncs += 1;
            DownMsg::DenseModel(std::sync::Arc::new(vec![f32::from(worker); 3]))
        }
    }

    const DIM: u64 = 3;
    const CRC: u32 = 0x1234_5678;

    fn spawn_server(
        workers: usize,
    ) -> (String, Arc<Mutex<LogicHandler<ToyHandler>>>, thread::JoinHandle<NetResult<WireStats>>)
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handler = ToyHandler::shared(workers);
        let h = Arc::clone(&handler);
        let mut opts = ServerOpts::new(workers, DIM, CRC);
        opts.read_timeout = Duration::from_millis(50);
        opts.deadline = Some(Duration::from_secs(30));
        let join = thread::spawn(move || serve_cluster(listener, h, opts));
        (addr, handler, join)
    }

    fn worker_opts(addr: &str, worker: u16) -> TcpOpts {
        let mut o = TcpOpts::new(addr, worker, DIM, CRC);
        o.read_timeout = Duration::from_millis(100);
        o.backoff_base = Duration::from_millis(20);
        o
    }

    fn up(loss: f64) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![1], val: vec![2.0] }],
            }),
            train_loss: loss,
        }
    }

    #[test]
    fn two_workers_exchange_and_shutdown() {
        let (addr, handler, join) = spawn_server(2);
        let mut joins = Vec::new();
        for w in 0..2u16 {
            let addr = addr.clone();
            joins.push(thread::spawn(move || {
                let mut t = TcpWorkerTransport::new(worker_opts(&addr, w));
                let mut up_bytes = 0u64;
                let mut down_bytes = 0u64;
                for i in 1..=5 {
                    let msg = up(i as f64);
                    up_bytes += msg.wire_bytes() as u64;
                    let reply = t.exchange(&msg).unwrap();
                    down_bytes += reply.wire_bytes() as u64;
                    match reply {
                        DownMsg::SparseDiff(s) => {
                            assert_eq!(s.chunks[0].idx, vec![u32::from(w)]);
                            assert_eq!(s.chunks[0].val, vec![i as f32 + i as f32]);
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
                t.shutdown().unwrap();
                let s = t.stats();
                assert_eq!(s.data_up, up_bytes, "worker {w} uplink accounting");
                assert_eq!(s.data_down, down_bytes, "worker {w} downlink accounting");
                (up_bytes, down_bytes)
            }));
        }
        let mut total_up = 0;
        let mut total_down = 0;
        for j in joins {
            let (u, d) = j.join().unwrap();
            total_up += u;
            total_down += d;
        }
        let server_stats = join.join().unwrap().unwrap();
        assert_eq!(server_stats.data_up, total_up, "server uplink == sum of worker uplinks");
        assert_eq!(server_stats.data_down, total_down);
        assert_eq!(server_stats.frames_up, 10);
        let h = handler.lock().unwrap();
        let h = h.logic();
        assert_eq!(h.applied, vec![5, 5]);
        assert_eq!(h.resyncs, 0);
    }

    #[test]
    fn worker_retries_until_server_appears() {
        // Bind the address, but only start serving after a delay longer
        // than the first backoff — the worker's retry loop must cover it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handler = ToyHandler::shared(1);
        let h = Arc::clone(&handler);
        let join = thread::spawn(move || {
            thread::sleep(Duration::from_millis(150));
            let mut opts = ServerOpts::new(1, DIM, CRC);
            opts.read_timeout = Duration::from_millis(50);
            opts.deadline = Some(Duration::from_secs(30));
            serve_cluster(listener, h, opts)
        });
        let mut t = TcpWorkerTransport::new(worker_opts(&addr, 0));
        t.exchange(&up(1.0)).unwrap();
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
        assert_eq!(handler.lock().unwrap().logic().applied, vec![1]);
    }

    #[test]
    fn handshake_rejects_config_drift() {
        let (addr, _handler, join) = spawn_server(1);
        // Wrong dim.
        let mut bad_dim = worker_opts(&addr, 0);
        bad_dim.dim = DIM + 1;
        let err = TcpWorkerTransport::new(bad_dim).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // Wrong θ0 checksum.
        let mut bad_crc = worker_opts(&addr, 0);
        bad_crc.theta0_crc = CRC ^ 1;
        let err = TcpWorkerTransport::new(bad_crc).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // Unknown worker id.
        let err = TcpWorkerTransport::new(worker_opts(&addr, 7)).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // Let the server finish: run the real worker to completion.
        let mut ok = TcpWorkerTransport::new(worker_opts(&addr, 0));
        ok.exchange(&up(0.0)).unwrap();
        ok.shutdown().unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn duplicate_update_resyncs_instead_of_double_apply() {
        let (addr, handler, join) = spawn_server(1);
        // Hand-rolled client so we can replay a sequence number.
        let mut conn = {
            let stream = TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            WireConn::new(stream)
        };
        conn.send_hello(MsgType::Hello, 0, &Hello { dim: DIM, applied: 0, theta0_crc: CRC })
            .unwrap();
        assert!(matches!(conn.read_event().unwrap(), Event::HelloAck { .. }));
        conn.send_update(0, 1, &up(1.0)).unwrap();
        assert!(matches!(conn.read_event().unwrap(), Event::Reply { .. }));
        // Replay seq 1 — as if our first reply had been lost and we
        // retransmitted. Must NOT apply twice; must answer with a resync.
        conn.send_update(0, 1, &up(1.0)).unwrap();
        match conn.read_event().unwrap() {
            Event::Reply { msg: DownMsg::DenseModel(m), .. } => assert_eq!(m.len(), 3),
            other => panic!("expected dense resync reply, got {other:?}"),
        }
        {
            let h = handler.lock().unwrap();
            let h = h.logic();
            assert_eq!(h.applied, vec![1], "duplicate must not re-apply");
            assert_eq!(h.resyncs, 1);
        }
        // A sequence gap is a hard protocol error.
        conn.send_update(0, 5, &up(1.0)).unwrap();
        match conn.read_event().unwrap() {
            Event::Error { reason } => assert!(reason.contains("gap"), "{reason}"),
            other => panic!("expected error frame, got {other:?}"),
        }
        // That connection is dead; finish the run on a fresh one.
        let mut t = TcpWorkerTransport::new(worker_opts(&addr, 0));
        // Server already applied seq 1; the fresh transport learns that
        // from the handshake and recovers with a resync (dense model).
        match t.exchange(&up(9.0)).unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(m.len(), 3),
            other => panic!("expected resync dense model, got {other:?}"),
        }
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn reconnect_recovers_when_reply_lost() {
        let (addr, handler, join) = spawn_server(1);
        // First connection: apply seq 1, then vanish without reading the
        // state into a transport — simulating a crash after the server
        // applied but before the worker processed the reply.
        {
            let stream = TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut conn = WireConn::new(stream);
            conn.send_hello(MsgType::Hello, 0, &Hello { dim: DIM, applied: 0, theta0_crc: CRC })
                .unwrap();
            assert!(matches!(conn.read_event().unwrap(), Event::HelloAck { .. }));
            conn.send_update(0, 1, &up(1.0)).unwrap();
            assert!(matches!(conn.read_event().unwrap(), Event::Reply { .. }));
            // Connection dropped here.
        }
        // Fresh transport believes nothing was ever sent. Its handshake
        // learns the server applied 1 already; sending seq 1 again would
        // be a duplicate, which the server converts to a resync — either
        // way the model state converges and nothing is applied twice.
        let mut t = TcpWorkerTransport::new(worker_opts(&addr, 0));
        match t.exchange(&up(2.0)).unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(m.len(), 3),
            other => panic!("expected dense recovery, got {other:?}"),
        }
        // Next update proceeds normally as seq 2.
        match t.exchange(&up(3.0)).unwrap() {
            DownMsg::SparseDiff(s) => assert_eq!(s.chunks[0].val, vec![2.0 + 3.0]),
            other => panic!("expected sparse reply, got {other:?}"),
        }
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
        let h = handler.lock().unwrap();
        let h = h.logic();
        assert_eq!(h.applied, vec![2]);
    }

    #[test]
    fn span_server_handshake_accepts_matching_coordinates_only() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handler = ToyHandler::shared(1);
        let h = Arc::clone(&handler);
        let layout = vec![9u8, 8, 7, 6];
        let mut opts = ServerOpts::new(1, DIM, CRC);
        opts.read_timeout = Duration::from_millis(50);
        opts.deadline = Some(Duration::from_secs(30));
        opts.span = Some(SpanOpts {
            index: 1,
            num_spans: 3,
            layout_hash: 0xBEEF,
            layout_bytes: layout.clone(),
        });
        let join = thread::spawn(move || serve_cluster(listener, h, opts));

        let cluster = |hash: u32, expect: Vec<u8>| ClusterClientOpts {
            span_index: 1,
            num_spans: 3,
            layout_hash: hash,
            expected_layout: expect,
        };

        // A plain hello is refused by a span server.
        let err = TcpWorkerTransport::new(worker_opts(&addr, 0)).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // A diverged partition layout hash is refused.
        let mut bad = worker_opts(&addr, 0);
        bad.cluster = Some(cluster(0xDEAD, layout.clone()));
        let err = TcpWorkerTransport::new(bad).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // Matching coordinates: the full exchange works and the ack's
        // layout bytes equal the client's expectation byte-for-byte.
        let mut good = worker_opts(&addr, 0);
        good.cluster = Some(cluster(0xBEEF, layout));
        let mut t = TcpWorkerTransport::new(good);
        t.exchange(&up(1.0)).unwrap();
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
        assert_eq!(handler.lock().unwrap().logic().applied, vec![1]);
    }

    #[test]
    fn plain_server_refuses_cluster_hello() {
        let (addr, _handler, join) = spawn_server(1);
        let mut bad = worker_opts(&addr, 0);
        bad.cluster = Some(ClusterClientOpts {
            span_index: 0,
            num_spans: 2,
            layout_hash: 1,
            expected_layout: Vec::new(),
        });
        let err = TcpWorkerTransport::new(bad).exchange(&up(0.0)).unwrap_err();
        assert!(matches!(err, NetError::Handshake(_)), "{err}");
        // Finish the run so the server exits.
        let mut ok = TcpWorkerTransport::new(worker_opts(&addr, 0));
        ok.exchange(&up(0.0)).unwrap();
        ok.shutdown().unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn garbage_on_the_wire_does_not_kill_the_server() {
        let (addr, _handler, join) = spawn_server(1);
        // Raw garbage instead of a handshake.
        {
            use std::io::Write;
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        }
        // A frame with a forged huge length.
        {
            use std::io::Write;
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut frame = Vec::new();
            write_frame(&mut frame, MsgType::Hello, 0, 0, &[0u8; HEADER_LEN]).unwrap();
            frame[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
            stream.write_all(&frame).unwrap();
        }
        // The server shrugs both off and still serves a real worker.
        let mut t = TcpWorkerTransport::new(worker_opts(&addr, 0));
        t.exchange(&up(1.0)).unwrap();
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
    }
}
