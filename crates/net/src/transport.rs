//! Transport abstraction: how a worker exchanges update/reply pairs with
//! the server.
//!
//! Two implementations ship with the crate:
//!
//! * [`Loopback`] — in-process, but *not* a shortcut: every message is
//!   encoded to bytes, pushed through a [`ByteQueue`], and decoded on the
//!   other side, so the full codec path is exercised. The differential
//!   test in `tests/transport_equivalence.rs` relies on this to prove the
//!   wire format is lossless (bit-identical models vs the direct-struct
//!   trainer).
//! * [`crate::tcp::TcpWorkerTransport`] — real sockets across processes.
//!
//! [`WireConn`] is the shared send/receive engine over any
//! `Read + Write` stream; both transports and the TCP server use it, so
//! byte accounting is defined in exactly one place.

use crate::codec::{
    decode_down, decode_up, down_msg_type, encode_down_frame_into, encode_up_frame_into,
    up_msg_type, ClusterHello, Hello,
};
use crate::conn::{protocol_step, ConnPhase, Outgoing};
use crate::error::{NetError, NetResult};
use crate::frame::{encode_frame_into, read_frame_into, FrameHeader, MsgType, HEADER_LEN};
use crate::msg::{DownMsg, UpMsg};
use crate::tcp::ServerOpts;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Hard ceiling on a single payload this endpoint will accept. Models in
/// this codebase are a few MB dense; 256 MiB leaves room for growth while
/// still rejecting forged multi-GiB lengths before allocation.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// Which aggregation tier a per-link byte counter belongs to. `Root` is
/// traffic with a root (span) server; `Edge` is member traffic with an
/// edge aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Link to a root span server.
    Root,
    /// Link between a worker-group member and its edge aggregator.
    Edge,
}

/// Data-byte counters for one link, keyed by aggregation tier and span
/// index (0 for the single-span / edge-member case). Cluster transports
/// and the edge aggregator populate these so the byte-counter equality
/// proofs extend per tier; single-server paths leave the list empty,
/// keeping the existing exact-equality assertions untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Aggregation tier of the link.
    pub tier: Tier,
    /// Span index the link talks to (0 when spans don't apply).
    pub span: u16,
    /// Data bytes sent toward the server on this link.
    pub uplink_bytes: u64,
    /// Data bytes received from the server on this link.
    pub downlink_bytes: u64,
}

/// Byte counters, split the same way the simulator's accounting is:
/// data frames (training payloads, header included — frame length equals
/// `wire_bytes()` by construction) vs control frames (handshake,
/// heartbeats, shutdown, errors), which the simulator does not model.
///
/// `PartialEq` stays exact over every counter — including the per-link
/// breakdown — so "two runs produced the same stats" means byte-for-byte,
/// link-for-link equality.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes of worker→server data frames (updates, resync requests).
    pub data_up: u64,
    /// Bytes of server→worker data frames (model replies).
    pub data_down: u64,
    /// Bytes of control frames, both directions.
    pub control: u64,
    /// Number of data frames counted into `data_up`.
    pub frames_up: u64,
    /// Number of data frames counted into `data_down`.
    pub frames_down: u64,
    /// Serve-side only: connections refused because the server's
    /// `--max-conns` budget was full (each got an explicit error frame —
    /// whose bytes land in `control` — before the close). Always zero on
    /// worker-side counters, so clean-run equality checks are unaffected.
    pub rejected_conns: u64,
    /// Per-tier/per-span data-byte breakdown (see [`LinkStats`]). Empty
    /// everywhere except cluster/edge endpoints, sorted by `(tier, span)`.
    pub links: Vec<LinkStats>,
}

impl WireStats {
    /// Folds a frame of `bytes` length into the right counter.
    pub fn record(&mut self, msg_type: MsgType, bytes: usize) {
        if msg_type.is_data() {
            if msg_type.is_up() {
                self.data_up += bytes as u64;
                self.frames_up += 1;
            } else {
                self.data_down += bytes as u64;
                self.frames_down += 1;
            }
        } else {
            self.control += bytes as u64;
        }
    }

    /// Accumulates data bytes onto the `(tier, span)` link, inserting it
    /// (sorted) on first use.
    pub fn add_link(&mut self, tier: Tier, span: u16, uplink_bytes: u64, downlink_bytes: u64) {
        match self.links.binary_search_by_key(&(tier, span), |l| (l.tier, l.span)) {
            Ok(i) => {
                self.links[i].uplink_bytes += uplink_bytes;
                self.links[i].downlink_bytes += downlink_bytes;
            }
            Err(i) => {
                self.links.insert(i, LinkStats { tier, span, uplink_bytes, downlink_bytes });
            }
        }
    }

    /// Looks up the `(tier, span)` link, if any traffic was recorded on it.
    pub fn link(&self, tier: Tier, span: u16) -> Option<&LinkStats> {
        self.links
            .binary_search_by_key(&(tier, span), |l| (l.tier, l.span))
            .ok()
            .map(|i| &self.links[i])
    }

    /// Sums another endpoint's counters into this one, link-wise for the
    /// per-tier breakdown.
    pub fn merge(&mut self, other: &WireStats) {
        self.data_up += other.data_up;
        self.data_down += other.data_down;
        self.control += other.control;
        self.frames_up += other.frames_up;
        self.frames_down += other.frames_down;
        self.rejected_conns += other.rejected_conns;
        for l in &other.links {
            self.add_link(l.tier, l.span, l.uplink_bytes, l.downlink_bytes);
        }
    }
}

/// A fully decoded incoming frame.
#[derive(Debug)]
pub enum Event {
    /// Worker `worker` sent training update `seq`.
    Update {
        /// Sending worker id.
        worker: u16,
        /// 1-based per-worker sequence number.
        seq: u32,
        /// Decoded update.
        msg: Box<UpMsg>,
    },
    /// Server replied to update `seq`.
    Reply {
        /// Addressed worker id.
        worker: u16,
        /// Sequence of the update this answers.
        seq: u32,
        /// Decoded reply.
        msg: DownMsg,
    },
    /// Worker asks for a full-model resynchronisation (reply was lost).
    Resync {
        /// Requesting worker id.
        worker: u16,
        /// Worker's current applied count, echoed for logging.
        seq: u32,
    },
    /// Handshake opener from a worker.
    Hello {
        /// Connecting worker id.
        worker: u16,
        /// Negotiation payload.
        hello: Hello,
    },
    /// Handshake answer from the server.
    HelloAck {
        /// Server's negotiation payload.
        hello: Hello,
    },
    /// Cluster handshake opener from a cluster-aware worker.
    ClusterHello {
        /// Connecting worker id.
        worker: u16,
        /// Span negotiation payload.
        hello: ClusterHello,
    },
    /// Cluster handshake answer from a span server.
    ClusterHelloAck {
        /// Span server's negotiation payload.
        hello: ClusterHello,
        /// Encoded partition map (`ClusterLayout::encode`).
        layout: Vec<u8>,
    },
    /// Liveness probe.
    Heartbeat {
        /// Probing worker id.
        worker: u16,
    },
    /// Liveness answer.
    HeartbeatAck,
    /// Graceful end-of-run from a worker.
    Shutdown {
        /// Departing worker id.
        worker: u16,
    },
    /// Server acknowledged the shutdown; the connection may close.
    ShutdownAck,
    /// Peer reported a fatal condition.
    Error {
        /// Peer's reason string.
        reason: String,
    },
}

/// Framed connection over any byte stream. Owns the per-endpoint
/// [`WireStats`]; every send and receive is counted here and nowhere else.
///
/// One connection-local buffer carries every frame in both directions: a
/// send encodes the frame in it (header placeholder, body, header patched
/// in — see [`crate::frame::begin_frame`]) and writes it out in a single
/// `write_all`; a receive reads the payload into it and decodes from
/// there. The protocol on a blocking connection is strictly one frame at a
/// time, so the two never overlap, and after the first few frames the
/// buffer has grown to the connection's largest frame: the steady state
/// allocates nothing and copies each byte once.
pub struct WireConn<S> {
    stream: S,
    stats: WireStats,
    max_payload: usize,
    /// The frame being sent, or the payload being received.
    frame: Vec<u8>,
}

impl<S: Read + Write> WireConn<S> {
    /// Wraps a stream with the default payload ceiling.
    pub fn new(stream: S) -> Self {
        Self::with_max_payload(stream, MAX_PAYLOAD)
    }

    /// Wraps a stream with an explicit payload ceiling (tests use small
    /// caps to exercise the oversize rejection).
    pub fn with_max_payload(stream: S, max_payload: usize) -> Self {
        WireConn { stream, stats: WireStats::default(), max_payload, frame: Vec::new() }
    }

    /// Byte counters accumulated so far.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// The wrapped stream (for socket configuration: timeouts, nodelay).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Writes out the frame encoded in `self.frame` and counts it — the
    /// only place this endpoint's sent bytes are accounted. One `write_all`,
    /// so a frame is never split across two syscalls by this layer.
    fn write_out(&mut self, ty: MsgType) -> NetResult<()> {
        self.stream.write_all(&self.frame)?;
        self.stream.flush()?;
        self.stats.record(ty, self.frame.len());
        Ok(())
    }

    /// Frames an already-encoded (control) payload and sends it.
    fn send(&mut self, ty: MsgType, worker: u16, seq: u32, payload: &[u8]) -> NetResult<()> {
        encode_frame_into(&mut self.frame, ty, worker, seq, payload)?;
        self.write_out(ty)
    }

    /// Sends a worker→server update. The frame length is `msg.wire_bytes()`.
    pub fn send_update(&mut self, worker: u16, seq: u32, msg: &UpMsg) -> NetResult<()> {
        encode_up_frame_into(&mut self.frame, worker, seq, msg)?;
        self.write_out(up_msg_type(&msg.payload))
    }

    /// Sends a server→worker reply. The frame length is `msg.wire_bytes()`.
    pub fn send_reply(&mut self, worker: u16, seq: u32, msg: &DownMsg) -> NetResult<()> {
        encode_down_frame_into(&mut self.frame, worker, seq, msg)?;
        self.write_out(down_msg_type(msg))
    }

    /// Sends a resync request (control traffic — its dense-model reply is
    /// what shows up in the data counters).
    pub fn send_resync(&mut self, worker: u16, applied: u32) -> NetResult<()> {
        self.send(MsgType::Resync, worker, applied, &[])
    }

    /// Sends a control frame with a [`Hello`] payload.
    pub fn send_hello(&mut self, ty: MsgType, worker: u16, hello: &Hello) -> NetResult<()> {
        debug_assert!(matches!(ty, MsgType::Hello | MsgType::HelloAck));
        self.send(ty, worker, 0, &hello.encode())
    }

    /// Sends a control frame with a [`ClusterHello`] payload. `layout` is
    /// empty on the worker hello and the encoded partition map on the ack.
    pub fn send_cluster_hello(
        &mut self,
        ty: MsgType,
        worker: u16,
        hello: &ClusterHello,
        layout: &[u8],
    ) -> NetResult<()> {
        debug_assert!(matches!(ty, MsgType::ClusterHello | MsgType::ClusterHelloAck));
        self.send(ty, worker, 0, &hello.encode(layout))
    }

    /// Sends an empty-payload control frame (heartbeats, shutdown).
    pub fn send_control(&mut self, ty: MsgType, worker: u16) -> NetResult<()> {
        debug_assert!(
            !ty.is_data()
                && !matches!(
                    ty,
                    MsgType::Hello
                        | MsgType::HelloAck
                        | MsgType::ClusterHello
                        | MsgType::ClusterHelloAck
                )
        );
        self.send(ty, worker, 0, &[])
    }

    /// Sends an error frame with a UTF-8 reason.
    pub fn send_error(&mut self, worker: u16, reason: &str) -> NetResult<()> {
        self.send(MsgType::Error, worker, 0, reason.as_bytes())
    }

    /// Maps one protocol-level [`Outgoing`] onto the blocking send path. The
    /// bytes (and therefore the [`WireStats`] counters) are identical to what
    /// the evented backend's queue encodes for the same `Outgoing`.
    pub(crate) fn send_outgoing(&mut self, out: &Outgoing) -> NetResult<()> {
        match out {
            Outgoing::HelloAck { worker, hello } => {
                self.send_hello(MsgType::HelloAck, *worker, hello)
            }
            Outgoing::ClusterHelloAck { worker, hello, layout } => {
                self.send_cluster_hello(MsgType::ClusterHelloAck, *worker, hello, layout)
            }
            Outgoing::Reply { worker, seq, msg } => self.send_reply(*worker, *seq, msg),
            Outgoing::Control { ty, worker } => self.send_control(*ty, *worker),
            Outgoing::Error { worker, reason } => self.send_error(*worker, reason),
        }
    }

    /// Reads and fully decodes the next frame.
    pub fn read_event(&mut self) -> NetResult<Event> {
        let header = read_frame_into(&mut self.stream, self.max_payload, &mut self.frame)?;
        self.stats.record(header.msg_type, HEADER_LEN + self.frame.len());
        decode_event(header, &self.frame)
    }
}

/// Classifies a decoded frame into an [`Event`]. Shared with the evented
/// server's connection state machine (`conn.rs`), which decodes frames
/// incrementally instead of through [`WireConn::read_event`].
pub(crate) fn decode_event(header: FrameHeader, payload: &[u8]) -> NetResult<Event> {
    let FrameHeader { msg_type, worker, seq, .. } = header;
    Ok(match msg_type {
        MsgType::UpDense | MsgType::UpSparse | MsgType::UpTernary => {
            Event::Update { worker, seq, msg: Box::new(decode_up(msg_type, payload)?) }
        }
        MsgType::DownDense | MsgType::DownSparse => {
            Event::Reply { worker, seq, msg: decode_down(msg_type, payload)? }
        }
        MsgType::Resync => {
            expect_empty(payload, "resync")?;
            Event::Resync { worker, seq }
        }
        MsgType::Hello => Event::Hello { worker, hello: Hello::decode(payload)? },
        MsgType::HelloAck => Event::HelloAck { hello: Hello::decode(payload)? },
        MsgType::ClusterHello => {
            let (hello, layout) = ClusterHello::decode(payload)?;
            if !layout.is_empty() {
                return Err(NetError::Malformed("layout bytes on a worker cluster hello"));
            }
            Event::ClusterHello { worker, hello }
        }
        MsgType::ClusterHelloAck => {
            let (hello, layout) = ClusterHello::decode(payload)?;
            Event::ClusterHelloAck { hello, layout }
        }
        MsgType::Heartbeat => {
            expect_empty(payload, "heartbeat")?;
            Event::Heartbeat { worker }
        }
        MsgType::HeartbeatAck => {
            expect_empty(payload, "heartbeat ack")?;
            Event::HeartbeatAck
        }
        MsgType::Shutdown => {
            expect_empty(payload, "shutdown")?;
            Event::Shutdown { worker }
        }
        MsgType::ShutdownAck => {
            expect_empty(payload, "shutdown ack")?;
            Event::ShutdownAck
        }
        MsgType::Error => Event::Error {
            reason: std::str::from_utf8(payload)
                .map_err(|_| NetError::Malformed("error frame not utf-8"))?
                .to_owned(),
        },
    })
}

fn expect_empty(payload: &[u8], what: &'static str) -> NetResult<()> {
    if payload.is_empty() {
        Ok(())
    } else {
        Err(NetError::Malformed(what))
    }
}

/// How a worker talks to the server, independent of the medium. The
/// contract is synchronous request/reply — exactly the shape of the DGS
/// training loop (send update, wait for the model reply, step again).
pub trait Transport {
    /// Sends one training update and blocks until the matching reply.
    fn exchange(&mut self, up: &UpMsg) -> NetResult<DownMsg>;

    /// Requests a full-model resynchronisation.
    fn resync(&mut self) -> NetResult<DownMsg>;

    /// Announces a graceful end-of-run and waits for the acknowledgement.
    fn shutdown(&mut self) -> NetResult<()>;

    /// Worker-side byte counters.
    fn stats(&self) -> WireStats;
}

// ---------------------------------------------------------------------------
// loopback

/// Shared in-memory byte pipe; the loopback stand-in for a socket buffer.
#[derive(Clone, Default)]
pub struct ByteQueue(Arc<Mutex<VecDeque<u8>>>);

impl ByteQueue {
    /// Bytes currently queued. A poisoned lock just means a peer thread
    /// panicked mid-push; plain bytes cannot be left half-written, so
    /// recover the queue instead of propagating the panic.
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Read for ByteQueue {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut q = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if q.is_empty() {
            // An empty queue behaves like a socket read timeout: the
            // loopback driver always writes a full frame before reading,
            // so hitting this means a protocol bug, not a race.
            return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "loopback empty"));
        }
        let n = buf.len().min(q.len());
        for (slot, b) in buf.iter_mut().zip(q.drain(..n)) {
            *slot = b;
        }
        Ok(n)
    }
}

impl Write for ByteQueue {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend(buf.iter().copied());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One endpoint of a loopback pair: reads from one queue, writes to the
/// other.
pub struct LoopbackStream {
    rx: ByteQueue,
    tx: ByteQueue,
}

impl Read for LoopbackStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for LoopbackStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.tx.flush()
    }
}

/// Builds a crossed pair of in-memory streams (a "socket" and its peer).
pub fn loopback_pair() -> (LoopbackStream, LoopbackStream) {
    let a = ByteQueue::default();
    let b = ByteQueue::default();
    (LoopbackStream { rx: a.clone(), tx: b.clone() }, LoopbackStream { rx: b, tx: a })
}

/// Server-side update handler: the seam between the transport layer and
/// the training logic. `dgs-net` itself has no opinion about what happens
/// to an update; the server logics plug in here (`AsyncServerLogic`, a span
/// server's `MdtServer`, and — through `&self` — `ShardedServerLogic`).
/// Sequencing is *not* the handler's business: `runtime::LogicHandler`
/// keeps the per-worker applied counts and runs every update through
/// [`sequenced_apply`].
pub trait UpdateHandler {
    /// Processes one in-order update from `worker` and produces the reply.
    fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg;

    /// Produces a full-model recovery reply for `worker` and resets the
    /// server's tracking state for it (v_k ← M, pending cleared).
    fn on_resync(&mut self, worker: u16) -> DownMsg;
}

/// Reason string sent to peers when the server's training state can no
/// longer be trusted (a handler thread panicked mid-apply).
pub const POISONED_REASON: &str = "server training state poisoned";

/// Outcome of delivering one update frame through the sequence check.
#[derive(Debug)]
pub enum Sequenced {
    /// `seq == applied + 1`: the update was applied; here is its reply.
    Applied(DownMsg),
    /// `seq <= applied`: a retransmit of an update already folded in (its
    /// reply was lost). Applying again would corrupt the model, so the
    /// handler answered with a resync reply instead.
    Duplicate(DownMsg),
    /// `seq > applied + 1`: a hard protocol error; the connection must be
    /// torn down. Carries the applied count for the error message.
    Gap {
        /// Updates actually folded in for this worker.
        applied: u64,
    },
}

/// Runs `f` with the wire path's panic containment: a panicking apply
/// surfaces as the poisoned reason (an error frame for the peer), never as
/// an unwind through a connection thread.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, &'static str> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| POISONED_REASON)
}

/// The one sequence rule of the protocol. `applied` is the worker's count
/// of completed applies, and the caller must hold whatever lock guards it
/// across this call, so the decision is atomic with the apply:
///
/// * `seq == applied + 1` — apply, then publish `applied + 1`. The count
///   moves only *after* the apply returned, so a reconnect handshake can
///   never see an update that is still in flight (or that panicked).
/// * `seq <= applied` — a retransmit whose reply was lost: answer with a
///   resync instead of folding the update in twice.
/// * `seq > applied + 1` — a gap: report how far the server actually got.
///
/// A panic inside the handler is [`contain`]ed.
pub(crate) fn sequenced_apply<H: UpdateHandler + ?Sized>(
    handler: &mut H,
    applied: &mut u64,
    worker: u16,
    seq: u32,
    up: UpMsg,
) -> Result<Sequenced, &'static str> {
    let (seq, done) = (u64::from(seq), *applied);
    if seq > done + 1 {
        return Ok(Sequenced::Gap { applied: done });
    }
    if seq <= done {
        return contain(|| handler.on_resync(worker)).map(Sequenced::Duplicate);
    }
    let reply = contain(|| handler.on_update(worker, up))?;
    *applied = done + 1;
    Ok(Sequenced::Applied(reply))
}

/// Concurrent server-side handler: the seam every server loop drives —
/// both TCP backends and [`Loopback`]. It takes `&self`, so implementations
/// choose their own locking: `runtime::LogicHandler` behind one `Mutex`
/// for `&mut` logics, bare (one small lock per worker) over the lock-striped
/// logic, where connection threads for different workers proceed in
/// parallel; the edge aggregator brings its own round barrier.
///
/// The sequence check lives *inside* [`Self::handle_sequenced`] so the
/// duplicate/gap decision is atomic with the apply. Errors are reason
/// strings for the peer (an `Error` frame), never panics.
pub trait SharedUpdateHandler: Send + Sync {
    /// Checks `seq` against the worker's applied count and, when in
    /// order, applies the update.
    fn handle_sequenced(&self, worker: u16, seq: u32, up: UpMsg)
        -> Result<Sequenced, &'static str>;

    /// Produces a full-model recovery reply for `worker` and resets the
    /// server's tracking state for it.
    fn handle_resync(&self, worker: u16) -> Result<DownMsg, &'static str>;

    /// Number of updates from `worker` folded into the model so far.
    fn applied(&self, worker: u16) -> Result<u64, &'static str>;
}

/// In-process transport that still round-trips every byte through the
/// codec: update frames are written into one [`ByteQueue`], decoded on the
/// "server" side, dispatched through the same [`SharedUpdateHandler`] seam
/// the TCP servers drive, and the reply frames travel back through the
/// other queue. The handler is shared (`Arc`) so one server logic can serve
/// a per-worker transport per training participant, exactly like the TCP
/// server shares its logic across connections.
pub struct Loopback<H: SharedUpdateHandler> {
    worker: u16,
    seq: u32,
    worker_conn: WireConn<LoopbackStream>,
    server_conn: WireConn<LoopbackStream>,
    handler: Arc<H>,
}

impl<H: SharedUpdateHandler> Loopback<H> {
    /// Builds a loopback transport for `worker` over the shared `handler`.
    pub fn new(worker: u16, handler: Arc<H>) -> Self {
        let (worker_side, server_side) = loopback_pair();
        Loopback {
            worker,
            seq: 0,
            worker_conn: WireConn::new(worker_side),
            server_conn: WireConn::new(server_side),
            handler,
        }
    }

    /// Server-side byte counters (the worker side is [`Transport::stats`]).
    pub fn server_stats(&self) -> WireStats {
        self.server_conn.stats()
    }

    /// Pumps one frame through the server side of a running connection —
    /// the TCP servers' `conn::protocol_step`, which never reads its options
    /// past the handshake — and pushes the frames it produced back. A
    /// refusal is a protocol error instead of an error frame: there is no
    /// peer process to tell.
    fn serve_one(&mut self) -> NetResult<()> {
        let event = self.server_conn.read_event()?;
        let mut phase = ConnPhase::Running { worker: self.worker };
        let opts = ServerOpts::new(0, 0, 0);
        let step = protocol_step(&mut phase, event, self.handler.as_ref(), &opts);
        for out in &step.send {
            if let Outgoing::Error { reason, .. } = out {
                return Err(NetError::Protocol(reason.clone()));
            }
            self.server_conn.send_outgoing(out)?;
        }
        Ok(())
    }

    /// Reads the worker-side reply; `want_seq == None` accepts any
    /// sequence (resync), as `TcpWorkerTransport::await_reply` does.
    fn take_reply(&mut self, want_seq: Option<u32>) -> NetResult<DownMsg> {
        match self.worker_conn.read_event()? {
            Event::Reply { worker, seq, msg } => {
                if worker != self.worker || want_seq.is_some_and(|want| seq != want) {
                    return Err(NetError::Protocol(format!(
                        "loopback reply routing: got worker {worker} seq {seq}, \
                         want {} {want_seq:?}",
                        self.worker
                    )));
                }
                Ok(msg)
            }
            other => Err(NetError::Protocol(format!("expected reply, got {other:?}"))),
        }
    }
}

impl<H: SharedUpdateHandler> Transport for Loopback<H> {
    fn exchange(&mut self, up: &UpMsg) -> NetResult<DownMsg> {
        self.seq += 1;
        self.worker_conn.send_update(self.worker, self.seq, up)?;
        self.serve_one()?;
        self.take_reply(Some(self.seq))
    }

    fn resync(&mut self) -> NetResult<DownMsg> {
        self.worker_conn.send_resync(self.worker, self.seq)?;
        self.serve_one()?;
        self.take_reply(None)
    }

    fn shutdown(&mut self) -> NetResult<()> {
        self.worker_conn.send_control(MsgType::Shutdown, self.worker)?;
        self.serve_one()?;
        match self.worker_conn.read_event()? {
            Event::ShutdownAck => Ok(()),
            other => Err(NetError::Protocol(format!("expected shutdown ack, got {other:?}"))),
        }
    }

    fn stats(&self) -> WireStats {
        self.worker_conn.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{SparseUpdate, SparseVec, UpPayload};
    use crate::runtime::LogicHandler;

    /// Echo-style handler: replies with a dense "model" encoding the call
    /// count, tracks applied counts per worker.
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
            let tag = self.applied[worker as usize] as f32;
            DownMsg::SparseDiff(SparseUpdate {
                chunks: vec![SparseVec {
                    idx: vec![worker as u32],
                    val: vec![tag + up.train_loss as f32],
                }],
            })
        }

        fn on_resync(&mut self, worker: u16) -> DownMsg {
            self.resyncs += 1;
            DownMsg::DenseModel(Arc::new(vec![worker as f32; 4]))
        }
    }

    fn up(loss: f64) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![0, 2], val: vec![1.0, -1.0] }],
            }),
            train_loss: loss,
        }
    }

    #[test]
    fn byte_queue_pipes_bytes() {
        let (mut a, mut b) = loopback_pair();
        a.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        // And the other direction.
        b.write_all(b"yo").unwrap();
        let mut buf = [0u8; 2];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"yo");
        // Empty queue acts like a read timeout.
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn loopback_exchange_and_counters() {
        let handler = ToyHandler::shared(1);
        let mut t = Loopback::new(0, handler);
        let msg = up(0.5);
        let expect_up = msg.wire_bytes() as u64;
        let reply = t.exchange(&msg).unwrap();
        let expect_down = reply.wire_bytes() as u64;
        match reply {
            DownMsg::SparseDiff(s) => assert_eq!(s.chunks[0].val, vec![1.5]),
            other => panic!("unexpected reply {other:?}"),
        }
        // Worker conn counted the sent update and received reply; the
        // server conn saw the identical bytes. Frame length == wire_bytes.
        let w = t.stats();
        let s = t.server_stats();
        assert_eq!(w.data_up, expect_up);
        assert_eq!(w.data_down, expect_down);
        assert_eq!(w, s);
        assert_eq!(w.frames_up, 1);
        assert_eq!(w.frames_down, 1);
        assert_eq!(w.control, 0);
    }

    #[test]
    fn loopback_sequences_and_shutdown() {
        let handler = ToyHandler::shared(2);
        {
            let mut t = Loopback::new(1, Arc::clone(&handler));
            for i in 1..=3 {
                let reply = t.exchange(&up(i as f64)).unwrap();
                match reply {
                    DownMsg::SparseDiff(s) => {
                        assert_eq!(s.chunks[0].idx, vec![1]);
                        assert_eq!(s.chunks[0].val, vec![i as f32 + i as f32]);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            t.shutdown().unwrap();
            let w = t.stats();
            assert_eq!(w.frames_up, 3);
            // Shutdown + ack are control bytes, not data.
            assert_eq!(w.control, 2 * HEADER_LEN as u64);
        }
        assert_eq!(handler.applied(1), Ok(3));
        assert_eq!(handler.applied(0), Ok(0));
    }

    #[test]
    fn loopback_resync_resets_nothing_but_replies_dense() {
        let handler = ToyHandler::shared(1);
        let mut t = Loopback::new(0, Arc::clone(&handler));
        t.exchange(&up(1.0)).unwrap();
        match t.resync().unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(m.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(handler.lock().unwrap().logic().resyncs, 1);
    }

    #[test]
    fn loopback_handler_shared_across_workers() {
        // One handler, one transport per worker — the same sharing shape
        // the cross-process runtime uses.
        let handler = ToyHandler::shared(3);
        let mut transports: Vec<_> =
            (0..3u16).map(|w| Loopback::new(w, Arc::clone(&handler))).collect();
        for round in 0..4 {
            for t in &mut transports {
                t.exchange(&up(round as f64)).unwrap();
            }
        }
        assert_eq!(handler.lock().unwrap().logic().applied, vec![4, 4, 4]);
    }

    /// The sequence rule on its own: in order applies and publishes the
    /// count after the apply, a retransmit resyncs without applying, a gap
    /// reports the count, and a panicking apply is contained with the
    /// count unmoved.
    #[test]
    fn sequenced_apply_contract() {
        struct Panicky(ToyHandler);
        impl UpdateHandler for Panicky {
            fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
                assert!(up.train_loss >= 0.0, "negative loss blows the apply up");
                self.0.on_update(worker, up)
            }
            fn on_resync(&mut self, worker: u16) -> DownMsg {
                self.0.on_resync(worker)
            }
        }
        let mut h = Panicky(ToyHandler { applied: vec![0], resyncs: 0 });
        let mut applied = 0u64;
        assert!(matches!(
            sequenced_apply(&mut h, &mut applied, 0, 1, up(0.0)),
            Ok(Sequenced::Applied(_))
        ));
        assert_eq!((applied, h.0.applied[0]), (1, 1));
        assert!(matches!(
            sequenced_apply(&mut h, &mut applied, 0, 1, up(0.0)),
            Ok(Sequenced::Duplicate(_))
        ));
        assert_eq!((applied, h.0.applied[0], h.0.resyncs), (1, 1, 1), "duplicate must not apply");
        assert!(matches!(
            sequenced_apply(&mut h, &mut applied, 0, 3, up(0.0)),
            Ok(Sequenced::Gap { applied: 1 })
        ));
        assert_eq!(
            sequenced_apply(&mut h, &mut applied, 0, 2, up(-1.0)).unwrap_err(),
            POISONED_REASON
        );
        assert_eq!(applied, 1, "a panicked apply is never published");
    }

    /// Loopback speaks the TCP servers' protocol: a retransmitted seq gets
    /// the duplicate-resync reply and does not advance the applied count.
    #[test]
    fn loopback_retransmit_is_answered_with_a_resync() {
        let handler = ToyHandler::shared(1);
        let mut t = Loopback::new(0, Arc::clone(&handler));
        t.exchange(&up(1.0)).unwrap();
        t.seq -= 1; // the reply was "lost": send seq 1 again
        match t.exchange(&up(1.0)).unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(m.len(), 4),
            other => panic!("retransmit must resync, got {other:?}"),
        }
        assert_eq!(handler.applied(0), Ok(1), "duplicate must not advance applied");
        let h = handler.lock().unwrap();
        assert_eq!((h.logic().applied[0], h.logic().resyncs), (1, 1));
    }

    #[test]
    fn loopback_gap_reports_the_applied_count() {
        let handler = ToyHandler::shared(1);
        let mut t = Loopback::new(0, Arc::clone(&handler));
        t.exchange(&up(1.0)).unwrap();
        t.seq += 1; // skip seq 2
        let err = t.exchange(&up(1.0)).unwrap_err().to_string();
        assert!(err.contains("sequence gap: got 3, applied 1"), "{err}");
        assert_eq!(handler.applied(0), Ok(1));
    }

    #[test]
    fn loopback_resync_with_a_foreign_worker_id_is_a_protocol_error() {
        let handler = ToyHandler::shared(2);
        let mut t = Loopback::new(0, Arc::clone(&handler));
        t.exchange(&up(1.0)).unwrap();
        // A resync frame claiming to be worker 1 on worker 0's connection.
        t.worker_conn.send_resync(1, 1).unwrap();
        let err = t.serve_one().unwrap_err().to_string();
        assert!(err.contains("worker id changed mid-connection"), "{err}");
        assert_eq!(handler.lock().unwrap().logic().resyncs, 0, "nothing was resynced");
    }

    #[test]
    fn wire_stats_classification() {
        let mut s = WireStats::default();
        s.record(MsgType::UpTernary, 100);
        s.record(MsgType::DownDense, 200);
        s.record(MsgType::Heartbeat, HEADER_LEN);
        s.record(MsgType::Resync, HEADER_LEN);
        assert_eq!(s.data_up, 100);
        assert_eq!(s.data_down, 200);
        assert_eq!(s.control, 2 * HEADER_LEN as u64);
        assert_eq!((s.frames_up, s.frames_down), (1, 1));
        let mut t = WireStats::default();
        t.merge(&s);
        assert_eq!(t, s);
    }

    #[test]
    fn link_breakdown_accumulates_sorted_and_merges() {
        let mut s = WireStats::default();
        s.add_link(Tier::Edge, 0, 10, 20);
        s.add_link(Tier::Root, 2, 1, 2);
        s.add_link(Tier::Root, 0, 100, 200);
        s.add_link(Tier::Root, 2, 9, 8);
        let key: Vec<_> = s.links.iter().map(|l| (l.tier, l.span)).collect();
        assert_eq!(key, vec![(Tier::Root, 0), (Tier::Root, 2), (Tier::Edge, 0)]);
        assert_eq!(s.link(Tier::Root, 2).unwrap().uplink_bytes, 10);
        assert_eq!(s.link(Tier::Root, 2).unwrap().downlink_bytes, 10);
        assert!(s.link(Tier::Edge, 7).is_none());

        let mut t = WireStats::default();
        t.add_link(Tier::Root, 1, 5, 5);
        t.merge(&s);
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.link(Tier::Root, 0).unwrap().uplink_bytes, 100);
        // Exact equality covers the link list too.
        let mut u = t.clone();
        assert_eq!(u, t);
        u.add_link(Tier::Edge, 0, 1, 0);
        assert_ne!(u, t);
    }

    #[test]
    fn decode_event_rejects_nonempty_control() {
        let header = FrameHeader {
            version: 1,
            msg_type: MsgType::Heartbeat,
            worker: 0,
            seq: 0,
            len: 1,
            crc: 0,
        };
        assert!(decode_event(header, &[9]).is_err());
    }
}
