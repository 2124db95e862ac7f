//! Per-connection server state machine, shared by both transports.
//!
//! [`protocol_step`] is the single source of truth for the server's
//! protocol semantics: handshake validation order, the duplicate→resync /
//! gap→error sequencing rules, heartbeat and shutdown handling. The
//! thread-per-connection server (`tcp::serve_conn`) and the readiness
//! event loop (`event_loop::serve_cluster_evented`) both drive it, so
//! "the evented backend replays bitwise against the threaded oracle"
//! holds by construction — the two differ only in *how* bytes move, never
//! in *which* frames are produced.
//!
//! [`Conn`] wraps one nonblocking stream for the event loop:
//!
//! ```text
//!            readable                      protocol_step
//! socket ──► FrameDecoder ──► Event ──► (replies, close?, done?)
//!   ▲   (partial reads ok)                    │ enqueue
//!   │        writable                         ▼
//!   └──────── writev ◄── bounded write queue (budget-checked)
//! ```
//!
//! The write queue is bounded: a worker that stops draining its downlink
//! trips [`NetError::Backpressure`] and is disconnected (its
//! reconnect/resync path recovers the stream) instead of growing the
//! queue without bound. Byte accounting happens at enqueue time with the
//! same [`WireStats::record`] call the blocking path uses, so clean runs
//! produce *identical* counters on both backends.

use crate::codec::{down_msg_type, encode_down_frame_into, ClusterHello, Hello};
use crate::error::{NetError, NetResult};
use crate::frame::{encode_frame_into, FrameDecoder, MsgType, HEADER_LEN};
use crate::msg::DownMsg;
use crate::tcp::ServerOpts;
use crate::transport::{decode_event, Event, Sequenced, SharedUpdateHandler, WireStats};
use dgs_tensor::BufferPool;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

/// Where a server-side connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnPhase {
    /// Waiting for the worker's `Hello`.
    Handshake,
    /// Handshake accepted; serving updates for this worker id.
    Running {
        /// The worker id pinned at handshake time.
        worker: u16,
    },
}

/// One frame the server wants to send, described at the protocol level so
/// each backend can map it onto its own write path (blocking `WireConn`
/// sends vs the bounded queue below).
#[derive(Debug)]
pub(crate) enum Outgoing {
    /// Handshake acceptance.
    HelloAck {
        /// Addressed worker.
        worker: u16,
        /// Negotiation payload (dim, applied count, θ0 crc).
        hello: Hello,
    },
    /// Cluster handshake acceptance (span servers only).
    ClusterHelloAck {
        /// Addressed worker.
        worker: u16,
        /// Span negotiation payload.
        hello: ClusterHello,
        /// Encoded partition map appended to the ack.
        layout: Vec<u8>,
    },
    /// Data reply to an update or resync.
    Reply {
        /// Addressed worker.
        worker: u16,
        /// Sequence being answered (0 for resync replies).
        seq: u32,
        /// The model reply.
        msg: DownMsg,
    },
    /// Empty-payload control frame (heartbeat ack, shutdown ack).
    Control {
        /// Control frame type.
        ty: MsgType,
        /// Addressed worker.
        worker: u16,
    },
    /// Error frame; the connection closes after it.
    Error {
        /// Addressed worker.
        worker: u16,
        /// Reason string for the peer.
        reason: String,
    },
}

/// What one protocol step decided.
#[derive(Debug, Default)]
pub(crate) struct StepOut {
    /// Frames to send, in order.
    pub send: Vec<Outgoing>,
    /// Close the connection after sending.
    pub close: bool,
    /// The worker finished gracefully (counts toward `expected_workers`).
    pub done: bool,
}

impl StepOut {
    fn send1(out: Outgoing) -> StepOut {
        StepOut { send: vec![out], close: false, done: false }
    }

    fn close_silent() -> StepOut {
        StepOut { send: Vec::new(), close: true, done: false }
    }

    fn close_with(out: Outgoing) -> StepOut {
        StepOut { send: vec![out], close: true, done: false }
    }
}

/// Advances one connection by one decoded frame. Mirrors the blocking
/// `serve_conn` loop decision-for-decision; any change here changes both
/// backends at once (and `tests/evented_equivalence.rs` checks they still
/// agree with each other bitwise).
pub(crate) fn protocol_step<H: SharedUpdateHandler + ?Sized>(
    phase: &mut ConnPhase,
    event: Event,
    handler: &H,
    opts: &ServerOpts,
) -> StepOut {
    match *phase {
        ConnPhase::Handshake => match event {
            Event::Hello { worker, hello } => {
                if opts.span.is_some() {
                    // A span server owns a slice of θ; a plain worker that
                    // connected here has a mis-wired topology.
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: "span server requires a cluster hello".to_string(),
                    });
                }
                if usize::from(worker) >= opts.expected_workers {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!("unknown worker id {worker}"),
                    });
                }
                if hello.dim != opts.dim {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "dim mismatch: server {} vs worker {}",
                            opts.dim, hello.dim
                        ),
                    });
                }
                if hello.theta0_crc != opts.theta0_crc {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "initial model mismatch: server θ0 crc {:#010x} vs worker {:#010x}",
                            opts.theta0_crc, hello.theta0_crc
                        ),
                    });
                }
                // An `Err` here means a handler panicked mid-update: the
                // training state cannot be trusted, so refuse the
                // handshake instead of panicking.
                let applied = match handler.applied(worker) {
                    Ok(applied) => applied,
                    Err(reason) => {
                        return StepOut::close_with(Outgoing::Error {
                            worker,
                            reason: reason.to_string(),
                        })
                    }
                };
                *phase = ConnPhase::Running { worker };
                StepOut::send1(Outgoing::HelloAck {
                    worker,
                    hello: Hello { dim: opts.dim, applied, theta0_crc: opts.theta0_crc },
                })
            }
            Event::ClusterHello { worker, hello } => {
                let Some(span) = &opts.span else {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: "not a span server; use a plain hello".to_string(),
                    });
                };
                if usize::from(worker) >= opts.expected_workers {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!("unknown worker id {worker}"),
                    });
                }
                if (hello.span_index, hello.num_spans) != (span.index, span.num_spans) {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "span mismatch: server is span {}/{}, worker expects {}/{}",
                            span.index, span.num_spans, hello.span_index, hello.num_spans
                        ),
                    });
                }
                if hello.layout_hash != span.layout_hash {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "partition layout mismatch: server {:#010x} vs worker {:#010x}",
                            span.layout_hash, hello.layout_hash
                        ),
                    });
                }
                if hello.dim != opts.dim {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "span dim mismatch: server {} vs worker {}",
                            opts.dim, hello.dim
                        ),
                    });
                }
                if hello.span_crc != opts.theta0_crc {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!(
                            "span θ0 mismatch: server crc {:#010x} vs worker {:#010x}",
                            opts.theta0_crc, hello.span_crc
                        ),
                    });
                }
                let applied = match handler.applied(worker) {
                    Ok(applied) => applied,
                    Err(reason) => {
                        return StepOut::close_with(Outgoing::Error {
                            worker,
                            reason: reason.to_string(),
                        })
                    }
                };
                *phase = ConnPhase::Running { worker };
                StepOut::send1(Outgoing::ClusterHelloAck {
                    worker,
                    hello: ClusterHello {
                        span_index: span.index,
                        num_spans: span.num_spans,
                        layout_hash: span.layout_hash,
                        dim: opts.dim,
                        applied,
                        span_crc: opts.theta0_crc,
                    },
                    layout: span.layout_bytes.clone(),
                })
            }
            // Anything else on a fresh connection: close without ceremony,
            // exactly like the blocking server.
            _ => StepOut::close_silent(),
        },
        ConnPhase::Running { worker } => match event {
            Event::Update { worker: w, seq, msg } => {
                if w != worker {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: "worker id changed mid-connection".to_string(),
                    });
                }
                // The duplicate/gap decision is atomic with the apply
                // inside the handler (see `SharedUpdateHandler`).
                match handler.handle_sequenced(worker, seq, *msg) {
                    Ok(Sequenced::Applied(reply)) | Ok(Sequenced::Duplicate(reply)) => {
                        StepOut::send1(Outgoing::Reply { worker, seq, msg: reply })
                    }
                    Ok(Sequenced::Gap { applied }) => StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: format!("sequence gap: got {seq}, applied {applied}"),
                    }),
                    Err(reason) => {
                        StepOut::close_with(Outgoing::Error { worker, reason: reason.to_string() })
                    }
                }
            }
            Event::Resync { worker: w, .. } => {
                if w != worker {
                    return StepOut::close_with(Outgoing::Error {
                        worker,
                        reason: "worker id changed mid-connection".to_string(),
                    });
                }
                match handler.handle_resync(worker) {
                    Ok(reply) => StepOut::send1(Outgoing::Reply { worker, seq: 0, msg: reply }),
                    Err(reason) => {
                        StepOut::close_with(Outgoing::Error { worker, reason: reason.to_string() })
                    }
                }
            }
            Event::Heartbeat { worker: w } => {
                StepOut::send1(Outgoing::Control { ty: MsgType::HeartbeatAck, worker: w })
            }
            Event::Shutdown { .. } => StepOut {
                send: vec![Outgoing::Control { ty: MsgType::ShutdownAck, worker }],
                close: true,
                done: true,
            },
            Event::Error { .. } => StepOut::close_silent(),
            other => StepOut::close_with(Outgoing::Error {
                worker,
                reason: format!("unexpected frame: {other:?}"),
            }),
        },
    }
}

/// Encodes an [`Outgoing`] as a complete wire frame in `buf` (the buffer it
/// will be queued and written from), returning the message type for byte
/// accounting.
fn encode_outgoing(buf: &mut Vec<u8>, out: &Outgoing) -> NetResult<MsgType> {
    let control = |buf: &mut Vec<u8>, ty, worker, payload: &[u8]| {
        encode_frame_into(buf, ty, worker, 0, payload).map(|()| ty)
    };
    match out {
        Outgoing::HelloAck { worker, hello } => {
            control(buf, MsgType::HelloAck, *worker, &hello.encode())
        }
        Outgoing::ClusterHelloAck { worker, hello, layout } => {
            control(buf, MsgType::ClusterHelloAck, *worker, &hello.encode(layout))
        }
        Outgoing::Reply { worker, seq, msg } => {
            encode_down_frame_into(buf, *worker, *seq, msg).map(|()| down_msg_type(msg))
        }
        Outgoing::Control { ty, worker } => control(buf, *ty, *worker, &[]),
        Outgoing::Error { worker, reason } => {
            control(buf, MsgType::Error, *worker, reason.as_bytes())
        }
    }
}

/// Hands a drained frame or a decoded payload back to the loop's pool
/// (which truncates it to length 0). Empty-payload control frames never
/// took a buffer, so they return none — an idle slot is worth more than a
/// capacity-less `Vec`.
fn recycle(pool: &mut BufferPool<u8>, buf: Vec<u8>) {
    if buf.capacity() > 0 {
        pool.release(buf);
    }
}

/// At most this many queued frames go into one `writev`.
const WRITEV_BATCH: usize = 16;

/// What driving a connection produced; the event loop acts on it.
#[derive(Debug, Default)]
pub(crate) struct DriveOutcome {
    /// Graceful worker shutdowns observed during this drive.
    pub finished: usize,
}

/// One evented server-side connection: nonblocking stream + incremental
/// decoder + protocol phase + bounded write queue.
pub(crate) struct Conn<S> {
    stream: S,
    decoder: FrameDecoder,
    phase: ConnPhase,
    stats: WireStats,
    /// Encoded frames awaiting the socket, oldest first.
    wq: VecDeque<Vec<u8>>,
    /// Bytes of `wq.front()` already written.
    front_off: usize,
    /// Total unwritten bytes across the queue.
    wq_bytes: usize,
    /// Budget for `wq_bytes`; exceeded ⇒ backpressure disconnect.
    budget: usize,
    /// No more reads; close once the queue drains.
    closing: bool,
    /// Hard-closed (I/O error, peer gone, backpressure): tear down now,
    /// nothing left worth flushing.
    dead: bool,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps an already-nonblocking stream.
    pub fn new(stream: S, max_payload: usize, write_budget: usize) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_payload),
            phase: ConnPhase::Handshake,
            stats: WireStats::default(),
            wq: VecDeque::new(),
            front_off: 0,
            wq_bytes: 0,
            budget: write_budget,
            closing: false,
            dead: false,
        }
    }

    /// Byte counters accumulated so far.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// The wrapped stream (the event loop flips blocking mode on it for
    /// the final drain).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// True while there are queued bytes the socket has not accepted.
    pub fn wants_write(&self) -> bool {
        self.wq_bytes > 0 && !self.dead
    }

    /// True once the connection should be deregistered and dropped.
    pub fn should_teardown(&self) -> bool {
        self.dead || (self.closing && self.wq_bytes == 0)
    }

    /// Queues one outgoing frame, enforcing the write budget: a frame is
    /// refused only when the queue is already non-empty *and* adding it
    /// would exceed the budget, so a single frame larger than the budget
    /// still goes out on an otherwise-drained connection. Counted into
    /// [`WireStats`] at enqueue time — the frame is committed to the wire
    /// from here on. The frame is encoded in a pooled buffer that goes back
    /// once the socket has taken all of it; a refused frame's buffer is
    /// dropped with the connection it belonged to.
    fn enqueue(&mut self, out: &Outgoing, pool: &mut BufferPool<u8>) -> NetResult<()> {
        let mut frame = pool.acquire();
        let ty = encode_outgoing(&mut frame, out)?;
        if self.wq_bytes > 0 && self.wq_bytes + frame.len() > self.budget {
            return Err(NetError::Backpressure { queued: self.wq_bytes, budget: self.budget });
        }
        self.stats.record(ty, frame.len());
        self.wq_bytes += frame.len();
        self.wq.push_back(frame);
        Ok(())
    }

    /// Drives the connection on read readiness: drains the socket through
    /// the incremental decoder, feeds each frame to [`protocol_step`], and
    /// opportunistically flushes the replies (most sockets are writable,
    /// so the common case never waits for a writable wakeup).
    ///
    /// Headers — and whatever small frames arrive in the same segment — are
    /// read through the loop's `scratch`; once a header has been parsed the
    /// rest of its payload is read from the socket straight into the
    /// frame's pooled buffer.
    pub fn handle_readable<H: SharedUpdateHandler + ?Sized>(
        &mut self,
        handler: &H,
        opts: &ServerOpts,
        scratch: &mut [u8],
        pool: &mut BufferPool<u8>,
    ) -> DriveOutcome {
        let mut outcome = DriveOutcome::default();
        while !self.closing && !self.dead {
            let (read, direct) = match self.decoder.fill_from(&mut self.stream) {
                Some(read) => (read, true),
                None => (self.stream.read(scratch), false),
            };
            let n = match read {
                // Peer closed. Like the blocking server, whatever was
                // mid-decode is abandoned; queued replies still drain.
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return outcome;
                }
            };
            // A direct fill already stored its bytes; the empty feed only
            // completes the frame.
            let fresh: &[u8] = if direct { &[] } else { scratch.get(..n).unwrap_or_default() };
            self.feed(fresh, handler, opts, pool, &mut outcome);
        }
        self.flush_ready(pool);
        outcome
    }

    /// Pushes freshly read bytes through decoder → event → protocol step.
    fn feed<H: SharedUpdateHandler + ?Sized>(
        &mut self,
        mut input: &[u8],
        handler: &H,
        opts: &ServerOpts,
        pool: &mut BufferPool<u8>,
        outcome: &mut DriveOutcome,
    ) {
        // Once a step closes the connection, the rest of the buffer is
        // discarded — the blocking server's `break` does the same.
        while !self.closing && !self.dead {
            let (used, frame) = match self.decoder.advance(input, pool) {
                Ok(step) => step,
                // Malformed framing (bad magic/version/crc/length): the
                // blocking server closes silently; so do we.
                Err(_) => {
                    self.closing = true;
                    return;
                }
            };
            // `used <= input.len()` per the decoder contract; a checked
            // slice (empty on violation) keeps the wire path panic-free.
            input = input.get(used..).unwrap_or_default();
            let Some((header, payload)) = frame else {
                if input.is_empty() {
                    return;
                }
                continue;
            };
            self.stats.record(header.msg_type, HEADER_LEN + payload.len());
            let event = decode_event(header, &payload);
            // CRC-valid, and fully copied out by the decode: back to the pool.
            recycle(pool, payload);
            let event = match event {
                Ok(ev) => ev,
                // Undecodable payload: silent close, like the oracle.
                Err(_) => {
                    self.closing = true;
                    return;
                }
            };
            let step = protocol_step(&mut self.phase, event, handler, opts);
            outcome.finished += usize::from(step.done);
            for out in &step.send {
                if self.enqueue(out, pool).is_err() {
                    // Backpressure (or an encode refusal): hard disconnect.
                    // The peer is not draining, so flushing is pointless;
                    // its reconnect/resync path recovers the stream.
                    self.dead = true;
                    return;
                }
            }
            if step.close {
                self.closing = true;
            }
        }
    }

    /// Writes as much of the queue as the socket will take, coalescing up
    /// to [`WRITEV_BATCH`] frames per `writev`. `WouldBlock` leaves the
    /// remainder queued for the next writable wakeup.
    pub fn flush_ready(&mut self, pool: &mut BufferPool<u8>) {
        while self.wq_bytes > 0 && !self.dead {
            let mut slices = [IoSlice::new(&[]); WRITEV_BATCH];
            let mut batch = 0;
            for (slot, seg) in slices.iter_mut().zip(&self.wq) {
                let start = if batch == 0 { self.front_off } else { 0 };
                *slot = IoSlice::new(seg.get(start..).unwrap_or_default());
                batch += 1;
            }
            match self.stream.write_vectored(slices.get(..batch).unwrap_or_default()) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.consume_written(n, pool),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        let _ = self.stream.flush();
    }

    /// Final drain for graceful closes (shutdown acks, error frames) when
    /// the loop is exiting: the caller has switched the stream to blocking
    /// with a write timeout, so this terminates even against a slow peer.
    /// Errors are swallowed — teardown must not fail.
    pub fn flush_remaining(&mut self, pool: &mut BufferPool<u8>) {
        if self.dead {
            return;
        }
        while let Some(front) = self.wq.pop_front() {
            let rest = front.get(self.front_off..).unwrap_or_default();
            if self.stream.write_all(rest).is_err() {
                self.dead = true;
                return;
            }
            self.front_off = 0;
            self.wq_bytes = self.wq_bytes.saturating_sub(rest.len());
            recycle(pool, front);
        }
        let _ = self.stream.flush();
    }

    /// Retires `n` accepted bytes from the front of the queue; fully
    /// written frames go back to the pool.
    fn consume_written(&mut self, mut n: usize, pool: &mut BufferPool<u8>) {
        self.wq_bytes = self.wq_bytes.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.wq.front() else { return };
            let remaining = front.len() - self.front_off;
            if n >= remaining {
                n -= remaining;
                self.front_off = 0;
                if let Some(done) = self.wq.pop_front() {
                    recycle(pool, done);
                }
            } else {
                self.front_off += n;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::msg::{SparseUpdate, SparseVec, UpMsg, UpPayload};
    use crate::runtime::LogicHandler;
    use crate::transport::{loopback_pair, LoopbackStream, UpdateHandler, WireConn};
    use std::sync::Mutex;

    /// Toy handler matching the tcp.rs test double.
    struct ToyHandler {
        applied: Vec<u64>,
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
            DownMsg::DenseModel(std::sync::Arc::new(vec![f32::from(worker); 3]))
        }
    }

    fn handler(workers: usize) -> Mutex<LogicHandler<ToyHandler>> {
        Mutex::new(LogicHandler::new(ToyHandler { applied: vec![0; workers] }, workers))
    }

    fn opts(workers: usize) -> ServerOpts {
        ServerOpts::new(workers, 3, 0xABCD)
    }

    fn up(loss: f64) -> UpMsg {
        UpMsg {
            payload: UpPayload::Sparse(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![1], val: vec![2.0] }],
            }),
            train_loss: loss,
        }
    }

    /// Evented conn over a loopback pair plus the peer's WireConn.
    fn rig(
        workers: usize,
        budget: usize,
    ) -> (Conn<LoopbackStream>, WireConn<LoopbackStream>, ServerOpts) {
        let (server_side, worker_side) = loopback_pair();
        let o = opts(workers);
        (Conn::new(server_side, o.max_payload, budget), WireConn::new(worker_side), o)
    }

    fn drive(
        conn: &mut Conn<LoopbackStream>,
        h: &Mutex<LogicHandler<ToyHandler>>,
        o: &ServerOpts,
    ) -> DriveOutcome {
        drive_pooled(conn, h, o, &mut BufferPool::new(4))
    }

    fn drive_pooled<S: Read + Write, L: UpdateHandler + Send>(
        conn: &mut Conn<S>,
        h: &Mutex<LogicHandler<L>>,
        o: &ServerOpts,
        pool: &mut BufferPool<u8>,
    ) -> DriveOutcome {
        let mut scratch = [0u8; 4096];
        conn.handle_readable(h, o, &mut scratch, pool)
    }

    #[test]
    fn full_session_through_the_state_machine() {
        let (mut conn, mut peer, o) = rig(2, 1 << 20);
        let h = handler(2);
        peer.send_hello(MsgType::Hello, 1, &Hello { dim: 3, applied: 0, theta0_crc: 0xABCD })
            .unwrap();
        drive(&mut conn, &h, &o);
        assert!(matches!(peer.read_event().unwrap(), Event::HelloAck { hello } if hello.dim == 3));
        assert_eq!(conn.phase, ConnPhase::Running { worker: 1 });
        // In-order updates produce replies; a heartbeat mid-stream acks.
        peer.send_update(1, 1, &up(0.5)).unwrap();
        peer.send_control(MsgType::Heartbeat, 1).unwrap();
        peer.send_update(1, 2, &up(0.5)).unwrap();
        drive(&mut conn, &h, &o);
        assert!(matches!(peer.read_event().unwrap(), Event::Reply { seq: 1, .. }));
        assert!(matches!(peer.read_event().unwrap(), Event::HeartbeatAck));
        assert!(matches!(peer.read_event().unwrap(), Event::Reply { seq: 2, .. }));
        // Duplicate → resync reply, not a double apply.
        peer.send_update(1, 2, &up(0.5)).unwrap();
        drive(&mut conn, &h, &o);
        match peer.read_event().unwrap() {
            Event::Reply { msg: DownMsg::DenseModel(m), .. } => assert_eq!(m.len(), 3),
            other => panic!("expected dense resync, got {other:?}"),
        }
        assert_eq!(h.lock().unwrap().logic().applied, vec![0, 2]);
        // Graceful shutdown: ack + close + done, all flushed.
        peer.send_control(MsgType::Shutdown, 1).unwrap();
        let outcome = drive(&mut conn, &h, &o);
        assert_eq!(outcome.finished, 1);
        assert!(conn.should_teardown());
        assert!(matches!(peer.read_event().unwrap(), Event::ShutdownAck));
        // Counters: both ends saw identical bytes.
        assert_eq!(conn.stats(), peer.stats());
    }

    #[test]
    fn sequence_gap_closes_with_error_frame() {
        let (mut conn, mut peer, o) = rig(1, 1 << 20);
        let h = handler(1);
        peer.send_hello(MsgType::Hello, 0, &Hello { dim: 3, applied: 0, theta0_crc: 0xABCD })
            .unwrap();
        peer.send_update(0, 5, &up(1.0)).unwrap();
        drive(&mut conn, &h, &o);
        assert!(matches!(peer.read_event().unwrap(), Event::HelloAck { .. }));
        match peer.read_event().unwrap() {
            Event::Error { reason } => assert!(reason.contains("gap"), "{reason}"),
            other => panic!("expected error frame, got {other:?}"),
        }
        assert!(conn.should_teardown());
        assert_eq!(h.lock().unwrap().logic().applied, vec![0], "gap must not apply");
    }

    #[test]
    fn handshake_rejections_mirror_the_blocking_server() {
        // Unknown worker id.
        let (mut conn, mut peer, o) = rig(1, 1 << 20);
        let h = handler(1);
        peer.send_hello(MsgType::Hello, 9, &Hello { dim: 3, applied: 0, theta0_crc: 0xABCD })
            .unwrap();
        drive(&mut conn, &h, &o);
        match peer.read_event().unwrap() {
            Event::Error { reason } => assert!(reason.contains("unknown worker id 9"), "{reason}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert!(conn.should_teardown());
        // Dim mismatch.
        let (mut conn, mut peer, o) = rig(1, 1 << 20);
        peer.send_hello(MsgType::Hello, 0, &Hello { dim: 4, applied: 0, theta0_crc: 0xABCD })
            .unwrap();
        drive(&mut conn, &h, &o);
        match peer.read_event().unwrap() {
            Event::Error { reason } => assert!(reason.contains("dim mismatch"), "{reason}"),
            other => panic!("expected error, got {other:?}"),
        }
        // Non-hello opener: silent close, no frame back.
        let (mut conn, mut peer, o) = rig(1, 1 << 20);
        peer.send_control(MsgType::Heartbeat, 0).unwrap();
        drive(&mut conn, &h, &o);
        assert!(conn.should_teardown());
        assert_eq!(conn.stats().control, HEADER_LEN as u64, "nothing sent back");
    }

    #[test]
    fn garbage_closes_silently_without_panic() {
        let (mut conn, mut peer, o) = rig(1, 1 << 20);
        let h = handler(1);
        // Must be at least HEADER_LEN bytes: the decoder (like the blocking
        // server's read_frame) buffers a partial header until it is complete.
        std::io::Write::write_all(peer.stream_mut(), b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
        drive(&mut conn, &h, &o);
        assert!(conn.should_teardown());
    }

    /// Sink that accepts nothing: a perfectly stalled reader.
    struct Stalled;

    impl Read for Stalled {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Stalled {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_budget_disconnects_instead_of_buffering_unboundedly() {
        // Tiny budget: the second queued reply must trip backpressure.
        let mut conn: Conn<Stalled> = Conn::new(Stalled, 1 << 20, 64);
        conn.phase = ConnPhase::Running { worker: 0 };
        let reply = Outgoing::Reply {
            worker: 0,
            seq: 1,
            msg: DownMsg::DenseModel(std::sync::Arc::new(vec![1.0; 16])),
        };
        // First frame exceeds the budget alone but the queue is empty, so
        // it is accepted (a connection must always be able to make
        // progress on one frame).
        let mut pool = BufferPool::new(4);
        conn.enqueue(&reply, &mut pool).unwrap();
        let before = conn.stats();
        let err = conn.enqueue(&reply, &mut pool).unwrap_err();
        match err {
            NetError::Backpressure { queued, budget } => {
                assert!(queued > budget, "queued {queued} vs budget {budget}");
            }
            other => panic!("expected backpressure, got {other}"),
        }
        // The refused frame was never counted: accounting covers only
        // frames committed to the wire.
        assert_eq!(conn.stats(), before);
        assert_eq!(conn.wq.len(), 1);
        // Nor did its buffer go back to the pool; the queued frame's goes
        // down with the connection.
        drop(conn);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn vectored_flush_handles_partial_writes() {
        /// Accepts at most `cap` bytes per call — forces partial writes
        /// across frame boundaries.
        struct Trickle {
            out: Vec<u8>,
            cap: usize,
        }

        impl Read for Trickle {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }

        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut conn: Conn<Trickle> =
            Conn::new(Trickle { out: Vec::new(), cap: 7 }, 1 << 20, 1 << 20);
        let mut pool = BufferPool::new(4);
        let mut want = Vec::new();
        for _ in 0..5 {
            let out = Outgoing::Control { ty: MsgType::HeartbeatAck, worker: 0 };
            let mut frame = Vec::new();
            encode_outgoing(&mut frame, &out).unwrap();
            want.extend_from_slice(&frame);
            conn.enqueue(&out, &mut pool).unwrap();
        }
        conn.flush_ready(&mut pool);
        assert!(!conn.wants_write(), "everything drained");
        assert_eq!(conn.stream_mut().out, want, "bytes survive 7-byte write slices in order");
        assert_eq!(pool.idle(), 4, "drained frames went back, up to the pool's bound");
    }

    /// Replies with the dense update it was sent: the largest-message shape
    /// (dense both ways) at whatever size the test picks.
    struct Echo;

    impl UpdateHandler for Echo {
        fn on_update(&mut self, _worker: u16, up: UpMsg) -> DownMsg {
            match up.payload {
                UpPayload::Dense(v) => DownMsg::DenseModel(std::sync::Arc::new(v)),
                other => panic!("echo handler got {other:?}"),
            }
        }

        fn on_resync(&mut self, _worker: u16) -> DownMsg {
            DownMsg::DenseModel(std::sync::Arc::new(Vec::new()))
        }
    }

    #[test]
    fn dense_exchanges_reach_a_pool_steady_state() {
        let (mut conn, mut peer, o) = rig(1, 64 << 20);
        let h = Mutex::new(LogicHandler::new(Echo, 1));
        let mut pool = BufferPool::new(4);
        peer.send_hello(MsgType::Hello, 0, &Hello { dim: 3, applied: 0, theta0_crc: 0xABCD })
            .unwrap();
        drive_pooled(&mut conn, &h, &o, &mut pool);
        assert!(matches!(peer.read_event().unwrap(), Event::HelloAck { .. }));
        let grad: Vec<f32> = (0..20_000).map(|i| i as f32 * 0.25 - 7.0).collect();
        let up = UpMsg { payload: UpPayload::Dense(grad.clone()), train_loss: 0.5 };
        let mut warm = None;
        for seq in 1..=34u32 {
            peer.send_update(0, seq, &up).unwrap();
            drive_pooled(&mut conn, &h, &o, &mut pool);
            match peer.read_event().unwrap() {
                Event::Reply { seq: got, msg: DownMsg::DenseModel(m), .. } => {
                    assert_eq!((got, m.as_slice()), (seq, grad.as_slice()));
                }
                other => panic!("expected a dense reply, got {other:?}"),
            }
            assert!(!conn.wants_write());
            // Two warm-up exchanges, then nothing may move: the received
            // payload and the reply travel in buffers the pool already has.
            let state = (pool.idle(), pool.retained_bytes());
            if seq > 2 {
                assert_eq!(Some(state), warm, "exchange {seq}");
            }
            warm = Some(state);
        }
        assert_eq!(conn.stats(), peer.stats());
    }

    /// Yields its bytes, then end-of-stream; swallows writes.
    struct Script(io::Cursor<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hostile_length_then_eof_leaves_the_pool_unchanged() {
        let o = opts(1);
        let h = handler(1);
        let mut pool = BufferPool::new(4);
        pool.release(Vec::with_capacity(4096));
        let before = (pool.idle(), pool.retained_bytes());
        // A valid header declaring the largest payload the server accepts,
        // a few bytes of it, then the peer hangs up.
        let mut hostile = encode_frame(MsgType::UpDense, 0, 1, &[]).unwrap();
        hostile[12..16].copy_from_slice(&u32::try_from(o.max_payload).unwrap().to_le_bytes());
        hostile.extend_from_slice(&[0x55; 100]);
        let mut conn = Conn::new(Script(io::Cursor::new(hostile)), o.max_payload, 1 << 20);
        drive_pooled(&mut conn, &h, &o, &mut pool);
        assert!(conn.should_teardown(), "eof mid-payload closes the connection");
        drop(conn);
        assert_eq!((pool.idle(), pool.retained_bytes()), before);
        // One byte more is refused at the header, before any buffer exists.
        let mut oversized = encode_frame(MsgType::UpDense, 0, 1, &[]).unwrap();
        oversized[12..16].copy_from_slice(&u32::try_from(o.max_payload + 1).unwrap().to_le_bytes());
        let mut conn = Conn::new(Script(io::Cursor::new(oversized)), o.max_payload, 1 << 20);
        drive_pooled(&mut conn, &h, &o, &mut pool);
        assert!(conn.should_teardown());
        assert_eq!((pool.idle(), pool.retained_bytes()), before);
    }
}
