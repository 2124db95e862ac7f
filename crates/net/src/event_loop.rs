//! Readiness-driven TCP server: one poller, one thread, tens of
//! thousands of connections.
//!
//! [`serve_cluster_evented`] is the drop-in peer of
//! [`crate::tcp::serve_cluster`]: same [`ServerOpts`], same
//! [`SharedUpdateHandler`] seam, same returned [`WireStats`] — but the
//! per-connection cost is a `Conn` state machine (a decoder, a phase, a
//! bounded write queue) instead of an OS thread. The protocol itself
//! lives in `conn::protocol_step`, shared with the threaded backend, so
//! the two produce identical frames for identical inputs; the threaded
//! server remains the differential oracle
//! (`tests/evented_equivalence.rs`).
//!
//! Event-loop shape, per iteration:
//!
//! 1. `Poller::wait` (poll(2)).
//! 2. Listener readable → accept until `WouldBlock`; connections beyond
//!    `max_conns` get an explicit error frame before close (counted in
//!    [`WireStats::rejected_conns`]) instead of a silent drop.
//! 3. Connection readable → drain socket → incremental decode → protocol
//!    step → enqueue replies (budget-checked) → opportunistic flush.
//! 4. Connection writable → drain the write queue with coalesced
//!    `writev`.
//! 5. Interest maintenance: write interest only while bytes are queued.
//!
//! The loop exits when every expected worker has sent a graceful
//! shutdown (or the deadline expires, mirroring the threaded server's
//! error), after a bounded blocking drain of any still-queued frames.

use crate::conn::Conn;
use crate::error::{NetError, NetResult};
use crate::poll::{Fd, Interest, PollEvent, Poller};
use crate::tcp::ServerOpts;
use crate::transport::{SharedUpdateHandler, WireConn, WireStats};
use dgs_tensor::BufferPool;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Event-loop-specific knobs, alongside the protocol-level [`ServerOpts`].
#[derive(Debug, Clone)]
pub struct EventedOpts {
    /// Connection budget. Accepts beyond it are answered with an error
    /// frame and closed; [`WireStats::rejected_conns`] counts them.
    pub max_conns: usize,
    /// Per-connection write-queue budget in bytes. A worker that stops
    /// draining its downlink is disconnected when its queue would exceed
    /// this (its reconnect/resync path recovers the stream).
    pub write_budget: usize,
}

impl Default for EventedOpts {
    fn default() -> Self {
        // 16k connections on one thread is the design point; 64 MiB of
        // queued downlink per connection is far beyond any healthy
        // worker's lag while still bounding a stalled one.
        EventedOpts { max_conns: 16_384, write_budget: 64 << 20 }
    }
}

#[cfg(unix)]
fn raw_fd_listener(l: &TcpListener) -> Fd {
    use std::os::unix::io::AsRawFd;
    l.as_raw_fd()
}

#[cfg(unix)]
fn raw_fd_stream(s: &TcpStream) -> Fd {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd_listener(_l: &TcpListener) -> Fd {
    -1
}

#[cfg(not(unix))]
fn raw_fd_stream(_s: &TcpStream) -> Fd {
    -1
}

/// One registered connection: the state machine plus what the poller
/// needs to manage it.
struct Entry {
    conn: Conn<TcpStream>,
    fd: Fd,
    /// Whether the current registration includes write interest.
    writable: bool,
}

/// The poller token reserved for the listener; connection slot `s` uses
/// token `s + 1`.
const LISTENER: usize = 0;

/// How long the final blocking drain may spend per write.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle frame buffers the loop's pool retains. The pool is shared by every
/// connection of the loop, so idle memory is at most this many buffers of
/// the largest frame carried so far (itself ≤ `max_payload`) however many
/// connections are open; a release beyond it frees the buffer. Four covers
/// a payload being received, its reply being drained and one more pair
/// overlapping them.
const POOL_BUFFERS: usize = 4;

/// Deregisters and retires connection `slot`, folding its counters in.
fn teardown(
    poller: &mut Poller,
    entries: &mut [Option<Entry>],
    free: &mut Vec<usize>,
    live: &mut usize,
    stats: &mut WireStats,
    slot: usize,
) {
    if let Some(gone) = entries[slot].take() {
        poller.deregister(gone.fd, slot + 1);
        stats.merge(&gone.conn.stats());
        free.push(slot);
        *live -= 1;
    }
}

/// Accepts until `WouldBlock`. Connections beyond `max_conns` are told
/// why before the close — the accepted socket is still in blocking mode
/// (it does not inherit the listener's nonblocking flag), so the error
/// frame goes out with an ordinary bounded write.
fn accept_ready(
    listener: &TcpListener,
    poller: &mut Poller,
    entries: &mut Vec<Option<Entry>>,
    free: &mut Vec<usize>,
    live: &mut usize,
    stats: &mut WireStats,
    opts: &ServerOpts,
    ev_opts: &EventedOpts,
) -> NetResult<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if *live >= ev_opts.max_conns {
                    stats.rejected_conns += 1;
                    let _ = stream.set_write_timeout(Some(DRAIN_TIMEOUT));
                    let mut reject = WireConn::new(stream);
                    let _ = reject.send_error(
                        0,
                        &format!(
                            "connection budget exhausted: server at {} connections",
                            ev_opts.max_conns
                        ),
                    );
                    stats.merge(&reject.stats());
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let slot = match free.pop() {
                    Some(slot) => slot,
                    None => {
                        entries.push(None);
                        entries.len() - 1
                    }
                };
                let fd = raw_fd_stream(&stream);
                if poller.register(fd, slot + 1, Interest::READ).is_err() {
                    free.push(slot);
                    continue;
                }
                entries[slot] = Some(Entry {
                    conn: Conn::new(stream, opts.max_payload, ev_opts.write_budget),
                    fd,
                    writable: false,
                });
                *live += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Hard accept failure aborts the server, exactly like the
            // threaded accept loop.
            Err(e) => return Err(NetError::Io(e)),
        }
    }
}

/// Runs the evented accept/serve loop until every expected worker has
/// sent a graceful shutdown. Single-threaded: every connection, the
/// listener, and all handler calls run on the calling thread. The
/// `handler` contract is identical to [`crate::tcp::serve_cluster`] —
/// pass the same `Arc` and the two backends are interchangeable (and
/// must stay bitwise-interchangeable; the equivalence suite replays one
/// against the other). Returns the aggregated server-side byte counters.
pub fn serve_cluster_evented<H: SharedUpdateHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    opts: ServerOpts,
    ev_opts: EventedOpts,
) -> NetResult<WireStats> {
    let mut pool = BufferPool::new(POOL_BUFFERS);
    // dgs::allow(no-blocking-under-lock): serve_pooled is this event loop, split off only so a test can own the pool; the one parking call it reaches is its own allowed `poller.wait`
    serve_pooled(listener, handler, opts, ev_opts, &mut pool)
}

/// [`serve_cluster_evented`] over a caller-owned frame-buffer pool: every
/// received payload and every queued frame of every connection lives in a
/// buffer taken from `pool` and handed back when the frame is done with.
/// Loop-local by construction (`&mut`, never behind a lock).
fn serve_pooled<H: SharedUpdateHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    opts: ServerOpts,
    ev_opts: EventedOpts,
    pool: &mut BufferPool<u8>,
) -> NetResult<WireStats> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(raw_fd_listener(&listener), LISTENER, Interest::READ)?;

    let mut entries: Vec<Option<Entry>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut finished = 0usize;
    let mut stats = WireStats::default();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let started = Instant::now();

    let deadline_hit = loop {
        if finished >= opts.done_target {
            break false;
        }
        if let Some(limit) = opts.deadline {
            if started.elapsed() > limit {
                break true;
            }
        }
        poller.wait(&mut events, Some(opts.read_timeout))?;
        for i in 0..events.len() {
            let ev = events[i];
            if ev.token == LISTENER {
                accept_ready(
                    &listener,
                    &mut poller,
                    &mut entries,
                    &mut free,
                    &mut live,
                    &mut stats,
                    &opts,
                    &ev_opts,
                )?;
                continue;
            }
            let slot = ev.token - 1;
            let Some(entry) = entries.get_mut(slot).and_then(Option::as_mut) else { continue };
            if ev.readable {
                let conn = &mut entry.conn;
                // dgs::allow(no-blocking-under-lock): the blocking chain is edge-only (run_round's upstream exchange); edge tiers are served by the thread backend per the edge module contract, never by this event loop
                let outcome = conn.handle_readable(handler.as_ref(), &opts, &mut scratch, pool);
                finished += outcome.finished;
            }
            if ev.writable {
                entry.conn.flush_ready(pool);
            }
            if entry.conn.should_teardown() {
                teardown(&mut poller, &mut entries, &mut free, &mut live, &mut stats, slot);
                continue;
            }
            // Interest maintenance: write interest only while queued
            // bytes remain.
            let want = Interest { readable: true, writable: entry.conn.wants_write() };
            if want.writable != entry.writable {
                let fd = entry.fd;
                if poller.reregister(fd, ev.token, want).is_ok() {
                    entry.writable = want.writable;
                } else {
                    teardown(&mut poller, &mut entries, &mut free, &mut live, &mut stats, slot);
                }
            }
        }
    };

    // Bounded blocking drain of whatever is still queued (a shutdown ack
    // the socket buffer did not take), then fold in remaining counters.
    for entry in entries.iter_mut().filter_map(Option::as_mut) {
        let stream = entry.conn.stream_mut();
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(DRAIN_TIMEOUT));
        entry.conn.flush_remaining(pool);
    }
    for entry in entries.into_iter().flatten() {
        stats.merge(&entry.conn.stats());
    }
    if deadline_hit {
        return Err(NetError::Protocol(format!(
            "deadline expired with {finished}/{} workers finished",
            opts.done_target
        )));
    }
    Ok(stats)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::codec::Hello;
    use crate::frame::MsgType;
    use crate::msg::{DownMsg, SparseUpdate, SparseVec, UpMsg, UpPayload};
    use crate::runtime::LogicHandler;
    use crate::tcp::{TcpOpts, TcpWorkerTransport};
    use crate::transport::{Event, Transport, UpdateHandler};
    use std::sync::Mutex;
    use std::thread;

    struct ToyHandler {
        applied: Vec<u64>,
        resyncs: usize,
        /// Dense-reply length — big values turn replies into megabyte
        /// frames for the backpressure test.
        reply_len: usize,
    }

    impl ToyHandler {
        fn shared(workers: usize, reply_len: usize) -> Arc<Mutex<LogicHandler<ToyHandler>>> {
            let toy = ToyHandler { applied: vec![0; workers], resyncs: 0, reply_len };
            Arc::new(Mutex::new(LogicHandler::new(toy, workers)))
        }
    }

    impl UpdateHandler for ToyHandler {
        fn on_update(&mut self, worker: u16, up: UpMsg) -> DownMsg {
            self.applied[worker as usize] += 1;
            if self.reply_len > 0 {
                return DownMsg::DenseModel(Arc::new(vec![up.train_loss as f32; self.reply_len]));
            }
            let tag = self.applied[worker as usize] as f32 + up.train_loss as f32;
            DownMsg::SparseDiff(SparseUpdate {
                chunks: vec![SparseVec { idx: vec![u32::from(worker)], val: vec![tag] }],
            })
        }

        fn on_resync(&mut self, worker: u16) -> DownMsg {
            self.resyncs += 1;
            DownMsg::DenseModel(Arc::new(vec![f32::from(worker); 3]))
        }
    }

    const DIM: u64 = 3;
    const CRC: u32 = 0x5a5a_0001;

    fn server_opts(workers: usize) -> ServerOpts {
        let mut o = ServerOpts::new(workers, DIM, CRC);
        o.read_timeout = Duration::from_millis(50);
        o.deadline = Some(Duration::from_secs(30));
        o
    }

    fn spawn_evented(
        workers: usize,
        reply_len: usize,
        ev_opts: EventedOpts,
    ) -> (String, Arc<Mutex<LogicHandler<ToyHandler>>>, thread::JoinHandle<NetResult<WireStats>>)
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handler = ToyHandler::shared(workers, reply_len);
        let h = Arc::clone(&handler);
        let opts = server_opts(workers);
        let join = thread::spawn(move || serve_cluster_evented(listener, h, opts, ev_opts));
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
    fn evented_serves_real_workers_end_to_end() {
        let (addr, handler, join) = spawn_evented(2, 0, EventedOpts::default());
        let mut joins = Vec::new();
        for w in 0..2u16 {
            let addr = addr.clone();
            joins.push(thread::spawn(move || {
                let mut t = TcpWorkerTransport::new(worker_opts(&addr, w));
                let mut up_bytes = 0u64;
                let mut down_bytes = 0u64;
                for i in 1..=5 {
                    let msg = up(f64::from(i));
                    up_bytes += msg.wire_bytes() as u64;
                    let reply = t.exchange(&msg).unwrap();
                    down_bytes += reply.wire_bytes() as u64;
                }
                t.shutdown().unwrap();
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
        assert_eq!(server_stats.rejected_conns, 0);
        let h = handler.lock().unwrap();
        let h = h.logic();
        assert_eq!(h.applied, vec![5, 5]);
        assert_eq!(h.resyncs, 0);
    }

    /// Two server sessions over one pool: whatever the first (warm-up)
    /// session left pooled is all the second — 32 dense exchanges with
    /// frames far larger than a socket buffer, so partial reads, direct
    /// fill and partial writes all happen — ever needs.
    #[test]
    fn dense_sessions_grow_no_pooled_buffer() {
        const LEN: usize = 1 << 16;
        fn session(pool: &mut BufferPool<u8>, rounds: u32) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let worker = thread::spawn(move || {
                let mut o = worker_opts(&addr, 0);
                // No heartbeats: an ack queued beside a reply would take a
                // second buffer only on a slow host.
                o.read_timeout = Duration::from_secs(20);
                let mut t = TcpWorkerTransport::new(o);
                for i in 1..=rounds {
                    let dense = UpMsg {
                        payload: UpPayload::Dense(vec![i as f32; LEN]),
                        train_loss: f64::from(i),
                    };
                    match t.exchange(&dense).unwrap() {
                        DownMsg::DenseModel(m) => assert_eq!(*m, vec![i as f32; LEN]),
                        other => panic!("expected a dense reply, got {other:?}"),
                    }
                }
                t.shutdown().unwrap();
            });
            let handler = ToyHandler::shared(1, LEN);
            serve_pooled(listener, handler, server_opts(1), EventedOpts::default(), pool).unwrap();
            worker.join().unwrap();
        }
        let mut pool = BufferPool::new(POOL_BUFFERS);
        session(&mut pool, 4);
        let warm = (pool.idle(), pool.retained_bytes());
        assert!(warm.1 >= 4 * LEN, "the dense frames' buffer is retained: {warm:?}");
        session(&mut pool, 32);
        assert_eq!((pool.idle(), pool.retained_bytes()), warm);
    }

    #[test]
    fn over_budget_connection_gets_error_frame_and_counter() {
        let ev_opts = EventedOpts { max_conns: 1, ..EventedOpts::default() };
        let (addr, _handler, join) = spawn_evented(1, 0, ev_opts);
        // First connection fills the budget; handshake proves it is live
        // (accept processed) before the second connect races in.
        let mut first = {
            let stream = std::net::TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            WireConn::new(stream)
        };
        first
            .send_hello(MsgType::Hello, 0, &Hello { dim: DIM, applied: 0, theta0_crc: CRC })
            .unwrap();
        assert!(matches!(first.read_event().unwrap(), Event::HelloAck { .. }));
        // Second connection: explicit refusal, not a silent drop.
        let mut second = {
            let stream = std::net::TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            WireConn::new(stream)
        };
        match second.read_event().unwrap() {
            Event::Error { reason } => {
                assert!(reason.contains("connection budget exhausted"), "{reason}");
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        // The refused socket is closed server-side afterwards.
        assert!(matches!(second.read_event(), Err(NetError::Closed)));
        // First connection still works; finish the run.
        first.send_update(0, 1, &up(1.0)).unwrap();
        assert!(matches!(first.read_event().unwrap(), Event::Reply { .. }));
        first.send_control(MsgType::Shutdown, 0).unwrap();
        assert!(matches!(first.read_event().unwrap(), Event::ShutdownAck));
        let stats = join.join().unwrap().unwrap();
        assert_eq!(stats.rejected_conns, 1, "reject path must be counted");
        assert!(stats.control > 0, "the reject error frame is control bytes");
    }

    #[test]
    fn stalled_reader_is_disconnected_and_recovery_succeeds() {
        // 4 MiB dense replies against a 256 KiB write budget: the first
        // reply is accepted (empty queue) but cannot fully drain into the
        // socket buffers of a reader that never reads, so the second
        // reply trips backpressure and the server disconnects the
        // connection instead of buffering its downlink without bound.
        let ev_opts = EventedOpts { write_budget: 256 << 10, ..EventedOpts::default() };
        let (addr, handler, join) = spawn_evented(1, 1 << 20, ev_opts);
        {
            let stream = std::net::TcpStream::connect(&addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut stalled = WireConn::new(stream);
            stalled
                .send_hello(MsgType::Hello, 0, &Hello { dim: DIM, applied: 0, theta0_crc: CRC })
                .unwrap();
            assert!(matches!(stalled.read_event().unwrap(), Event::HelloAck { .. }));
            // Send updates but never read a reply. The server applies
            // them until the write budget trips; later sends may fail
            // once the server resets the connection — that's the point.
            for seq in 1..=8u32 {
                if stalled.send_update(0, seq, &up(f64::from(seq))).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(100));
            }
            // Drop without ever draining the downlink.
        }
        // The server survived and applied at least the first update but
        // stopped long before all 8 — the budget cut it off.
        let applied_before = handler.lock().unwrap().logic().applied[0];
        assert!(applied_before >= 1, "first update must have been applied");
        // Recovery: a well-behaved worker reconnects. The handshake
        // reports applied >= its seq, so the transport resyncs — the
        // documented reconnect/resync path after a backpressure kill.
        let mut t = TcpWorkerTransport::new(worker_opts(&addr, 0));
        match t.exchange(&up(9.0)).unwrap() {
            DownMsg::DenseModel(m) => assert_eq!(m.len(), 3, "resync reply expected"),
            other => panic!("expected dense resync recovery, got {other:?}"),
        }
        t.shutdown().unwrap();
        join.join().unwrap().unwrap();
        let h = handler.lock().unwrap();
        let h = h.logic();
        assert_eq!(h.resyncs, 1, "recovery goes through on_resync");
        assert!(
            h.applied[0] < 8,
            "a stalled reader must be cut off, not served to completion ({} applied)",
            h.applied[0]
        );
    }
}
