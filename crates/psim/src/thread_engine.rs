//! Real-thread cluster engine: one OS thread per worker, one server thread.
//!
//! Workers send requests through one shared `std::sync::mpsc` channel (the
//! server thread is its single consumer); the server replies through
//! per-worker channels. This is a faithful small-scale analogue of
//! the paper's parameter-server deployment: workers genuinely race, the
//! interleaving of updates at the server is nondeterministic, and gradient
//! staleness arises for real rather than being injected.

use crate::stats::TrafficStats;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::Arc;

/// Server side of a parameter-server algorithm.
///
/// The engine calls [`handle`](ServerLogic::handle) once per received
/// request, in arrival order, from a single server thread — so
/// implementations need no internal locking.
pub trait ServerLogic: Send {
    /// Worker→server payload.
    type Request: Send + 'static;
    /// Server→worker payload.
    type Reply: Send + 'static;

    /// Processes one request from `worker`, returning the reply. `seq` is
    /// the 0-based global arrival index (the paper's server timestamp `t`).
    fn handle(&mut self, worker: usize, seq: u64, req: Self::Request) -> Self::Reply;

    /// Wire size of a request in bytes (for traffic accounting).
    fn request_bytes(req: &Self::Request) -> usize;

    /// Wire size of a reply in bytes.
    fn reply_bytes(reply: &Self::Reply) -> usize;
}

/// Worker side of a parameter-server algorithm.
pub trait WorkerLogic: Send {
    /// Worker→server payload.
    type Request: Send + 'static;
    /// Server→worker payload.
    type Reply: Send + 'static;

    /// Computes one local iteration (minibatch forward/backward plus
    /// compression) and returns the request to send.
    fn step(&mut self, iter: usize) -> Self::Request;

    /// Applies the server's reply to local state.
    fn apply(&mut self, reply: Self::Reply);
}

/// Outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterReport<S, W> {
    /// The server logic, with whatever state/curves it accumulated.
    pub server: S,
    /// The worker logics, in worker order.
    pub workers: Vec<W>,
    /// Total traffic in both directions.
    pub traffic: crate::stats::TrafficSnapshot,
    /// Wall-clock duration of the run in seconds (host time).
    pub wall_secs: f64,
}

enum Envelope<R> {
    Request { worker: usize, req: R },
    Done,
}

/// Request-channel endpoints, named to keep the engine signature readable.
type ReqChannel<R> = (Sender<Envelope<R>>, Receiver<Envelope<R>>);

/// Runs `workers.len()` worker threads against one server thread until each
/// worker has completed `iters_per_worker` iterations.
///
/// Every request is matched by exactly one reply (synchronous round-trip per
/// worker, as in the paper's Fig. 1 protocol: send gradient, wait for model
/// update, continue). Asynchrony is *across* workers.
pub fn run_cluster<S, W>(
    mut server: S,
    workers: Vec<W>,
    iters_per_worker: usize,
) -> ClusterReport<S, W>
where
    S: ServerLogic + 'static,
    W: WorkerLogic<Request = S::Request, Reply = S::Reply> + 'static,
{
    let start = std::time::Instant::now();
    let n = workers.len();
    let traffic = Arc::new(TrafficStats::new());
    let (req_tx, req_rx): ReqChannel<S::Request> = channel();

    // Per-worker reply channels; capacity 1 suffices for the round-trip
    // protocol but a little slack is harmless.
    let mut reply_txs = Vec::with_capacity(n);
    let mut reply_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = sync_channel::<S::Reply>(2);
        reply_txs.push(tx);
        reply_rxs.push(rx);
    }

    let worker_handles: Vec<_> = workers
        .into_iter()
        .zip(reply_rxs)
        .enumerate()
        .map(|(wid, (mut logic, reply_rx))| {
            let req_tx = req_tx.clone();
            let traffic = Arc::clone(&traffic);
            std::thread::Builder::new()
                .name(format!("dgs-worker-{wid}"))
                .spawn(move || {
                    for iter in 0..iters_per_worker {
                        let req = logic.step(iter);
                        traffic.record_up(S::request_bytes(&req));
                        req_tx
                            .send(Envelope::Request { worker: wid, req })
                            .expect("server hung up");
                        let reply = reply_rx.recv().expect("server hung up");
                        traffic.record_down(S::reply_bytes(&reply));
                        logic.apply(reply);
                    }
                    req_tx.send(Envelope::Done).ok();
                    logic
                })
                .expect("spawn worker thread")
        })
        .collect();
    drop(req_tx);

    // Server loop on the calling thread: arrival order defines `seq`.
    let mut remaining = n;
    let mut seq = 0u64;
    while remaining > 0 {
        match req_rx.recv().expect("all workers hung up") {
            Envelope::Request { worker, req } => {
                let reply = server.handle(worker, seq, req);
                seq += 1;
                // A send can only fail if the worker already exited, which
                // the protocol precludes; surface violations loudly.
                reply_txs[worker].send(reply).expect("worker hung up mid-round-trip");
            }
            Envelope::Done => remaining -= 1,
        }
    }

    let workers: Vec<W> =
        worker_handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();

    ClusterReport {
        server,
        workers,
        traffic: traffic.snapshot(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Toy protocol: workers send `+1`, server accumulates into a counter
    /// and replies with the current total.
    struct CountServer {
        total: u64,
        per_worker: Vec<u64>,
        seqs: Vec<u64>,
    }

    impl ServerLogic for CountServer {
        type Request = u64;
        type Reply = u64;

        fn handle(&mut self, worker: usize, seq: u64, req: u64) -> u64 {
            self.total += req;
            self.per_worker[worker] += 1;
            self.seqs.push(seq);
            self.total
        }

        fn request_bytes(_: &u64) -> usize {
            8
        }

        fn reply_bytes(_: &u64) -> usize {
            8
        }
    }

    struct CountWorker {
        last_seen: u64,
        observed: Arc<Mutex<Vec<u64>>>,
    }

    impl WorkerLogic for CountWorker {
        type Request = u64;
        type Reply = u64;

        fn step(&mut self, _iter: usize) -> u64 {
            1
        }

        fn apply(&mut self, reply: u64) {
            // Replies must be monotone from this worker's perspective.
            assert!(reply > self.last_seen, "replies should be increasing");
            self.last_seen = reply;
            self.observed.lock().expect("observer lock").push(reply);
        }
    }

    #[test]
    fn all_iterations_processed_exactly_once() {
        let n = 4;
        let iters = 50;
        let observed = Arc::new(Mutex::new(Vec::new()));
        let server = CountServer { total: 0, per_worker: vec![0; n], seqs: Vec::new() };
        let workers: Vec<CountWorker> =
            (0..n).map(|_| CountWorker { last_seen: 0, observed: Arc::clone(&observed) }).collect();
        let report = run_cluster(server, workers, iters);
        assert_eq!(report.server.total, (n * iters) as u64);
        assert!(report.server.per_worker.iter().all(|&c| c == iters as u64));
        // seq is a contiguous 0..N*iters sequence.
        assert_eq!(report.server.seqs, (0..(n * iters) as u64).collect::<Vec<_>>());
        // Traffic: every message counted.
        assert_eq!(report.traffic.msgs_up, (n * iters) as u64);
        assert_eq!(report.traffic.msgs_down, (n * iters) as u64);
        assert_eq!(report.traffic.bytes_up, (n * iters * 8) as u64);
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let observed = Arc::new(Mutex::new(Vec::new()));
        let server = CountServer { total: 0, per_worker: vec![0; 1], seqs: Vec::new() };
        let workers = vec![CountWorker { last_seen: 0, observed: Arc::clone(&observed) }];
        let report = run_cluster(server, workers, 10);
        assert_eq!(report.server.total, 10);
        // With one worker the observed totals are exactly 1..=10.
        assert_eq!(*observed.lock().expect("observer lock"), (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_iterations_terminates() {
        let server = CountServer { total: 0, per_worker: vec![0; 2], seqs: Vec::new() };
        let observed = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<CountWorker> =
            (0..2).map(|_| CountWorker { last_seen: 0, observed: Arc::clone(&observed) }).collect();
        let report = run_cluster(server, workers, 0);
        assert_eq!(report.server.total, 0);
        assert_eq!(report.traffic.msgs_up, 0);
    }

    #[test]
    fn many_workers_stress() {
        let n = 16;
        let iters = 25;
        let observed = Arc::new(Mutex::new(Vec::new()));
        let server = CountServer { total: 0, per_worker: vec![0; n], seqs: Vec::new() };
        let workers: Vec<CountWorker> =
            (0..n).map(|_| CountWorker { last_seen: 0, observed: Arc::clone(&observed) }).collect();
        let report = run_cluster(server, workers, iters);
        assert_eq!(report.server.total, (n * iters) as u64);
        assert!(report.wall_secs >= 0.0);
    }
}
