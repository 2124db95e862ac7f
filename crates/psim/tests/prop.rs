//! Property-based tests for the discrete-event simulator: conservation
//! laws and timing monotonicity for arbitrary cluster geometries (48 seeded
//! cases each).

use dgs_psim::des::{run_des, DesNetwork, DesServer, DesWorker};
use dgs_psim::NetworkModel;
use dgs_tensor::rng::cases;

struct PropServer {
    proc_time: f64,
    reply_bytes: usize,
    arrivals: Vec<f64>,
}

impl DesServer for PropServer {
    type Up = ();
    type Down = ();

    fn handle(&mut self, _w: usize, _s: u64, vtime: f64, _up: ()) -> ((), usize, f64) {
        self.arrivals.push(vtime);
        ((), self.reply_bytes, self.proc_time)
    }
}

struct PropWorker {
    compute: f64,
    bytes: usize,
    applied: usize,
}

impl DesWorker for PropWorker {
    type Up = ();
    type Down = ();

    fn compute(&mut self) -> ((), usize, f64) {
        ((), self.bytes, self.compute)
    }

    fn apply(&mut self, _d: ()) {
        self.applied += 1;
    }
}

/// Every DES run processes exactly workers × iters iterations, counts
/// bytes exactly, serves arrivals in nondecreasing virtual time, and
/// accumulates server-busy time = iterations × proc.
#[test]
fn des_conservation() {
    cases(48, |rng| {
        let (workers, iters) = (rng.range(1..8), rng.range(0..12));
        let (compute_ms, proc_us) = (rng.range(1..50) as u32, rng.range(0..500) as u32);
        let bytes = rng.range(0..10_000);
        let shared = rng.below(2) == 1;
        let mut server = PropServer {
            proc_time: proc_us as f64 * 1e-6,
            reply_bytes: bytes / 2,
            arrivals: Vec::new(),
        };
        let mut ws: Vec<PropWorker> = (0..workers)
            .map(|_| PropWorker { compute: compute_ms as f64 * 1e-3, bytes, applied: 0 })
            .collect();
        let net = if shared {
            DesNetwork::shared(NetworkModel::one_gbps())
        } else {
            DesNetwork::per_worker(NetworkModel::one_gbps())
        };
        let report = run_des(&mut server, &mut ws, iters, net);
        assert_eq!(report.iterations, (workers * iters) as u64);
        assert_eq!(report.bytes_up, (workers * iters * bytes) as u64);
        assert_eq!(report.bytes_down, (workers * iters * (bytes / 2)) as u64);
        assert!(ws.iter().all(|w| w.applied == iters));
        assert!(server.arrivals.windows(2).all(|w| w[0] <= w[1]), "server arrivals out of order");
        let expect_busy = report.iterations as f64 * proc_us as f64 * 1e-6;
        assert!((report.server_busy - expect_busy).abs() < 1e-9);
        if iters > 0 && workers > 0 {
            // Total time at least one full round trip.
            let min_rt = compute_ms as f64 * 1e-3;
            assert!(report.total_time >= min_rt * iters as f64 * 0.999);
        }
    });
}

/// Shared-NIC runs are never faster than per-worker-link runs of the
/// same workload.
#[test]
fn shared_never_faster() {
    cases(48, |rng| {
        let (workers, iters) = (rng.range(1..6), rng.range(1..8));
        let bytes = rng.range(100..50_000);
        let mk = || PropServer { proc_time: 0.0, reply_bytes: bytes, arrivals: Vec::new() };
        let mk_w = |n: usize| -> Vec<PropWorker> {
            (0..n).map(|_| PropWorker { compute: 1e-4, bytes, applied: 0 }).collect()
        };
        let net = NetworkModel::new(0.01, 10.0);
        let mut s1 = mk();
        let mut w1 = mk_w(workers);
        let shared = run_des(&mut s1, &mut w1, iters, DesNetwork::shared(net));
        let mut s2 = mk();
        let mut w2 = mk_w(workers);
        let private = run_des(&mut s2, &mut w2, iters, DesNetwork::per_worker(net));
        assert!(
            shared.total_time >= private.total_time - 1e-12,
            "sharing cannot speed things up: {} vs {}",
            shared.total_time,
            private.total_time
        );
    });
}
