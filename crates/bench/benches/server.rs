//! Parameter-server microbenchmarks: the per-update cost of
//! model-difference tracking (`M ← M − g`, `G = M − v_k`, secondary
//! compression) as model size and worker count grow — the §5.6 server-side
//! scalability story.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dgs_core::protocol::{UpMsg, UpPayload};
use dgs_core::server::{Downlink, MdtServer};
use dgs_core::shard::ShardedMdtServer;
use dgs_sparsify::{Partition, SparseUpdate};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn sparse_up(part: &Partition, dim: usize, seed: usize, ratio: f64) -> UpMsg {
    let flat: Vec<f32> =
        (0..dim).map(|i| (((i * 31 + seed * 17) as f64 * 0.7391).sin() * 2.0) as f32).collect();
    UpMsg {
        payload: UpPayload::Sparse(SparseUpdate::from_topk(&flat, part, ratio)),
        train_loss: 0.0,
    }
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("mdt_handle_update");
    for &dim in &[100_000usize, 1_000_000] {
        let part = Partition::from_layer_sizes(
            (0..20).map(|i| (format!("layer{i}"), dim / 20)).collect::<Vec<_>>(),
        );
        let up = sparse_up(&part, dim, 1, 0.01);
        group.bench_with_input(BenchmarkId::new("no_secondary", dim), &dim, |b, _| {
            let mut server = MdtServer::new(
                vec![0.0; dim],
                part.clone(),
                4,
                Downlink::ModelDifference { secondary_ratio: None },
            );
            let mut w = 0usize;
            b.iter(|| {
                let reply = server.handle_update(w % 4, black_box(&up));
                w += 1;
                reply
            })
        });
        group.bench_with_input(BenchmarkId::new("secondary_1pct", dim), &dim, |b, _| {
            let mut server = MdtServer::new(
                vec![0.0; dim],
                part.clone(),
                4,
                Downlink::ModelDifference { secondary_ratio: Some(0.01) },
            );
            let mut w = 0usize;
            b.iter(|| {
                let reply = server.handle_update(w % 4, black_box(&up));
                w += 1;
                reply
            })
        });
        group.bench_with_input(BenchmarkId::new("dense_asgd", dim), &dim, |b, _| {
            let dense = UpMsg { payload: UpPayload::Dense(vec![0.001; dim]), train_loss: 0.0 };
            let mut server = MdtServer::new(vec![0.0; dim], part.clone(), 4, Downlink::DenseModel);
            let mut w = 0usize;
            b.iter(|| {
                let reply = server.handle_update(w % 4, black_box(&dense));
                w += 1;
                reply
            })
        });
    }
    group.finish();
}

/// Builds a step's uplink with a controlled index layout. `uniform`
/// scatters the support at a fixed stride across each segment (worst case
/// for merge gather locality); `clustered` packs it into a shifting window
/// at 50% density (gradient mass concentrated in a few rows — what Top-k
/// selection actually produces on embedding/attention layers).
fn synth_up(part: &Partition, dim: usize, step: usize, ratio: f64, clustered: bool) -> UpMsg {
    let mut flat = vec![0.0f32; dim];
    for seg in part.segments() {
        let nnz = ((seg.len as f64 * ratio).ceil() as usize).max(1);
        let fill = |j: usize| (((step * 31 + j * 13) as f64 * 0.7391).sin() * 2.0) as f32 + 0.1;
        if clustered {
            let window = nnz * 2;
            let start = (step * 7919) % (seg.len - window);
            for j in 0..nnz {
                flat[seg.offset + start + j * 2] = fill(j);
            }
        } else {
            let stride = seg.len / nnz;
            let start = (step * 7919 + seg.offset) % stride;
            for j in 0..nnz {
                flat[seg.offset + start + j * stride] = fill(j);
            }
        }
    }
    UpMsg { payload: UpPayload::Sparse(SparseUpdate::from_nonzero(&flat, part)), train_loss: 0.0 }
}

/// Log-merge vs dense-scan downlink construction (`DESIGN.md` §"Server hot
/// path") across worker counts, staleness distributions, uplink layouts,
/// and secondary-compression settings. Baseline numbers are recorded in
/// `BENCH_server.json` at the repo root.
fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("downlink_strategy");
    group.sample_size(20);
    let dim = 1_000_000usize;
    let part = Partition::from_layer_sizes(
        (0..20).map(|i| (format!("layer{i}"), dim / 20)).collect::<Vec<_>>(),
    );
    for (layout, clustered) in [("uniform", false), ("clustered", true)] {
        // Distinct supports per step so the log sees realistic churn.
        let updates: Vec<UpMsg> =
            (0..64).map(|s| synth_up(&part, dim, s, 0.01, clustered)).collect();
        for (sec_name, secondary) in [("no_secondary", None), ("secondary_1pct", Some(0.01))] {
            for &workers in &[4usize, 16] {
                // round_robin: every cursor is `workers` updates old (uniform
                // mild staleness). straggler: one worker pulls every 32nd
                // update, so its merge spans a long log suffix (heavy-tailed
                // staleness).
                for (sched, straggler) in [("round_robin", false), ("straggler", true)] {
                    // The dense-scan side is a server whose one-index log
                    // budget every update overflows, so no cursor is ever
                    // covered and each reply takes the fallback scan.
                    for (name, dense) in [("log_merge", false), ("dense_scan", true)] {
                        let id = BenchmarkId::new(
                            format!("{name}_{sched}_{sec_name}_{layout}"),
                            workers,
                        );
                        group.bench_with_input(id, &workers, |b, &workers| {
                            let mut server = MdtServer::new(
                                vec![0.0; dim],
                                part.clone(),
                                workers,
                                Downlink::ModelDifference { secondary_ratio: secondary },
                            );
                            if dense {
                                server.set_log_capacity(1);
                            }
                            let mut step = 0usize;
                            b.iter(|| {
                                let w = if straggler {
                                    if step % 32 == 31 {
                                        workers - 1
                                    } else {
                                        step % (workers - 1)
                                    }
                                } else {
                                    step % workers
                                };
                                let reply = server
                                    .handle_update(w, black_box(&updates[step % updates.len()]));
                                step += 1;
                                reply
                            })
                        });
                    }
                }
            }
        }
    }
    group.finish();
}

/// Wall-clock for `iters` updates split across `workers` OS threads, all
/// hammering one server concurrently. A barrier releases every thread at
/// once so the measurement is pure contended throughput, not spawn skew.
fn contended_wall(iters: u64, workers: usize, run: impl Fn(usize) + Sync) -> Duration {
    let barrier = Barrier::new(workers + 1);
    let per = (iters as usize).div_ceil(workers).max(1);
    let mut start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let barrier = &barrier;
            let run = &run;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..per {
                    run(w);
                }
            });
        }
        barrier.wait();
        start = Instant::now();
    });
    start.elapsed()
}

/// Lock-striped sharded server vs the global-lock server under genuine
/// multi-worker contention: the tentpole's scalability claim. Shard count
/// 1 isolates the striping overhead (front lock + fan-out) from the
/// concurrency win; the `global_lock` rows are the `Mutex<MdtServer>`
/// arrangement the TCP runtime used before sharding. Recorded numbers
/// live in `BENCH_server.json` (with container caveats — a 1-core box
/// serializes everything and understates the sharded win).
fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_vs_global");
    group.sample_size(10);
    let dim = 1_000_000usize;
    let part = Partition::from_layer_sizes(
        (0..20).map(|i| (format!("layer{i}"), dim / 20)).collect::<Vec<_>>(),
    );
    for (sec_name, secondary) in [("no_secondary", None), ("secondary_1pct", Some(0.01))] {
        let downlink = Downlink::ModelDifference { secondary_ratio: secondary };
        for &workers in &[2usize, 4] {
            // One fixed update per worker: distinct supports, zero
            // per-iteration setup inside the timed region.
            let updates: Vec<UpMsg> =
                (0..workers).map(|k| sparse_up(&part, dim, k + 1, 0.01)).collect();
            for &shards in &[1usize, 2, 4, 8] {
                let id =
                    BenchmarkId::new(format!("sharded_{sec_name}_w{workers}"), shards);
                group.bench_with_input(id, &shards, |b, &shards| {
                    b.iter_custom(|iters| {
                        let server = Arc::new(ShardedMdtServer::new(
                            vec![0.0; dim],
                            part.clone(),
                            workers,
                            downlink,
                            shards,
                        ));
                        contended_wall(iters, workers, |w| {
                            black_box(server.handle_update(w, black_box(&updates[w])));
                        })
                    })
                });
            }
            let id = BenchmarkId::new(format!("global_lock_{sec_name}_w{workers}"), 0usize);
            group.bench_with_input(id, &workers, |b, &workers| {
                b.iter_custom(|iters| {
                    let server = Arc::new(Mutex::new(MdtServer::new(
                        vec![0.0; dim],
                        part.clone(),
                        workers,
                        downlink,
                    )));
                    contended_wall(iters, workers, |w| {
                        black_box(
                            server.lock().unwrap().handle_update(w, black_box(&updates[w])),
                        );
                    })
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_server, bench_strategies, bench_sharded);
criterion_main!(benches);
