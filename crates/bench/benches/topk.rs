//! Top-k selection engine benchmarks: comparator reference vs the radix
//! engine across a (dim × keep-ratio × distribution) grid — the
//! per-iteration selection cost paid on both sparsification ways (worker
//! uplink and server secondary compression). Results are recorded in
//! `BENCH_topk.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dgs_sparsify::{
    radix_topk_indices, sampled_threshold, topk_indices, topk_threshold, SelectScratch,
};

/// Smooth heavy-tailed synthetic gradient (cubed sinusoid mix).
fn synth_heavy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.7391).sin() * 2.0 + (i as f64 * 0.113).cos();
            (x * x * x) as f32
        })
        .collect()
}

/// A one-ulp-band magnitude plateau (every key inside a single two-byte
/// prefix): the radix cascade's adversarial case — it triggers the
/// filtered narrowing pass — and the comparator's best case.
fn synth_uniform(n: usize) -> Vec<f32> {
    (0..n).map(|i| 1.0 + ((i as f64 * 0.618_033_988).fract() * 1e-3) as f32).collect()
}

/// Exponential-ish decay with sign flips: very skewed, top-heavy.
fn synth_skewed(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let mag = (-(i as f64) * 8.0 / n as f64).exp();
            (if i % 3 == 0 { -mag } else { mag }) as f32
        })
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let dists: [(&str, fn(usize) -> Vec<f32>); 3] =
        [("heavy", synth_heavy), ("uniform", synth_uniform), ("skewed", synth_skewed)];
    for &(dist, gen) in &dists {
        let mut group = c.benchmark_group(format!("select/{dist}"));
        for &n in &[10_000usize, 100_000, 1_000_000] {
            let data = gen(n);
            for &ratio_pct in &[1usize, 10] {
                let k = (n * ratio_pct / 100).max(1);
                let id = format!("{n}x{ratio_pct}pct");
                // Cross-check the engines on the exact bench input before
                // timing anything: CI's `--test` smoke of this bench doubles
                // as a large-input differential check.
                let mut scratch = SelectScratch::new();
                assert_eq!(
                    topk_indices(&data, k),
                    radix_topk_indices(&data, k, &mut scratch),
                    "engines disagree on bench input {dist}/{id}"
                );
                group.bench_with_input(BenchmarkId::new("comparator", &id), &n, |b, _| {
                    b.iter(|| topk_indices(black_box(&data), black_box(k)))
                });
                group.bench_with_input(BenchmarkId::new("radix", &id), &n, |b, _| {
                    b.iter(|| radix_topk_indices(black_box(&data), black_box(k), &mut scratch))
                });
            }
        }
        group.finish();
    }
}

fn bench_thresholds(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold");
    for &n in &[100_000usize, 1_000_000] {
        let data = synth_heavy(n);
        let k = n / 100;
        group.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| topk_threshold(black_box(&data), black_box(k)))
        });
        group.bench_with_input(BenchmarkId::new("sampled_1pct", n), &n, |b, _| {
            b.iter(|| sampled_threshold(black_box(&data), black_box(k), n / 100, 42))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_thresholds);
criterion_main!(benches);
