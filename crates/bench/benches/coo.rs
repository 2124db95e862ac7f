//! COO wire-format microbenchmarks: encode/decode cost at the densities
//! the methods actually transmit (R = 1%, 5%, and a dense-diff worst case).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dgs_sparsify::{Partition, SparseUpdate, TernaryUpdate};

fn synth(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f64 * 0.7391).sin() * 3.0) as f32).collect()
}

fn bench_coo(c: &mut Criterion) {
    let n = 1_000_000;
    let data = synth(n);
    let part = Partition::from_layer_sizes(
        (0..20).map(|i| (format!("layer{i}"), n / 20)).collect::<Vec<_>>(),
    );

    let mut group = c.benchmark_group("coo_encode");
    for &(label, ratio) in &[("r1pct", 0.01), ("r5pct", 0.05), ("r50pct", 0.5)] {
        let update = SparseUpdate::from_topk(&data, &part, ratio);
        group.bench_with_input(BenchmarkId::from_parameter(label), &ratio, |b, _| {
            b.iter(|| black_box(&update).encode())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("coo_decode");
    for &(label, ratio) in &[("r1pct", 0.01), ("r5pct", 0.05)] {
        let encoded = SparseUpdate::from_topk(&data, &part, ratio).encode();
        group.bench_with_input(BenchmarkId::from_parameter(label), &ratio, |b, _| {
            b.iter(|| SparseUpdate::decode(black_box(&encoded)).unwrap())
        });
    }
    group.finish();

    c.bench_function("sparsify_1M_r1pct", |b| {
        b.iter(|| SparseUpdate::from_topk(black_box(&data), &part, 0.01))
    });

    // Extension primitives at the same scale.
    let update = SparseUpdate::from_topk(&data, &part, 0.01);
    c.bench_function("ternary_quantize_1M_r1pct", |b| {
        b.iter(|| TernaryUpdate::quantize(black_box(&update), 42))
    });
    let quantized = TernaryUpdate::quantize(&update, 42);
    c.bench_function("ternary_dequantize_1M_r1pct", |b| {
        b.iter(|| black_box(&quantized).dequantize())
    });
}

criterion_group!(benches, bench_coo);
criterion_main!(benches);
