//! Criterion bench: tensor substrate kernels (sanity numbers for the
//! miniature workloads' compute costs).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flor_tensor::{init, ops, Pcg64, Tensor};

fn bench_tensor(c: &mut Criterion) {
    let mut rng = Pcg64::seeded(1);
    let a = init::uniform([64, 64], -1.0, 1.0, &mut rng);
    let b = init::uniform([64, 64], -1.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("tensor");
    group.throughput(Throughput::Elements(64 * 64 * 64));
    group.bench_function("matmul_64", |g| {
        g.iter(|| std::hint::black_box(&a).matmul(std::hint::black_box(&b)))
    });
    // A hidden layer of the e2ebench `base` MLP (batch 64, width 128) on
    // ReLU-sparse operands: forward x·W, weight gradient xᵀ·g without a
    // transposed copy, input gradient g·Wᵀ through the tiled transpose.
    let x = ops::relu(&init::uniform([64, 128], -1.0, 1.0, &mut rng));
    let grad = ops::relu(&init::uniform([64, 128], -1.0, 1.0, &mut rng));
    let w = init::kaiming_normal(128, 128, &mut rng);
    group.throughput(Throughput::Elements(64 * 128 * 128));
    group.bench_function("mlp_fwd_64x128x128", |g| {
        g.iter(|| std::hint::black_box(&x).matmul(std::hint::black_box(&w)))
    });
    group.bench_function("mlp_dw_128x64x128", |g| {
        g.iter(|| std::hint::black_box(&x).matmul_tn(std::hint::black_box(&grad)))
    });
    group.bench_function("mlp_dx_64x128x128", |g| {
        g.iter(|| std::hint::black_box(&grad).matmul(&std::hint::black_box(&w).transpose()))
    });
    group.throughput(Throughput::Elements(128 * 128));
    group.bench_function("transpose_128", |g| {
        g.iter(|| std::hint::black_box(&w).transpose())
    });
    group.bench_function("softmax_rows", |g| {
        g.iter(|| ops::softmax_rows(std::hint::black_box(&a)))
    });
    let logits = init::uniform([64, 10], -2.0, 2.0, &mut rng);
    let targets: Vec<usize> = (0..64).map(|i| i % 10).collect();
    group.bench_function("cross_entropy", |g| {
        g.iter(|| ops::cross_entropy(std::hint::black_box(&logits), &targets))
    });
    let t = init::uniform([256 * 1024], -1.0, 1.0, &mut rng);
    group.bench_function("tensor_to_bytes_1mb", |g| {
        g.iter(|| std::hint::black_box(&t).to_bytes())
    });
    let bytes = t.to_bytes();
    group.bench_function("tensor_from_bytes_1mb", |g| {
        g.iter(|| Tensor::from_bytes(std::hint::black_box(&bytes)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_tensor);
criterion_main!(benches);
