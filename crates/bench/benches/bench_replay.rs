//! Criterion bench: live replay latency by probe position (Figure 12's
//! live counterpart) — outer probes restore, inner probes re-execute, and
//! parallel workers cut inner-probe latency.

use criterion::{criterion_group, criterion_main, Criterion};
use flor_bench::scripts;
use flor_core::record::{record, RecordOptions};
use flor_core::replay::{replay, ReplayOptions};

fn bench_replay(c: &mut Criterion) {
    // One shared recorded store for all replay benches.
    let dir = std::env::temp_dir().join(format!("flor-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = RecordOptions::new(&dir);
    opts.adaptive = false; // deterministic checkpoint placement
    record(scripts::CV_TRAIN, &opts).unwrap();

    let outer = scripts::probe_outer(scripts::CV_TRAIN);
    let inner = scripts::probe_inner(scripts::CV_TRAIN);

    let mut group = c.benchmark_group("replay_latency");
    group.sample_size(10);
    group.bench_function("outer_probe_partial", |b| {
        b.iter(|| replay(&outer, &dir, &ReplayOptions::default()).unwrap())
    });
    group.bench_function("inner_probe_1worker", |b| {
        b.iter(|| replay(&inner, &dir, &ReplayOptions::default()).unwrap())
    });
    group.bench_function("inner_probe_4workers", |b| {
        b.iter(|| replay(&inner, &dir, &ReplayOptions::with_workers(4)).unwrap())
    });
    group.finish();
}

fn bench_read_path(c: &mut Criterion) {
    use flor_bench::replay_read::{keys, ReadFixture};
    let n = 2_000u64;
    let seg = ReadFixture::build("crit-seg", n);
    let seg_store = seg.open();
    let ks = keys(n);

    let mut group = c.benchmark_group("checkpoint_read");
    let mut i = 0usize;
    group.bench_function("get_bytes_segmented", |b| {
        b.iter(|| {
            let (block, seq) = &ks[i % ks.len()];
            i += 1;
            criterion::black_box(seg_store.get_bytes(block, *seq).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay, bench_read_path);
criterion_main!(benches);
