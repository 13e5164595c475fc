//! Criterion benches mirroring the paper's figures at quick scale.
//!
//! One benchmark per experiment point: each iteration stages a fresh
//! document on a simulated disk and runs the full sort (sorting + output
//! phases). Criterion's wall-clock complements the harness's I/O counts --
//! `cargo run -p nexsort-bench --bin xsort-bench` prints the latter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nexsort_bench::{bench_spec, fanouts_for, measure_mergesort, measure_nexsort, RunConfig};
use nexsort_datagen::{table2_shapes, ExactGen, GenConfig, IbmGen};

const BS: usize = 1024;

/// Figure 5: memory sweep on a fixed hierarchical document.
fn fig5_memory(c: &mut Criterion) {
    let spec = bench_spec();
    let mut group = c.benchmark_group("fig5_memory");
    group.sample_size(10);
    for mem in [10usize, 16, 32, 64] {
        let cfg = RunConfig::sized(BS, mem);
        group.bench_with_input(BenchmarkId::new("nexsort", mem), &cfg, |b, cfg| {
            b.iter(|| {
                let mut g = IbmGen::new(5, 24, Some(8_000), GenConfig::default());
                measure_nexsort(&mut g, &spec, cfg).unwrap().total_ios()
            })
        });
        group.bench_with_input(BenchmarkId::new("mergesort", mem), &cfg, |b, cfg| {
            b.iter(|| {
                let mut g = IbmGen::new(5, 24, Some(8_000), GenConfig::default());
                measure_mergesort(&mut g, &spec, cfg).unwrap().total_ios()
            })
        });
    }
    group.finish();
}

/// Figure 6: size sweep at constant maximum fan-out 85.
fn fig6_scaling(c: &mut Criterion) {
    let spec = bench_spec();
    let mut group = c.benchmark_group("fig6_scaling");
    group.sample_size(10);
    for target in [2_000u64, 8_000, 30_000] {
        let fanouts = fanouts_for(target, 85);
        let cfg = RunConfig::sized(BS, 16);
        group.bench_with_input(BenchmarkId::new("nexsort", target), &fanouts, |b, f| {
            b.iter(|| {
                let mut g = ExactGen::new(f, GenConfig::default());
                measure_nexsort(&mut g, &spec, &cfg).unwrap().total_ios()
            })
        });
        group.bench_with_input(BenchmarkId::new("mergesort", target), &fanouts, |b, f| {
            b.iter(|| {
                let mut g = ExactGen::new(f, GenConfig::default());
                measure_mergesort(&mut g, &spec, &cfg).unwrap().total_ios()
            })
        });
    }
    group.finish();
}

/// Figure 7: the Table 2 tree shapes (scaled), all three algorithms.
fn fig7_shape(c: &mut Criterion) {
    let spec = bench_spec();
    let mut group = c.benchmark_group("fig7_shape");
    group.sample_size(10);
    for shape in table2_shapes(512) {
        let cfg = RunConfig::sized(BS, 16);
        group.bench_with_input(
            BenchmarkId::new("nexsort", shape.height),
            &shape.fanouts,
            |b, f| {
                b.iter(|| {
                    let mut g = ExactGen::new(f, GenConfig::default());
                    measure_nexsort(&mut g, &spec, &cfg).unwrap().total_ios()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("nexsort_degen", shape.height),
            &shape.fanouts,
            |b, f| {
                let mut cfg = cfg.clone();
                cfg.job.degeneration = true;
                b.iter(|| {
                    let mut g = ExactGen::new(f, GenConfig::default());
                    measure_nexsort(&mut g, &spec, &cfg).unwrap().total_ios()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mergesort", shape.height),
            &shape.fanouts,
            |b, f| {
                b.iter(|| {
                    let mut g = ExactGen::new(f, GenConfig::default());
                    measure_mergesort(&mut g, &spec, &cfg).unwrap().total_ios()
                })
            },
        );
    }
    group.finish();
}

/// The threshold experiment: t sweep.
fn fig_threshold(c: &mut Criterion) {
    let spec = bench_spec();
    let mut group = c.benchmark_group("fig_threshold");
    group.sample_size(10);
    for mult in [1u64, 2, 8, 32] {
        let mut cfg = RunConfig::sized(BS, 32);
        cfg.job.threshold = Some(mult * BS as u64);
        group.bench_with_input(BenchmarkId::new("nexsort", mult), &cfg, |b, cfg| {
            b.iter(|| {
                let mut g = IbmGen::new(5, 24, Some(8_000), GenConfig::default());
                measure_nexsort(&mut g, &spec, cfg).unwrap().total_ios()
            })
        });
    }
    group.finish();
}

criterion_group!(figures, fig5_memory, fig6_scaling, fig7_shape, fig_threshold);
criterion_main!(figures);
