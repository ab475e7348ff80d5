//! Criterion benchmark for Table 1's workload: the optimized
//! metric/metric-diagram algorithm (Appendix D) against the naïve
//! per-threshold baseline, across dataset sizes.
//!
//! Run `cargo bench -p frost-bench`. Sizes are scaled versions of the
//! paper's rows; set `FROST_SCALE` to adjust.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use frost_core::dataset::Experiment;
use frost_core::diagram::DiagramEngine;
use frost_datagen::experiments::synthetic_experiment;
use frost_datagen::generator::generate;
use frost_datagen::presets::{altosight_x4, cora, freedb_cds, songs_100k};

fn bench_engines(c: &mut Criterion) {
    let scale: f64 = std::env::var("FROST_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1);
    let s = 100;
    let mut group = c.benchmark_group("metric_diagrams");
    group.sample_size(10);

    for preset in [
        altosight_x4(scale.max(0.5)),
        cora(scale.max(0.5)),
        freedb_cds(scale),
        songs_100k(scale),
    ] {
        let gen = generate(&preset.config);
        let n = gen.dataset.len();
        let experiment = synthetic_experiment(
            "bench",
            &gen.truth,
            preset.matched_pairs,
            0.7,
            preset.config.seed,
        );
        let matches = experiment.len();
        group.bench_with_input(
            BenchmarkId::new(
                "optimized",
                format!("{}-n{n}-m{matches}", preset.config.name),
            ),
            &(),
            |b, _| {
                b.iter(|| DiagramEngine::Optimized.confusion_series(n, &gen.truth, &experiment, s))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", format!("{}-n{n}-m{matches}", preset.config.name)),
            &(),
            |b, _| b.iter(|| DiagramEngine::Naive.confusion_series(n, &gen.truth, &experiment, s)),
        );
    }
    group.finish();
}

/// The multi-experiment N-Metrics sweep: 6 independent experiments on
/// one dataset, swept with `confusion_series_multi`, at 1 thread vs
/// all hardware threads (the vendored rayon re-reads
/// `RAYON_NUM_THREADS` per call, so the bench can vary it in-process).
fn bench_multi_sweep(c: &mut Criterion) {
    let scale: f64 = std::env::var("FROST_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1);
    let s = 100;
    let preset = cora(scale.max(0.5));
    let gen = generate(&preset.config);
    let n = gen.dataset.len();
    let experiments: Vec<Experiment> = (0..6)
        .map(|i| {
            synthetic_experiment(
                format!("sweep-{i}"),
                &gen.truth,
                preset.matched_pairs,
                0.7,
                preset.config.seed + i,
            )
        })
        .collect();
    let refs: Vec<&Experiment> = experiments.iter().collect();
    let hw = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut group = c.benchmark_group("multi_sweep");
    group.sample_size(10);
    for threads in [1usize, hw.max(2)] {
        group.bench_with_input(
            BenchmarkId::new("optimized_x6", format!("{threads}-threads")),
            &threads,
            |b, &threads| {
                std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
                b.iter(|| DiagramEngine::Optimized.confusion_series_multi(n, &gen.truth, &refs, s));
                std::env::remove_var("RAYON_NUM_THREADS");
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_multi_sweep);
criterion_main!(benches);
