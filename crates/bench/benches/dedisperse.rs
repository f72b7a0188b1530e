//! Dedispersion kernel bench: the dominant CPU cost of the Arecibo survey.
//! `benchmark/` never dedisperses: ROADMAP "Put the paper's own kernels under
//! the benchmark" (a) plans `arecibo-search`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sciflow_arecibo::dedisperse::{dedisperse, dedisperse_many};
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig};
use sciflow_arecibo::units::{dm_trials, Dm};

fn bench_dedisperse(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = ObsConfig::test_scale();
    let spec = DynamicSpectrum::noise(cfg, &mut rng);
    let mut group = c.benchmark_group("dedisperse");
    let bytes = cfg.volume_bytes();
    group.throughput(criterion::Throughput::Bytes(bytes));
    group.bench_function("single_dm", |b| b.iter(|| dedisperse(black_box(&spec), Dm(120.0))));
    for &trials in &[8usize, 32] {
        let ladder = dm_trials(300.0, trials);
        group.bench_with_input(BenchmarkId::new("ladder", trials), &trials, |b, _| {
            b.iter(|| dedisperse_many(black_box(&spec), &ladder))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dedisperse);
criterion_main!(benches);
