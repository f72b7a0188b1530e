//! E5 kernel: hot-ASU scans on row vs column-partitioned layouts.
//! `benchmark/` never reads ASUs: ROADMAP "Put the paper's own kernels under
//! the benchmark" (a) plans `cleo-recon`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sciflow_cleo::asu::decompose;
use sciflow_cleo::detector::{simulate_event, DetectorConfig};
use sciflow_cleo::generator::{generate_run, GeneratorConfig};
use sciflow_cleo::partition::{default_tiering, hot_kinds, PartitionedStore, RowStore};
use sciflow_cleo::postrecon::compute_post_recon;
use sciflow_cleo::reconstruction::{reconstruct, ReconConfig};
use sciflow_core::rng::Rng;

fn events() -> Vec<sciflow_cleo::asu::EventAsus> {
    let mut rng = Rng::seed_from_u64(5);
    let det = DetectorConfig::default();
    let run = generate_run(1, 200, &GeneratorConfig::default(), &mut rng);
    let mut recon = Vec::new();
    let mut raws = Vec::new();
    for ev in &run.events {
        let raw = simulate_event(ev, &det, &mut rng);
        recon.push(reconstruct(&raw, &det, &ReconConfig::default()));
        raws.push(raw);
    }
    let post = compute_post_recon(&recon);
    raws.iter().zip(&recon).zip(&post.per_event).map(|((raw, r), p)| decompose(raw, r, p)).collect()
}

fn bench_partition(c: &mut Criterion) {
    let evs = events();
    let hot = hot_kinds();
    let mut group = c.benchmark_group("partition");
    group.bench_function("hot_scan_partitioned", |b| {
        b.iter(|| {
            let mut store = PartitionedStore::load(evs.clone(), default_tiering);
            for i in 0..store.len() {
                store.read(black_box(i), &hot);
            }
            store.stats.bytes_read
        })
    });
    group.bench_function("hot_scan_row", |b| {
        b.iter(|| {
            let mut store = RowStore::load(evs.clone());
            for i in 0..store.len() {
                store.read(black_box(i), &hot);
            }
            store.stats.bytes_read
        })
    });
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
