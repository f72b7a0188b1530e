//! E8 kernel: preload throughput vs worker count.
//! `benchmark/` never preloads: ROADMAP "Put the paper's own kernels under the
//! benchmark" (a) plans `weblab-preload`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sciflow_core::rng::Rng;
use sciflow_metastore::Database;
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::pagestore::PageStore;
use sciflow_weblab::preload::{
    create_pages_table, create_pages_table_unindexed, preload, PreloadConfig,
};

fn bench_preload(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(8);
    let web = SyntheticWeb::generate(
        WebConfig { n_domains: 8, pages_per_domain: 60, ..WebConfig::default() },
        1,
        &mut rng,
    );
    let files = web.crawl_files(0, 48).unwrap();
    let bytes: u64 = files.iter().map(|(a, d)| (a.len() + d.len()) as u64).sum();
    let mut group = c.benchmark_group("preload");
    group.throughput(criterion::Throughput::Bytes(bytes));
    for &workers in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| {
                let mut db = Database::new();
                create_pages_table(&mut db).unwrap();
                let mut store = PageStore::new(1 << 22);
                preload(
                    black_box(&files),
                    &mut db,
                    &mut store,
                    &PreloadConfig { workers: w, batch_size: 256 },
                )
                .unwrap()
                .stats
                .pages
            })
        });
    }
    // Ablation: "the index management" is one of the paper's tunables —
    // loading into an unindexed table vs one with url/domain/date indexes.
    group.bench_function("load_indexed", |b| {
        b.iter(|| {
            let mut db = Database::new();
            create_pages_table(&mut db).unwrap();
            let mut store = PageStore::new(1 << 22);
            preload(black_box(&files), &mut db, &mut store, &PreloadConfig::default())
                .unwrap()
                .stats
                .pages
        })
    });
    group.bench_function("load_unindexed", |b| {
        b.iter(|| {
            let mut db = Database::new();
            create_pages_table_unindexed(&mut db).unwrap();
            let mut store = PageStore::new(1 << 22);
            preload(black_box(&files), &mut db, &mut store, &PreloadConfig::default())
                .unwrap()
                .stats
                .pages
        })
    });
    group.finish();
}

criterion_group!(benches, bench_preload);
criterion_main!(benches);
