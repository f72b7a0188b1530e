//! E9 kernels: PageRank and components on the synthetic web graph.
//! `benchmark/` never builds or ranks a link graph: ROADMAP "Put the paper's
//! own kernels under the benchmark" (a) plans `weblab-preload`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sciflow_weblab::analytics::{pagerank, weakly_connected_components};
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::graph::LinkGraph;

fn web_graph() -> LinkGraph {
    let mut rng = StdRng::seed_from_u64(9);
    let web = SyntheticWeb::generate(
        WebConfig { n_domains: 20, pages_per_domain: 200, mean_links: 8, ..WebConfig::default() },
        1,
        &mut rng,
    );
    let crawl = &web.crawls[0];
    let urls: Vec<String> = crawl.pages.iter().map(|p| p.url.clone()).collect();
    let pairs: Vec<(i64, String)> = crawl
        .pages
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.links.iter().map(move |l| (i as i64, l.clone())))
        .collect();
    LinkGraph::build(urls, &pairs).unwrap()
}

fn bench_graph(c: &mut Criterion) {
    let g = web_graph();
    let mut group = c.benchmark_group("graph");
    group.throughput(criterion::Throughput::Elements(g.edge_count() as u64));
    group.bench_function("pagerank_30_iters", |b| b.iter(|| pagerank(black_box(&g), 0.85, 30)));
    group.bench_function("wcc", |b| b.iter(|| weakly_connected_components(black_box(&g)).1));
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
