//! Integration: the full WebLab chain — synthetic crawls → ARC/DAT →
//! parallel preload → relational metadata + page store → retro browsing,
//! graph analytics, and stratified sampling.

use sciflow_core::rng::Rng;

use sciflow_metastore::prelude::*;
use sciflow_weblab::analytics::{graph_stats, pagerank};
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::graph::LinkGraph;
use sciflow_weblab::pagestore::PageStore;
use sciflow_weblab::preload::{create_pages_table, preload, PreloadConfig};
use sciflow_weblab::retro::RetroBrowser;
use sciflow_weblab::sample::stratified_sample;

#[test]
fn multi_crawl_ingest_supports_all_research_patterns() {
    let mut rng = Rng::seed_from_u64(1996);
    let web = SyntheticWeb::generate(
        WebConfig { n_domains: 6, pages_per_domain: 60, ..WebConfig::default() },
        3,
        &mut rng,
    );

    let mut db = Database::new();
    create_pages_table(&mut db).unwrap();
    let mut store = PageStore::new(1 << 22);
    let mut retro = RetroBrowser::new();
    let mut crawl_link_pairs = Vec::new();
    let mut id_base = 0usize;
    for (i, crawl) in web.crawls.iter().enumerate() {
        let files = web.crawl_files(i, 48).unwrap();
        let out = preload(&files, &mut db, &mut store, &PreloadConfig::default()).unwrap();
        assert_eq!(out.stats.pages, crawl.pages.len());
        for p in &crawl.pages {
            retro.index_capture(&p.url, crawl.date);
        }
        crawl_link_pairs.push((id_base, out.link_pairs));
        id_base += crawl.pages.len();
    }

    // Metadata and content stores agree on totals.
    let total_pages: usize = web.crawls.iter().map(|c| c.pages.len()).sum();
    assert_eq!(db.table("pages").unwrap().len(), total_pages);
    assert_eq!(store.page_count(), total_pages);

    // Retro browsing: a page that survived all crawls resolves to the
    // correct time slice for each as-of date.
    let url = &web.crawls[0].pages[0].url;
    if web.crawls.iter().all(|c| c.page(url).is_some()) {
        let mid = web.crawls[1].date;
        let page = retro.browse(&store, url, mid + 1).unwrap();
        assert_eq!(page.capture_date, mid);
        // Bodies from different crawls differ when the page churned.
        let v0 = store.get(url, web.crawls[0].date).unwrap();
        let v2 = store.get(url, web.crawls[2].date).unwrap();
        let rev0 = web.crawls[0].page(url).unwrap().revision;
        let rev2 = web.crawls[2].page(url).unwrap().revision;
        if rev0 != rev2 {
            assert_ne!(v0, v2, "churned page should have different content");
        }
    }

    // Graph of the newest crawl: connected, heavy-tailed, PageRank mass 1.
    let last = web.crawls.last().unwrap();
    let (base, pairs) = crawl_link_pairs.last().unwrap();
    let urls: Vec<String> = last.pages.iter().map(|p| p.url.clone()).collect();
    let local_pairs: Vec<(i64, String)> =
        pairs.iter().map(|(id, u)| (*id - *base as i64, u.clone())).collect();
    let graph = LinkGraph::build(urls, &local_pairs).unwrap();
    let stats = graph_stats(&graph);
    assert_eq!(stats.nodes, last.pages.len());
    assert!(stats.largest_component_fraction > 0.7, "{stats:?}");
    let pr = pagerank(&graph, 0.85, 30);
    assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // Stratified sample by domain: every domain represented; queries use
    // the domain index.
    let table = db.table("pages").unwrap();
    let domain_col = table.schema().column_index("domain").unwrap();
    let sample = stratified_sample(table, domain_col, 4, &mut rng).unwrap();
    assert_eq!(sample.strata.len(), 6);
    let q = Query::filter(Predicate::Eq(domain_col, Value::Text("site0.example.org".into())));
    assert_eq!(select(table, &q).unwrap().path, AccessPath::IndexEq);
}

#[test]
fn preload_is_deterministic_in_content_across_worker_counts() {
    let mut rng = Rng::seed_from_u64(44);
    let web = SyntheticWeb::generate(WebConfig::default(), 1, &mut rng);
    let files = web.crawl_files(0, 32).unwrap();

    let mut results = Vec::new();
    for workers in [1usize, 8] {
        let mut db = Database::new();
        create_pages_table(&mut db).unwrap();
        let mut store = PageStore::new(1 << 22);
        preload(&files, &mut db, &mut store, &PreloadConfig { workers, batch_size: 64 }).unwrap();
        // Canonical view: sorted (url, size) pairs.
        let table = db.table("pages").unwrap();
        let mut rows: Vec<(String, i64)> = table
            .scan()
            .map(|(_, r)| (r[1].as_text().unwrap().to_string(), r[5].as_int().unwrap()))
            .collect();
        rows.sort();
        results.push((rows, store.total_bytes()));
    }
    assert_eq!(results[0], results[1], "parallelism must not change the loaded data");
}
