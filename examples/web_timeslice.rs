//! The WebLab workload end to end: crawl a synthetic web across time
//! slices, preload it, browse it retroactively, analyze the link graph, and
//! draw a stratified sample.
//!
//! ```text
//! cargo run -p sciflow-examples --release --bin web_timeslice
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sciflow_metastore::Database;
use sciflow_weblab::analytics::{graph_stats, pagerank};
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::graph::LinkGraph;
use sciflow_weblab::pagestore::PageStore;
use sciflow_weblab::preload::{create_pages_table, preload, PreloadConfig};
use sciflow_weblab::retro::RetroBrowser;
use sciflow_weblab::sample::stratified_sample;

fn main() {
    let mut rng = StdRng::seed_from_u64(1996); // the Archive's first crawl
    let web = SyntheticWeb::generate(
        WebConfig { n_domains: 10, pages_per_domain: 80, ..WebConfig::default() },
        5,
        &mut rng,
    );
    println!(
        "synthetic web: {} crawls, {} pages in crawl 0",
        web.crawls.len(),
        web.crawls[0].pages.len()
    );

    // --- 1. Preload every crawl (time slices) ----------------------------
    let mut db = Database::new();
    create_pages_table(&mut db).expect("fresh database");
    let mut store = PageStore::new(1 << 22);
    let mut retro = RetroBrowser::new();
    let mut last_links = Vec::new();
    for (i, crawl) in web.crawls.iter().enumerate() {
        let files = web.crawl_files(i, 64).expect("serialization works");
        let out =
            preload(&files, &mut db, &mut store, &PreloadConfig::default()).expect("clean input");
        for p in &crawl.pages {
            retro.index_capture(&p.url, crawl.date);
        }
        println!(
            "crawl {} ({}): {} pages, {} links, {:.1} MB/s raw preload",
            i,
            crawl.date / 1_000_000,
            out.stats.pages,
            out.stats.links,
            out.stats.raw_rate() / 1e6
        );
        if i == web.crawls.len() - 1 {
            last_links = out.link_pairs;
        }
    }
    println!(
        "page store: {} captures, {}",
        store.page_count(),
        sciflow_core::DataVolume::from_bytes(store.total_bytes())
    );

    // --- 2. Retro-browse a page through time -----------------------------
    let url = &web.crawls[0].pages[0].url;
    for as_of in [19_970_101_000_000_u64, 19_961_001_000_000, 19_970_301_000_000] {
        match retro.browse(&store, url, as_of) {
            Ok(page) => println!(
                "retro {} as of {}: serving capture {} ({} bytes)",
                url,
                as_of / 1_000_000,
                page.capture_date / 1_000_000,
                page.body.len()
            ),
            Err(e) => println!("retro {url} as of {}: {e}", as_of / 1_000_000),
        }
    }

    // --- 3. Build the link graph of the newest slice and analyze it ------
    let last = web.crawls.last().expect("at least one crawl");
    let n_prior: usize = web.crawls[..web.crawls.len() - 1].iter().map(|c| c.pages.len()).sum();
    let urls: Vec<String> = last.pages.iter().map(|p| p.url.clone()).collect();
    let pairs: Vec<(i64, String)> =
        last_links.iter().map(|(id, url)| (*id - n_prior as i64, url.clone())).collect();
    let graph = LinkGraph::build(urls, &pairs).expect("aligned ids");
    let stats = graph_stats(&graph);
    println!(
        "\nlink graph: {} nodes, {} edges, {} components (largest {:.0}%), {} in memory",
        stats.nodes,
        stats.edges,
        stats.components,
        stats.largest_component_fraction * 100.0,
        sciflow_core::DataVolume::from_bytes(graph.memory_bytes()),
    );
    let pr = pagerank(&graph, 0.85, 30);
    let mut ranked: Vec<usize> = (0..graph.node_count()).collect();
    ranked.sort_by(|&a, &b| pr[b].total_cmp(&pr[a]));
    println!("top pages by PageRank:");
    for &n in ranked.iter().take(3) {
        println!("  {:.5}  {}", pr[n], graph.url(n));
    }

    // --- 4. Stratified sample by domain -----------------------------------
    let table = db.table("pages").expect("created above");
    let domain_col = table.schema().column_index("domain").expect("column exists");
    let sample = stratified_sample(table, domain_col, 3, &mut rng).expect("sane parameters");
    println!(
        "\nstratified sample: {} pages across {} domains ({} rows examined)",
        sample.total_sampled(),
        sample.strata.len(),
        sample.rows_examined
    );
}
