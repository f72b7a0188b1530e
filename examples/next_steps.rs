//! The paper's "Summary and Next Steps" (Section 5), demonstrated: NVO
//! federation of the candidate database, subset views with a scoped
//! full-text index, and long-term archive migration.
//!
//! ```text
//! cargo run -p sciflow-examples --release --bin next_steps
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sciflow_arecibo::meta::{create_candidate_table, load_candidates};
use sciflow_arecibo::nvo::{export_votable, parse_votable};
use sciflow_arecibo::search::Candidate;
use sciflow_arecibo::units::Dm;
use sciflow_core::units::DataVolume;
use sciflow_metastore::prelude::*;
use sciflow_storage::{LongTermArchive, MediaGeneration};
use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
use sciflow_weblab::pagestore::PageStore;
use sciflow_weblab::preload::{create_pages_table, preload, PreloadConfig};
use sciflow_weblab::textindex::TextIndex;

fn main() {
    // --- 1. "Arecibo is in the process of contributing its data to the
    //         National Virtual Observatory" ------------------------------
    let mut db = Database::new();
    create_candidate_table(&mut db).expect("fresh database");
    let mut next = 0i64;
    let cands: Vec<Candidate> = (0..12)
        .map(|i| Candidate {
            dm: Dm(12.5 * i as f64),
            freq_hz: 0.7 + 0.9 * i as f64,
            period_s: 1.0 / (0.7 + 0.9 * i as f64),
            snr: 6.5 + i as f64,
            harmonics: 1,
        })
        .collect();
    load_candidates(&mut db, 5, 1, &cands, &mut next).expect("fresh ids");
    let xml = export_votable(db.table("candidates").expect("exists"), "PALFA → NVO");
    let parsed = parse_votable(&xml).expect("well-formed");
    println!(
        "NVO export: {} of VOTable XML, {} fields, {} rows round-tripped",
        DataVolume::from_bytes(xml.len() as u64),
        parsed.fields.len(),
        parsed.rows.len()
    );

    // --- 2. WebLab subset views + scoped text index ----------------------
    let mut rng = StdRng::seed_from_u64(2006);
    let web = SyntheticWeb::generate(WebConfig::default(), 1, &mut rng);
    let files = web.crawl_files(0, 64).expect("serializes");
    let mut pages_db = Database::new();
    create_pages_table(&mut pages_db).expect("fresh database");
    let mut store = PageStore::new(1 << 22);
    preload(&files, &mut pages_db, &mut store, &PreloadConfig::default()).expect("clean input");
    let domain_col =
        pages_db.table("pages").expect("exists").schema().column_index("domain").expect("exists");
    let mut catalog = ViewCatalog::new();
    catalog
        .create_view(ViewDef {
            name: "site1".into(),
            base_table: "pages".into(),
            query: Query::filter(Predicate::Eq(
                domain_col,
                Value::Text("site1.example.org".into()),
            )),
            description: "one researcher's slice".into(),
        })
        .expect("fresh name");
    let n = catalog.materialize(&mut pages_db, "site1", "site1_extract").expect("base exists");
    let mut index = TextIndex::new();
    let date = web.crawls[0].date;
    for (i, p) in web.crawls[0].pages.iter().enumerate().filter(|(_, p)| p.domain == 1) {
        let body = store.get(&p.url, date).expect("preloaded");
        index.add_document(i as u64, &String::from_utf8_lossy(body));
    }
    let hits = index.search("lazy dog");
    println!(
        "subset view: {n} pages materialized; scoped text index answers `lazy dog` with {} hits",
        hits.len()
    );

    // --- 3. "Migration of the data to new storage technologies" ----------
    let mut archive = LongTermArchive::new(
        MediaGeneration::new("gen-2005", 300.0, sciflow_core::DataRate::mb_per_sec(80.0), 0.02),
        0.2,
    );
    archive.ingest(DataVolume::tb(1000));
    let t = archive
        .migrate(MediaGeneration::new(
            "gen-2010",
            150.0,
            sciflow_core::DataRate::mb_per_sec(160.0),
            0.012,
        ))
        .expect("positive copy rate");
    println!(
        "archive migration: {} copied in {t}, {:.0} person-hours, ${:.0}k media to date",
        archive.volume(),
        archive.ledger().personnel_hours(),
        archive.ledger().media_cost() / 1000.0
    );
}
