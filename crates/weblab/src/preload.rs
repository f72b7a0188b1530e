//! The preload subsystem.
//!
//! "The preload subsystem takes the incoming ARC and DAT files, uncompresses
//! them, parses them to extract relevant information, and generates two
//! types of output files: metadata for loading into a relational database
//! and the actual content of the Web pages to be stored separately. The
//! design of the subsystem does not require the corresponding ARC and DAT
//! files to be processed together. ... Extensive benchmarking is required to
//! tune many parameters, such as batch size, file size, degree of
//! parallelism, and the index management."
//!
//! Architecture: a pool of scoped worker threads decompresses and parses
//! files (ARC and DAT files are independent work items, exactly as the
//! paper allows). Each worker claims the next input index from one atomic
//! cursor and sends what it parsed down one channel to the loader: the
//! calling thread, the single writer that batches metadata into the
//! relational store and appends bodies to the [`PageStore`]. The loader
//! applies parsed files in input order, whichever worker finishes first, so
//! page ids, link pairs and the store are the same for every worker count.
//! `workers` and `batch_size` are the tuning knobs experiment E8 sweeps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use sciflow_metastore::prelude::*;

use crate::arc::read_arc_compressed;
use crate::dat::read_dat_compressed;
use crate::error::{WebError, WebResult};
use crate::pagestore::PageStore;

/// Tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PreloadConfig {
    pub workers: usize,
    /// Metadata rows per load transaction.
    pub batch_size: usize,
}

impl Default for PreloadConfig {
    fn default() -> Self {
        PreloadConfig { workers: 4, batch_size: 256 }
    }
}

/// Throughput accounting for one preload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreloadStats {
    pub files: usize,
    pub pages: usize,
    pub links: usize,
    /// Compressed input bytes.
    pub bytes_compressed: u64,
    /// Raw bytes after decompression.
    pub bytes_raw: u64,
    pub batches: usize,
    pub elapsed: Duration,
}

impl PreloadStats {
    /// Raw (decompressed) processing rate, bytes/sec.
    pub fn raw_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes_raw as f64 / secs
        }
    }
}

/// Output of a preload run: stats plus the link pairs needed by the graph
/// builder ((source page id, target URL) — targets may be outside the
/// crawl).
#[derive(Debug)]
pub struct PreloadOutput {
    pub stats: PreloadStats,
    pub link_pairs: Vec<(i64, String)>,
}

/// Create the `pages` metadata table with its indexes ("the index
/// management" being one of the tunables, indexes are created up front
/// here; [`create_pages_table_unindexed`] is the ablation).
pub fn create_pages_table(db: &mut Database) -> MetaResult<()> {
    create_pages_table_inner(db, true)
}

/// Index-free variant for load-rate ablations.
pub fn create_pages_table_unindexed(db: &mut Database) -> MetaResult<()> {
    create_pages_table_inner(db, false)
}

fn create_pages_table_inner(db: &mut Database, indexed: bool) -> MetaResult<()> {
    let schema = Schema::new(vec![
        ColumnDef::new("id", ValueType::Int),
        ColumnDef::new("url", ValueType::Text),
        ColumnDef::new("domain", ValueType::Text),
        ColumnDef::new("crawl_date", ValueType::Date),
        ColumnDef::new("size", ValueType::Int),
        ColumnDef::new("n_links", ValueType::Int),
    ])?
    .with_primary_key("id")?;
    let t = db.create_table("pages", schema)?;
    if indexed {
        t.create_index("url")?;
        t.create_index("domain")?;
        t.create_index("crawl_date")?;
    }
    Ok(())
}

/// A parsed unit flowing to the loader.
enum Parsed {
    Pages(Vec<(String, u64, Vec<u8>)>),
    Meta { records: Vec<crate::dat::DatRecord>, raw_bytes: u64 },
    Failed(WebError),
}

fn domain_of(url: &str) -> &str {
    url.strip_prefix("http://").unwrap_or(url).split('/').next().unwrap_or(url)
}

/// Run the preload over compressed (ARC, DAT) file pairs.
pub fn preload(
    files: &[(Vec<u8>, Vec<u8>)],
    db: &mut Database,
    store: &mut PageStore,
    cfg: &PreloadConfig,
) -> WebResult<PreloadOutput> {
    if cfg.workers == 0 || cfg.batch_size == 0 {
        return Err(WebError::InvalidConfig {
            detail: "workers and batch_size must be positive".into(),
        });
    }
    let start = Instant::now();
    let items = files.len() * 2;
    let bytes_compressed = files.iter().map(|(arc, dat)| (arc.len() + dat.len()) as u64).sum();
    let mut stats = PreloadStats { files: items, bytes_compressed, ..Default::default() };

    // Work items are input indices: `2 * i` is file pair `i`'s ARC file,
    // `2 * i + 1` its DAT file. Workers claim them in order from `cursor`
    // and borrow the bytes from `files`. `Relaxed` suffices: the
    // `fetch_add` alone makes each index claimed once, and the index
    // publishes no other data.
    let cursor = AtomicUsize::new(0);

    let mut link_pairs: Vec<(i64, String)> = Vec::new();
    let mut next_id: i64 = db.table("pages")?.len() as i64;
    let mut pending_rows: Vec<Vec<Value>> = Vec::new();

    // The lowest input index that failed to parse. The loader stops there,
    // so no worker parses an input past it. Only a hint to skip work: the
    // loader learns of the failure from the channel, not from this value.
    let failed = AtomicUsize::new(usize::MAX);

    std::thread::scope(|scope| -> WebResult<()> {
        // The receiver lives in this closure, so a loader that returns
        // early drops it: each worker's next send fails and it stops
        // instead of parsing the rest of the input.
        let (done_tx, done_rx) = mpsc::channel::<(usize, Parsed)>();
        for _ in 0..cfg.workers {
            let tx = done_tx.clone();
            let (cursor, failed) = (&cursor, &failed);
            scope.spawn(move || {
                let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items);
                for index in std::iter::from_fn(claim) {
                    if index > failed.load(Ordering::Relaxed) {
                        continue;
                    }
                    let (arc_gz, dat_gz) = &files[index / 2];
                    let parsed = if index % 2 == 0 {
                        match read_arc_compressed(arc_gz) {
                            Ok(records) => Parsed::Pages(
                                records.into_iter().map(|r| (r.url, r.date, r.body)).collect(),
                            ),
                            Err(e) => Parsed::Failed(e),
                        }
                    } else {
                        match read_dat_compressed(dat_gz) {
                            Ok(records) => {
                                let raw: u64 =
                                    records.iter().map(|r| 64 + r.links.len() as u64 * 48).sum();
                                Parsed::Meta { records, raw_bytes: raw }
                            }
                            Err(e) => Parsed::Failed(e),
                        }
                    };
                    if let Parsed::Failed(_) = parsed {
                        failed.fetch_min(index, Ordering::Relaxed);
                    }
                    if tx.send((index, parsed)).is_err() {
                        return; // loader gave up
                    }
                }
            });
        }
        drop(done_tx);

        // Loader: single writer into the DB and page store. Results that
        // arrive ahead of their turn wait in `early`, keyed by input index.
        // A failed input ends the load with every input before it applied.
        let mut early: BTreeMap<usize, Parsed> = BTreeMap::new();
        let mut next_index = 0;
        for (index, parsed) in done_rx.iter() {
            early.insert(index, parsed);
            while let Some(parsed) = early.remove(&next_index) {
                next_index += 1;
                match parsed {
                    Parsed::Failed(e) => {
                        flush(db, &mut pending_rows, &mut stats)?;
                        return Err(e);
                    }
                    Parsed::Pages(pages) => {
                        for (url, date, body) in pages {
                            stats.bytes_raw += body.len() as u64;
                            store.put(&url, date, &body)?;
                        }
                    }
                    Parsed::Meta { records, raw_bytes } => {
                        stats.bytes_raw += raw_bytes;
                        for r in records {
                            stats.pages += 1;
                            stats.links += r.links.len();
                            pending_rows.push(vec![
                                Value::Int(next_id),
                                Value::Text(r.url.clone()),
                                Value::Text(domain_of(&r.url).to_string()),
                                Value::Date((r.date / 1_000_000) as u32),
                                Value::Int(0), // size backfilled by content pass if needed
                                Value::Int(r.links.len() as i64),
                            ]);
                            link_pairs.extend(r.links.into_iter().map(|l| (next_id, l)));
                            next_id += 1;
                            if pending_rows.len() >= cfg.batch_size {
                                flush(db, &mut pending_rows, &mut stats)?;
                            }
                        }
                    }
                }
            }
        }
        flush(db, &mut pending_rows, &mut stats)?;
        Ok(())
    })?;

    stats.elapsed = start.elapsed();
    Ok(PreloadOutput { stats, link_pairs })
}

fn flush(db: &mut Database, rows: &mut Vec<Vec<Value>>, stats: &mut PreloadStats) -> WebResult<()> {
    if rows.is_empty() {
        return Ok(());
    }
    let mut txn = Transaction::new();
    for row in rows.drain(..) {
        txn.insert("pages", row);
    }
    db.execute(&txn)?;
    stats.batches += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawlsim::{SyntheticWeb, WebConfig};
    use sciflow_core::rng::Rng;

    type FilePairs = Vec<(Vec<u8>, Vec<u8>)>;

    fn files() -> (SyntheticWeb, FilePairs) {
        let mut rng = Rng::seed_from_u64(7);
        let web = SyntheticWeb::generate(WebConfig::default(), 1, &mut rng);
        let files = web.crawl_files(0, 32).unwrap();
        (web, files)
    }

    #[test]
    fn preload_loads_every_page() {
        let (web, files) = files();
        let mut db = Database::new();
        create_pages_table(&mut db).unwrap();
        let mut store = PageStore::new(1 << 22);
        let out = preload(&files, &mut db, &mut store, &PreloadConfig::default()).unwrap();
        let n_pages = web.crawls[0].pages.len();
        assert_eq!(out.stats.pages, n_pages);
        assert_eq!(db.table("pages").unwrap().len(), n_pages);
        assert_eq!(store.page_count(), n_pages);
        assert!(out.stats.bytes_raw > out.stats.bytes_compressed);
        assert!(out.stats.batches >= 1);
        // Every metadata row's URL has content in the store.
        let date = web.crawls[0].date;
        for p in &web.crawls[0].pages {
            assert!(store.get(&p.url, date).is_some(), "missing content for {}", p.url);
        }
        // Link pairs carry the ground-truth link count.
        let truth_links: usize = web.crawls[0].pages.iter().map(|p| p.links.len()).sum();
        assert_eq!(out.link_pairs.len(), truth_links);
        assert_eq!(out.stats.links, truth_links);
    }

    #[test]
    fn batch_size_controls_transaction_count() {
        let (_, files) = files();
        for (batch, _expect_more) in [(16usize, true), (100_000, false)] {
            let mut db = Database::new();
            create_pages_table(&mut db).unwrap();
            let mut store = PageStore::new(1 << 22);
            let out = preload(
                &files,
                &mut db,
                &mut store,
                &PreloadConfig { workers: 2, batch_size: batch },
            )
            .unwrap();
            if batch == 16 {
                assert!(out.stats.batches > 5, "batches {}", out.stats.batches);
            } else {
                assert_eq!(out.stats.batches, 1);
            }
        }
    }

    /// Page ids, link pairs, metadata rows and the store's contents do not
    /// depend on the worker count or on which worker finishes first.
    #[test]
    fn worker_counts_agree_on_results() {
        let (web, files) = files();
        let date = web.crawls[0].date;
        let run = |workers| {
            let mut db = Database::new();
            create_pages_table(&mut db).unwrap();
            let mut store = PageStore::new(1 << 12);
            let out =
                preload(&files, &mut db, &mut store, &PreloadConfig { workers, batch_size: 64 })
                    .unwrap();
            let rows: Vec<Vec<Value>> =
                db.table("pages").unwrap().scan().map(|(_, row)| row.to_vec()).collect();
            let bodies: Vec<Vec<u8>> = web.crawls[0]
                .pages
                .iter()
                .map(|p| store.get(&p.url, date).unwrap().to_vec())
                .collect();
            (out.link_pairs, rows, bodies, store.segment_count(), store.total_bytes())
        };
        let serial = run(1);
        for rep in 0..20 {
            let parallel = run(4);
            assert!(parallel.0 == serial.0, "repetition {rep}: link pairs differ");
            assert!(parallel.1 == serial.1, "repetition {rep}: `pages` rows differ");
            assert!(parallel.2 == serial.2, "repetition {rep}: stored bodies differ");
            assert_eq!((parallel.3, parallel.4), (serial.3, serial.4), "repetition {rep}");
        }
    }

    #[test]
    fn corrupt_file_fails_cleanly() {
        let (_, mut files) = files();
        files[0].0[20] ^= 0xff;
        let mut db = Database::new();
        create_pages_table(&mut db).unwrap();
        let mut store = PageStore::new(1 << 22);
        let err = preload(&files, &mut db, &mut store, &PreloadConfig::default());
        assert!(err.is_err());
        // The corrupt ARC file is the first input, so nothing was applied.
        assert_eq!(db.table("pages").unwrap().len(), 0);
        assert_eq!(store.page_count(), 0);
    }

    /// A corrupt file in the middle of the input: the load fails, and what
    /// it leaves is every file before the corrupt one and nothing after.
    #[test]
    fn a_corrupt_middle_file_leaves_exactly_the_files_before_it() {
        let (web, mut files) = files();
        let bad = files.len() / 2;
        files[bad].0[20] ^= 0xff;
        let pages = &web.crawls[0].pages;
        let (before, after) = pages.split_at(32 * bad);
        let date = web.crawls[0].date;
        for workers in [1, 4] {
            let mut db = Database::new();
            create_pages_table(&mut db).unwrap();
            let mut store = PageStore::new(1 << 22);
            let cfg = PreloadConfig { workers, batch_size: 1000 };
            assert!(preload(&files, &mut db, &mut store, &cfg).is_err());
            assert!(before.iter().all(|p| store.get(&p.url, date).is_some()));
            assert!(after.iter().all(|p| store.get(&p.url, date).is_none()));
            assert_eq!(store.page_count(), before.len());
            let urls: Vec<Value> =
                db.table("pages").unwrap().scan().map(|(_, row)| row[1].clone()).collect();
            let expected: Vec<Value> = before.iter().map(|p| Value::Text(p.url.clone())).collect();
            assert_eq!(urls, expected, "{workers} workers");
        }
    }

    #[test]
    fn zero_workers_rejected() {
        let mut db = Database::new();
        create_pages_table(&mut db).unwrap();
        let mut store = PageStore::new(1024);
        assert!(matches!(
            preload(&[], &mut db, &mut store, &PreloadConfig { workers: 0, batch_size: 1 }),
            Err(WebError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn domain_extraction() {
        assert_eq!(domain_of("http://site3.example.org/page9.html"), "site3.example.org");
        assert_eq!(domain_of("site3.example.org/x"), "site3.example.org");
    }
}
