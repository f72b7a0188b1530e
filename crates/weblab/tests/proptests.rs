//! Property-based tests for the WebLab data plane: the LZ codec, the
//! ARC/DAT formats (round trips and hostile input), the page store and the
//! Retro Browser.

use sciflow_testkit::{check, Gen};
use sciflow_weblab::arc::{read_arc, read_arc_compressed, write_arc, ArcRecord};
use sciflow_weblab::codec::{compress, decompress};
use sciflow_weblab::dat::{read_dat, read_dat_compressed, write_dat, DatRecord};
use sciflow_weblab::pagestore::PageStore;
use sciflow_weblab::retro::RetroBrowser;

/// The codec round-trips arbitrary byte strings.
#[test]
fn codec_roundtrip() {
    check("codec_roundtrip", 64, |g| {
        let data = g.vec(0..8192, |g| g.any::<u8>());
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("clean input"), data);
    });
}

/// Repetitive inputs compress; decompression never panics on random
/// (usually invalid) buffers.
#[test]
fn codec_robust_on_garbage() {
    check("codec_robust_on_garbage", 64, |g| {
        let garbage = g.vec(0..512, |g| g.any::<u8>());
        let _ = decompress(&garbage); // must return Err or Ok, never panic
    });
}

/// ARC round trip with arbitrary binary bodies and URL-safe headers.
#[test]
fn arc_roundtrip() {
    check("arc_roundtrip", 64, |g| {
        let records = g.vec(0..20, |g| ArcRecord {
            url: format!("http://{}", g.string("a-z0-9./:-", 1..=40)),
            ip: g.string("0-9.", 1..=15),
            date: g.range(0u64..99_999_999_999_999),
            mime: "application/octet-stream".into(),
            body: g.vec(0..300, |g| g.any::<u8>()),
        });
        let bytes = write_arc(&records).expect("url-safe fields");
        assert_eq!(read_arc(&bytes).expect("own output parses"), records);
    });
}

/// DAT round trip with arbitrary link lists.
#[test]
fn dat_roundtrip() {
    check("dat_roundtrip", 64, |g| {
        let records = g.vec(0..20, |g| DatRecord {
            url: format!("http://{}", g.string("a-z0-9./-", 1..=30)),
            ip: "10.0.0.1".into(),
            date: g.range(0u64..99_999_999_999_999),
            links: g.vec(0..8, |g| format!("http://{}", g.string("a-z0-9./:-", 1..=30))),
        });
        let bytes = write_dat(&records).expect("url-safe fields");
        assert_eq!(read_dat(&bytes).expect("own output parses"), records);
    });
}

/// `bytes` with the last space-separated field of the line that starts at
/// `start` replaced by `value`.
fn forge_last_field(bytes: &[u8], start: usize, value: u64) -> Vec<u8> {
    let end = start + bytes[start..].iter().position(|&b| b == b'\n').expect("header line");
    let field = start + bytes[start..end].iter().rposition(|&b| b == b' ').expect("fields") + 1;
    [&bytes[..field], value.to_string().as_bytes(), &bytes[end..]].concat()
}

/// Hostile ARC and DAT files: every truncation, single-byte substitutions,
/// and the ARC body length and DAT link count forged, of real writer
/// output, plain and compressed. Each decodes to records or a typed
/// `WebError`; none panics or aborts.
#[test]
fn hostile_arc_and_dat_are_typed_errors() {
    check("hostile_arc_and_dat_are_typed_errors", 64, |g| {
        let arcs = g.vec(1..4, |g| ArcRecord {
            url: format!("http://{}", g.string("a-z0-9./", 1..=12)),
            ip: "10.0.0.1".into(),
            date: g.range(0u64..99_999_999_999_999),
            mime: "text/html".into(),
            body: g.vec(0..40, |g| g.any::<u8>()),
        });
        let dats = g.vec(1..4, |g| DatRecord {
            url: format!("http://{}", g.string("a-z0-9./", 1..=12)),
            ip: "10.0.0.1".into(),
            date: g.range(0u64..99_999_999_999_999),
            links: g.vec(0..4, |g| format!("http://{}", g.string("a-z0-9./", 1..=12))),
        });
        // The results are ignored: reaching the next line is the property.
        let arc_survives = |bytes: &[u8]| {
            let _ = read_arc(bytes);
            let _ = read_arc_compressed(&compress(bytes));
        };
        let dat_survives = |bytes: &[u8]| {
            let _ = read_dat(bytes);
            let _ = read_dat_compressed(&compress(bytes));
        };
        let arc = write_arc(&arcs).expect("url-safe fields");
        let dat = write_dat(&dats).expect("url-safe fields");
        let (arc_packed, dat_packed) = (compress(&arc), compress(&dat));

        // Forged numbers: each record's header is the line its predecessors
        // end at.
        let (a, d) = (g.range(0..arcs.len()), g.range(0..dats.len()));
        let arc_at = write_arc(&arcs[..a]).expect("url-safe fields").len();
        let dat_at = write_dat(&dats[..d]).expect("url-safe fields").len();
        let (body, links) = (arcs[a].body.len() as u64, dats[d].links.len() as u64);
        let drawn = g.any::<u64>();
        for forged in [body.saturating_sub(1), body + 1, 1 << 36, u64::MAX, drawn] {
            arc_survives(&forge_last_field(&arc, arc_at, forged));
        }
        for forged in [links.saturating_sub(1), links + 1, 1 << 36, u64::MAX, drawn] {
            dat_survives(&forge_last_field(&dat, dat_at, forged));
        }

        for cut in 0..arc.len() {
            let _ = read_arc(&arc[..cut]);
        }
        for cut in 0..dat.len() {
            let _ = read_dat(&dat[..cut]);
        }
        for cut in 0..arc_packed.len() {
            let _ = read_arc_compressed(&arc_packed[..cut]);
        }
        for cut in 0..dat_packed.len() {
            let _ = read_dat_compressed(&dat_packed[..cut]);
        }

        let substitute = |bytes: &[u8], g: &mut Gen| {
            let mut bytes = bytes.to_vec();
            let at = g.range(0..bytes.len());
            bytes[at] = g.any::<u8>();
            bytes
        };
        for _ in 0..16 {
            arc_survives(&substitute(&arc, g));
            dat_survives(&substitute(&dat, g));
            let _ = read_arc_compressed(&substitute(&arc_packed, g));
            let _ = read_dat_compressed(&substitute(&dat_packed, g));
        }
    });
}

/// Page store: everything put is gettable byte-for-byte; totals add up.
#[test]
fn pagestore_holds_everything() {
    check("pagestore_holds_everything", 64, |g| {
        let captures = g.map(0..40, |g| {
            ((g.range(0u32..30), g.range(0u64..10)), g.vec(0..200, |g| g.any::<u8>()))
        });
        let segment_cap = g.range(1usize..500);
        let mut store = PageStore::new(segment_cap);
        let mut total = 0u64;
        for ((site, date), body) in &captures {
            let url = format!("http://s{site}/");
            store.put(&url, *date, body).expect("unique (url, date)");
            total += body.len() as u64;
        }
        assert_eq!(store.total_bytes(), total);
        assert_eq!(store.page_count(), captures.len());
        for ((site, date), body) in &captures {
            let url = format!("http://s{site}/");
            assert_eq!(store.get(&url, *date), Some(body.as_slice()));
        }
    });
}

/// Retro resolution always returns the greatest capture ≤ the as-of
/// date, for arbitrary capture sets.
#[test]
fn retro_resolution_is_floor() {
    check("retro_resolution_is_floor", 64, |g| {
        let dates = g.set(1..20, |g| g.range(0u64..1000));
        let as_of = g.range(0u64..1100);
        let mut rb = RetroBrowser::new();
        for &d in &dates {
            rb.index_capture("http://u/", d);
        }
        let expected = dates.iter().rev().find(|&&d| d <= as_of).copied();
        match rb.resolve("http://u/", as_of) {
            Ok(got) => assert_eq!(Some(got), expected),
            Err(_) => assert!(expected.is_none()),
        }
    });
}

/// Text index: postings tally with the tokenizer, lookups are
/// case-insensitive, and conjunctive search returns docs containing
/// every term.
#[test]
fn textindex_postings_match_tokenizer() {
    check("textindex_postings_match_tokenizer", 64, |g| {
        let docs = g.vec(1..12, |g| g.string("a-zA-Z ", 0..=60));
        let probe = g.string("a-z", 1..=6);
        use sciflow_weblab::textindex::{tokenize, TextIndex};
        let mut idx = TextIndex::new();
        for (i, d) in docs.iter().enumerate() {
            idx.add_document(i as u64, d);
        }
        assert_eq!(idx.doc_count(), docs.len());
        // Ground truth for the probe term.
        let expected: Vec<u64> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| tokenize(d).iter().any(|t| t == &probe))
            .map(|(i, _)| i as u64)
            .collect();
        let got: Vec<u64> = idx.lookup(&probe).iter().map(|p| p.doc).collect();
        assert_eq!(got, expected);
        // Search results all contain the term.
        for (doc, score) in idx.search(&probe) {
            assert!(score > 0.0);
            assert!(tokenize(&docs[doc as usize]).iter().any(|t| t == &probe));
        }
    });
}

/// The crawl → files → preload path conserves page counts for arbitrary
/// web shapes.
#[test]
fn preload_conserves_pages_for_any_web_shape() {
    check("preload_conserves_pages_for_any_web_shape", 64, |g| {
        let (domains, pages) = (g.range(1usize..6), g.range(1usize..40));
        let (per_file, seed) = (g.range(1usize..50), g.any::<u64>());
        use sciflow_core::rng::Rng;
        use sciflow_metastore::Database;
        use sciflow_weblab::crawlsim::{SyntheticWeb, WebConfig};
        use sciflow_weblab::pagestore::PageStore;
        use sciflow_weblab::preload::{create_pages_table, preload, PreloadConfig};
        let mut rng = Rng::seed_from_u64(seed);
        let web = SyntheticWeb::generate(
            WebConfig {
                n_domains: domains,
                pages_per_domain: pages,
                body_bytes: 200,
                ..WebConfig::default()
            },
            1,
            &mut rng,
        );
        let files = web.crawl_files(0, per_file).expect("serializes");
        let mut db = Database::new();
        create_pages_table(&mut db).expect("fresh db");
        let mut store = PageStore::new(1 << 20);
        let out =
            preload(&files, &mut db, &mut store, &PreloadConfig { workers: 2, batch_size: 32 })
                .expect("clean input");
        assert_eq!(out.stats.pages, domains * pages);
        assert_eq!(store.page_count(), domains * pages);
        assert_eq!(db.table("pages").expect("exists").len(), domains * pages);
    });
}
