//! Property-based tests for EventStore invariants: snapshot resolution,
//! merge idempotence/commutativity, serialization, and the file header.

use sciflow_core::md5::md5;
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_eventstore::{
    merge_into, read_file, write_file, EventStore, FileRecord, GradeEntry, RunRange, StoreTier,
};
use sciflow_testkit::check;

fn date_from_ord(ord: u16) -> CalDate {
    // Map 0..~1000 onto valid dates in 2004–2006.
    let year = 2004 + (ord / 336) % 3;
    let month = (ord / 28) % 12 + 1;
    let day = ord % 28 + 1;
    CalDate::new(year, month as u8, day as u8).expect("day ≤ 28 always valid")
}

fn record(id: u64, run: u32, version: &str, reg_ord: u16) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: "recon".into(),
        version: version.to_string(),
        site: "Cornell".into(),
        registered: date_from_ord(reg_ord),
        location: format!("/data/{id}"),
        prov_digest: md5(format!("{id}:{version}").as_bytes()),
    }
}

/// Resolution picks the latest snapshot ≤ timestamp for arbitrary
/// declaration histories, and resolving twice gives identical views.
#[test]
fn snapshot_resolution_is_floor_and_stable() {
    check("snapshot_resolution_is_floor_and_stable", 64, |g| {
        let decl_ords = g.set(1..12, |g| g.range(0u16..900));
        let query_ord = g.range(0u16..1000);
        let mut es = EventStore::new(StoreTier::Collaboration);
        let mut declared: Vec<CalDate> = Vec::new();
        for (i, ord) in decl_ords.iter().enumerate() {
            let d = date_from_ord(*ord);
            if declared.last().map(|&l| d <= l).unwrap_or(false) {
                continue; // ords map non-monotonically near year wraps; skip
            }
            es.declare_snapshot(
                "physics",
                d,
                vec![GradeEntry {
                    runs: RunRange::new(1, 100).expect("valid"),
                    kind: "recon".into(),
                    version: format!("v{i}"),
                }],
            )
            .expect("strictly increasing dates");
            declared.push(d);
        }
        g.assume(!declared.is_empty());
        let ts = date_from_ord(query_ord);
        let expected = declared.iter().rev().find(|&&d| d <= ts);
        match es.resolve("physics", ts) {
            Ok(view) => {
                assert_eq!(Some(&view.snapshot.date), expected);
                let again = es.resolve("physics", ts).expect("still resolves");
                assert_eq!(view.snapshot, again.snapshot);
            }
            Err(_) => assert!(expected.is_none()),
        }
    });
}

/// Merging disjoint personal stores is order-independent and idempotent
/// in final content.
#[test]
fn merge_is_idempotent_and_order_insensitive() {
    check("merge_is_idempotent_and_order_insensitive", 64, |g| {
        let a_files = g.set(1..12, |g| g.range(0u64..50));
        let b_files = g.set(1..12, |g| g.range(50u64..100));
        let build = |ids: &std::collections::BTreeSet<u64>| {
            let mut es = EventStore::new(StoreTier::Personal);
            for &id in ids {
                es.register_file(&record(id, id as u32, "v1", 10)).expect("unique ids");
            }
            es
        };
        let a = build(&a_files);
        let b = build(&b_files);

        let mut ab = EventStore::new(StoreTier::Collaboration);
        merge_into(&mut ab, &a).expect("no conflicts");
        merge_into(&mut ab, &b).expect("no conflicts");
        let mut ba = EventStore::new(StoreTier::Collaboration);
        merge_into(&mut ba, &b).expect("no conflicts");
        merge_into(&mut ba, &a).expect("no conflicts");
        // Same content either way.
        let mut fa = ab.files().expect("readable");
        let mut fb = ba.files().expect("readable");
        fa.sort_by_key(|f| f.id);
        fb.sort_by_key(|f| f.id);
        assert_eq!(fa, fb);

        // Re-merging changes nothing.
        let before = ab.file_count();
        let rep = merge_into(&mut ab, &a).expect("idempotent");
        assert_eq!(rep.files_added, 0);
        assert_eq!(ab.file_count(), before);
    });
}

/// Any store round-trips through bytes with identical contents.
#[test]
fn serialization_roundtrip() {
    check("serialization_roundtrip", 64, |g| {
        let ids = g.set(0..25, |g| g.range(0u64..200));
        let mut es = EventStore::new(StoreTier::Personal);
        for &id in &ids {
            es.register_file(&record(id, (id % 90) as u32, "v1", (id % 800) as u16))
                .expect("unique ids");
        }
        let restored = EventStore::from_bytes(&es.to_bytes()).expect("clean bytes");
        assert_eq!(restored.tier(), StoreTier::Personal);
        let mut fa = es.files().expect("readable");
        let mut fb = restored.files().expect("readable");
        fa.sort_by_key(|f| f.id);
        fb.sort_by_key(|f| f.id);
        assert_eq!(fa, fb);
    });
}

/// The provenance file header round-trips arbitrary payloads and module
/// metadata, and always verifies.
#[test]
fn file_header_roundtrip() {
    check("file_header_roundtrip", 64, |g| {
        let module = g.string("A-Za-z0-9_", 1..=16);
        let params = g.vec(0..5, |g| (g.string("a-z", 1..=6), g.string("a-zA-Z0-9 ", 0..=12)));
        let payload = g.vec(0..1000, |g| g.any::<u8>());
        let mut rec = ProvenanceRecord::new();
        let mut step = ProvenanceStep::new(
            module,
            VersionId::new("S", "R", CalDate::new(2006, 1, 1).expect("valid"), "x"),
        );
        for (k, v) in params {
            step = step.with_param(k, v);
        }
        rec.push(step);
        let bytes = write_file(&rec, &payload);
        let (header, body) = read_file(&bytes).expect("own output parses");
        assert_eq!(body, payload.as_slice());
        assert!(header.verify());
        assert_eq!(header.digest, rec.digest());
    });
}
