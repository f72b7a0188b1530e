//! The byte-level contract of the sealed formats, checked from the top of
//! the dependency stack where all four are reachable: the replica's own
//! apply journal (`ESRJNL1`) and wire frames, the run journal (`SFJRNL1`,
//! through `FlowSim`) and the metastore snapshot (`SFSEAL1`, through
//! `persist`). One table-driven corruption sweep covers all of them; the
//! byte pins and forged-length cases for the replica's formats sit beside
//! it (each other crate pins and forges its own format in its own tests).

use std::path::{Path, PathBuf};

use sciflow_core::graph::{FlowGraph, StageKind};
use sciflow_core::sim::FlowSim;
use sciflow_core::units::DataRate;
use sciflow_core::{DataVolume, SnapshotPolicy};
use sciflow_metastore::persist;
use sciflow_testkit::{assert_sealed_roundtrip, Gen, TailPolicy};

use super::tests::{rec, scratch};
use super::*;

/// A durable replica holding files 1 and 2, dropped so only its directory
/// remains: the journal carries two `AJ_UNIT` frames, the second starting
/// at the returned offset.
fn two_unit_journal(dir: &Path) -> usize {
    let mut rep = Replica::durable(4, StoreTier::Personal, dir).unwrap();
    rep.register(&rec(1, 100, "recon", "v1")).unwrap();
    let second_at = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len() as usize;
    rep.register(&rec(2, 101, "recon", "v1")).unwrap();
    second_at
}

// --- byte pins -----------------------------------------------------------

/// `encode_unit` of `rec(1, 100, "recon", "v1")` registered at personal
/// replica 1: the record, then tier, origin, version vector and quarantine
/// register.
fn pinned_unit() -> Vec<u8> {
    [
        &[1, 0, 0, 0, 0, 0, 0, 0][..], // file id 1
        &[100, 0, 0, 0, 100, 0, 0, 0], // runs 100..=100
        &[5, 0, 0, 0],
        b"recon",
        &[2, 0, 0, 0],
        b"v1",
        &[7, 0, 0, 0],
        b"Cornell",
        &[169, 242, 49, 1], // registered 20050601
        &[13, 0, 0, 0],
        b"/data/recon/1",
        &[32, 0, 0, 0],
        b"8f04dbebd9206f4cb7fbcb4c9327e8b3", // md5("1-recon-v1")
        &[0],                                // tier rank: personal
        &[1, 0],                             // origin store 1
        &[1, 0],                             // one version-vector component:
        &[1, 0, 1, 0, 0, 0, 0, 0, 0, 0],     // store 1, count 1
        &[0],                                // no quarantine register
    ]
    .concat()
}

/// The formats, byte for byte, computed at the commit before the port to
/// `core::frame`. If this fails a wire or on-disk format changed: do not
/// update the literals; fix the code.
#[test]
fn byte_pin_apply_journal_wire_frames_and_sealed_content() {
    // A two-frame apply journal.
    let dir = scratch("pin");
    let path = dir.join(JOURNAL_FILE);
    let mut j = journal::ApplyJournal::create(&path).unwrap();
    let mut payload = Vec::new();
    put_u64(&mut payload, 7);
    let q = QState { epoch: 2, flagged: true, reason: "bad".into() };
    wire::put_qstate(&mut payload, &Some(q));
    j.append(wire::AJ_QUAR, &payload).unwrap();
    let row = GradeRow {
        grade: "physics".into(),
        date: 20050601,
        first: 100,
        last: 200,
        kind: "recon".into(),
        version: "v1".into(),
    };
    j.append(wire::AJ_GRADES, &wire::encode_grade_rows(&[row])).unwrap();
    let want = [
        &b"ESRJNL1\n"[..],
        // AJ_QUAR frame, 25 payload bytes.
        &[0x12, 25, 0, 0, 0, 0, 0, 0, 0],
        &[7, 0, 0, 0, 0, 0, 0, 0],    // file id 7
        &[1, 2, 0, 0, 0, 0, 0, 0, 0], // Some(epoch 2 ...
        &[1, 3, 0, 0, 0],             // ... flagged, reason:
        b"bad",
        &[183, 178, 173, 130, 228, 134, 107, 224], // FNV-1a over kind..payload
        // AJ_GRADES frame, 42 payload bytes.
        &[0x13, 42, 0, 0, 0, 0, 0, 0, 0],
        &[1, 0, 0, 0], // one row
        &[7, 0, 0, 0],
        b"physics",
        &[169, 242, 49, 1], // 20050601
        &[100, 0, 0, 0, 200, 0, 0, 0],
        &[5, 0, 0, 0],
        b"recon",
        &[2, 0, 0, 0],
        b"v1",
        &[201, 113, 232, 2, 234, 203, 240, 50],
    ]
    .concat();
    assert_eq!(std::fs::read(&path).unwrap(), want, "apply journal");

    // Wire frames: the empty in-sync answer, and one range with one unit.
    let want = [&[0x04, 0, 0, 0, 0, 0, 0, 0, 0][..], &[115, 81, 36, 210, 195, 44, 91, 152]];
    assert_eq!(frame::seal(wire::MSG_IN_SYNC, &[]), want.concat(), "MSG_IN_SYNC");

    let mut rep = Replica::new(1, StoreTier::Personal);
    rep.register(&rec(1, 100, "recon", "v1")).unwrap();
    let want = [
        &[0x02, 121, 0, 0, 0, 0, 0, 0, 0][..],
        &[3, 0],       // range 3
        &[1, 0, 0, 0], // one unit
        &pinned_unit(),
        &[70, 127, 250, 193, 145, 252, 250, 205],
    ]
    .concat();
    let msg = encode_range_msg(3, &rep.units().unwrap());
    assert_eq!(frame::seal(wire::MSG_RANGE, &msg), want, "MSG_RANGE");

    // sealed_content of that one-unit replica: the unit, no grade rows, and
    // the magic-less length-and-digest trailer.
    let want =
        [&pinned_unit()[..], &[115, 0, 0, 0, 0, 0, 0, 0], &[223, 173, 216, 58, 253, 198, 216, 234]]
            .concat();
    assert_eq!(rep.sealed_content().unwrap(), want, "sealed_content");
}

/// The probe frame, byte for byte: one node described by its child
/// digests, one by its fingerprint list, one wanted id. The checksum was
/// computed outside this crate.
#[test]
fn byte_pin_probe_frame() {
    let mut probe = wire::Probe::new(3);
    let digests: [u64; 16] = std::array::from_fn(|c| c as u64 + 1);
    probe.splits.insert(index::Node::range(3).child(2), digests);
    // File 1393 lies in range 3 and, four bits further up its hash, in child 5.
    probe.prints.insert(index::Node::range(3).child(5), vec![(1393, 0x1122_3344_5566_7788)]);
    probe.wants.insert(RANGE_3_IDS[0]);
    let want = [
        &[0x05, 188, 0, 0, 0, 0, 0, 0, 0][..],
        &[3, 0],                         // range 3
        &[1, 0, 0, 0],                   // one split:
        &[1, 0x83, 0, 0, 0, 0, 0, 0, 0], // depth 1, prefix 3 | 2 << 6
        &digests.map(u64::to_le_bytes).concat(),
        &[1, 0, 0, 0],                   // one fingerprint list:
        &[1, 0x43, 1, 0, 0, 0, 0, 0, 0], // depth 1, prefix 3 | 5 << 6
        &[1, 0, 0, 0],                   // one pair:
        &[0x71, 5, 0, 0, 0, 0, 0, 0],    // file 1393
        &[0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11],
        &[1, 0, 0, 0],             // one wanted id:
        &[6, 0, 0, 0, 0, 0, 0, 0], // file 6
        &[138, 20, 153, 239, 136, 80, 37, 131],
    ]
    .concat();
    let sealed = frame::seal(wire::MSG_PROBE, &probe.encode());
    assert_eq!(sealed, want, "MSG_PROBE");
    let (kind, payload) = frame::open(&sealed).unwrap();
    assert_eq!((kind, wire::Probe::decode(payload).unwrap()), (wire::MSG_PROBE, probe));
}

/// The benchmark's `es-sync` exchange in miniature, as literals computed
/// before sessions stopped shipping whole ranges: a collaboration root and a
/// personal leaf with 1 000 disjoint records each, a full session, a
/// confirming one, five deltas of ten new registers on the leaf, then
/// checkpoint and recovery. Whatever a session puts on the wire, the same
/// units must reach both journals and both stores. If this fails the
/// protocol changed what converges: do not update the literals; fix the code.
#[test]
fn byte_pin_benchmark_shaped_exchange() {
    const PER_SIDE: u64 = 1_000;
    const DELTAS: u64 = 5;
    const DELTA_FILES: u64 = 10;
    let total = 2 * PER_SIDE + DELTAS * DELTA_FILES;
    let make = |id: u64| rec(id, 1 + (id % total) as u32, "recon", "v1");
    let (root_dir, leaf_dir) = (scratch("pin-root"), scratch("pin-leaf"));
    let mut root = Replica::durable(1, StoreTier::Collaboration, &root_dir).unwrap();
    let mut leaf = Replica::durable(2, StoreTier::Personal, &leaf_dir).unwrap();
    for id in 0..PER_SIDE {
        root.register(&make(id)).unwrap();
        leaf.register(&make(PER_SIDE + id)).unwrap();
    }

    let mut link = SyncLink::clean();
    let full = sync_once(&mut leaf, &mut root, &mut link).unwrap();
    assert_eq!(full.units_added as u64, 2 * PER_SIDE);
    assert!(sync_once(&mut leaf, &mut root, &mut link).unwrap().in_sync);
    for delta in 0..DELTAS {
        let first = 2 * PER_SIDE + delta * DELTA_FILES;
        for id in first..first + DELTA_FILES {
            leaf.register(&make(id)).unwrap();
        }
        let report = sync_once(&mut leaf, &mut root, &mut link).unwrap();
        assert_eq!(report.units_added as u64, DELTA_FILES);
    }

    let journal_len = |dir: &Path| std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
    assert_eq!(journal_len(&root_dir), 275_648, "root journal");
    assert_eq!(journal_len(&leaf_dir), 275_648, "leaf journal");

    root.checkpoint().unwrap();
    leaf.checkpoint().unwrap();
    drop(root);
    let recovered = Replica::recover(&root_dir).unwrap();
    for (side, rep) in [("recovered root", &recovered), ("leaf", &leaf)] {
        let content = rep.sealed_content().unwrap();
        assert_eq!((content.len(), fnv1a(&content)), (240_806, 0xa6d8_a155_9b4e_3f9b), "{side}");
    }
}

/// The benchmark's `es-ingest` pass in miniature, as literals computed
/// before the metastore row path stopped cloning its keys: 1 000 records
/// registered in a shuffled order at an in-memory group replica, every 5th
/// revised, every 64th quarantined, every 128th released, a grade snapshot
/// after every 100th; then a resolve, twenty `files_for` lookups and a
/// snapshot round trip. If this fails the row path changed what the store
/// holds or returns: do not update the literals; fix the code.
#[test]
fn byte_pin_ingest_shaped_store() {
    use crate::grade::GradeEntry;
    use sciflow_core::md5::md5;

    const FILES: u64 = 1_000;
    let date = |y, m, d| CalDate::new(y, m, d).unwrap();
    let record = |id: u64, generation: u32| {
        let (kind, registered) = if id % 100 == 7 {
            ("mc", date(2006, 10, 1 + (id % 28) as u8))
        } else {
            ("recon", date(2005, 1 + (id % 12) as u8, 1 + (id % 28) as u8))
        };
        FileRecord {
            id,
            runs: RunRange::single(1 + (id % FILES) as u32),
            kind: kind.into(),
            version: format!("v{generation}"),
            site: "Cornell".into(),
            registered,
            location: format!("/bench/{kind}/{id}"),
            prov_digest: md5(format!("{id}:{generation}").as_bytes()),
        }
    };
    let entries = || {
        let runs = RunRange::new(1, FILES as u32).unwrap();
        vec![GradeEntry { runs, kind: "recon".into(), version: "v1".into() }]
    };

    let mut rep = Replica::new(1, StoreTier::Group);
    let mut snapshots = 0u16;
    for i in 0..FILES {
        let id = i * 7_919 % FILES;
        rep.register(&record(id, 0)).unwrap();
        if i % 5 == 0 {
            assert_eq!(rep.revise(&record(id, 1)).unwrap(), ApplyEffect::Replaced);
        }
        if i % 64 == 0 {
            rep.quarantine(id, "integrity flag").unwrap();
        }
        if i % 128 == 0 {
            rep.release(id).unwrap();
        }
        if i % 100 == 99 {
            let on = date(2005 + snapshots / 12, 1 + (snapshots % 12) as u8, 1);
            rep.declare_snapshot("physics", on, entries()).unwrap();
            snapshots += 1;
        }
    }

    let store = rep.store();
    let view = store.resolve("physics", date(2007, 1, 1)).unwrap();
    let first_time: Vec<u64> = view.first_time.iter().map(|f| f.id).collect();
    let opened: Vec<u64> = (0..20)
        .flat_map(|j| store.files_for(&view, 1 + (j * 487 % FILES) as u32, "recon").unwrap())
        .map(|f| f.id)
        .collect();
    assert_eq!(first_time, [707, 607, 507, 407, 307, 207, 107, 7, 907, 807], "resolve");
    assert_eq!(opened, [0, 435, 870, 305], "files_for");

    let bytes = store.to_bytes();
    let content = rep.sealed_content().unwrap();
    let again = EventStore::from_bytes(&bytes).unwrap().to_bytes();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (150_667, 0x9159_6910_93fe_f912), "to_bytes");
    assert_eq!(
        (content.len(), fnv1a(&content)),
        (118_546, 0x5e13_3e38_9de1_1990),
        "sealed_content"
    );
    assert_eq!((again.len(), fnv1a(&again)), (150_667, 0x9159_6910_93fe_f912), "round trip");
}

// --- forged lengths and the torn tail ------------------------------------

/// A journal frame whose length field is forged — to `u64::MAX`, where the
/// unchecked `pos + 9 + len + 8` overflowed, and to `len + 1` — is a torn
/// tail: dropped, cut off the file and reported, never a panic.
#[test]
fn forged_length_apply_journal() {
    let dir = scratch("forged-journal");
    let second_at = two_unit_journal(&dir);
    let path = dir.join(JOURNAL_FILE);
    let clean = std::fs::read(&path).unwrap();
    let len = (clean.len() - second_at - frame::OVERHEAD) as u64;
    for forged in [u64::MAX, len + 1] {
        let mut bytes = clean.clone();
        bytes[second_at + 1..second_at + 9].copy_from_slice(&forged.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rep = Replica::recover(&dir).unwrap();
        assert_eq!(rep.store().file_count(), 1, "length {forged}");
        assert_eq!(rep.torn_tail().map(|d| d.offset), Some(second_at), "length {forged}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), second_at as u64);
    }
}

/// The same forgeries on a wire frame are a typed `CorruptMessage`.
#[test]
fn forged_length_wire_frame() {
    let clean = frame::seal(wire::MSG_RANGE, &encode_range_msg(3, &[]));
    let len = (clean.len() - frame::OVERHEAD) as u64;
    for forged in [u64::MAX, len + 1] {
        let mut bytes = clean.clone();
        bytes[1..9].copy_from_slice(&forged.to_le_bytes());
        let err = ReplicaError::from(frame::open(&bytes).unwrap_err());
        assert!(matches!(err, ReplicaError::CorruptMessage { .. }), "length {forged}: {err:?}");
    }
}

/// The three smallest file ids of digest range 3.
const RANGE_3_IDS: [u64; 3] = [6, 70, 134];

/// A range frame decodes to the range and units it was built from; the
/// same frame, correctly sealed, with one unit that belongs to another
/// range is a typed `CorruptMessage` — the receiver never applies (or
/// replies with) a range the sender mis-filed.
#[test]
fn forged_unit_in_a_foreign_range() {
    let mut rep = Replica::new(1, StoreTier::Personal);
    for id in RANGE_3_IDS {
        rep.register(&rec(id, 100, "recon", "v1")).unwrap();
    }
    let mut units = rep.units_in_range(3).unwrap();
    assert_eq!(units.len(), 3);
    let sealed = frame::seal(wire::MSG_RANGE, &encode_range_msg(3, &units));
    let (kind, payload) = frame::open(&sealed).unwrap();
    assert_eq!(kind, wire::MSG_RANGE);
    let (range, decoded) = decode_range_msg(payload).unwrap();
    assert_eq!(range, 3);
    assert_eq!(decoded.into_iter().map(|(unit, _)| unit).collect::<Vec<_>>(), units);

    units[1].record.id = 1; // range 36
    let sealed = frame::seal(wire::MSG_RANGE, &encode_range_msg(3, &units));
    let (_, payload) = frame::open(&sealed).expect("the seal is intact");
    let err = decode_range_msg(payload).unwrap_err();
    assert!(matches!(err, ReplicaError::CorruptMessage { .. }), "{err:?}");
}

/// The receive path reuses one resolution per file id and may take the
/// frame's own bytes as the range's digest, so a correctly sealed frame
/// that repeats or disorders ids, or spells a unit in bytes the encoder
/// would not produce, is refused whole.
#[test]
fn forged_unit_order_and_encoding() {
    let mut rep = Replica::new(1, StoreTier::Personal);
    for id in RANGE_3_IDS {
        rep.register(&rec(id, 100, "recon", "v1")).unwrap();
    }
    rep.quarantine(RANGE_3_IDS[2], "bad").unwrap();
    let units = rep.units_in_range(3).unwrap();
    let refused = |payload: &[u8], why: &str| {
        let err = decode_range_msg(payload).unwrap_err();
        assert!(matches!(err, ReplicaError::CorruptMessage { .. }), "{why}: {err:?}");
    };

    let swapped = [units[1].clone(), units[0].clone(), units[2].clone()];
    refused(&encode_range_msg(3, &swapped), "descending ids");
    let repeated = [units[0].clone(), units[0].clone()];
    refused(&encode_range_msg(3, &repeated), "a repeated id");

    // The last unit ends `.. flagged u8, reason len u32, "bad"`; any
    // non-zero flag byte decodes to `true`, only 1 is canonical.
    let mut payload = encode_range_msg(3, &units);
    let flag = payload.len() - 8;
    assert_eq!(payload[flag], 1);
    payload[flag] = 2;
    refused(&payload, "a non-canonical flag byte");

    // `Digest::from_hex` reads upper-case hex as well; only lower-case is
    // what the encoder writes.
    let mut payload = encode_range_msg(3, &units);
    let hex = units[0].record.prov_digest.to_hex();
    assert!(hex.bytes().any(|b| b.is_ascii_alphabetic()), "{hex} has letters to raise");
    let at = payload.windows(hex.len()).position(|w| w == hex.as_bytes()).unwrap();
    payload[at..at + hex.len()].make_ascii_uppercase();
    refused(&payload, "digest in upper-case hex");
}

/// A unit drawn whole: record strings with non-ASCII characters, one to
/// four version-vector components, quarantined or not.
fn any_unit(g: &mut Gen, id: u64) -> FileUnit {
    let text = |g: &mut Gen| g.string("a-z0-9/ éßø漢字", 0..12);
    let first = g.range(0u32..100_000);
    let record = FileRecord {
        id,
        runs: RunRange { first, last: first + g.range(0u32..50) },
        kind: text(g),
        version: text(g),
        site: text(g),
        registered: CalDate::new(g.range(1990u16..2030), g.range(1u8..=12), g.range(1u8..=28))
            .unwrap(),
        location: text(g),
        prov_digest: Digest(std::array::from_fn(|_| g.any::<u8>())),
    };
    let vv = VersionVector(g.map(1..=4, |g| (g.any::<u16>(), g.range(1u64..1 << 40))));
    let quarantine = g.any::<bool>().then(|| QState {
        epoch: g.range(1u64..1_000),
        flagged: g.any::<bool>(),
        reason: text(g),
    });
    FileUnit { record, tier_rank: g.range(0u8..3), origin: g.any::<u16>(), vv, quarantine }
}

/// One unit encoder: `encode_unit_into` appends exactly `encode_unit`'s
/// bytes to whatever the buffer holds, and the spans `decode_range_msg`
/// hands the receiver tile the payload after its header, each span the
/// encoding of its unit — the bytes the receiver journals and fingerprints.
#[test]
fn one_encoder_and_spans_that_tile_the_frame() {
    sciflow_testkit::check("one_encoder_and_spans_that_tile_the_frame", 64, |g| {
        let range = g.range(0..NUM_RANGES);
        let n = g.range(1usize..=6);
        let start = g.range(0u64..1 << 40);
        let ids: Vec<u64> = (start..).filter(|&id| range_of(id) == range).take(n).collect();
        let units: Vec<FileUnit> = ids.iter().map(|&id| any_unit(g, id)).collect();

        let mut buf = g.vec(1..32, |g| g.any::<u8>());
        let held = buf.clone();
        for unit in &units {
            let at = buf.len();
            encode_unit_into(&mut buf, unit);
            assert_eq!(buf[at..], encode_unit(unit)[..], "{unit:?}");
        }
        assert_eq!(buf[..held.len()], held[..], "what the buffer held stays");

        let payload = encode_range_msg(range, &units);
        let (got, decoded) = decode_range_msg(&payload).unwrap();
        assert_eq!((got, decoded.len()), (range, units.len()));
        let mut at = 2 + 4; // range u16, count u32
        for ((unit, span), sent) in decoded.iter().zip(&units) {
            assert_eq!(unit, sent);
            assert_eq!(span.start, at, "spans are contiguous");
            assert_eq!(payload[span.clone()], encode_unit(sent)[..]);
            at = span.end;
        }
        assert_eq!(at, payload.len(), "the spans reach the end of the payload");
    });
}

// --- hostile probes --------------------------------------------------------

type RawSplit = (u8, u64, [u64; 16]);
type RawList<'a> = (u8, u64, &'a [(u64, u64)]);

/// A probe payload spelled field by field, with none of the encoder's
/// guarantees: nodes as raw `(depth, prefix)`, entries in the order given.
fn raw_probe(range: u16, splits: &[RawSplit], lists: &[RawList<'_>], wants: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u16(&mut buf, range);
    put_u32(&mut buf, splits.len() as u32);
    for (depth, prefix, digests) in splits {
        put_u8(&mut buf, *depth);
        put_u64(&mut buf, *prefix);
        digests.iter().for_each(|d| put_u64(&mut buf, *d));
    }
    put_u32(&mut buf, lists.len() as u32);
    for (depth, prefix, pairs) in lists {
        put_u8(&mut buf, *depth);
        put_u64(&mut buf, *prefix);
        put_u32(&mut buf, pairs.len() as u32);
        for (id, print) in *pairs {
            put_u64(&mut buf, *id);
            put_u64(&mut buf, *print);
        }
    }
    put_u32(&mut buf, wants.len() as u32);
    wants.iter().for_each(|id| put_u64(&mut buf, *id));
    buf
}

/// A correctly sealed probe that `Probe::decode` must refuse, typed.
fn refused_probe(payload: &[u8], why: &str) -> String {
    let sealed = frame::seal(wire::MSG_PROBE, payload);
    let (_, payload) = frame::open(&sealed).expect("the seal is intact");
    match wire::Probe::decode(payload) {
        Err(ReplicaError::CorruptMessage { detail }) => detail,
        other => panic!("{why}: {other:?}"),
    }
}

/// A probe names nodes of the digest tree; one that names something else —
/// deeper than the tree goes, a prefix wider than its depth, a node of
/// another range, a split where there are no children to have digests, the
/// same node twice — is refused whole, never descended into.
#[test]
fn forged_probe_nodes() {
    let d = [7u64; 16];
    let honest = raw_probe(3, &[(1, 0x83, d)], &[(1, 0x143, &[(1393, 9)])], &[6]);
    assert_eq!(wire::Probe::decode(&honest).unwrap().encode(), honest);

    for (depth, prefix, why) in [
        (index::MAX_DEPTH + 1, 3, "a node deeper than the maximum"),
        (1, 3 | 1 << 10, "a prefix with a bit above its mask"),
        (0, 3 | 2 << 6, "a range node with child bits"),
        (1, 4 | 2 << 6, "a node filed under another range"),
    ] {
        refused_probe(&raw_probe(3, &[(depth, prefix, d)], &[], &[]), why);
        refused_probe(&raw_probe(3, &[], &[(depth, prefix, &[])], &[]), why);
    }
    refused_probe(&raw_probe(64, &[], &[(0, 64, &[])], &[]), "a range past the last");
    refused_probe(
        &raw_probe(3, &[(index::MAX_DEPTH, 3, d)], &[], &[]),
        "a split of a node at the maximum depth",
    );
    assert!(wire::Probe::decode(&raw_probe(3, &[], &[(index::MAX_DEPTH, 3, &[])], &[])).is_ok());
    refused_probe(&raw_probe(3, &[(1, 0x83, d), (1, 0x83, d)], &[], &[]), "a split repeated");
    refused_probe(&raw_probe(3, &[(1, 0x83, d), (1, 0x43, d)], &[], &[]), "splits descending");
    refused_probe(&raw_probe(3, &[], &[(1, 0x83, &[]), (0, 3, &[])], &[]), "lists descending");
}

/// Fingerprint lists and wanted ids are held to the same rule as the units
/// of a range frame: under the node (or range) that carries them, strictly
/// ascending; and a list is no longer than a leaf where the node could have
/// been split instead.
#[test]
fn forged_probe_lists_and_wants() {
    let [a, b, c] = RANGE_3_IDS;
    assert!(wire::Probe::decode(&raw_probe(3, &[], &[(0, 3, &[(a, 1), (b, 2)])], &[a, c])).is_ok());
    refused_probe(&raw_probe(3, &[], &[(0, 3, &[(b, 1), (a, 2)])], &[]), "ids descending");
    refused_probe(&raw_probe(3, &[], &[(0, 3, &[(a, 1), (a, 1)])], &[]), "an id repeated");
    refused_probe(&raw_probe(3, &[], &[(0, 3, &[(1, 1)])], &[]), "an id of another range");
    // File 6 lies in child 6 of range 3, not child 5.
    refused_probe(&raw_probe(3, &[], &[(1, 0x143, &[(a, 1)])], &[]), "an id of another node");
    refused_probe(&raw_probe(3, &[], &[], &[1]), "a wanted id of a foreign range");
    refused_probe(&raw_probe(3, &[], &[], &[b, a]), "wanted ids descending");
    refused_probe(&raw_probe(3, &[], &[], &[a, a]), "a wanted id repeated");

    let ids: Vec<(u64, u64)> =
        (0..).filter(|&id| range_of(id) == 3).map(|id| (id, 1)).take(17).collect();
    assert!(wire::Probe::decode(&raw_probe(3, &[], &[(0, 3, &ids[..16])], &[])).is_ok());
    refused_probe(&raw_probe(3, &[], &[(0, 3, &ids)], &[]), "a list where the node splits");
}

/// Each of the probe's four counts forged to `u32::MAX` and to one more than
/// the bytes that remain is an overrun, noticed before the count drives a
/// loop or sizes anything.
#[test]
fn forged_probe_counts() {
    let d = [7u64; 16];
    let honest = raw_probe(3, &[(1, 0x83, d)], &[(1, 0x143, &[(1393, 9)])], &[6]);
    // Offsets of the split count, the list count, the pair count and the
    // wanted count.
    for at in [2, 6 + 137, 6 + 137 + 4 + 9, honest.len() - 12] {
        assert_eq!(honest[at..at + 4], [1, 0, 0, 0], "a count sits at {at}");
        let remaining = (honest.len() - at - 4) as u32;
        for forged in [u32::MAX, remaining + 1] {
            let mut payload = honest.clone();
            payload[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            let detail = refused_probe(&payload, "a forged count");
            assert!(detail.contains("runs past the end"), "count {forged} at {at}: {detail}");
        }
    }
}

/// Recovery used to leave the torn tail in `journal.esr` and reopen it for
/// append, so every frame journaled after that recovery sat behind the
/// garbage and the *next* recovery silently dropped it.
#[test]
fn appends_after_a_torn_tail_recovery_survive_the_next_recovery() {
    let dir = scratch("torn-append");
    let path = dir.join(JOURNAL_FILE);
    let mut rep = Replica::durable(4, StoreTier::Personal, &dir).unwrap();
    rep.register(&rec(1, 100, "recon", "v1")).unwrap();
    drop(rep);
    let sealed = std::fs::read(&path).unwrap();
    std::fs::write(&path, [&sealed[..], &[wire::AJ_UNIT, 9, 9, 9]].concat()).unwrap();

    let mut rep = Replica::recover(&dir).unwrap();
    let torn = rep.torn_tail().expect("the tear is reported");
    assert_eq!((torn.offset, torn.reason), (sealed.len(), frame::Reason::Truncated));
    assert_eq!(std::fs::read(&path).unwrap(), sealed, "the tear is cut off the file");
    rep.register(&rec(2, 101, "recon", "v1")).unwrap();
    drop(rep);

    let rep = Replica::recover(&dir).unwrap();
    assert_eq!(rep.torn_tail(), None);
    assert!(rep.store().file(2).unwrap().is_some(), "file 2 was journaled after the recovery");
    assert_eq!(rep.store().file_count(), 2);
}

// --- the corruption sweep, every format ----------------------------------

/// What a loader salvaged from the bytes it was handed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Loaded {
    /// Fingerprint of the newest state recovered; less than the clean
    /// artefact's when a journal fell back to an earlier seal.
    newest: u64,
    /// Whether a torn tail was reported.
    tear_reported: bool,
    /// Length of the file afterwards (of the input, for in-memory formats).
    len_after: usize,
}

type Loader = Box<dyn FnMut(&[u8]) -> Result<Loaded, String>>;

struct Format {
    name: &'static str,
    clean: Vec<u8>,
    tail: TailPolicy,
    load: Loader,
}

fn tiny_sim() -> FlowSim {
    let mut g = FlowGraph::new();
    let src = g.add_stage(
        "acquire",
        StageKind::Source {
            block: DataVolume::gb(2),
            interval: SimDuration::from_hours(1),
            blocks: 4,
            start: SimTime::ZERO,
        },
    );
    let link = g.add_stage(
        "link",
        StageKind::Transfer {
            rate: DataRate::mb_per_sec(50.0),
            latency: SimDuration::from_secs(1),
            channels: 1,
        },
    );
    let sink = g.add_stage("archive", StageKind::Archive);
    g.connect(src, link).unwrap();
    g.connect(link, sink).unwrap();
    FlowSim::new(g, vec![]).unwrap()
}

/// `SFJRNL1`: a journaled run killed after at least two snapshot frames.
fn run_journal(dir: &Path) -> Format {
    let mut probe = tiny_sim();
    while probe.run_for(64).unwrap() {}
    let total = probe.events_handled();
    let path = dir.join("run.journal");
    let mut killed = tiny_sim()
        .with_snapshot_policy(SnapshotPolicy::EveryEvents(total / 3))
        .with_journal(&path)
        .unwrap();
    // Killed once `total - 1` events are handled: the budget, then a drop.
    assert!(killed.run_for(total).unwrap());
    drop(killed);
    let clean = std::fs::read(&path).unwrap();
    let load = move |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let hub = MetricsHub::new();
        let sim = tiny_sim().with_metrics(hub.clone()).resume_from(&path);
        let sim = sim.map_err(|e| e.to_string())?;
        Ok(Loaded {
            newest: sim.events_handled(),
            tear_reported: hub.value("recovery_truncations_total").is_some(),
            len_after: std::fs::metadata(&path).unwrap().len() as usize,
        })
    };
    Format { name: "run journal", clean, tail: TailPolicy::Recover, load: Box::new(load) }
}

/// `ESRJNL1`: two unit frames over the initial empty store snapshot.
fn apply_journal(dir: PathBuf) -> Format {
    two_unit_journal(&dir);
    let path = dir.join(JOURNAL_FILE);
    let clean = std::fs::read(&path).unwrap();
    let load = move |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let rep = Replica::recover(&dir).map_err(|e| e.to_string())?;
        Ok(Loaded {
            newest: rep.store().file_count() as u64,
            tear_reported: rep.torn_tail().is_some(),
            len_after: std::fs::metadata(&path).unwrap().len() as usize,
        })
    };
    Format { name: "apply journal", clean, tail: TailPolicy::Recover, load: Box::new(load) }
}

/// The receive path of `sync_once` for one range message.
fn wire_frame(rep: &Replica) -> Format {
    let clean = frame::seal(wire::MSG_RANGE, &encode_range_msg(3, &rep.units_in_range(3).unwrap()));
    let load = |bytes: &[u8]| match frame::open(bytes).map_err(ReplicaError::from) {
        Ok((wire::MSG_RANGE, payload)) => {
            let (range, units) = decode_range_msg(payload).map_err(|e| e.to_string())?;
            assert_eq!(range, 3);
            Ok(Loaded { newest: units.len() as u64, tear_reported: false, len_after: bytes.len() })
        }
        Ok((kind, _)) => Err(format!("unexpected kind 0x{kind:02x}")),
        Err(e) => {
            assert!(matches!(e, ReplicaError::CorruptMessage { .. }), "{e:?}");
            Err(e.to_string())
        }
    };
    Format { name: "wire frame", clean, tail: TailPolicy::Reject, load: Box::new(load) }
}

/// The receive path of `sync_once` for one probe: what `rep` holds in range
/// 3, by fingerprint.
fn probe_frame(rep: &Replica) -> Format {
    let mut probe = wire::Probe::new(3);
    rep.describe(index::Node::range(3), &mut probe).unwrap();
    let clean = frame::seal(wire::MSG_PROBE, &probe.encode());
    let load = |bytes: &[u8]| match frame::open(bytes).map_err(ReplicaError::from) {
        Ok((wire::MSG_PROBE, payload)) => {
            let probe = wire::Probe::decode(payload).map_err(|e| e.to_string())?;
            let listed = probe.prints.values().map(Vec::len).sum::<usize>() as u64;
            Ok(Loaded { newest: listed, tear_reported: false, len_after: bytes.len() })
        }
        Ok((kind, _)) => Err(format!("unexpected kind 0x{kind:02x}")),
        Err(e) => {
            assert!(matches!(e, ReplicaError::CorruptMessage { .. }), "{e:?}");
            Err(e.to_string())
        }
    };
    Format { name: "probe frame", clean, tail: TailPolicy::Reject, load: Box::new(load) }
}

/// `SFSEAL1`: the sealed metastore snapshot under an EventStore.
fn sealed_snapshot(rep: &Replica) -> Format {
    let clean = persist::sealed_bytes(rep.store().database());
    let load = |bytes: &[u8]| match persist::from_sealed_bytes(bytes) {
        Ok(db) => Ok(Loaded {
            newest: db.table(FILES).unwrap().len() as u64,
            tear_reported: false,
            len_after: bytes.len(),
        }),
        Err(e) => {
            assert!(matches!(e, MetaError::CorruptSnapshot { .. }), "{e:?}");
            Err(e.to_string())
        }
    };
    Format { name: "sealed snapshot", clean, tail: TailPolicy::Reject, load: Box::new(load) }
}

/// Every sealed format survives the same sweep: the clean artefact loads;
/// every truncation and every single-bit flip is refused (a journal may
/// only answer with an *earlier* seal, never the damaged frame); bytes past
/// the seal are damage for a single artefact and a recoverable torn tail
/// for a journal — dropped, reported, and cut off the file.
#[test]
fn every_sealed_format_survives_the_corruption_sweep() {
    let dir = scratch("sweep");
    let mut rep = Replica::new(1, StoreTier::Personal);
    for id in RANGE_3_IDS {
        rep.register(&rec(id, 100 + id as u32, "recon", "v1")).unwrap();
    }
    let formats = [
        run_journal(&dir),
        apply_journal(dir.join("replica")),
        wire_frame(&rep),
        probe_frame(&rep),
        sealed_snapshot(&rep),
    ];
    for Format { name, clean, tail, mut load } in formats {
        let want = load(&clean).unwrap_or_else(|e| panic!("{name}: clean artefact refused: {e}"));
        assert_eq!(
            (want.tear_reported, want.len_after),
            (false, clean.len()),
            "{name}: the clean artefact is all sealed frames"
        );
        assert_sealed_roundtrip(
            &clean,
            |bytes| match load(bytes) {
                Ok(got) if got.newest != want.newest => {
                    assert!(got.newest < want.newest, "{name}: {got:?}");
                    Err(format!("fell back to an earlier seal: {got:?}"))
                }
                other => other,
            },
            tail,
        );
        if tail == TailPolicy::Recover {
            // A crash mid-append: half a frame of garbage at the tail.
            let torn = [&clean[..], &[clean[8], 9, 9, 9]].concat();
            let got = load(&torn).unwrap_or_else(|e| panic!("{name}: torn tail is fatal: {e}"));
            let recovered = Loaded { tear_reported: true, ..want };
            assert_eq!(got, recovered, "{name}: tear dropped, reported and truncated");
            // A flip in the last frame drops that frame, not the journal.
            let mut flipped = clean.clone();
            *flipped.last_mut().unwrap() ^= 0x10;
            let got = load(&flipped).unwrap_or_else(|e| panic!("{name}: flip is fatal: {e}"));
            assert!(got.newest < want.newest && got.tear_reported, "{name}: {got:?}");
            assert!(got.len_after < clean.len(), "{name}: the damaged frame is cut off");
        }
    }
}
