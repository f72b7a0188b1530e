//! Algebraic properties of [`sciflow_eventstore::merge_into`] on arbitrary
//! generated stores: folding any set of compatible personal stores into a
//! target is **commutative** (order of merges), **associative** (grouping of
//! merges), and **idempotent** (re-merging changes nothing). Equality is
//! observational — [`sciflow_eventstore::canonical_content`] strips rowids
//! and declaration order, exactly what the non-replicated API can see.
//!
//! Stores are generated from seeds (matrix-swept in CI): disjoint private id
//! spaces plus a shared pool of identical records (exercising the skip
//! path), per-store snapshot dates (exercising grade folding), and a sprinkle
//! of quarantined files (exercising the held-back path).

use sciflow_core::md5::md5;
use sciflow_core::rng::Rng;
use sciflow_core::version::CalDate;
use sciflow_eventstore::{
    canonical_content, merge_into, EventStore, FileRecord, GradeEntry, RunRange, StoreTier,
};
use sciflow_testkit::{derive_seed, matrix_seed};

/// Shared-pool records are a pure function of their id, so two stores that
/// both hold shared file `k` hold byte-identical rows — a skip, never a
/// conflict.
fn shared_record(id: u64) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(1_000 + id as u32),
        kind: "recon".into(),
        version: format!("shared-v{id}"),
        site: "Cornell".into(),
        registered: CalDate::new(2005, 3, 1).unwrap(),
        location: format!("/shared/{id}"),
        prov_digest: md5(format!("shared:{id}").as_bytes()),
    }
}

fn private_record(rng: &mut Rng, store_index: usize, n: u64) -> FileRecord {
    let id = (store_index as u64 + 1) * 10_000 + n;
    let version = format!("v{}-{}", store_index, rng.gen_range(0..100u32));
    let first = rng.gen_range(1..40_000u32);
    FileRecord {
        id,
        runs: RunRange::new(first, first + rng.gen_range(0..50u32)).unwrap(),
        kind: ["recon", "postrecon", "mc"][rng.gen_range(0..3)].into(),
        version: version.clone(),
        site: format!("site-{store_index}"),
        registered: CalDate::new(2005, 1 + rng.gen_range(0..12u8), 1 + rng.gen_range(0..28u8))
            .unwrap(),
        location: format!("/p{store_index}/{id}"),
        prov_digest: md5(format!("{id}:{version}").as_bytes()),
    }
}

/// One generated personal store. Snapshot dates are namespaced per store
/// index so independently generated stores never declare the same
/// `(grade, date)` — the compatibility precondition of `merge_into`.
fn generated_store(seed: u64, store_index: usize) -> EventStore {
    let mut rng = Rng::seed_from_u64(derive_seed(seed, &format!("store-{store_index}")));
    let mut store = EventStore::new(StoreTier::Personal);
    let mut own = Vec::new();
    for n in 0..rng.gen_range(3..15u64) {
        let record = private_record(&mut rng, store_index, n);
        own.push(record.id);
        store.register_file(&record).unwrap();
    }
    for id in 0..8u64 {
        if rng.gen_bool(0.4) {
            store.register_file(&shared_record(id)).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let id = own[rng.gen_range(0..own.len())];
        store.quarantine_file(id, &format!("verify failed at store {store_index}")).unwrap();
    }
    for k in 0..rng.gen_range(0..4u32) {
        let grade = ["physics", "mc-pass1"][rng.gen_range(0..2)];
        // Dates advance with k and are disjoint across stores.
        let day = 1 + (store_index as u8 * 7 + k as u8) % 27;
        let month = 1 + (store_index as u8 + k as u8) % 12;
        let first = rng.gen_range(1..5_000u32);
        store
            .declare_snapshot(
                grade,
                CalDate::new(2005, month, day).unwrap(),
                vec![GradeEntry {
                    runs: RunRange::new(first, first + rng.gen_range(0..100u32)).unwrap(),
                    kind: "recon".into(),
                    version: format!("g{store_index}-{k}"),
                }],
            )
            .unwrap();
    }
    store
}

fn fold(sources: &[&EventStore]) -> Vec<u8> {
    let mut target = EventStore::new(StoreTier::Collaboration);
    for source in sources {
        merge_into(&mut target, source).unwrap();
    }
    canonical_content(&target).unwrap()
}

/// All 6 merge orders of 3 arbitrary stores land on observationally
/// identical targets: commutativity and associativity in one sweep, across
/// 20 generated triples per matrix seed.
#[test]
fn merge_is_order_independent_on_generated_triples() {
    let base = matrix_seed(42);
    for case in 0..20u64 {
        let seed = derive_seed(base, &format!("triple-{case}"));
        let a = generated_store(seed, 0);
        let b = generated_store(seed, 1);
        let c = generated_store(seed, 2);
        let reference = fold(&[&a, &b, &c]);
        let orders: [[&EventStore; 3]; 5] =
            [[&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a]];
        for (i, order) in orders.iter().enumerate() {
            assert_eq!(
                fold(&order[..]),
                reference,
                "seed {seed}: merge order {i} diverged from [a, b, c]"
            );
        }
    }
}

/// Grouping does not matter either: pre-merging B and C into an
/// intermediate store and folding that in equals folding B and C directly.
#[test]
fn merge_is_associative_through_intermediate_stores() {
    let base = matrix_seed(42);
    for case in 0..10u64 {
        let seed = derive_seed(base, &format!("assoc-{case}"));
        let a = generated_store(seed, 0);
        let b = generated_store(seed, 1);
        let c = generated_store(seed, 2);

        // (A ⊔ B) ⊔ C …
        let mut left = EventStore::new(StoreTier::Group);
        merge_into(&mut left, &a).unwrap();
        merge_into(&mut left, &b).unwrap();
        let mut left_target = EventStore::new(StoreTier::Collaboration);
        merge_into(&mut left_target, &left).unwrap();
        merge_into(&mut left_target, &c).unwrap();

        // … equals A ⊔ (B ⊔ C).
        let mut right = EventStore::new(StoreTier::Group);
        merge_into(&mut right, &b).unwrap();
        merge_into(&mut right, &c).unwrap();
        let mut right_target = EventStore::new(StoreTier::Collaboration);
        merge_into(&mut right_target, &a).unwrap();
        merge_into(&mut right_target, &right).unwrap();

        assert_eq!(
            canonical_content(&left_target).unwrap(),
            canonical_content(&right_target).unwrap(),
            "seed {seed}: grouping changed the merged store"
        );
    }
}

/// Re-merging any source into an already-merged target is a no-op: the
/// canonical bytes are unchanged and the report shows only skips. Quarantined
/// files stay held back on every pass — idempotently reported, never
/// silently promoted.
#[test]
fn merge_is_idempotent_on_generated_pairs() {
    let base = matrix_seed(42);
    for case in 0..20u64 {
        let seed = derive_seed(base, &format!("idem-{case}"));
        let a = generated_store(seed, 0);
        let b = generated_store(seed, 1);
        let mut target = EventStore::new(StoreTier::Collaboration);
        merge_into(&mut target, &a).unwrap();
        merge_into(&mut target, &b).unwrap();
        let once = canonical_content(&target).unwrap();

        let report_a = merge_into(&mut target, &a).unwrap();
        let report_b = merge_into(&mut target, &b).unwrap();
        for (name, report, source) in [("a", report_a, &a), ("b", report_b, &b)] {
            assert_eq!(report.files_added, 0, "seed {seed}: re-merge of {name} added files");
            assert_eq!(report.grade_entries_added, 0);
            assert_eq!(
                report.files_quarantined,
                source.quarantined_files().len(),
                "seed {seed}: quarantined files of {name} must stay held back"
            );
            // The Display satellite: the summary line renders the skips.
            assert!(report.to_string().contains("merged 0 files"));
        }
        assert_eq!(
            canonical_content(&target).unwrap(),
            once,
            "seed {seed}: re-merge changed bytes"
        );
    }
}
