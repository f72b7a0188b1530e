//! Unit tests for the replication layer's building blocks. The full
//! arbitrary-history convergence suite lives in the `replica_convergence`
//! integration tests; these pin the local algebra: the total order, the
//! quarantine register, wire framing, the journal, and small sessions.

use sciflow_core::fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile};
use sciflow_core::fnv::{fnv1a_update, FNV_OFFSET};
use sciflow_core::md5::md5;
use sciflow_core::units::{SimDuration, SimTime};
use sciflow_core::version::CalDate;

use super::*;
use crate::grade::{GradeEntry, RunRange};

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).unwrap()
}

pub(super) fn rec(id: u64, run: u32, kind: &str, version: &str) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: kind.into(),
        version: version.into(),
        site: "Cornell".into(),
        registered: d("20050601"),
        location: format!("/data/{kind}/{id}"),
        prov_digest: md5(format!("{id}-{kind}-{version}").as_bytes()),
    }
}

/// A fresh directory under the system temp dir, named for this process and
/// `name` so concurrent test processes never share it; removed on drop,
/// panic or not.
pub(super) struct Scratch(PathBuf);

pub(super) fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("sciflow-replica-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    Scratch(dir)
}

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn unit(id: u64, tier: u8, origin: StoreId, vv: &[(StoreId, u64)]) -> FileUnit {
    let mut v = VersionVector::new();
    for &(s, c) in vv {
        for _ in 0..c {
            v.bump(s);
        }
    }
    FileUnit {
        record: rec(id, 100, "recon", &format!("v-{tier}-{origin}")),
        tier_rank: tier,
        origin,
        vv: v,
        quarantine: None,
    }
}

fn entry(first: u32, last: u32, version: &str) -> GradeEntry {
    GradeEntry {
        runs: RunRange::new(first, last).unwrap(),
        kind: "recon".into(),
        version: version.into(),
    }
}

// --- total order -------------------------------------------------------

#[test]
fn resolution_prefers_tier_then_weight_then_store_id() {
    let personal = unit(1, 0, 5, &[(5, 10)]);
    let collab = unit(1, 2, 9, &[(9, 1)]);
    assert_eq!(cmp_units(&collab, &personal), Ordering::Greater, "tier outranks weight");

    let light = unit(1, 1, 3, &[(3, 1)]);
    let heavy = unit(1, 1, 7, &[(7, 2)]);
    assert_eq!(cmp_units(&heavy, &light), Ordering::Greater, "weight breaks tier ties");

    let low_id = unit(1, 1, 2, &[(2, 1)]);
    let high_id = unit(1, 1, 8, &[(8, 1)]);
    assert_eq!(cmp_units(&low_id, &high_id), Ordering::Greater, "lower store id wins ties");
}

#[test]
fn resolution_extends_causal_dominance() {
    // b has seen a's revision and added one: b dominates a, so b must win
    // regardless of store ids.
    let a = unit(1, 0, 9, &[(9, 1)]);
    let b = unit(1, 0, 2, &[(9, 1), (2, 1)]);
    // Componentwise ≥ with at least one strict >.
    assert!(b.vv != a.vv && a.vv.components().all(|(s, c)| b.vv.get(s) >= c));
    assert_eq!(cmp_units(&b, &a), Ordering::Greater);
}

#[test]
fn resolution_is_a_total_order_on_distinct_units() {
    // Build a pile of distinct units and check antisymmetry + transitivity
    // of the comparator by sorting twice from different starting orders.
    let mut units = Vec::new();
    for tier in 0..3u8 {
        for origin in 1..5u16 {
            units.push(unit(1, tier, origin, &[(origin, origin as u64)]));
        }
    }
    let mut fwd = units.clone();
    fwd.sort_by(cmp_units);
    let mut rev = units;
    rev.reverse();
    rev.sort_by(cmp_units);
    assert_eq!(fwd, rev, "sorting is order-independent, so the order is total");
    for pair in fwd.windows(2) {
        assert_eq!(cmp_units(&pair[0], &pair[1]), Ordering::Less);
        assert_eq!(cmp_units(&pair[1], &pair[0]), Ordering::Greater);
    }
}

/// The design decision pinned as a counterexample: resolution must NOT
/// join version vectors on conflict. A join-on-merge variant loses
/// associativity — the joined winner's weight grows with every merge, so
/// grouping changes which unit accumulates enough weight to win — while
/// plain `max` under the total order is grouping-independent by
/// construction.
#[test]
fn joining_version_vectors_on_conflict_would_break_associativity() {
    let a = unit(1, 1, 1, &[(1, 3)]);
    let b = unit(1, 1, 2, &[(2, 2)]);
    let c = unit(1, 1, 3, &[(3, 3)]);

    // The rejected design: winner by the same order, but carrying the
    // join of both vectors forward.
    let join_merge = |x: &FileUnit, y: &FileUnit| -> FileUnit {
        let mut winner = if cmp_units(x, y) == Ordering::Greater { x.clone() } else { y.clone() };
        let mut joined = VersionVector::new();
        for source in [&x.vv, &y.vv] {
            for (store, count) in source.components() {
                while joined.get(store) < count {
                    joined.bump(store);
                }
            }
        }
        winner.vv = joined;
        winner
    };
    let left = join_merge(&join_merge(&a, &b), &c);
    let right = join_merge(&a, &join_merge(&b, &c));
    assert_ne!(left.origin, right.origin, "the counterexample must exercise the broken grouping");

    // The shipped design: max under the total order, vectors immutable.
    let max_merge = |x: &FileUnit, y: &FileUnit| -> FileUnit {
        if cmp_units(x, y) == Ordering::Greater {
            x.clone()
        } else {
            y.clone()
        }
    };
    let left = max_merge(&max_merge(&a, &b), &c);
    let right = max_merge(&a, &max_merge(&b, &c));
    assert_eq!(encode_unit(&left), encode_unit(&right));
    assert_eq!(left.origin, 1, "weight ties break on the smaller origin id");
}

#[test]
fn equal_ordering_implies_identical_unit() {
    let a = unit(1, 1, 3, &[(3, 2)]);
    let b = unit(1, 1, 3, &[(3, 2)]);
    assert_eq!(cmp_units(&a, &b), Ordering::Equal);
    assert_eq!(encode_unit(&a), encode_unit(&b));
}

#[test]
fn quarantine_register_merge_is_max_and_release_needs_a_new_epoch() {
    let flag = QState { epoch: 1, flagged: true, reason: "bit rot".into() };
    let stale_release = QState { epoch: 1, flagged: false, reason: String::new() };
    let real_release = QState { epoch: 2, flagged: false, reason: String::new() };

    // Same epoch: the flag wins (safety first).
    assert_eq!(Some(flag.clone()).max(Some(stale_release)), Some(flag.clone()));
    // Newer epoch: the deliberate release wins, and re-merging the old flag
    // cannot resurrect it.
    let merged = Some(flag.clone()).max(Some(real_release.clone()));
    assert_eq!(merged, Some(real_release.clone()));
    assert_eq!(merged.max(Some(flag)), Some(real_release));
}

// --- wire framing ------------------------------------------------------

#[test]
fn units_roundtrip_through_the_wire() {
    let mut u = unit(42, 2, 7, &[(7, 3), (1, 2)]);
    u.quarantine = Some(QState { epoch: 4, flagged: true, reason: "torn header".into() });
    let bytes = encode_unit(&u);
    let mut r = Reader::new(&bytes);
    let back = decode_unit(&mut r).unwrap();
    r.done().unwrap();
    assert_eq!(back, u);
}

#[test]
fn summary_is_fixed_size_and_roundtrips() {
    let mut rep = Replica::new(3, StoreTier::Group);
    for i in 0..200 {
        rep.register(&rec(i, 100 + i as u32, "recon", "v1")).unwrap();
    }
    let summary = rep.summary().unwrap();
    let encoded = summary.encode();
    // 2 bytes store id + 64 range digests + 1 grade digest: constant.
    assert_eq!(encoded.len(), 2 + NUM_RANGES * 8 + 8);
    assert_eq!(Summary::decode(&encoded).unwrap(), summary);
}

// --- local ops and sessions --------------------------------------------

#[test]
fn register_revise_and_resolution_through_a_clean_session() {
    let mut a = Replica::new(1, StoreTier::Personal);
    let mut b = Replica::new(2, StoreTier::Personal);
    a.register(&rec(1, 100, "recon", "v1")).unwrap();
    b.register(&rec(2, 101, "recon", "v1")).unwrap();

    let mut link = SyncLink::clean();
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(!report.in_sync);
    assert_eq!(report.units_added, 2);
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());

    // A second session is pure digest traffic.
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(report.in_sync);
    assert_eq!(report.units_sent, 0);

    // Revise on one side; the revision (heavier vector) wins everywhere.
    b.revise(&rec(1, 100, "recon", "v2")).unwrap();
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!(report.units_replaced, 1);
    assert_eq!(a.store().file(1).unwrap().unwrap().version, "v2");
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

#[test]
fn sync_cost_is_sublinear_in_file_count() {
    // Two big in-sync stores plus one divergent file: the session must ship
    // only the file, not its range, let alone the store.
    let mut a = Replica::new(1, StoreTier::Group);
    let mut b = Replica::new(2, StoreTier::Group);
    for i in 0..600 {
        let r = rec(i, 100 + i as u32, "recon", "v1");
        a.register(&r).unwrap();
        b.register(&r).unwrap();
    }
    // Same registration on both sides produces different origin/vv units;
    // make them identical by syncing once first.
    let mut link = SyncLink::clean();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(sync_once(&mut a, &mut b, &mut link).unwrap().in_sync);

    // The differing range holds ten units at b, fewer than a leaf: b lists
    // their fingerprints, a ships the one file the list lacks.
    a.register(&rec(9_000, 999, "recon", "new")).unwrap();
    assert_eq!(b.units_in_range(range_of(9_000)).unwrap().len(), 10);
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!((report.ranges_differing, report.units_sent, report.units_added), (1, 1, 1));
    assert_eq!((report.turns, report.frames_sent, report.units_kept), (2, 3, 0));
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());

    // A range holding more than a leaf splits: b answers with the sixteen
    // digests of the range's children, a lists the one child that differs,
    // b asks for the file it lacks there, a ships it.
    let ids: Vec<u64> = (10_000..).filter(|&id| range_of(id) == 5).take(41).collect();
    for &id in &ids[..40] {
        a.register(&rec(id, 100, "recon", "v1")).unwrap();
    }
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(sync_once(&mut a, &mut b, &mut link).unwrap().in_sync);
    assert!(b.units_in_range(5).unwrap().len() > index::LEAF_UNITS);
    a.register(&rec(ids[40], 100, "recon", "v1")).unwrap();
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!((report.ranges_differing, report.units_sent, report.units_added), (1, 1, 1));
    assert_eq!((report.turns, report.frames_sent, report.units_kept), (4, 5, 0));
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

#[test]
fn quarantine_propagates_and_release_wins() {
    let mut a = Replica::new(1, StoreTier::Personal);
    let mut b = Replica::new(2, StoreTier::Group);
    a.register(&rec(1, 100, "recon", "v1")).unwrap();
    let mut link = SyncLink::clean();
    sync_once(&mut a, &mut b, &mut link).unwrap();

    a.quarantine(1, "digest mismatch").unwrap();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(b.store().is_quarantined(1), "quarantined anywhere ⇒ quarantined everywhere");
    assert_eq!(b.store().quarantine_reason(1).as_deref(), Some("digest mismatch"));

    // Release at the *other* replica; syncing back must not resurrect.
    b.release(1).unwrap();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(!a.store().is_quarantined(1));
    assert!(!b.store().is_quarantined(1));
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

/// A quarantine reason crosses the wire, a checkpoint and a journal replay
/// byte for byte, delimiters included: the register is a typed row, not
/// delimited text.
#[test]
fn quarantine_reasons_are_kept_verbatim() {
    let reason = "md5 a|b differs || tape 7|";
    let (dir_a, dir_b) = (scratch("verbatim-a"), scratch("verbatim-b"));
    let mut a = Replica::durable(1, StoreTier::Group, &dir_a).unwrap();
    let mut b = Replica::durable(2, StoreTier::Personal, &dir_b).unwrap();
    a.register(&rec(1, 100, "recon", "v1")).unwrap();
    a.quarantine(1, reason).unwrap();
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    // `a` recovers from its snapshot, `b` by replaying its journal.
    a.checkpoint().unwrap();
    drop((a, b));
    for dir in [&dir_a, &dir_b] {
        let rep = Replica::recover(dir).unwrap();
        assert_eq!(rep.unit(1).unwrap().unwrap().quarantine.unwrap().reason, reason);
        assert_eq!(rep.store().quarantine_reason(1).as_deref(), Some(reason));
    }
}

#[test]
fn concurrent_grade_declarations_union() {
    let mut a = Replica::new(1, StoreTier::Group);
    let mut b = Replica::new(2, StoreTier::Group);
    a.declare_snapshot("physics", d("20050601"), vec![entry(1, 100, "vA")]).unwrap();
    b.declare_snapshot("physics", d("20050601"), vec![entry(101, 200, "vB")]).unwrap();
    let mut link = SyncLink::clean();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
    let history = a.store().grade_history("physics").unwrap();
    assert_eq!(history.snapshots().len(), 1);
    assert_eq!(history.snapshots()[0].entries.len(), 2);
    // And the stores still accept later declarations.
    a.declare_snapshot("physics", d("20050701"), vec![entry(1, 200, "vC")]).unwrap();
}

#[test]
fn dropped_summary_is_a_typed_error_and_faulty_links_still_converge() {
    let profile = FaultProfile::replica_chaos();
    let plan = FaultPlan::generate(99, SimDuration::from_days(2), &profile);
    assert!(plan.count(|k| matches!(k, FaultKind::Duplicate)) > 0);

    let mut a = Replica::new(1, StoreTier::Personal);
    let mut b = Replica::new(2, StoreTier::Collaboration);
    for i in 0..40 {
        a.register(&rec(i, 100 + i as u32, "recon", "v1")).unwrap();
        b.register(&rec(1_000 + i, 500 + i as u32, "mc", "m1")).unwrap();
    }
    a.quarantine(3, "failed verify").unwrap();

    let mut fabric = SyncFabric::new();
    fabric.connect(0, 1, SyncLink::new(plan));
    let mut replicas = vec![a, b];
    let rounds = fabric.settle(&mut replicas, 200).unwrap();
    assert!(rounds >= 1);
    assert!(SyncFabric::converged(&replicas).unwrap());
    assert!(replicas[1].store().is_quarantined(3));
    assert_eq!(replicas[0].store().file_count(), 80);
}

#[test]
fn partitioned_send_fails_typed_until_heal() {
    let plan = FaultPlan::from_events(
        7,
        vec![sciflow_core::fault::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Partition { heal: SimDuration::from_hours(2) },
        }],
    );
    let mut a = Replica::new(1, StoreTier::Personal);
    let mut b = Replica::new(2, StoreTier::Personal);
    a.register(&rec(1, 100, "recon", "v1")).unwrap();
    let mut link = SyncLink::new(plan);
    match sync_once(&mut a, &mut b, &mut link) {
        Err(ReplicaError::Partitioned { heals_at }) => {
            assert_eq!(heals_at, SimTime::ZERO + SimDuration::from_hours(2));
        }
        other => panic!("expected Partitioned, got {other:?}"),
    }
    link.heal();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

/// A partition that opens inside a session aborts it where it stands: what
/// crossed before stays applied, and the session after the heal ships the
/// rest. Here it opens just before the session's last frame, the units b
/// ships for a's wants.
#[test]
fn a_partition_mid_session_keeps_what_crossed() {
    let ids = ids_in_range(3, 8);
    let build = || {
        let (mut a, mut b) = (Replica::new(1, StoreTier::Group), Replica::new(2, StoreTier::Group));
        for &id in &ids[..4] {
            a.register(&rec(id, 100, "recon", "v1")).unwrap();
        }
        for &id in &ids[4..] {
            b.register(&rec(id, 100, "recon", "v1")).unwrap();
        }
        (a, b)
    };
    let (mut a, mut b) = build();
    let clean = sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    let want = a.sealed_content().unwrap();

    let (mut a, mut b) = build();
    let at = SimTime::ZERO + SimDuration::from_micros(50_000 * (clean.frames_sent - 1));
    let partition = FaultKind::Partition { heal: SimDuration::from_hours(1) };
    let mut link =
        SyncLink::new(FaultPlan::from_events(7, vec![FaultEvent { at, kind: partition }]));
    match sync_once(&mut a, &mut b, &mut link) {
        Err(ReplicaError::Partitioned { .. }) => {}
        other => panic!("expected Partitioned, got {other:?}"),
    }
    assert_eq!((a.store().file_count(), b.store().file_count()), (4, 8), "a's units crossed");
    link.heal();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!(a.sealed_content().unwrap(), want);
    assert_eq!(b.sealed_content().unwrap(), want);
}

// --- durability --------------------------------------------------------

#[test]
fn kill_between_journal_and_apply_recovers_identically() {
    let dir = scratch("kill");

    let mut a = Replica::new(1, StoreTier::Personal);
    for i in 0..30 {
        a.register(&rec(i, 100 + i as u32, "recon", "v1")).unwrap();
    }
    let mut b = Replica::durable(2, StoreTier::Group, &dir).unwrap();
    b.register(&rec(500, 999, "mc", "m1")).unwrap();
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    let healthy = b.sealed_content().unwrap();

    // Kill the durable replica partway through applying the session: what
    // it leaves is its snapshot and its journal up to the 7th frame of the
    // session, which follows its own registration.
    drop(b);
    sciflow_testkit::cut_journal(&dir, 1 + 7);

    // Recover from snapshot + journal, then re-run the session: identical
    // bytes, never a torn store.
    let mut b = Replica::recover(&dir).unwrap();
    assert_eq!(b.store().file_count(), 1 + 7, "frames 1..=k were on disk");
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    assert_eq!(b.sealed_content().unwrap(), healthy);
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

/// The first `n` file ids of digest range `r`.
fn ids_in_range(r: usize, n: usize) -> Vec<u64> {
    (0..).filter(|&id| range_of(id) == r).take(n).collect()
}

fn journal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
}

/// Only units that change the store reach the journal, and only units that
/// are news reach the wire: a duplicated probe and a confirming session ship
/// and append nothing.
#[test]
fn a_confirming_or_duplicated_exchange_appends_nothing() {
    let (dir_a, dir_b) = (scratch("quiet-a"), scratch("quiet-b"));
    let mut a = Replica::durable(1, StoreTier::Group, &dir_a).unwrap();
    let mut b = Replica::durable(2, StoreTier::Group, &dir_b).unwrap();
    let ids = ids_in_range(3, 8);
    for &id in &ids[..6] {
        a.register(&rec(id, 100, "recon", "v1")).unwrap();
    }
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();

    // One new file on each side, both in range 3. The link
    // duplicates the second frame of the session: b's probe of range 3.
    a.register(&rec(ids[6], 100, "recon", "v1")).unwrap();
    b.register(&rec(ids[7], 100, "recon", "v1")).unwrap();
    let (len_a, len_b) = (journal_len(&dir_a), journal_len(&dir_b));
    let one_frame = |rep: &Replica, id: u64| {
        (frame::OVERHEAD + encode_unit(&rep.unit(id).unwrap().unwrap()).len()) as u64
    };
    let (new_at_a, new_at_b) = (one_frame(&b, ids[7]), one_frame(&a, ids[6]));
    let at = SimTime::ZERO + SimDuration::from_micros(100_000);
    let plan = FaultPlan::from_events(7, vec![FaultEvent { at, kind: FaultKind::Duplicate }]);
    let mut link = SyncLink::new(plan);
    let report = sync_once(&mut a, &mut b, &mut link).unwrap();
    assert_eq!(link.stats().frames_duplicated, 1);
    assert_eq!((report.ranges_differing, report.units_added), (1, 2));
    // b's seven fingerprints arrived at a twice; a shipped the one file
    // they lack and asked for the one it lacks, once.
    assert_eq!((report.units_sent, report.units_kept, report.turns), (2, 0, 3));
    assert_eq!(journal_len(&dir_a), len_a + new_at_a, "a journals the one unit it lacked");
    assert_eq!(journal_len(&dir_b), len_b + new_at_b, "b journals the one unit it lacked");

    let (len_a, len_b) = (journal_len(&dir_a), journal_len(&dir_b));
    assert!(sync_once(&mut a, &mut b, &mut link).unwrap().in_sync);
    assert_eq!((journal_len(&dir_a), journal_len(&dir_b)), (len_a, len_b));

    // What was journaled is the whole history: recovery lands on the same bytes.
    let want = a.sealed_content().unwrap();
    drop((a, b));
    assert_eq!(Replica::recover(&dir_a).unwrap().sealed_content().unwrap(), want);
    assert_eq!(Replica::recover(&dir_b).unwrap().sealed_content().unwrap(), want);
}

/// The units of one range frame are journaled in one write, one frame per
/// unit: a kill after frame 3 of a six-unit batch leaves three frames on
/// disk, and recovery applies exactly those.
#[test]
fn kill_inside_a_batched_frame_recovers_identically() {
    let dir = scratch("kill-batch");
    let mut a = Replica::new(1, StoreTier::Personal);
    for id in ids_in_range(3, 6) {
        a.register(&rec(id, 100, "recon", "v1")).unwrap();
    }
    let mut b = Replica::durable(2, StoreTier::Group, &dir).unwrap();
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    let healthy = b.sealed_content().unwrap();
    drop(b);
    sciflow_testkit::cut_journal(&dir, 3);

    let mut b = Replica::recover(&dir).unwrap();
    assert_eq!(b.store().file_count(), 3, "frames 1..=k were on disk");
    assert_eq!(b.torn_tail(), None);
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    assert_eq!(b.sealed_content().unwrap(), healthy);
    assert_eq!(a.sealed_content().unwrap(), healthy);
}

/// One `(id, fingerprint)` pair of `unit` folded into a node digest.
fn naive_fold(digest: u64, unit: &FileUnit) -> u64 {
    let print = fnv1a(&encode_unit(unit));
    fnv1a_update(fnv1a_update(digest, &unit.record.id.to_le_bytes()), &print.to_le_bytes())
}

/// The range digests computed the slow way: every unit folded, in id order,
/// into its range.
fn naive_range_digests(rep: &Replica) -> [u64; NUM_RANGES] {
    let mut ranges = [FNV_OFFSET; NUM_RANGES];
    for unit in rep.units().unwrap() {
        let r = range_of(unit.record.id);
        ranges[r] = naive_fold(ranges[r], &unit);
    }
    ranges
}

/// Hold the summary, and every node digest two levels below it, to the
/// naive fold over all units.
fn assert_tree_matches_the_naive_fold(rep: &Replica) {
    assert_eq!(rep.summary().unwrap().ranges, naive_range_digests(rep));
    let mut children = vec![[FNV_OFFSET; 16]; NUM_RANGES];
    let mut grandchildren = vec![[FNV_OFFSET; 16]; NUM_RANGES * 16];
    for unit in rep.units().unwrap() {
        let place = fnv1a(&unit.record.id.to_le_bytes());
        let (r, c, g) = ((place % 64) as usize, (place >> 6) as usize % 16, (place >> 10) % 16);
        children[r][c] = naive_fold(children[r][c], &unit);
        let under = &mut grandchildren[r * 16 + c][g as usize];
        *under = naive_fold(*under, &unit);
    }
    for r in 0..NUM_RANGES {
        assert_eq!(rep.child_digests(r, &[]).unwrap(), children[r], "children of range {r}");
        for c in 0..16 {
            assert_eq!(rep.child_digests(r, &[c]).unwrap(), grandchildren[r * 16 + c], "{r}/{c}");
        }
    }
}

/// An arriving unit lends the index its fingerprint only when, once applied,
/// it is the resident unit byte for byte. Each case below leaves something
/// resident the arriving units do not carry, fed to the receive path
/// directly so the frames are exactly these.
#[test]
fn an_arriving_unit_lends_its_fingerprint_only_when_it_ends_up_resident() {
    let ids = ids_in_range(3, 3);
    let receive = |rep: &mut Replica, units: Vec<FileUnit>| {
        let payload = wire::encode_range_msg(3, &units);
        let (_, units) = wire::decode_range_msg(&payload).unwrap();
        rep.commit_received(&payload, units, &mut SyncReport::default()).unwrap();
        assert_tree_matches_the_naive_fold(rep);
    };
    let peer = |ids: &[u64]| {
        let mut peer = Replica::new(1, StoreTier::Personal);
        for &id in ids {
            peer.register(&rec(id, 100, "recon", "v1")).unwrap();
        }
        peer
    };

    // Every arriving unit ends up resident: new files, then the same units again.
    let mut rep = Replica::new(2, StoreTier::Personal);
    receive(&mut rep, peer(&ids).units_in_range(3).unwrap());
    receive(&mut rep, peer(&ids).units_in_range(3).unwrap());
    // A resident file the frame does not mention.
    receive(&mut rep, peer(&ids[..2]).units_in_range(3).unwrap());
    // A resident revision that beats the incoming one.
    rep.revise(&rec(ids[0], 100, "recon", "v2")).unwrap();
    receive(&mut rep, peer(&ids).units_in_range(3).unwrap());
    // A resident quarantine register the incoming unit does not carry.
    let mut rep = Replica::new(2, StoreTier::Personal);
    receive(&mut rep, peer(&ids).units_in_range(3).unwrap());
    rep.quarantine(ids[1], "bad tape").unwrap();
    receive(&mut rep, peer(&ids).units_in_range(3).unwrap());
    // ... and one that the incoming register supersedes.
    let mut flagged = peer(&ids);
    flagged.quarantine(ids[1], "bad tape").unwrap();
    flagged.release(ids[1]).unwrap();
    receive(&mut rep, flagged.units_in_range(3).unwrap());
    assert!(!rep.store().is_quarantined(ids[1]));
    // The two crossings, where the arriving unit changes the store and
    // still is not what ends up resident: its register wins while a
    // resident revision beats it, and its revision wins while a resident
    // register outlasts it.
    rep.revise(&rec(ids[0], 100, "recon", "v2")).unwrap();
    rep.quarantine(ids[2], "bad disk").unwrap();
    let mut crossing = peer(&ids);
    crossing.quarantine(ids[0], "bad tape").unwrap();
    crossing.revise(&rec(ids[2], 100, "recon", "v3")).unwrap();
    receive(&mut rep, crossing.units_in_range(3).unwrap());
    assert_eq!(rep.store().file(ids[0]).unwrap().unwrap().version, "v2");
    assert!(rep.store().is_quarantined(ids[0]));
    assert_eq!(rep.store().file(ids[2]).unwrap().unwrap().version, "v3");
    assert!(rep.store().is_quarantined(ids[2]));
}

/// A store pair whose whole difference lies deep under one digest range: 600
/// files of range 3, a third of them only at `a`, a third only at `b`, and
/// among the shared third concurrent revisions on both sides, a revision on
/// one side only, and a quarantine.
fn deep_pair() -> Vec<Replica> {
    let ids = ids_in_range(3, 600);
    let file = |id: u64, version: &str| rec(id, 100 + (id % 1_000) as u32, "recon", version);
    let mut a = Replica::new(1, StoreTier::Group);
    let mut b = Replica::new(2, StoreTier::Personal);
    let shared: Vec<u64> = ids.iter().copied().skip(2).step_by(3).collect();
    for &id in &shared {
        a.register(&file(id, "v1")).unwrap();
    }
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    for thirds in ids.chunks(3) {
        a.register(&file(thirds[0], "v1")).unwrap();
        b.register(&file(thirds[1], "v1")).unwrap();
    }
    for &id in shared.iter().step_by(20) {
        a.revise(&file(id, "fix-a")).unwrap();
        b.revise(&file(id, "fix-b")).unwrap();
    }
    a.revise(&file(shared[1], "v2")).unwrap();
    b.quarantine(shared[2], "bad tape").unwrap();
    vec![a, b]
}

/// The chaos suites draw ~15 fault events a day against links that charge
/// 50 ms a frame, so they never touch a frame in flight, and their stores
/// put ~2 units in a range, so nothing below a range is ever probed. Here
/// both are forced: 600 files under one range, and a drop, a corruption, a
/// duplicate about every seventeen frames each and a reorder every four.
/// Every seed must settle on the bytes a clean link gives within twelve
/// rounds (one to seven on 160 seeds when this was written; a clean link
/// takes one).
#[test]
fn deep_tree_converges_under_dense_faults() {
    let settle = |link: SyncLink| {
        let mut replicas = deep_pair();
        let mut fabric = SyncFabric::new();
        fabric.connect(0, 1, link);
        let rounds = fabric.settle(&mut replicas, 12).unwrap();
        (replicas[0].sealed_content().unwrap(), rounds, fabric.link_stats()[0])
    };
    let (reference, rounds, clean) = settle(SyncLink::clean());
    // One session of five turns: the summary; b's split of range 3; a's
    // splits of its 16 children; b's units for the grandchildren a holds
    // nothing in and its lists for the rest; a's units and wanted ids; and
    // the units b was asked for.
    assert_eq!((rounds, clean.frames_sent), (1, 8));

    let base = sciflow_testkit::matrix_seed(42);
    let mut hit = LinkStats::default();
    for i in 0..20 {
        let seed = sciflow_testkit::derive_seed(base, &format!("dense-{i}"));
        let faults = sciflow_testkit::dense_link_faults();
        let plan = FaultPlan::generate(seed, SimDuration::from_mins(10), &faults);
        let (content, _, stats) = settle(SyncLink::new(plan));
        assert!(content == reference, "seed {seed}: settled on different bytes");
        hit.frames_dropped += stats.frames_dropped;
        hit.frames_corrupted += stats.frames_corrupted;
        hit.frames_duplicated += stats.frames_duplicated;
        hit.reorders += stats.reorders;
    }
    for (kind, landed) in [
        ("drop", hit.frames_dropped),
        ("corruption", hit.frames_corrupted),
        ("duplicate", hit.frames_duplicated),
        ("reorder", hit.reorders),
    ] {
        assert!(landed > 0, "no {kind} landed on a frame in twenty seeds");
    }
}

#[test]
fn torn_journal_tail_is_truncated_on_recovery() {
    let dir = scratch("torn");
    let mut rep = Replica::durable(4, StoreTier::Personal, &dir).unwrap();
    rep.register(&rec(1, 100, "recon", "v1")).unwrap();
    rep.register(&rec(2, 101, "recon", "v1")).unwrap();
    drop(rep);

    // Tear the last journal frame mid-write.
    let journal = dir.join("journal.esr");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 5]).unwrap();

    let rep = Replica::recover(&dir).unwrap();
    // The torn second append is gone; the first survived intact.
    assert_eq!(rep.store().file_count(), 1);
    assert!(rep.store().file(1).unwrap().is_some());

    // A non-journal file is a typed error, not a truncation.
    std::fs::write(&journal, b"not a journal at all").unwrap();
    assert!(matches!(Replica::recover(&dir), Err(ReplicaError::CorruptJournal { .. })));
}

#[test]
fn checkpoint_truncates_journal_and_recovery_still_matches() {
    let dir = scratch("checkpoint");
    let mut rep = Replica::durable(6, StoreTier::Group, &dir).unwrap();
    for i in 0..10 {
        rep.register(&rec(i, 100 + i as u32, "recon", "v1")).unwrap();
    }
    rep.checkpoint().unwrap();
    rep.register(&rec(99, 999, "recon", "late")).unwrap();
    let want = rep.sealed_content().unwrap();
    drop(rep);

    let journal_len = std::fs::metadata(dir.join("journal.esr")).unwrap().len();
    assert!(journal_len < 200, "checkpoint left {journal_len} bytes of journal");
    let rep = Replica::recover(&dir).unwrap();
    assert_eq!(rep.sealed_content().unwrap(), want);
    assert_eq!(rep.store().file_count(), 11);
}

#[test]
fn adopted_store_keeps_quarantine_and_syncs() {
    let mut es = EventStore::new(StoreTier::Personal);
    es.register_file(&rec(1, 100, "recon", "v1")).unwrap();
    es.register_file(&rec(2, 101, "recon", "v1")).unwrap();
    es.quarantine_file(2, "bad tape").unwrap();
    let mut a = Replica::adopt(es, 1).unwrap();
    assert_eq!(a.unit(1).unwrap().unwrap().vv, VersionVector::first(1));

    let mut b = Replica::new(2, StoreTier::Collaboration);
    let mut link = SyncLink::clean();
    sync_once(&mut a, &mut b, &mut link).unwrap();
    assert!(b.store().is_quarantined(2));
    assert_eq!(a.sealed_content().unwrap(), b.sealed_content().unwrap());
}

#[test]
fn canonical_content_ignores_rowids_and_declaration_order() {
    let mut x = EventStore::new(StoreTier::Group);
    let mut y = EventStore::new(StoreTier::Group);
    x.register_file(&rec(1, 100, "recon", "v1")).unwrap();
    y.register_file(&rec(1, 100, "recon", "v1")).unwrap();
    x.declare_snapshot("g", d("20050601"), vec![entry(1, 10, "a"), entry(11, 20, "b")]).unwrap();
    y.declare_snapshot("g", d("20050601"), vec![entry(11, 20, "b"), entry(1, 10, "a")]).unwrap();
    assert_eq!(canonical_content(&x).unwrap(), canonical_content(&y).unwrap());
}

// --- observability -----------------------------------------------------

use sciflow_core::obs::{MetricsHub, SloRule};

fn divergent_pair() -> Vec<Replica> {
    let mut a = Replica::new(1, StoreTier::Personal);
    let mut b = Replica::new(2, StoreTier::Collaboration);
    for i in 0..20 {
        a.register(&rec(i, 100 + i as u32, "recon", "v1")).unwrap();
        b.register(&rec(1_000 + i, 500 + i as u32, "mc", "m1")).unwrap();
    }
    vec![a, b]
}

#[test]
fn replication_lag_is_zero_exactly_at_convergence() {
    let mut replicas = divergent_pair();
    assert!(replication_lag(&replicas).unwrap() > 0);
    let mut fabric = SyncFabric::new();
    fabric.connect(0, 1, SyncLink::clean());
    fabric.settle(&mut replicas, 10).unwrap();
    assert!(SyncFabric::converged(&replicas).unwrap());
    assert_eq!(replication_lag(&replicas).unwrap(), 0);
}

#[test]
fn instrumented_fabric_syncs_identically_and_records_the_wire() {
    let profile = FaultProfile::replica_chaos();

    let mut plain = divergent_pair();
    let mut fabric = SyncFabric::new();
    fabric.connect(
        0,
        1,
        SyncLink::new(FaultPlan::generate(99, SimDuration::from_days(2), &profile)),
    );
    let plain_rounds = fabric.settle(&mut plain, 200).unwrap();

    let hub = MetricsHub::new();
    let mut watched = divergent_pair();
    let mut fabric = SyncFabric::new()
        .with_metrics(hub.clone())
        .with_slo(SloRule::replication_lag("lag-ceiling", 0));
    fabric.connect(
        0,
        1,
        SyncLink::new(FaultPlan::generate(99, SimDuration::from_days(2), &profile)),
    );
    let rounds = fabric.settle(&mut watched, 200).unwrap();

    // Instrumentation must not perturb the sync itself.
    assert_eq!(rounds, plain_rounds);
    assert_eq!(watched[0].sealed_content().unwrap(), plain[0].sealed_content().unwrap());

    // Wire metrics agree with the link's own cumulative stats.
    let stats = fabric.link_stats()[0];
    assert_eq!(hub.value("repl_bytes_sent{link=\"0\"}"), Some(stats.bytes_sent));
    assert_eq!(hub.value("repl_frames_dropped{link=\"0\"}"), Some(stats.frames_dropped));
    assert_eq!(hub.value("repl_rounds_to_quiescence"), Some(rounds as u64));
    // Lag conservation: converged fleet reads zero.
    assert_eq!(hub.value("repl_lag_weight"), Some(0));

    // The zero-ceiling lag rule fired while divergent and resolved at
    // quiescence — one completed window, nothing left open.
    let alerts = fabric.alerts();
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].rule, "lag-ceiling");
    assert!(alerts[0].resolved_at.is_some());
    assert!(alerts[0].peak > 0);
}

#[test]
fn partition_windows_are_measured() {
    let plan = FaultPlan::from_events(
        7,
        vec![sciflow_core::fault::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Partition { heal: SimDuration::from_hours(2) },
        }],
    );
    let hub = MetricsHub::new();
    let mut fabric = SyncFabric::new().with_metrics(hub.clone());
    fabric.connect(0, 1, SyncLink::new(plan));
    let mut replicas = divergent_pair();
    let reports = fabric.round(&mut replicas).unwrap();
    assert!(reports[0].is_none());
    assert_eq!(hub.value("repl_sessions_dropped_total{link=\"0\"}"), Some(1));
    assert_eq!(hub.value("repl_partition_us{link=\"0\"}"), Some(1));
    assert_eq!(
        hub.histogram_sum("repl_partition_us{link=\"0\"}"),
        Some(SimDuration::from_hours(2).as_micros())
    );
}

#[test]
#[should_panic(expected = "only replication-lag rules")]
fn fabric_rejects_flow_rules() {
    let _ = SyncFabric::new().with_slo(SloRule::escaped_taint("esc", 0));
}
