//! The replication layer's acceptance bar, in executable form.
//!
//! For arbitrary generated operation histories and arbitrary partition/heal
//! schedules, after quiescence:
//!
//! * every replica holds **byte-identical sealed content**;
//! * quarantine flags propagate (quarantined anywhere ⇒ quarantined
//!   everywhere, releases win via epoch bump);
//! * Σ records is conserved — every file id registered at any store is
//!   present at every store;
//! * a replica killed at a seed-derived point mid-apply — what it leaves on
//!   disk is its snapshot and its journal cut after that frame, made with
//!   `sciflow_testkit::cut_journal` — recovers through its journal and
//!   still converges to identical bytes, never silent divergence;
//! * at every step on the way there, what a replica answers from its range
//!   index is what the naive walk over the whole store computes.
//!
//! CI sweeps `FAULT_MATRIX_SEED` over these tests; locally they run at the
//! default seed.

use std::env;
use std::fs;
use std::path::Path;

use sciflow_core::fault::{FaultPlan, FaultProfile};
use sciflow_core::fnv::{fnv1a, fnv1a_update, FNV_OFFSET};
use sciflow_core::md5::md5;
use sciflow_core::units::SimDuration;
use sciflow_core::version::CalDate;
use sciflow_eventstore::replica::{
    encode_unit, range_of, Replica, ReplicaError, SyncFabric, SyncLink, NUM_RANGES,
};
use sciflow_eventstore::{sync_once, EventStore, FileRecord, FileUnit, RunRange, StoreTier};
use sciflow_testkit::{
    assert_convergence, cut_journal, derive_seed, matrix_seed, registered_ids, History,
    ReplicatedScenario,
};

fn record(id: u64, run: u32, version: &str) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: "recon".into(),
        version: version.into(),
        site: "Cornell".into(),
        registered: CalDate::new(2005, 6, 1).unwrap(),
        location: format!("/data/{id}"),
        prov_digest: md5(format!("{id}:{version}").as_bytes()),
    }
}

/// Arbitrary histories over the full chaos profile (drops, stalls,
/// corruption, duplicates, reorders, partitions) converge to byte-identical
/// stores, conserving every record. Three derived seeds per matrix seed.
#[test]
fn arbitrary_histories_converge_under_chaos() {
    let base = matrix_seed(42);
    for label in ["chaos-a", "chaos-b", "chaos-c"] {
        let seed = derive_seed(base, label);
        let scenario = ReplicatedScenario::new(seed);
        let (replicas, _) = scenario.build().expect("history generation");
        let expected = registered_ids(&replicas);
        let (settled, rounds) = scenario.run().expect("fleet must quiesce");
        assert!(rounds >= 1, "settle reports the rounds it took");
        assert_convergence(&settled, &expected);
    }
}

/// The chaos profile's faults fall between sessions, not on frames; the
/// dense profile's come every few frames. The same generated
/// histories must converge all the same — and the links must show that every
/// kind of fault did hit a frame, or this test exercised nothing.
#[test]
fn arbitrary_histories_converge_under_dense_faults() {
    let base = matrix_seed(42);
    let (mut dropped, mut corrupted, mut duplicated, mut reordered) = (0, 0, 0, 0);
    for label in ["dense-a", "dense-b", "dense-c"] {
        let scenario = ReplicatedScenario::dense(derive_seed(base, label));
        let (mut replicas, mut fabric) = scenario.build().expect("history generation");
        let expected = registered_ids(&replicas);
        fabric.settle(&mut replicas, scenario.max_rounds).expect("fleet must quiesce");
        assert_convergence(&replicas, &expected);
        for stats in fabric.link_stats() {
            dropped += stats.frames_dropped;
            corrupted += stats.frames_corrupted;
            duplicated += stats.frames_duplicated;
            reordered += stats.reorders;
        }
    }
    for (kind, landed) in [
        ("drop", dropped),
        ("corruption", corrupted),
        ("duplicate", duplicated),
        ("reorder", reordered),
    ] {
        assert!(landed > 0, "no {kind} landed on a frame in flight");
    }
}

/// A larger fleet with a partition-heavy profile: links sever and heal on
/// the seeded schedule, sessions inside windows fail typed, and the fleet
/// still converges once the windows pass.
#[test]
fn partition_heal_schedules_converge() {
    let seed = matrix_seed(42);
    let profile = FaultProfile {
        partitions_per_day: 6.0,
        mean_partition_heal: SimDuration::from_hours(6),
        ..FaultProfile::replica_chaos()
    };
    let scenario = ReplicatedScenario::new(derive_seed(seed, "partitions"))
        .with_replicas(5)
        .with_profile(profile);
    // The schedule must actually contain partitions for this to test
    // anything.
    let plan = scenario.link_plan(0, 1);
    assert!(
        plan.count(|k| matches!(k, sciflow_core::fault::FaultKind::Partition { .. })) > 0,
        "partition profile generated no partitions"
    );
    let (replicas, _) = scenario.build().expect("history generation");
    let expected = registered_ids(&replicas);
    let (settled, _) = scenario.run().expect("fleet must quiesce after heals");
    assert_convergence(&settled, &expected);
}

/// Quarantined anywhere ⇒ quarantined everywhere: a flag raised at a leaf
/// personal store reaches the collaboration root across two hops of faulty
/// links, carrying its reason.
#[test]
fn quarantine_propagates_fleet_wide() {
    let seed = matrix_seed(42);
    let mut replicas = vec![
        Replica::new(1, StoreTier::Collaboration),
        Replica::new(2, StoreTier::Group),
        Replica::new(3, StoreTier::Personal),
    ];
    for i in 0..12u64 {
        replicas[2].register(&record(i, 100 + i as u32, "v1")).unwrap();
    }
    replicas[2].quarantine(5, "md5 mismatch on tape 7").unwrap();

    let profile = FaultProfile::replica_chaos();
    let mut fabric = SyncFabric::new();
    fabric.connect(
        0,
        1,
        SyncLink::new(FaultPlan::generate(
            derive_seed(seed, "q-link-01"),
            SimDuration::from_days(2),
            &profile,
        )),
    );
    fabric.connect(
        1,
        2,
        SyncLink::new(FaultPlan::generate(
            derive_seed(seed, "q-link-12"),
            SimDuration::from_days(2),
            &profile,
        )),
    );
    fabric.settle(&mut replicas, 300).expect("quiesce");

    for replica in &replicas {
        assert!(replica.store().is_quarantined(5), "flag must reach every tier");
        assert_eq!(replica.store().quarantine_reason(5).as_deref(), Some("md5 mismatch on tape 7"));
    }

    // Release at the root; the release (newer epoch) must win everywhere,
    // including back at the store that raised the flag.
    replicas[0].release(5).unwrap();
    fabric.settle(&mut replicas, 300).expect("quiesce after release");
    for replica in &replicas {
        assert!(!replica.store().is_quarantined(5), "release must not resurrect");
    }
}

/// The crash clause of the acceptance bar: a durable replica is killed at a
/// seed-derived point while applying a sync session — its journal cut after
/// that frame, which a dead process wrote but never applied. Recovery
/// replays the journal and a re-driven sync converges to the same bytes as
/// a never-killed run.
#[test]
fn killed_replica_recovers_and_converges() {
    let seed = matrix_seed(42);
    let dir = env::temp_dir().join(format!("sciflow-replica-chaos-kill-{seed}"));
    fs::remove_dir_all(&dir).ok();

    // Reference run without the kill.
    let reference = {
        let mut root = Replica::new(1, StoreTier::Collaboration);
        sync_once(&mut shipping_peer(seed), &mut root, &mut SyncLink::clean()).unwrap();
        root.sealed_content().unwrap()
    };

    // Killed run: the kill point is derived from the seed, so the matrix
    // sweeps different interruption points. The peer ships into an empty
    // root and receives nothing, so it is as it was built.
    kill_collaboration_root(&dir, seed);
    let root = Replica::recover(&dir).expect("snapshot + journal replay");
    let mut replicas = vec![root, shipping_peer(seed)];
    let mut fabric = SyncFabric::new();
    fabric.connect(
        0,
        1,
        SyncLink::new(FaultPlan::generate(
            derive_seed(seed, "kill-resync"),
            SimDuration::from_days(1),
            &FaultProfile::replica_chaos(),
        )),
    );
    fabric.settle(&mut replicas, 300).expect("resync after recovery");
    assert_eq!(
        replicas[0].sealed_content().unwrap(),
        reference,
        "recovered replica must land on the identical bytes"
    );
    assert_eq!(
        replicas[1].sealed_content().unwrap(),
        reference,
        "the peer must agree with the recovered replica"
    );
    fs::remove_dir_all(&dir).ok();
}

// --- killed replicas, pinned ------------------------------------------------

/// The session of the crate's `kill_between_journal_and_apply_recovers_identically`:
/// a durable group store holding one file receives a personal store's 30,
/// one journal frame each, and dies after the `k`-th of them.
fn kill_mid_session(dir: &Path, k: usize) {
    let mut a = Replica::new(1, StoreTier::Personal);
    for i in 0..30 {
        a.register(&crate_record(i, 100 + i as u32, "recon", "v1")).unwrap();
    }
    let mut b = Replica::durable(2, StoreTier::Group, dir).unwrap();
    b.register(&crate_record(500, 999, "mc", "m1")).unwrap();
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    drop(b);
    cut_journal(dir, 1 + k);
}

/// The session of the crate's `kill_inside_a_batched_frame_recovers_identically`:
/// six units of one digest range arrive in one range frame at an empty
/// durable store, which dies after the `k`-th of their journal frames.
fn kill_inside_a_batch(dir: &Path, k: usize) {
    let mut a = Replica::new(1, StoreTier::Personal);
    for id in (0..).filter(|&id| range_of(id) == 3).take(6) {
        a.register(&crate_record(id, 100, "recon", "v1")).unwrap();
    }
    let mut b = Replica::durable(2, StoreTier::Group, dir).unwrap();
    sync_once(&mut a, &mut b, &mut SyncLink::clean()).unwrap();
    drop(b);
    cut_journal(dir, k);
}

/// The personal store that ships into a collaboration root in
/// `killed_replica_recovers_and_converges`: 40 files, one quarantined.
fn shipping_peer(seed: u64) -> Replica {
    let mut peer = Replica::new(2, StoreTier::Personal);
    for i in 0..40u64 {
        peer.register(&record(i, 100 + i as u32, "v1")).unwrap();
    }
    peer.quarantine(seed % 40, "failed verify before shipping").unwrap();
    peer
}

/// The session of `killed_replica_recovers_and_converges` at `seed`, its
/// durable root killed after the seed-derived frame.
fn kill_collaboration_root(dir: &Path, seed: u64) {
    let mut root = Replica::durable(1, StoreTier::Collaboration, dir).unwrap();
    sync_once(&mut shipping_peer(seed), &mut root, &mut SyncLink::clean()).unwrap();
    drop(root);
    cut_journal(dir, 1 + (seed % 17) as usize);
}

/// The fleet of the `replication` example at `seed`, its durable root
/// killed where the example kills it.
fn kill_example_root(dir: &Path, seed: u64) {
    let record = |id: u64, run: u32, version: &str| FileRecord {
        location: format!("/data/recon/{id}"),
        ..record(id, run, version)
    };
    let chaos_link = |label: u64| {
        SyncLink::new(FaultPlan::generate(
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(label),
            SimDuration::from_days(2),
            &FaultProfile::replica_chaos(),
        ))
    };
    let root = Replica::durable(1, StoreTier::Collaboration, dir).unwrap();
    let mut group = Replica::new(2, StoreTier::Group);
    let mut leaf = Replica::new(3, StoreTier::Personal);
    for id in 0..60u64 {
        leaf.register(&record(id, 14_000 + id as u32, "v1")).unwrap();
    }
    for id in 60..90u64 {
        group.register(&record(id, 14_000 + id as u32, "v1")).unwrap();
    }
    leaf.quarantine(17, "md5 mismatch on tape 7").unwrap();
    leaf.revise(&record(3, 14_003, "personal-fix")).unwrap();
    let mut replicas = vec![root, group, leaf];
    replicas[0].register(&record(3, 14_003, "blessed-recon")).unwrap();
    let mut fabric = SyncFabric::new();
    fabric.connect(0, 1, chaos_link(1));
    fabric.connect(1, 2, chaos_link(2));
    fabric.settle(&mut replicas, 200).expect("the fleet quiesces");
    drop(replicas);
    // The root's own registration is its first frame.
    cut_journal(dir, 2 + (seed % 23) as usize);
}

/// What the crate's unit tests register: `rec` in `replica::tests`.
fn crate_record(id: u64, run: u32, kind: &str, version: &str) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: kind.into(),
        version: version.into(),
        site: "Cornell".into(),
        registered: CalDate::new(2005, 6, 1).unwrap(),
        location: format!("/data/{kind}/{id}"),
        prov_digest: md5(format!("{id}-{kind}-{version}").as_bytes()),
    }
}

/// What a kill leaves on disk, to the byte, and what recovery makes of it:
/// the session of each kill test, killed at every frame (the 30-unit
/// session), at frames 1–6 (the batched frame), and at the seed-derived
/// point for fixed seeds (the convergence test and the `replication`
/// example's fleet), not the matrix seed. Every killed `journal.esr` folds
/// into a count, a byte total and an FNV-1a, and every recovered replica's
/// `sealed_content` into a second FNV-1a. If this fails, a killed replica
/// leaves different frames or recovers to different content than before:
/// do not update the literals; fix the code.
#[test]
fn killed_replica_journals_are_pinned() {
    let dir = env::temp_dir().join(format!("sciflow-replica-kill-pin-{}", std::process::id()));
    let (mut journals, mut bytes, mut hash, mut content) = (0u64, 0u64, FNV_OFFSET, FNV_OFFSET);
    let mut fold = |kill: &dyn Fn(&Path)| {
        fs::remove_dir_all(&dir).ok();
        kill(&dir);
        let journal = fs::read(dir.join("journal.esr")).expect("journal readable");
        journals += 1;
        bytes += journal.len() as u64;
        hash = fnv1a_update(hash, &journal);
        let recovered = Replica::recover(&dir).expect("snapshot + journal replay");
        content = fnv1a_update(content, &recovered.sealed_content().unwrap());
    };
    for k in 1..=30 {
        fold(&|dir| kill_mid_session(dir, k));
    }
    for k in 1..=6 {
        fold(&|dir| kill_inside_a_batch(dir, k));
    }
    for seed in [42, 7, 1234, 9001] {
        fold(&|dir| kill_collaboration_root(dir, seed));
        fold(&|dir| kill_example_root(dir, seed));
    }
    fs::remove_dir_all(&dir).ok();
    assert_eq!(
        (journals, bytes, format!("{hash:016x}").as_str(), format!("{content:016x}").as_str()),
        (44, 80_978, "8de9dd0779a0985f", "7e4e785171f2b399"),
        "journals, total bytes, FNV-1a of every journal in order and of every recovered content"
    );
}

/// Same seed, same fleet, byte-for-byte: the whole chaos pipeline — history
/// generation, fault timelines, session scheduling, resolution — is a pure
/// function of the seed.
#[test]
fn convergence_is_deterministic_per_seed() {
    let seed = derive_seed(matrix_seed(42), "determinism");
    let run = |s| {
        let (replicas, rounds) = ReplicatedScenario::new(s).run().unwrap();
        (replicas[0].sealed_content().unwrap(), rounds)
    };
    let (bytes_a, rounds_a) = run(seed);
    let (bytes_b, rounds_b) = run(seed);
    assert_eq!(bytes_a, bytes_b);
    assert_eq!(rounds_a, rounds_b);
}

/// Tier precedence end to end: when a personal store and the collaboration
/// store revise the same file concurrently, every replica settles on the
/// collaboration revision, regardless of sync order.
#[test]
fn collaboration_revisions_outrank_personal_ones() {
    let shared = record(77, 500, "base");
    let mut root = Replica::new(1, StoreTier::Collaboration);
    let mut leaf = Replica::new(3, StoreTier::Personal);
    leaf.register(&shared).unwrap();
    let mut link = SyncLink::clean();
    sync_once(&mut leaf, &mut root, &mut link).unwrap();

    // Concurrent revisions on both sides of the link.
    leaf.revise(&record(77, 500, "personal-fix")).unwrap();
    root.revise(&record(77, 500, "blessed-recon")).unwrap();
    sync_once(&mut leaf, &mut root, &mut link).unwrap();

    for replica in [&root, &leaf] {
        assert_eq!(
            replica.store().file(77).unwrap().unwrap().version,
            "blessed-recon",
            "collaboration tier must win the concurrent revision"
        );
    }
    assert_eq!(root.sealed_content().unwrap(), leaf.sealed_content().unwrap());
}

/// The conservation law behind the `repl_lag_weight` gauge: replication lag
/// (the fleet-wide version-vector shortfall) is positive exactly while the
/// fleet is diverged and zero exactly at quiescence — for arbitrary
/// generated histories under full chaos, across the seed sweep.
#[test]
fn replication_lag_is_conserved_across_the_sweep() {
    use sciflow_core::obs::MetricsHub;
    use sciflow_eventstore::replica::replication_lag;

    let base = matrix_seed(42);
    for label in ["lag-a", "lag-b", "lag-c"] {
        let seed = derive_seed(base, label);
        let scenario = ReplicatedScenario::new(seed);
        let (mut replicas, fabric) = scenario.build().expect("history generation");
        let before = replication_lag(&replicas).expect("lag computable");
        assert!(before > 0, "seed {seed}: generated history left the fleet already in sync");

        let hub = MetricsHub::new();
        let mut fabric = fabric.with_metrics(hub.clone());
        fabric.settle(&mut replicas, 300).expect("fleet must quiesce");

        let after = replication_lag(&replicas).expect("lag computable");
        assert_eq!(after, 0, "seed {seed}: lag must be exactly zero at quiescence");
        assert_eq!(
            hub.value("repl_lag_weight"),
            Some(0),
            "seed {seed}: the gauge must agree with the direct computation"
        );
        assert!(
            hub.value("repl_rounds_to_quiescence").unwrap_or(0) >= 1,
            "seed {seed}: quiescence round must be recorded"
        );
    }
}

/// One `(id, fingerprint)` pair folded into a node digest: the id, then the
/// FNV-1a of the unit's canonical encoding, each as a little-endian `u64`.
fn naive_fold(digest: u64, unit: &FileUnit) -> u64 {
    let print = fnv1a(&encode_unit(unit));
    fnv1a_update(fnv1a_update(digest, &unit.record.id.to_le_bytes()), &print.to_le_bytes())
}

/// Every node digest two levels below the ranges, against the naive fold of
/// `units` (all of the replica's, ascending by id): a file's place in the
/// tree is the FNV-1a of its id, six bits for the range and four per level.
fn assert_tree_matches_the_naive_fold(replica: &Replica, units: &[FileUnit], at: &str) {
    let mut children = vec![[FNV_OFFSET; 16]; NUM_RANGES];
    let mut grandchildren = vec![[FNV_OFFSET; 16]; NUM_RANGES * 16];
    for u in units {
        let place = fnv1a(&u.record.id.to_le_bytes());
        let (r, c, g) = ((place % 64) as usize, (place >> 6) as usize % 16, (place >> 10) % 16);
        children[r][c] = naive_fold(children[r][c], u);
        let under = &mut grandchildren[r * 16 + c][g as usize];
        *under = naive_fold(*under, u);
    }
    for r in 0..NUM_RANGES {
        assert_eq!(replica.child_digests(r, &[]).unwrap(), children[r], "{at}: range {r}");
        for c in 0..16 {
            let naive = grandchildren[r * 16 + c];
            assert_eq!(replica.child_digests(r, &[c]).unwrap(), naive, "{at}: node {r}/{c}");
        }
    }
}

/// The reference the range index replaced, computed the slow way from the
/// file table: every unit folded, in id order, into its range's digest, and
/// a range's units found by filtering all of them. The grade digest is
/// checked against a replica adopted from a byte copy of the store, whose
/// caches start empty.
fn assert_index_matches_the_naive_fold(replica: &Replica, at: &str) {
    let mut ids: Vec<u64> = replica.store().files().unwrap().iter().map(|f| f.id).collect();
    ids.sort_unstable();
    let units = replica.units().unwrap();
    assert_eq!(units.iter().map(|u| u.record.id).collect::<Vec<_>>(), ids, "{at}: units()");
    for u in &units {
        assert_eq!(replica.unit(u.record.id).unwrap().as_ref(), Some(u), "{at}: units()");
    }

    let mut ranges = [FNV_OFFSET; NUM_RANGES];
    for u in &units {
        let r = range_of(u.record.id);
        ranges[r] = naive_fold(ranges[r], u);
    }
    let summary = replica.summary().unwrap();
    assert_eq!(summary.ranges, ranges, "{at}: range digests");
    assert_tree_matches_the_naive_fold(replica, &units, at);
    for r in 0..NUM_RANGES {
        let naive: Vec<FileUnit> =
            units.iter().filter(|u| range_of(u.record.id) == r).cloned().collect();
        assert_eq!(replica.units_in_range(r).unwrap(), naive, "{at}: units_in_range({r})");
    }

    let copy = EventStore::from_bytes(&replica.store().to_bytes()).unwrap();
    let fresh = Replica::adopt(copy, replica.id()).unwrap();
    assert_eq!(fresh.summary().unwrap(), summary, "{at}: summary of a fresh adoption");
    assert_eq!(fresh.sealed_content().unwrap(), replica.sealed_content().unwrap(), "{at}");
}

/// The differential test behind the range index: three replicas (two of
/// them durable) replay seeded histories one operation at a time, with
/// sessions over chaos links, checkpoints, a crash-less recovery and an
/// adoption interleaved, and after every step each replica touched must
/// answer `summary`, `units` and `units_in_range` exactly as the naive
/// fold does. A digest left cached across any mutation fails here.
#[test]
fn range_index_matches_the_naive_fold_after_every_step() {
    let base = matrix_seed(42);
    for label in ["index-a", "index-b"] {
        let seed = derive_seed(base, label);
        let scenario = ReplicatedScenario::new(seed).with_replicas(3);
        let dirs = [0, 1].map(|i| {
            let name = format!("sciflow-replica-index-{}-{seed}-{i}", std::process::id());
            let dir = env::temp_dir().join(name);
            fs::remove_dir_all(&dir).ok();
            dir
        });
        let mut replicas = vec![
            Replica::durable(1, StoreTier::Collaboration, &dirs[0]).unwrap(),
            Replica::durable(2, StoreTier::Group, &dirs[1]).unwrap(),
            Replica::new(3, StoreTier::Personal),
        ];
        let mut histories: Vec<History> = (0..3).map(|i| scenario.history(i)).collect();
        let mut links =
            [(0, 1), (1, 2), (2, 0)].map(|(a, b)| (a, b, SyncLink::new(scenario.link_plan(a, b))));
        let mut sessions = 0;

        for step in 0..48 {
            for (i, history) in histories.iter_mut().enumerate() {
                match history.step(&mut replicas[i]) {
                    // A snapshot dated before one a session brought in is
                    // refused; the replica must be left exactly as it was.
                    Ok(()) | Err(ReplicaError::Store(_)) => {}
                    Err(e) => panic!("seed {seed} step {step}: {e}"),
                }
                assert_index_matches_the_naive_fold(&replicas[i], &format!("{seed}/{step}/op{i}"));
            }
            if step % 3 == 2 {
                let (a, b, link) = &mut links[(step / 3) % 3];
                let [ra, rb] = replicas.get_disjoint_mut([*a, *b]).unwrap();
                match sync_once(ra, rb, link) {
                    Ok(_) => sessions += 1,
                    Err(ReplicaError::Partitioned { .. }) => link.heal(),
                    Err(ReplicaError::SessionDropped) => {}
                    Err(e) => panic!("seed {seed} step {step}: {e}"),
                }
                for i in [*a, *b] {
                    assert_index_matches_the_naive_fold(
                        &replicas[i],
                        &format!("{seed}/{step}/sync{i}"),
                    );
                }
            }
            if step % 16 == 7 {
                replicas[0].checkpoint().unwrap();
                assert_index_matches_the_naive_fold(&replicas[0], &format!("{seed}/{step}/ckpt"));
            }
            if step % 16 == 15 {
                // Replica 1 never checkpoints: recovery replays its whole
                // journal, which holds only the state-changing history.
                let before = replicas.remove(1);
                let (summary, content) =
                    (before.summary().unwrap(), before.sealed_content().unwrap());
                drop(before);
                let recovered = Replica::recover(&dirs[1]).unwrap();
                assert_eq!(recovered.summary().unwrap(), summary, "{seed}/{step}/recover");
                assert_eq!(recovered.sealed_content().unwrap(), content, "{seed}/{step}/recover");
                assert_index_matches_the_naive_fold(&recovered, &format!("{seed}/{step}/recover"));
                replicas.insert(1, recovered);
            }
        }
        assert!(sessions >= 8, "seed {seed}: only {sessions} sessions got through the chaos");
        drop(replicas);
        for dir in &dirs {
            fs::remove_dir_all(dir).ok();
        }
    }
}
