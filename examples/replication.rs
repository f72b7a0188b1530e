//! Replicated EventStore demo: three stores, chaotic links, one kill.
//!
//! ```text
//! cargo run -p sciflow-examples --bin replication
//! ```
//!
//! The README's replication snippet, runnable end to end: a personal, a
//! group and a collaboration store diverge (registrations, a concurrent
//! revision, a quarantine), then anti-entropy sessions over seeded faulty
//! links — drops, stalls, corruption, duplicates, reorders, partitions —
//! bring the fleet to byte-identical sealed content. Then the durable
//! collaboration root is killed `kill -9`-style between journaling a frame
//! and applying it: it is dropped, and its journal is cut after that frame
//! (`sciflow_testkit::cut_journal`), which leaves on disk exactly what a
//! process killed there leaves — the snapshot and the frames it had synced.
//! It recovers from its snapshot + journal, and the fleet lands on the same
//! bytes again.
//!
//! Pass a seed as the first argument (or set `FAULT_MATRIX_SEED`, as CI
//! does) to sweep different fault timelines and kill points.

use std::collections::BTreeSet;

use sciflow_core::fault::{FaultPlan, FaultProfile};
use sciflow_core::md5::md5;
use sciflow_core::units::SimDuration;
use sciflow_core::version::CalDate;
use sciflow_eventstore::replica::{Replica, SyncFabric, SyncLink};
use sciflow_eventstore::{FileRecord, RunRange, StoreTier};
use sciflow_testkit::cut_journal;

fn record(id: u64, run: u32, version: &str) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: "recon".into(),
        version: version.into(),
        site: "Cornell".into(),
        registered: CalDate::new(2005, 6, 1).unwrap(),
        location: format!("/data/recon/{id}"),
        prov_digest: md5(format!("{id}:{version}").as_bytes()),
    }
}

fn chaos_link(seed: u64, label: u64) -> SyncLink {
    SyncLink::new(FaultPlan::generate(
        seed.wrapping_mul(0x9e37_79b9).wrapping_add(label),
        SimDuration::from_days(2),
        &FaultProfile::replica_chaos(),
    ))
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("FAULT_MATRIX_SEED").ok())
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    println!("seed {seed}");

    // A durable collaboration root (snapshot + apply journal on disk) and
    // two in-memory stores further down the paper's hierarchy.
    let dir = std::env::temp_dir().join(format!("sciflow-replication-example-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let root = Replica::durable(1, StoreTier::Collaboration, &dir).expect("durable root");
    let mut group = Replica::new(2, StoreTier::Group);
    let mut leaf = Replica::new(3, StoreTier::Personal);

    // Divergent histories before any sync.
    for id in 0..60u64 {
        leaf.register(&record(id, 14_000 + id as u32, "v1")).expect("register");
    }
    for id in 60..90u64 {
        group.register(&record(id, 14_000 + id as u32, "v1")).expect("register");
    }
    leaf.quarantine(17, "md5 mismatch on tape 7").expect("quarantine");
    // A concurrent revision of file 3 on both sides: the collaboration
    // tier's version must win everywhere once the fleet settles.
    leaf.revise(&record(3, 14_003, "personal-fix")).expect("revise");

    let mut replicas = vec![root, group, leaf];
    replicas[0].register(&record(3, 14_003, "blessed-recon")).expect("register");

    // First pass: sync to quiescence over chaotic links.
    let mut fabric = SyncFabric::new();
    fabric.connect(0, 1, chaos_link(seed, 1));
    fabric.connect(1, 2, chaos_link(seed, 2));
    let rounds = fabric.settle(&mut replicas, 200).expect("fleet must quiesce");
    println!("fleet quiesced after {rounds} rounds");

    // Kill the root after its journal frame `kill` (its own registration
    // was the first): the process dies, and the journal keeps the frames
    // it had synced. Recovery replays its snapshot + journal in a fresh
    // replica, and the sync finishes what the dead root lost.
    let kill = 2 + (seed % 23) as usize;
    drop(replicas.remove(0));
    cut_journal(&dir, kill);
    println!("root killed after journal frame {kill}");
    let recovered = Replica::recover(&dir).expect("snapshot + journal replay");
    replicas.insert(0, recovered);
    println!(
        "root recovered: {} files already applied",
        replicas[0].store().files().expect("scan").len()
    );

    // Finish the sync a round at a time, so each session can show what it
    // put on the wire beside what turned out to be news.
    let mut rounds = 0;
    while !SyncFabric::converged(&replicas).expect("content readable") {
        rounds += 1;
        assert!(rounds <= 200, "fleet must quiesce");
        let reports =
            fabric.round(&mut replicas).expect("only partitions and drops fail a session");
        for (link, report) in reports.iter().enumerate() {
            match report {
                Some(r) if r.in_sync => println!("  round {rounds} link {link}: in sync"),
                Some(r) => println!(
                    "  round {rounds} link {link}: {} units sent for {} added + {} replaced \
                     ({} ranges differing, {} turns, {} frames, {} bytes)",
                    r.units_sent,
                    r.units_added,
                    r.units_replaced,
                    r.ranges_differing,
                    r.turns,
                    r.frames_sent,
                    r.bytes_sent
                ),
                None => println!("  round {rounds} link {link}: session dropped or partitioned"),
            }
        }
    }
    println!("fleet quiesced after {rounds} more rounds");

    // Convergence: byte-identical sealed content everywhere.
    let reference = replicas[0].sealed_content().expect("sealed content");
    for replica in &replicas[1..] {
        assert_eq!(replica.sealed_content().expect("sealed content"), reference);
    }
    println!("all 3 replicas byte-identical ({} bytes of sealed content)", reference.len());

    // Σ records conserved, the blessed revision won, the flag propagated.
    let ids: BTreeSet<u64> =
        replicas[0].store().files().expect("scan").into_iter().map(|f| f.id).collect();
    assert_eq!(ids, (0..90).collect::<BTreeSet<u64>>(), "every registered id survives");
    for replica in &replicas {
        assert_eq!(
            replica.store().file(3).expect("lookup").expect("present").version,
            "blessed-recon"
        );
        assert_eq!(
            replica.store().quarantine_reason(17).as_deref(),
            Some("md5 mismatch on tape 7"),
            "quarantined anywhere means quarantined everywhere"
        );
    }
    println!("90 records conserved; collaboration revision won; quarantine propagated");

    let _ = std::fs::remove_dir_all(&dir);
}
