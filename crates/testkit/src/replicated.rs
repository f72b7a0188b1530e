//! Seeded multi-replica EventStore scenarios and the convergence assertion.
//!
//! [`ReplicatedScenario`] builds N replicas (a collaboration root, group
//! stores, personal stores) with *generated operation histories* — seeded
//! registers, revisions, quarantines, releases and grade declarations — and
//! wires them in a ring of faulty links drawn from one fault profile. The
//! whole construction is a pure function of one `u64` seed, so any
//! convergence failure replays exactly.
//!
//! [`assert_convergence`] is the acceptance bar of the replication layer in
//! executable form: after quiescence every replica must hold byte-identical
//! sealed content, the same quarantine flags (quarantined anywhere ⇒
//! quarantined everywhere), and the complete union of every file id any
//! replica ever registered (Σ records conserved — sync may move and
//! supersede records, never lose them).

use std::collections::BTreeSet;

use sciflow_core::fault::{FaultPlan, FaultProfile};
use sciflow_core::md5::md5;
use sciflow_core::rng::Rng;
use sciflow_core::units::SimDuration;
use sciflow_core::version::CalDate;
use sciflow_eventstore::grade::GradeEntry;
use sciflow_eventstore::replica::{Replica, ReplicaResult, SyncFabric, SyncLink};
use sciflow_eventstore::store::{FileRecord, StoreTier};
use sciflow_eventstore::RunRange;

use crate::rng::derive_seed;

/// Link faults dense enough to land on frames in flight. A [`SyncLink`]
/// charges 50 ms a frame, so [`FaultProfile::replica_chaos`]'s ~15 events a
/// day fall between sessions and leave every frame untouched; at 100 000 a
/// day each, a drop, a corruption and a duplicate all come round about every
/// seventeen frames. Reorders come four times as often, because one only
/// lands when a turn has put two frames in flight. No stalls or partitions:
/// both move the link clock past the timeline instead of through it.
pub fn dense_link_faults() -> FaultProfile {
    FaultProfile {
        drops_per_day: 100_000.0,
        corrupts_per_day: 100_000.0,
        duplicates_per_day: 100_000.0,
        reorders_per_day: 400_000.0,
        ..FaultProfile::clean()
    }
}

const KINDS: [&str; 3] = ["recon", "postrecon", "mc"];
const GRADES: [&str; 2] = ["physics", "mc-pass1"];

/// A fleet of replicas with seeded divergent histories over faulty links.
#[derive(Debug, Clone)]
pub struct ReplicatedScenario {
    pub seed: u64,
    /// Number of replicas. Index 0 is the collaboration store, indices 1–2
    /// are group stores, the rest personal — the paper's three sizes.
    pub replicas: usize,
    /// Operations generated per replica before any sync.
    pub ops: usize,
    /// Fault-timeline horizon for every link.
    pub horizon: SimDuration,
    pub profile: FaultProfile,
    /// Round budget handed to [`SyncFabric::settle`].
    pub max_rounds: usize,
}

impl ReplicatedScenario {
    pub fn new(seed: u64) -> Self {
        ReplicatedScenario {
            seed,
            replicas: 4,
            ops: 30,
            horizon: SimDuration::from_days(3),
            profile: FaultProfile::replica_chaos(),
            max_rounds: 400,
        }
    }

    /// The same fleet over [`dense_link_faults`] for ten minutes of link
    /// time (12 000 frames a link), far longer than it takes to settle.
    pub fn dense(seed: u64) -> Self {
        ReplicatedScenario {
            horizon: SimDuration::from_mins(10),
            profile: dense_link_faults(),
            ..ReplicatedScenario::new(seed)
        }
    }

    pub fn with_replicas(mut self, n: usize) -> Self {
        assert!(n >= 2, "replication needs at least two stores");
        self.replicas = n;
        self
    }

    pub fn with_profile(mut self, profile: FaultProfile) -> Self {
        self.profile = profile;
        self
    }

    fn tier_of(&self, index: usize) -> StoreTier {
        match index {
            0 => StoreTier::Collaboration,
            1 | 2 => StoreTier::Group,
            _ => StoreTier::Personal,
        }
    }

    /// The fault plan for the ring link `a ↔ b`.
    pub fn link_plan(&self, a: usize, b: usize) -> FaultPlan {
        FaultPlan::generate(
            derive_seed(self.seed, &format!("replica-link-{a}-{b}")),
            self.horizon,
            &self.profile,
        )
    }

    /// Build the replicas (each with its generated pre-sync history) and
    /// the ring fabric connecting them.
    pub fn build(&self) -> ReplicaResult<(Vec<Replica>, SyncFabric)> {
        let mut replicas = Vec::with_capacity(self.replicas);
        for i in 0..self.replicas {
            let mut replica = Replica::new(i as u16 + 1, self.tier_of(i));
            self.generate_history(i, &mut replica)?;
            replicas.push(replica);
        }
        let mut fabric = SyncFabric::new();
        for a in 0..self.replicas {
            let b = (a + 1) % self.replicas;
            if self.replicas == 2 && a == 1 {
                break; // two replicas need one link, not two parallel ones
            }
            fabric.connect(a, b, SyncLink::new(self.link_plan(a, b)));
        }
        Ok((replicas, fabric))
    }

    /// Build, then sync to quiescence. Returns the settled replicas and the
    /// number of rounds it took.
    pub fn run(&self) -> ReplicaResult<(Vec<Replica>, usize)> {
        let (mut replicas, mut fabric) = self.build()?;
        let rounds = fabric.settle(&mut replicas, self.max_rounds)?;
        Ok((replicas, rounds))
    }

    /// The generated operation history of replica `index`, to be replayed
    /// one [`History::step`] at a time. File ids are partitioned per
    /// replica (`(index+1) * 100_000 + n`), so registrations never collide
    /// across stores and every conflict the fleet sees is a genuine
    /// concurrent revision arriving via sync.
    pub fn history(&self, index: usize) -> History {
        History {
            rng: Rng::seed_from_u64(derive_seed(self.seed, &format!("replica-ops-{index}"))),
            index,
            own_ids: Vec::new(),
            next_id: (index as u64 + 1) * 100_000,
            snapshot_count: 0,
        }
    }

    fn generate_history(&self, index: usize, replica: &mut Replica) -> ReplicaResult<()> {
        let mut history = self.history(index);
        (0..self.ops).try_for_each(|_| history.step(replica))
    }
}

/// One replica's seeded operation stream ([`ReplicatedScenario::history`]).
#[derive(Debug)]
pub struct History {
    rng: Rng,
    index: usize,
    own_ids: Vec<u64>,
    next_id: u64,
    snapshot_count: u32,
}

impl History {
    /// Apply the next generated operation to `replica`.
    pub fn step(&mut self, replica: &mut Replica) -> ReplicaResult<()> {
        let History { rng, index, own_ids, next_id, snapshot_count } = self;
        let index = *index;
        let roll: u32 = rng.gen_range(0..100);
        match roll {
            // Register a brand-new file (the common operation).
            0..=54 => {
                let record = generated_record(rng, *next_id, index);
                replica.register(&record)?;
                own_ids.push(*next_id);
                *next_id += 1;
            }
            // Revise an existing file's metadata.
            55..=74 if !own_ids.is_empty() => {
                let id = own_ids[rng.gen_range(0..own_ids.len())];
                let record = generated_record(rng, id, index);
                replica.revise(&record)?;
            }
            // Flag a file after a failed integrity check.
            75..=84 if !own_ids.is_empty() => {
                let id = own_ids[rng.gen_range(0..own_ids.len())];
                replica.quarantine(id, &format!("verify failed at store {}", index + 1))?;
            }
            // Repair and release.
            85..=89 if !own_ids.is_empty() => {
                let quarantined = replica.store().quarantined_files();
                if let Some(&id) = quarantined.first() {
                    replica.release(id)?;
                }
            }
            // Declare a grade snapshot (strictly advancing dates per
            // replica, so local declarations always validate).
            _ => {
                let grade = GRADES[rng.gen_range(0..GRADES.len())];
                let date = ordinal_date(index as u32 * 1_000 + *snapshot_count);
                *snapshot_count += 1;
                let first = rng.gen_range(1..5_000u32);
                let entry = GradeEntry {
                    runs: RunRange::new(first, first + rng.gen_range(0..200u32)).unwrap(),
                    kind: KINDS[rng.gen_range(0..KINDS.len())].into(),
                    version: format!("v{}-{}", index + 1, snapshot_count),
                };
                // Concurrent same-grade declarations at different
                // replicas land on different dates by construction, so
                // every union the fleet performs is per-snapshot.
                replica.declare_snapshot(grade, date, vec![entry])?;
            }
        }
        Ok(())
    }
}

fn generated_record(rng: &mut Rng, id: u64, index: usize) -> FileRecord {
    let kind = KINDS[rng.gen_range(0..KINDS.len())];
    let version = format!("{kind}-r{}-{}", index + 1, rng.gen_range(0..1_000u32));
    let first = rng.gen_range(1..50_000u32);
    FileRecord {
        id,
        runs: RunRange::new(first, first + rng.gen_range(0..100u32)).unwrap(),
        kind: kind.into(),
        version: version.clone(),
        site: format!("site-{}", index + 1),
        registered: ordinal_date(rng.gen_range(0..5_000u32)),
        location: format!("/store{}/{kind}/{id}", index + 1),
        prov_digest: md5(format!("{id}:{version}").as_bytes()),
    }
}

/// Map an ordinal to a valid calendar date (2004-01-01 onward), strictly
/// increasing in the ordinal.
fn ordinal_date(ordinal: u32) -> CalDate {
    let day = 1 + (ordinal % 27) as u8;
    let month = 1 + ((ordinal / 27) % 12) as u8;
    let year = 2004 + (ordinal / (27 * 12)) as u16;
    CalDate::new(year, month, day).expect("constructed date is valid")
}

/// Assert the fleet has converged, and return the agreed set of file ids.
///
/// Checks, in order:
/// 1. every replica's [`Replica::sealed_content`] is byte-identical to the
///    first's (the convergence definition);
/// 2. every replica holds the same file ids — pass the union of ids
///    registered anywhere as `expected_ids` to also prove Σ records
///    conserved (nothing lost in flight);
/// 3. quarantine agrees everywhere: same flagged ids, same reasons.
pub fn assert_convergence(replicas: &[Replica], expected_ids: &BTreeSet<u64>) -> BTreeSet<u64> {
    assert!(!replicas.is_empty(), "no replicas to compare");
    let reference = replicas[0].sealed_content().expect("sealed content");
    for (i, replica) in replicas.iter().enumerate().skip(1) {
        let content = replica.sealed_content().expect("sealed content");
        assert_eq!(
            content,
            reference,
            "replica {} diverges from replica 0: {} vs {} bytes of sealed content",
            i,
            content.len(),
            reference.len()
        );
    }
    let ids: BTreeSet<u64> =
        replicas[0].store().files().expect("file scan").into_iter().map(|f| f.id).collect();
    assert_eq!(
        &ids,
        expected_ids,
        "records not conserved: fleet settled on {} ids, {} were registered",
        ids.len(),
        expected_ids.len()
    );
    let flags: Vec<(u64, Option<String>)> = replicas[0]
        .store()
        .quarantined_files()
        .into_iter()
        .map(|id| (id, replicas[0].store().quarantine_reason(id)))
        .collect();
    for (i, replica) in replicas.iter().enumerate().skip(1) {
        let theirs: Vec<(u64, Option<String>)> = replica
            .store()
            .quarantined_files()
            .into_iter()
            .map(|id| (id, replica.store().quarantine_reason(id)))
            .collect();
        assert_eq!(theirs, flags, "replica {i} disagrees on quarantine flags");
    }
    ids
}

/// The union of file ids currently registered across the fleet — collect it
/// *before* syncing to feed [`assert_convergence`]'s conservation check.
pub fn registered_ids(replicas: &[Replica]) -> BTreeSet<u64> {
    let mut ids = BTreeSet::new();
    for replica in replicas {
        for f in replica.store().files().expect("file scan") {
            ids.insert(f.id);
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic_from_its_seed() {
        let (a, rounds_a) = ReplicatedScenario::new(42).run().unwrap();
        let (b, rounds_b) = ReplicatedScenario::new(42).run().unwrap();
        assert_eq!(rounds_a, rounds_b);
        assert_eq!(
            a[0].sealed_content().unwrap(),
            b[0].sealed_content().unwrap(),
            "same seed must settle on identical content"
        );
        let (c, _) = ReplicatedScenario::new(43).run().unwrap();
        assert_ne!(
            a[0].sealed_content().unwrap(),
            c[0].sealed_content().unwrap(),
            "different seeds must generate different histories"
        );
    }

    #[test]
    fn chaos_scenario_converges_and_conserves() {
        let scenario = ReplicatedScenario::new(7);
        let (replicas, _) = scenario.build().unwrap();
        let expected = registered_ids(&replicas);
        assert!(!expected.is_empty());
        let (settled, rounds) = scenario.run().unwrap();
        assert!(rounds >= 1);
        assert_convergence(&settled, &expected);
    }
}
