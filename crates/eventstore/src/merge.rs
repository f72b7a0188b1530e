//! Merging a personal EventStore into a group or collaboration store.
//!
//! "Somewhat to our surprise, merging became the fundamental operation for
//! adding results to the group and collaboration stores. Rather than having
//! long-running jobs hold lengthy open transactions on the main data
//! repository, it proved simpler to create a personal EventStore for the
//! operation, which is merged into the larger store upon successful
//! completion. This stratagem allowed the highest degree of integrity
//! protection for the centrally managed data repositories with the fewest
//! modifications to the legacy data analysis applications."
//!
//! [`merge_into`] implements that operation: the entire personal store is
//! folded into the target in **one atomic transaction** — the target is
//! locked only for the duration of a batch apply, not for the lifetime of
//! the producing job.

use std::collections::HashSet;

use crate::error::{EsError, EsResult};
use crate::replica::GradeRow;
use crate::store::rows::StoredGrade;
use crate::store::EventStore;

/// Outcome of a merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Files newly added to the target.
    pub files_added: usize,
    /// Files skipped because an identical record already exists
    /// (re-merging a store is idempotent).
    pub files_skipped: usize,
    /// Files held back because they are quarantined — flagged in the source
    /// or the target after a failed integrity check — and must be repaired
    /// and released before they may propagate.
    pub files_quarantined: usize,
    /// Grade-entry rows newly added.
    pub grade_entries_added: usize,
    pub grade_entries_skipped: usize,
}

impl std::fmt::Display for MergeReport {
    /// One operator-facing summary line, e.g.
    /// `merged 8 files (+1 skipped, 1 quarantined), 2 grade entries (+0 skipped)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "merged {} files (+{} skipped, {} quarantined), {} grade entries (+{} skipped)",
            self.files_added,
            self.files_skipped,
            self.files_quarantined,
            self.grade_entries_added,
            self.grade_entries_skipped
        )
    }
}

/// Merge `source` (typically a personal store) into `target`.
///
/// Conflict policy, matching the integrity goal in the paper:
/// * a file id present in both stores with **identical** metadata is skipped;
/// * a file id present in both with **different** metadata aborts the merge
///   (nothing is applied);
/// * a file id quarantined in either store is **skipped and reported** in
///   [`MergeReport::files_quarantined`] — never propagated, and never a
///   conflict either, so one bad file cannot block the rest of a shipment;
/// * grade entries are deduplicated on their full content; a grade snapshot
///   date that exists in both with different entries aborts.
pub fn merge_into(target: &mut EventStore, source: &EventStore) -> EsResult<MergeReport> {
    let mut report = MergeReport::default();

    // --- Files ---
    let mut files = Vec::new();
    for record in source.files()? {
        let id = record.id;
        if source.is_quarantined(id) || target.is_quarantined(id) {
            report.files_quarantined += 1;
            continue;
        }
        match target.file(id)? {
            Some(existing) if existing == record => report.files_skipped += 1,
            Some(existing) => {
                return Err(EsError::MergeConflict {
                    detail: format!(
                        "file {id} differs between stores (target version '{}', source \
                         version '{}')",
                        existing.version, record.version
                    ),
                });
            }
            None => {
                files.push(record);
                report.files_added += 1;
            }
        }
    }

    // --- Grade entries ---
    // A row's content is all of it but the rowid: its place in the
    // snapshot and what replicates.
    let resident = target.grades()?;
    let contents: HashSet<(i64, &GradeRow)> = resident.iter().map(|g| (g.seq, &g.row)).collect();
    // Snapshots the target holds: the same (grade, date) with other
    // entries is a conflict.
    let snapshots: HashSet<(&str, u32)> =
        resident.iter().map(|g| (g.row.grade.as_str(), g.row.date)).collect();
    let mut grades = Vec::new();
    for StoredGrade { seq, row, .. } in source.grades()? {
        if contents.contains(&(seq, &row)) {
            report.grade_entries_skipped += 1;
            continue;
        }
        if snapshots.contains(&(row.grade.as_str(), row.date)) {
            return Err(EsError::MergeConflict {
                detail: format!(
                    "grade `{}` snapshot {} exists in target with different entries",
                    row.grade,
                    row.on()?
                ),
            });
        }
        grades.push((seq, row));
        report.grade_entries_added += 1;
    }

    // One atomic apply: the collaboration store is never left half-merged.
    target.write(files, &[], grades)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::{GradeEntry, RunRange};
    use crate::store::{FileRecord, StoreTier};
    use sciflow_core::md5::md5;
    use sciflow_core::version::CalDate;
    use sciflow_metastore::MetaError;

    fn d(s: &str) -> CalDate {
        CalDate::parse_compact(s).unwrap()
    }

    fn file(id: u64, run: u32, version: &str) -> FileRecord {
        FileRecord {
            id,
            runs: RunRange::single(run),
            kind: "mc".into(),
            version: version.into(),
            site: "offsite-farm".into(),
            registered: d("20050601"),
            location: format!("/mc/{id}"),
            prov_digest: md5(format!("{id}-{version}").as_bytes()),
        }
    }

    fn entry(run: u32, version: &str) -> GradeEntry {
        GradeEntry { runs: RunRange::single(run), kind: "mc".into(), version: version.into() }
    }

    #[test]
    fn merge_report_displays_a_summary_line() {
        let report = MergeReport {
            files_added: 8,
            files_skipped: 1,
            files_quarantined: 1,
            grade_entries_added: 2,
            grade_entries_skipped: 0,
        };
        assert_eq!(
            report.to_string(),
            "merged 8 files (+1 skipped, 1 quarantined), 2 grade entries (+0 skipped)"
        );
    }

    #[test]
    fn merge_moves_everything_atomically() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        let mut personal = EventStore::new(StoreTier::Personal);
        for i in 0..20 {
            personal.register_file(&file(i, 100 + i as u32, "MC Jun05")).unwrap();
        }
        personal.declare_snapshot("mc-pass1", d("20050610"), vec![entry(100, "MC Jun05")]).unwrap();
        let report = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(report.files_added, 20);
        assert_eq!(report.grade_entries_added, 1);
        assert_eq!(collab.file_count(), 20);
        let view = collab.resolve("mc-pass1", d("20050701")).unwrap();
        assert_eq!(view.version_for(100, "mc"), Some("MC Jun05"));
    }

    #[test]
    fn remerging_is_idempotent() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        let mut personal = EventStore::new(StoreTier::Personal);
        personal.register_file(&file(1, 100, "MC Jun05")).unwrap();
        personal.declare_snapshot("mc-pass1", d("20050610"), vec![entry(100, "MC Jun05")]).unwrap();
        merge_into(&mut collab, &personal).unwrap();
        let second = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(second.files_added, 0);
        assert_eq!(second.files_skipped, 1);
        assert_eq!(second.grade_entries_added, 0);
        assert_eq!(second.grade_entries_skipped, 1);
        assert_eq!(collab.file_count(), 1);
    }

    #[test]
    fn quarantined_files_are_skipped_and_reported() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        let mut personal = EventStore::new(StoreTier::Personal);
        for i in 0..4 {
            personal.register_file(&file(i, 100 + i as u32, "MC Jun05")).unwrap();
        }
        // The shipping site's verification pass found a bad header; the
        // typed error's rendering becomes the recorded reason.
        let why = EsError::ProvenanceMismatch {
            detail: "digest does not match strings".into(),
            diverged: None,
        };
        personal.quarantine_file(2, &why.to_string()).unwrap();

        let report = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(report.files_added, 3);
        assert_eq!(report.files_quarantined, 1);
        assert!(collab.file(2).unwrap().is_none(), "quarantined file must not propagate");
        assert!(!collab.is_quarantined(2), "the flag stays with the source evidence");

        // After the payload is repaired offsite, release and re-merge ships
        // exactly the held-back file.
        personal.release_file(2).unwrap();
        let second = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(second.files_added, 1);
        assert_eq!(second.files_skipped, 3);
        assert_eq!(second.files_quarantined, 0);
        assert_eq!(collab.file_count(), 4);
    }

    #[test]
    fn target_quarantine_holds_conflicting_repair_without_aborting() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        collab.register_file(&file(7, 107, "MC Jun05")).unwrap();
        collab.quarantine_file(7, "bit rot on tape").unwrap();
        let mut personal = EventStore::new(StoreTier::Personal);
        personal.register_file(&file(6, 106, "MC Jun05")).unwrap();
        personal.register_file(&file(7, 107, "MC REPAIRED")).unwrap();
        // Divergent metadata for file 7 would normally abort the whole
        // merge; the quarantine holds it back instead so file 6 lands.
        let report = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(report.files_added, 1);
        assert_eq!(report.files_quarantined, 1);
        assert_eq!(collab.file(7).unwrap().unwrap().version, "MC Jun05");
        // The operator must release the target's copy before a repaired
        // record can be reconciled.
        assert!(collab.is_quarantined(7));
    }

    #[test]
    fn conflicting_file_aborts_whole_merge() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        collab.register_file(&file(5, 100, "MC Jun05")).unwrap();
        let mut personal = EventStore::new(StoreTier::Personal);
        personal.register_file(&file(4, 99, "MC Jun05")).unwrap();
        personal.register_file(&file(5, 100, "MC DIFFERENT")).unwrap();
        let err = merge_into(&mut collab, &personal).unwrap_err();
        assert!(matches!(err, EsError::MergeConflict { .. }));
        // Nothing leaked: file 4 was not added either.
        assert_eq!(collab.file_count(), 1);
        assert!(collab.file(4).unwrap().is_none());
    }

    #[test]
    fn conflicting_grade_snapshot_aborts() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        collab.declare_snapshot("mc-pass1", d("20050610"), vec![entry(100, "A")]).unwrap();
        let mut personal = EventStore::new(StoreTier::Personal);
        personal.declare_snapshot("mc-pass1", d("20050610"), vec![entry(100, "B")]).unwrap();
        assert!(matches!(merge_into(&mut collab, &personal), Err(EsError::MergeConflict { .. })));
    }

    #[test]
    fn merge_after_roundtrip_through_disk_bytes() {
        // The full paper workflow: generate offsite into a personal store,
        // ship the bytes, merge at Cornell.
        let mut personal = EventStore::new(StoreTier::Personal);
        for i in 0..5 {
            personal.register_file(&file(i, 200 + i as u32, "MC Jul05")).unwrap();
        }
        let shipped = personal.to_bytes();
        let received = EventStore::from_bytes(&shipped).unwrap();
        let mut collab = EventStore::new(StoreTier::Collaboration);
        let report = merge_into(&mut collab, &received).unwrap();
        assert_eq!(report.files_added, 5);
    }

    /// The interrupted-merge workflow: the merge commits into the target
    /// and the target is persisted, but the coordinator dies before
    /// acknowledging — so the same personal store is merged again into the
    /// reloaded target. The re-run must change nothing: no duplicate file
    /// records, no duplicate grade entries, no rowid collisions.
    #[test]
    fn rerunning_an_interrupted_merge_through_persistence_is_idempotent() {
        let dir = std::env::temp_dir().join("sciflow-es-interrupted-merge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collab.sfm");

        let mut collab = EventStore::new(StoreTier::Collaboration);
        collab.register_file(&file(50, 500, "P2 May05")).unwrap();
        collab.declare_snapshot("physics", d("20050501"), vec![entry(500, "P2 May05")]).unwrap();

        let mut personal = EventStore::new(StoreTier::Personal);
        for i in 0..8 {
            personal.register_file(&file(i, 100 + i as u32, "MC Jun05")).unwrap();
        }
        personal
            .declare_snapshot(
                "mc-pass1",
                d("20050610"),
                vec![entry(100, "MC Jun05"), entry(101, "MC Jun05")],
            )
            .unwrap();

        let first = merge_into(&mut collab, &personal).unwrap();
        assert_eq!(first.files_added, 8);
        assert_eq!(first.grade_entries_added, 2);
        collab.save(&path).unwrap();

        // Crash: the acknowledgement is lost, so the merge is re-driven
        // against the store as reloaded from disk.
        let mut reloaded = EventStore::load(&path).unwrap();
        let second = merge_into(&mut reloaded, &personal).unwrap();
        assert_eq!(second.files_added, 0);
        assert_eq!(second.files_skipped, 8);
        assert_eq!(second.grade_entries_added, 0);
        assert_eq!(second.grade_entries_skipped, 2);
        assert_eq!(reloaded.file_count(), 9);

        // Grade rowids stayed unique, and the store still accepts new
        // snapshots after the re-run.
        let rowids: Vec<i64> = reloaded.grades().unwrap().iter().map(|g| g.rowid).collect();
        let mut deduped = rowids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), rowids.len(), "duplicate grade rowids after re-merge");
        reloaded.declare_snapshot("mc-pass2", d("20050620"), vec![entry(102, "MC Jul05")]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn snapshot of the collaboration store is rejected before any
    /// merge logic runs — the typed error from the sealed format surfaces
    /// through the eventstore API.
    #[test]
    fn torn_store_snapshot_is_rejected_typed() {
        let dir = std::env::temp_dir().join("sciflow-es-torn-snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collab.sfm");
        let mut collab = EventStore::new(StoreTier::Collaboration);
        collab.register_file(&file(1, 100, "MC Jun05")).unwrap();
        collab.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        match EventStore::load(&path) {
            Err(EsError::Meta(MetaError::CorruptSnapshot { .. })) => {}
            other => panic!("expected CorruptSnapshot, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grade_rows_do_not_collide_after_merges_from_multiple_sources() {
        let mut collab = EventStore::new(StoreTier::Collaboration);
        let mut p1 = EventStore::new(StoreTier::Personal);
        p1.declare_snapshot("g1", d("20050601"), vec![entry(1, "v1")]).unwrap();
        let mut p2 = EventStore::new(StoreTier::Personal);
        p2.declare_snapshot("g2", d("20050601"), vec![entry(2, "v2")]).unwrap();
        merge_into(&mut collab, &p1).unwrap();
        merge_into(&mut collab, &p2).unwrap();
        for grade in ["g1", "g2"] {
            assert_eq!(collab.grade_history(grade).unwrap().snapshots().len(), 1, "{grade}");
        }
        // And the collaboration store can still declare its own snapshots.
        collab.declare_snapshot("g1", d("20050701"), vec![entry(1, "v3")]).unwrap();
    }
}
