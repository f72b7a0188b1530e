//! The EventStore proper: file registry, grade declarations, and consistent
//! snapshot resolution, backed by the embedded metadata store.
//!
//! "In order to support a variety of use cases, the CLEO EventStore comes in
//! three sizes, tailored to the scale of the application: personal, group
//! and collaboration. The only user interface differences between the three
//! sizes is the name of the software module loaded."

use sciflow_core::md5::Digest;
use sciflow_core::version::CalDate;
use sciflow_metastore::{persist, Database};

use crate::error::{EsError, EsResult};
use crate::grade::{GradeEntry, GradeHistory, GradeSnapshot, RunRange};
use crate::replica::{GradeRow, QState};
use rows::{FileView, StoredGrade};

pub(crate) mod rows;

/// The three deployment sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTier {
    /// Self-contained, disconnected operation (paper: embedded SQLite).
    Personal,
    /// A working group's shared store (paper: MySQL).
    Group,
    /// The collaboration-wide repository (paper: MS SQL Server).
    Collaboration,
}

impl StoreTier {
    /// "The name of the software module loaded, which is also the first word
    /// of all EventStore commands."
    pub fn module_name(self) -> &'static str {
        match self {
            StoreTier::Personal => "personalEventStore",
            StoreTier::Group => "groupEventStore",
            StoreTier::Collaboration => "collaborationEventStore",
        }
    }
}

/// A registered data file: location plus the metadata needed to serve
/// consistent views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    pub id: u64,
    pub runs: RunRange,
    pub kind: String,
    /// Version label, e.g. `Recon Feb13_04_P2`.
    pub version: String,
    pub site: String,
    pub registered: CalDate,
    /// Where the payload lives (path, tape id, URL).
    pub location: String,
    /// MD5 provenance digest carried in the file header.
    pub prov_digest: Digest,
}

/// A consistent set of data: "fully identified by the name of a grade and a
/// time at which to snapshot that grade".
#[derive(Debug, Clone)]
pub struct ConsistentView {
    pub grade: String,
    pub timestamp: CalDate,
    /// The snapshot in force at `timestamp`.
    pub snapshot: GradeSnapshot,
    /// First-time data admitted past the snapshot date (the one exception:
    /// "data added for the first time ... will appear in the snapshot").
    pub first_time: Vec<FileRecord>,
}

impl ConsistentView {
    /// The version an analysis must read for (run, kind) under this view.
    pub fn version_for(&self, run: u32, kind: &str) -> Option<&str> {
        if let Some(v) = self.snapshot.version_for(run, kind) {
            return Some(v);
        }
        self.first_time
            .iter()
            .find(|f| f.kind == kind && f.runs.contains(run))
            .map(|f| f.version.as_str())
    }
}

/// An EventStore instance of a given tier. Its rows are read and written
/// only in `store::rows`, which owns the layout of its tables.
#[derive(Debug, Clone)]
pub struct EventStore {
    tier: StoreTier,
    db: Database,
    /// The rowid the next grade row gets: one past the largest in the table
    /// when the store was built or loaded, advanced by every write of grade
    /// rows, which all go through `rows`.
    next_grade_row: i64,
}

impl EventStore {
    pub fn tier(&self) -> StoreTier {
        self.tier
    }

    pub fn module_name(&self) -> &'static str {
        self.tier.module_name()
    }

    /// Flag a registered file as quarantined: its payload failed an
    /// integrity check (typically an [`EsError::ProvenanceMismatch`] from
    /// [`crate::files::EsFileHeader::verify_detailed`]). The record stays in
    /// the registry — it is the evidence trail — but
    /// [`crate::merge::merge_into`] refuses to propagate it until
    /// [`EventStore::release_file`] lifts the flag. A first flag is epoch 1
    /// of the file's register; a repeated call updates only the recorded
    /// reason.
    pub fn quarantine_file(&mut self, id: u64, reason: &str) -> EsResult<()> {
        if !self.has_file(id)? {
            return Err(EsError::UnknownFile { id });
        }
        let epoch = self.qstate(id)?.map_or(1, |q| q.epoch);
        self.put_qstate(id, QState { epoch, flagged: true, reason: reason.to_string() })
    }

    /// Lift a quarantine after the payload has been re-fetched or
    /// reprocessed and re-verified: the file's register is deleted.
    /// Releasing a file that is not quarantined is harmless; releasing an
    /// unregistered id errors.
    pub fn release_file(&mut self, id: u64) -> EsResult<()> {
        if !self.has_file(id)? {
            return Err(EsError::UnknownFile { id });
        }
        self.drop_qstate(id)
    }

    /// The file's register if it is flagged; a register that does not read
    /// is none.
    fn flag(&self, id: u64) -> Option<QState> {
        self.qstate(id).ok().flatten().filter(|q| q.flagged)
    }

    /// Whether `id` is currently quarantined.
    pub fn is_quarantined(&self, id: u64) -> bool {
        self.flag(id).is_some()
    }

    /// The recorded reason for a file's quarantine, if it is quarantined.
    pub fn quarantine_reason(&self, id: u64) -> Option<String> {
        self.flag(id).map(|q| q.reason)
    }

    /// Ids of all quarantined files, ascending.
    pub fn quarantined_files(&self) -> Vec<u64> {
        let mut ids = self.flagged().unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Declare a grade snapshot (the administrative procedure performed by
    /// the CLEO officers). The date must be after any existing snapshot of
    /// the same grade.
    pub fn declare_snapshot(
        &mut self,
        grade: &str,
        date: CalDate,
        entries: Vec<GradeEntry>,
    ) -> EsResult<()> {
        // Validate ordering against the recorded history.
        let history = self.grade_history(grade)?;
        if let Some(last) = history.snapshots().last() {
            if date <= last.date {
                return Err(EsError::SnapshotOutOfOrder {
                    grade: grade.to_string(),
                    date: date.to_string(),
                });
            }
        }
        let rows = entries.into_iter().zip(0..).map(|(e, seq)| (seq, GradeRow::of(grade, date, e)));
        self.write(Vec::new(), &[], rows.collect())
    }

    /// Reconstruct the full history of `grade` from the store. Unknown
    /// grades yield an empty history (declaring the first snapshot defines
    /// the grade).
    pub fn grade_history(&self, grade: &str) -> EsResult<GradeHistory> {
        let mut rows = self.grades()?;
        rows.retain(|g| g.row.grade == grade);
        // Order by (date, seq) to rebuild declaration order.
        rows.sort_by_key(|g| (g.row.date, g.seq));
        let mut history = GradeHistory::new(grade);
        let mut current: Option<GradeSnapshot> = None;
        for StoredGrade { row, .. } in rows {
            let date = row.on()?;
            let entry = GradeEntry {
                runs: RunRange { first: row.first, last: row.last },
                kind: row.kind,
                version: row.version,
            };
            match &mut current {
                Some(s) if s.date == date => s.entries.push(entry),
                Some(s) => {
                    history.declare(std::mem::replace(
                        s,
                        GradeSnapshot { date, entries: vec![entry] },
                    ))?;
                }
                None => current = Some(GradeSnapshot { date, entries: vec![entry] }),
            }
        }
        if let Some(s) = current {
            history.declare(s)?;
        }
        Ok(history)
    }

    /// Resolve the consistent view for (grade, analysis timestamp): "the
    /// most recent snapshot prior to the specified date", plus the
    /// first-time-data exception.
    pub fn resolve(&self, grade: &str, timestamp: CalDate) -> EsResult<ConsistentView> {
        let history = self.grade_history(grade)?;
        if history.snapshots().is_empty() {
            return Err(EsError::UnknownGrade { grade: grade.to_string() });
        }
        let snapshot = history.resolve(timestamp)?.clone();
        // First-time data: files registered after the snapshot whose
        // (run, kind) the snapshot does not cover, and for which no earlier
        // version of the same (run, kind) exists. Both tests read the rows
        // in place; only the files admitted are decoded into records.
        let files: Vec<FileView<'_>> = self.file_views()?.collect::<EsResult<_>>()?;
        let (after, until) = (snapshot.date.as_key(), timestamp.as_key());
        let mut first_time = Vec::new();
        for f in &files {
            if f.registered <= after || f.registered > until {
                continue;
            }
            if snapshot.covers(f.runs.first, f.kind) {
                continue; // a governed version exists; not first-time data
            }
            let has_earlier = files.iter().any(|g| {
                g.id != f.id
                    && g.kind == f.kind
                    && g.runs.overlaps(&f.runs)
                    && g.registered < f.registered
            });
            if !has_earlier {
                first_time.push(f.record()?);
            }
        }
        Ok(ConsistentView { grade: grade.to_string(), timestamp, snapshot, first_time })
    }

    /// The files an analysis under `view` should open for (run, kind).
    pub fn files_for(
        &self,
        view: &ConsistentView,
        run: u32,
        kind: &str,
    ) -> EsResult<Vec<FileRecord>> {
        let Some(version) = view.version_for(run, kind) else {
            return Ok(Vec::new());
        };
        self.files_holding(run, kind, version)
    }

    /// Reload a store serialized with [`EventStore::to_bytes`]. A store
    /// whose tables are not in this version's layout is refused with a
    /// typed error.
    pub fn from_bytes(data: &[u8]) -> EsResult<EventStore> {
        Self::from_db(persist::from_bytes(data)?)
    }

    /// Load a store from a sealed snapshot written by [`EventStore::save`].
    /// Torn or damaged files are rejected with a typed error before any
    /// payload is parsed, and so is a store in another layout.
    pub fn load(path: &std::path::Path) -> EsResult<EventStore> {
        Self::from_db(persist::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciflow_core::md5::md5;

    fn d(s: &str) -> CalDate {
        CalDate::parse_compact(s).unwrap()
    }

    fn file(id: u64, run: u32, kind: &str, version: &str, registered: &str) -> FileRecord {
        FileRecord {
            id,
            runs: RunRange::single(run),
            kind: kind.into(),
            version: version.into(),
            site: "Cornell".into(),
            registered: d(registered),
            location: format!("/data/{kind}/{id}"),
            prov_digest: md5(format!("{id}-{kind}-{version}").as_bytes()),
        }
    }

    fn entry(first: u32, last: u32, kind: &str, version: &str) -> GradeEntry {
        GradeEntry {
            runs: RunRange::new(first, last).unwrap(),
            kind: kind.into(),
            version: version.into(),
        }
    }

    #[test]
    fn tiers_differ_only_in_module_name() {
        assert_eq!(EventStore::new(StoreTier::Personal).module_name(), "personalEventStore");
        assert_eq!(EventStore::new(StoreTier::Group).module_name(), "groupEventStore");
        assert_eq!(
            EventStore::new(StoreTier::Collaboration).module_name(),
            "collaborationEventStore"
        );
    }

    #[test]
    fn register_and_fetch_files() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        let f = file(1, 201_388, "recon", "Recon Feb13_04_P2", "20040315");
        es.register_file(&f).unwrap();
        assert_eq!(es.file(1).unwrap().unwrap(), f);
        assert_eq!(es.file_count(), 1);
        assert!(es.file(2).unwrap().is_none());
        assert!(matches!(es.register_file(&f), Err(EsError::DuplicateFile { id: 1 })));
    }

    #[test]
    fn consistent_view_is_stable_across_new_versions() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        es.register_file(&file(1, 100, "recon", "Recon Jan04", "20040110")).unwrap();
        es.declare_snapshot("physics", d("20040201"), vec![entry(1, 200, "recon", "Recon Jan04")])
            .unwrap();
        // A newer reconstruction appears and is blessed in June.
        es.register_file(&file(2, 100, "recon", "Recon Jun04", "20040610")).unwrap();
        es.declare_snapshot("physics", d("20040701"), vec![entry(1, 300, "recon", "Recon Jun04")])
            .unwrap();

        // Analysis pinned at its March start date keeps the January data...
        let march = es.resolve("physics", d("20040315")).unwrap();
        assert_eq!(march.version_for(100, "recon"), Some("Recon Jan04"));
        let files = es.files_for(&march, 100, "recon").unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].id, 1);

        // ...until the physicist explicitly moves the timestamp forward.
        let autumn = es.resolve("physics", d("20041001")).unwrap();
        assert_eq!(autumn.version_for(100, "recon"), Some("Recon Jun04"));
    }

    #[test]
    fn first_time_data_appears_without_changing_timestamp() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        es.declare_snapshot("physics", d("20040201"), vec![entry(1, 100, "recon", "Recon Jan04")])
            .unwrap();
        // New runs taken and reconstructed for the first time in March.
        es.register_file(&file(10, 150, "recon", "Recon Mar04", "20040310")).unwrap();
        let view = es.resolve("physics", d("20040401")).unwrap();
        // Covered runs resolve through the snapshot...
        assert_eq!(view.version_for(50, "recon"), Some("Recon Jan04"));
        // ...and the brand-new run appears despite postdating the snapshot.
        assert_eq!(view.version_for(150, "recon"), Some("Recon Mar04"));
        assert_eq!(view.first_time.len(), 1);
    }

    #[test]
    fn reprocessed_data_is_not_first_time() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        es.register_file(&file(1, 150, "recon", "Recon Jan04", "20040110")).unwrap();
        es.declare_snapshot("physics", d("20040201"), vec![entry(1, 100, "recon", "Recon Jan04")])
            .unwrap();
        // Run 150 is *re*processed in March; it had a January version, so it
        // must NOT leak into a February-pinned view.
        es.register_file(&file(2, 150, "recon", "Recon Mar04", "20040310")).unwrap();
        let view = es.resolve("physics", d("20040401")).unwrap();
        assert_eq!(view.version_for(150, "recon"), None);
        assert!(view.first_time.is_empty());
    }

    #[test]
    fn first_time_data_respects_analysis_timestamp() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        es.declare_snapshot("physics", d("20040201"), vec![entry(1, 100, "recon", "v1")]).unwrap();
        es.register_file(&file(10, 150, "recon", "v2", "20040601")).unwrap();
        // Analysis pinned in March cannot see June data.
        let view = es.resolve("physics", d("20040315")).unwrap();
        assert_eq!(view.version_for(150, "recon"), None);
    }

    #[test]
    fn unknown_grade_and_early_timestamp_errors() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        assert!(matches!(es.resolve("physics", d("20040101")), Err(EsError::UnknownGrade { .. })));
        es.declare_snapshot("physics", d("20040601"), vec![entry(1, 10, "recon", "v")]).unwrap();
        assert!(matches!(
            es.resolve("physics", d("20040101")),
            Err(EsError::NoSnapshotBefore { .. })
        ));
    }

    #[test]
    fn snapshot_dates_must_advance() {
        let mut es = EventStore::new(StoreTier::Collaboration);
        es.declare_snapshot("physics", d("20040601"), vec![entry(1, 10, "recon", "v1")]).unwrap();
        assert!(matches!(
            es.declare_snapshot("physics", d("20040601"), vec![entry(1, 10, "recon", "v2")]),
            Err(EsError::SnapshotOutOfOrder { .. })
        ));
        // Other grades are independent.
        es.declare_snapshot("raw", d("20040101"), vec![entry(1, 10, "raw", "v0")]).unwrap();
        for grade in ["physics", "raw"] {
            assert_eq!(es.grade_history(grade).unwrap().snapshots().len(), 1, "{grade}");
        }
    }

    #[test]
    fn resolve_and_files_for_equal_the_filter_over_all_records() {
        // Two kinds, three versions, ranged and single runs, reprocessed and
        // first-time data on both sides of the snapshot and the timestamp.
        let ranged = |id, first, last, kind: &str, version: &str, registered| FileRecord {
            runs: RunRange::new(first, last).unwrap(),
            ..file(id, first, kind, version, registered)
        };
        let mut es = EventStore::new(StoreTier::Group);
        for f in [
            ranged(1, 100, 149, "recon", "v1", "20040110"),
            ranged(2, 150, 199, "recon", "v1", "20040112"),
            ranged(3, 100, 199, "mc", "v1", "20040115"),
            ranged(4, 100, 149, "recon", "v2", "20040301"),
            ranged(5, 200, 249, "recon", "v2", "20040305"), // first-time
            ranged(6, 240, 260, "recon", "v3", "20040320"), // overlaps 5: reprocessed
            file(7, 300, "mc", "v2", "20040310"),           // first-time, other kind
            file(8, 300, "recon", "v2", "20040310"),        // first-time, same run
            file(9, 400, "recon", "v3", "20040601"),        // after the timestamp
            file(10, 120, "recon", "v1", "20040120"),       // same version, inside file 1
        ] {
            es.register_file(&f).unwrap();
        }
        es.declare_snapshot(
            "physics",
            d("20040201"),
            vec![entry(100, 199, "recon", "v1"), entry(100, 199, "mc", "v1")],
        )
        .unwrap();
        es.declare_snapshot("physics", d("20040501"), vec![entry(100, 260, "recon", "v2")])
            .unwrap();

        let all = es.files().unwrap();
        for at in ["20040202", "20040306", "20040401", "20040502", "20040701"] {
            let view = es.resolve("physics", d(at)).unwrap();
            let first_time: Vec<FileRecord> = all
                .iter()
                .filter(|f| f.registered > view.snapshot.date && f.registered <= view.timestamp)
                .filter(|f| !view.snapshot.covers(f.runs.first, &f.kind))
                .filter(|f| {
                    !all.iter().any(|g| {
                        g.id != f.id
                            && g.kind == f.kind
                            && g.runs.overlaps(&f.runs)
                            && g.registered < f.registered
                    })
                })
                .cloned()
                .collect();
            assert_eq!(view.first_time, first_time, "first-time data at {at}");
            for kind in ["recon", "mc", "raw"] {
                for run in [99, 100, 120, 149, 150, 199, 200, 245, 260, 300, 400] {
                    let expected: Vec<FileRecord> = match view.version_for(run, kind) {
                        None => Vec::new(),
                        Some(v) => all
                            .iter()
                            .filter(|f| f.kind == kind && f.version == v && f.runs.contains(run))
                            .cloned()
                            .collect(),
                    };
                    assert_eq!(
                        es.files_for(&view, run, kind).unwrap(),
                        expected,
                        "{at} {kind} {run}"
                    );
                }
            }
        }
        // The fixture exercises both answers, not just empty ones.
        let april = es.resolve("physics", d("20040401")).unwrap();
        assert_eq!(april.first_time.iter().map(|f| f.id).collect::<Vec<_>>(), vec![5, 7, 8]);
        let ids = |fs: Vec<FileRecord>| fs.iter().map(|f| f.id).collect::<Vec<_>>();
        assert_eq!(ids(es.files_for(&april, 120, "recon").unwrap()), vec![1, 10]);
        assert_eq!(ids(es.files_for(&april, 245, "recon").unwrap()), vec![5]);
    }

    #[test]
    fn quarantine_flags_survive_byte_roundtrip() {
        let mut es = EventStore::new(StoreTier::Personal);
        es.register_file(&file(1, 100, "recon", "v1", "20040110")).unwrap();
        es.register_file(&file(2, 101, "recon", "v1", "20040110")).unwrap();
        assert!(matches!(es.quarantine_file(9, "x"), Err(EsError::UnknownFile { id: 9 })));
        es.quarantine_file(2, "header digest does not cover its strings").unwrap();
        assert!(es.is_quarantined(2));
        assert!(!es.is_quarantined(1));
        assert_eq!(es.quarantined_files(), vec![2]);
        assert_eq!(
            es.quarantine_reason(2).as_deref(),
            Some("header digest does not cover its strings")
        );
        // Re-quarantining updates the reason rather than failing.
        es.quarantine_file(2, "bit rot on tape").unwrap();
        assert_eq!(es.quarantine_reason(2).as_deref(), Some("bit rot on tape"));

        // The flag is part of the store's bytes: a shipped copy stays held.
        let mut restored = EventStore::from_bytes(&es.to_bytes()).unwrap();
        assert!(restored.is_quarantined(2));
        restored.release_file(2).unwrap();
        assert!(!restored.is_quarantined(2));
        assert!(restored.quarantined_files().is_empty());
        // Releasing an unquarantined file is harmless; unknown ids error.
        restored.release_file(2).unwrap();
        assert!(matches!(restored.release_file(9), Err(EsError::UnknownFile { id: 9 })));
    }

    #[test]
    fn personal_store_roundtrips_through_bytes() {
        let mut es = EventStore::new(StoreTier::Personal);
        es.register_file(&file(1, 100, "mc", "MC May04", "20040501")).unwrap();
        es.declare_snapshot("mc-pass1", d("20040502"), vec![entry(100, 100, "mc", "MC May04")])
            .unwrap();
        let bytes = es.to_bytes();
        let restored = EventStore::from_bytes(&bytes).unwrap();
        assert_eq!(restored.tier(), StoreTier::Personal);
        assert_eq!(restored.file_count(), 1);
        let view = restored.resolve("mc-pass1", d("20040601")).unwrap();
        assert_eq!(view.version_for(100, "mc"), Some("MC May04"));
        // Grade row counter restored: further declarations still work.
        let mut restored = restored;
        restored
            .declare_snapshot("mc-pass1", d("20040701"), vec![entry(100, 101, "mc", "MC Jul04")])
            .unwrap();
    }
}
