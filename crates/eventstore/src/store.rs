//! The EventStore proper: file registry, grade declarations, and consistent
//! snapshot resolution, backed by the embedded metadata store.
//!
//! "In order to support a variety of use cases, the CLEO EventStore comes in
//! three sizes, tailored to the scale of the application: personal, group
//! and collaboration. The only user interface differences between the three
//! sizes is the name of the software module loaded."

use sciflow_core::md5::Digest;
use sciflow_core::version::CalDate;
use sciflow_metastore::prelude::*;

use crate::error::{EsError, EsResult};
use crate::grade::{GradeEntry, GradeHistory, GradeSnapshot, RunRange};
use crate::replica::{self, QState};

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

    fn as_str(self) -> &'static str {
        match self {
            StoreTier::Personal => "personal",
            StoreTier::Group => "group",
            StoreTier::Collaboration => "collaboration",
        }
    }

    fn parse(s: &str) -> Option<StoreTier> {
        match s {
            "personal" => Some(StoreTier::Personal),
            "group" => Some(StoreTier::Group),
            "collaboration" => Some(StoreTier::Collaboration),
            _ => None,
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

const FILES: &str = "es_files";
const GRADES: &str = "es_grade_entries";
const META: &str = "es_meta";
/// The quarantine record: one row per file id that holds a register
/// `(epoch, flagged, reason)`. Replication merges registers by `max`; the
/// non-replicated API reads and writes the same rows, so the flags ride
/// along through [`EventStore::to_bytes`] / [`EventStore::save`] and a
/// replica's registers are what [`EventStore::is_quarantined`] sees.
const QUARANTINE: &str = "es_quarantine";

fn quarantine_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", ValueType::Int),
        ColumnDef::new("epoch", ValueType::Int),
        ColumnDef::new("flagged", ValueType::Int),
        ColumnDef::new("reason", ValueType::Text),
    ])
    .expect("quarantine schema is valid")
    .with_primary_key("id")
    .expect("id column exists")
}

/// Whether a quarantine row's register is flagged.
fn row_flagged(row: &[Value]) -> bool {
    row.get(2).and_then(Value::as_int).is_some_and(|flag| flag != 0)
}

/// Insert `row` into `table`, or replace the row that holds its key (the
/// first column's value).
pub(crate) fn put_row(table: &mut Table, row: Vec<Value>) -> MetaResult<()> {
    let key = row[0].clone();
    if table.get_by_key(&key)?.is_some() {
        table.update_by_key(&key, row)?;
    } else {
        table.insert(row)?;
    }
    Ok(())
}

/// The date a `Date` column holds, given as its `yyyymmdd` key.
pub(crate) fn date_of_key(key: u32) -> Option<CalDate> {
    CalDate::new((key / 10_000) as u16, (key / 100 % 100) as u8, (key % 100) as u8)
}

/// An EventStore instance of a given tier.
#[derive(Debug, Clone)]
pub struct EventStore {
    tier: StoreTier,
    db: Database,
    next_grade_row: i64,
}

impl EventStore {
    pub fn new(tier: StoreTier) -> Self {
        let mut db = Database::new();
        let files_schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("run_first", ValueType::Int),
            ColumnDef::new("run_last", ValueType::Int),
            ColumnDef::new("kind", ValueType::Text),
            ColumnDef::new("version", ValueType::Text),
            ColumnDef::new("site", ValueType::Text),
            ColumnDef::new("registered", ValueType::Date),
            ColumnDef::new("location", ValueType::Text),
            ColumnDef::new("prov_hash", ValueType::Text),
        ])
        .expect("files schema is valid")
        .with_primary_key("id")
        .expect("id column exists");
        let files = db.create_table(FILES, files_schema).expect("fresh database");
        files.create_index("kind").expect("kind column exists");

        let grades_schema = Schema::new(vec![
            ColumnDef::new("rowid", ValueType::Int),
            ColumnDef::new("grade", ValueType::Text),
            ColumnDef::new("snapshot_date", ValueType::Date),
            ColumnDef::new("seq", ValueType::Int),
            ColumnDef::new("run_first", ValueType::Int),
            ColumnDef::new("run_last", ValueType::Int),
            ColumnDef::new("kind", ValueType::Text),
            ColumnDef::new("version", ValueType::Text),
        ])
        .expect("grades schema is valid")
        .with_primary_key("rowid")
        .expect("rowid column exists");
        let grades = db.create_table(GRADES, grades_schema).expect("fresh database");
        grades.create_index("grade").expect("grade column exists");

        let meta_schema = Schema::new(vec![
            ColumnDef::new("key", ValueType::Text),
            ColumnDef::new("value", ValueType::Text),
        ])
        .expect("meta schema is valid")
        .with_primary_key("key")
        .expect("key column exists");
        let meta = db.create_table(META, meta_schema).expect("fresh database");
        meta.insert(vec![Value::Text("tier".into()), Value::Text(tier.as_str().into())])
            .expect("fresh table");
        db.create_table(QUARANTINE, quarantine_schema()).expect("fresh database");

        EventStore { tier, db, next_grade_row: 0 }
    }

    pub fn tier(&self) -> StoreTier {
        self.tier
    }

    pub fn module_name(&self) -> &'static str {
        self.tier.module_name()
    }

    /// Direct access to the underlying metadata database (read-only uses).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The `es_files` row of `f`; its strings move into the row.
    pub(crate) fn file_row(f: FileRecord) -> Vec<Value> {
        vec![
            Value::Int(f.id as i64),
            Value::Int(f.runs.first as i64),
            Value::Int(f.runs.last as i64),
            Value::Text(f.kind),
            Value::Text(f.version),
            Value::Text(f.site),
            Value::Date(f.registered.as_key()),
            Value::Text(f.location),
            Value::Text(f.prov_digest.to_hex()),
        ]
    }

    fn row_runs(row: &[Value]) -> RunRange {
        RunRange {
            first: row[1].as_int().expect("run_first is int") as u32,
            last: row[2].as_int().expect("run_last is int") as u32,
        }
    }

    fn row_file(row: &[Value]) -> FileRecord {
        let date_key = row[6].as_date().expect("registered is a date");
        FileRecord {
            id: row[0].as_int().expect("id is int") as u64,
            runs: Self::row_runs(row),
            kind: row[3].as_text().expect("kind is text").to_string(),
            version: row[4].as_text().expect("version is text").to_string(),
            site: row[5].as_text().expect("site is text").to_string(),
            registered: date_of_key(date_key).expect("stored dates are valid"),
            location: row[7].as_text().expect("location is text").to_string(),
            prov_digest: Digest::from_hex(row[8].as_text().expect("hash is text"))
                .expect("stored digests are valid hex"),
        }
    }

    /// Register a data file.
    pub fn register_file(&mut self, file: &FileRecord) -> EsResult<()> {
        let table = self.db.table_mut(FILES)?;
        match table.insert(Self::file_row(file.clone())) {
            Ok(_) => Ok(()),
            Err(MetaError::DuplicateKey { .. }) => Err(EsError::DuplicateFile { id: file.id }),
            Err(e) => Err(e.into()),
        }
    }

    pub fn file(&self, id: u64) -> EsResult<Option<FileRecord>> {
        let table = self.db.table(FILES)?;
        Ok(table.get_by_key(&Value::Int(id as i64))?.map(Self::row_file))
    }

    /// Whether `id` is registered, read from the key map alone.
    pub(crate) fn has_file(&self, id: u64) -> EsResult<bool> {
        Ok(self.db.table(FILES)?.get_by_key(&Value::Int(id as i64))?.is_some())
    }

    pub fn file_count(&self) -> usize {
        self.db.table(FILES).map(|t| t.len()).unwrap_or(0)
    }

    pub fn files(&self) -> EsResult<Vec<FileRecord>> {
        let table = self.db.table(FILES)?;
        Ok(table.scan().map(|(_, r)| Self::row_file(r)).collect())
    }

    /// The quarantine register of file `id`, if it has one.
    pub(crate) fn qstate(&self, id: u64) -> Option<QState> {
        let row = self.db.table(QUARANTINE).ok()?.get_by_key(&Value::Int(id as i64)).ok()??;
        let (epoch, reason) = (row.get(1)?.as_int()?, row.get(3)?.as_text()?);
        Some(QState { epoch: epoch as u64, flagged: row_flagged(row), reason: reason.to_string() })
    }

    /// Store `q` as the quarantine register of file `id`; its reason moves
    /// into the row.
    pub(crate) fn put_qstate(&mut self, id: u64, q: QState) -> EsResult<()> {
        let (epoch, flagged) = (Value::Int(q.epoch as i64), Value::Int(q.flagged.into()));
        let row = vec![Value::Int(id as i64), epoch, flagged, Value::Text(q.reason)];
        Ok(put_row(self.db.table_mut(QUARANTINE)?, row)?)
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
        let epoch = self.qstate(id).map_or(1, |q| q.epoch);
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
        let table = self.db.table_mut(QUARANTINE)?;
        match table.delete_by_key(&Value::Int(id as i64)) {
            Ok(_) | Err(MetaError::RowNotFound { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Whether `id` is currently quarantined.
    pub fn is_quarantined(&self, id: u64) -> bool {
        self.qstate(id).is_some_and(|q| q.flagged)
    }

    /// The recorded reason for a file's quarantine, if it is quarantined.
    pub fn quarantine_reason(&self, id: u64) -> Option<String> {
        self.qstate(id).filter(|q| q.flagged).map(|q| q.reason)
    }

    /// Ids of all quarantined files, ascending.
    pub fn quarantined_files(&self) -> Vec<u64> {
        let Ok(table) = self.db.table(QUARANTINE) else { return Vec::new() };
        let flagged = table.scan().filter(|(_, r)| row_flagged(r));
        let mut ids: Vec<u64> =
            flagged.filter_map(|(_, r)| r.first()?.as_int()).map(|id| id as u64).collect();
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
        let mut txn = Transaction::new();
        for (seq, e) in entries.iter().enumerate() {
            txn.insert(
                GRADES,
                vec![
                    Value::Int(self.next_grade_row + seq as i64),
                    Value::Text(grade.to_string()),
                    Value::Date(date.as_key()),
                    Value::Int(seq as i64),
                    Value::Int(e.runs.first as i64),
                    Value::Int(e.runs.last as i64),
                    Value::Text(e.kind.clone()),
                    Value::Text(e.version.clone()),
                ],
            );
        }
        self.db.execute(&txn)?;
        self.next_grade_row += entries.len() as i64;
        Ok(())
    }

    /// Reconstruct the full history of `grade` from the store. Unknown
    /// grades yield an empty history (declaring the first snapshot defines
    /// the grade).
    pub fn grade_history(&self, grade: &str) -> EsResult<GradeHistory> {
        let table = self.db.table(GRADES)?;
        let grade_col = table.schema().column_index("grade")?;
        let q = Query::filter(Predicate::Eq(grade_col, Value::Text(grade.to_string())));
        let mut rows = select(table, &q)?.rows;
        // Order by (date, seq) to rebuild declaration order.
        rows.sort_by_key(|r| {
            (r[2].as_date().expect("snapshot_date is a date"), r[3].as_int().expect("seq is int"))
        });
        let mut history = GradeHistory::new(grade);
        let mut current: Option<GradeSnapshot> = None;
        for r in rows {
            let date_key = r[2].as_date().expect("snapshot_date is a date");
            let date = date_of_key(date_key).expect("stored dates are valid");
            let entry = GradeEntry {
                runs: RunRange {
                    first: r[4].as_int().expect("run_first is int") as u32,
                    last: r[5].as_int().expect("run_last is int") as u32,
                },
                kind: r[6].as_text().expect("kind is text").to_string(),
                version: r[7].as_text().expect("version is text").to_string(),
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
        // version of the same (run, kind) exists. Both tests read the raw
        // rows; only the files admitted are decoded into records.
        let table = self.db.table(FILES)?;
        let registered = |r: &[Value]| r[6].as_date().expect("registered is a date");
        let mut first_time = Vec::new();
        for (f_id, f) in table.scan() {
            if registered(f) <= snapshot.date.as_key() || registered(f) > timestamp.as_key() {
                continue;
            }
            let (kind, runs) = (f[3].as_text().expect("kind is text"), Self::row_runs(f));
            if snapshot.covers(runs.first, kind) {
                continue; // a governed version exists; not first-time data
            }
            let has_earlier = table.scan().any(|(g_id, g)| {
                g_id != f_id
                    && g[3].as_text() == Some(kind)
                    && Self::row_runs(g).overlaps(&runs)
                    && registered(g) < registered(f)
            });
            if !has_earlier {
                first_time.push(Self::row_file(f));
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
        let table = self.db.table(FILES)?;
        // The run test first: it turns away nearly every row, and with two
        // integer compares rather than two string ones.
        let wanted = |r: &[Value]| {
            Self::row_runs(r).contains(run)
                && r[3].as_text() == Some(kind)
                && r[4].as_text() == Some(version)
        };
        Ok(table.scan().filter(|(_, r)| wanted(r)).map(|(_, r)| Self::row_file(r)).collect())
    }

    /// Serialize the store (used for disconnected personal stores).
    pub fn to_bytes(&self) -> Vec<u8> {
        sciflow_metastore::persist::to_bytes(&self.db)
    }

    /// Reload a store serialized with [`EventStore::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> EsResult<EventStore> {
        Self::from_db(sciflow_metastore::persist::from_bytes(data)?)
    }

    /// Write the store to `path` as a sealed, crash-consistent snapshot:
    /// the bytes go to a temp sibling, are synced, and atomically renamed
    /// into place, so an interrupted save leaves the previous snapshot
    /// intact (see [`sciflow_metastore::persist::save`]).
    pub fn save(&self, path: &std::path::Path) -> EsResult<()> {
        sciflow_metastore::persist::save(&self.db, path)?;
        Ok(())
    }

    /// Load a store from a sealed snapshot written by [`EventStore::save`].
    /// Torn or damaged files are rejected with a typed error before any
    /// payload is parsed.
    pub fn load(path: &std::path::Path) -> EsResult<EventStore> {
        Self::from_db(sciflow_metastore::persist::load(path)?)
    }

    /// Hold a loaded database to the layout this version writes before
    /// anything reads it: the quarantine record is its typed table, and
    /// every version row of a replica decodes. A store written in an older
    /// layout, its registers in `es_meta` text, is refused rather than read
    /// without them.
    fn from_db(db: Database) -> EsResult<EventStore> {
        let corrupt = |detail: &str| EsError::Meta(MetaError::Corrupt { detail: detail.into() });
        let quarantine = db.table(QUARANTINE).map_err(|_| corrupt("a store of an older layout"))?;
        if quarantine.schema() != &quarantine_schema() {
            return Err(corrupt("`es_quarantine` has another layout"));
        }
        replica::check_versions(&db)?;
        let tier_text = {
            let meta = db.table(META)?;
            let row = meta
                .get_by_key(&Value::Text("tier".into()))?
                .ok_or_else(|| MetaError::Corrupt { detail: "missing tier".into() })?;
            row[1].as_text().unwrap_or("").to_string()
        };
        let tier = StoreTier::parse(&tier_text)
            .ok_or(MetaError::Corrupt { detail: format!("unknown tier `{tier_text}`") })?;
        let next_grade_row = db
            .table(GRADES)?
            .scan()
            .map(|(_, r)| r[0].as_int().expect("rowid is int") + 1)
            .max()
            .unwrap_or(0);
        Ok(EventStore { tier, db, next_grade_row })
    }

    pub(crate) fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    pub(crate) fn bump_grade_rows(&mut self, by: i64) {
        self.next_grade_row += by;
    }

    pub(crate) fn next_grade_row(&self) -> i64 {
        self.next_grade_row
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
