//! The EventStore's tables and every decision about their layout: the table
//! names, the five schemas, one conversion each way between a row and the
//! typed value it holds, and the [`EventStore`] methods that read and write
//! rows. Nothing else in the crate indexes a row or names a table.
//!
//! A store snapshot is outside bytes — personal stores are shipped and
//! merged into the collaboration store — so loading holds every table to
//! its schema before anything reads it, and each `from_row` checks what a
//! schema cannot (a digest's hex, a date key, run bounds that fit a `u32`)
//! where the row is read, as a typed error.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::path::Path;

use sciflow_core::frame::Reader;
use sciflow_core::md5::Digest;
use sciflow_core::version::CalDate;
use sciflow_metastore::persist;
use sciflow_metastore::prelude::*;

use super::{EventStore, FileRecord, StoreTier};
use crate::error::{EsError, EsResult};
use crate::grade::RunRange;
use crate::replica::{wire, GradeRow, QState, ReplicaError, StoreId, VersionVector};

pub(crate) const FILES: &str = "es_files";
pub(crate) const GRADES: &str = "es_grade_entries";
pub(crate) const META: &str = "es_meta";
/// The quarantine record: one row per file id that holds a register
/// `(epoch, flagged, reason)`. Replication merges registers by `max`; the
/// non-replicated API reads and writes the same rows, so the flags ride
/// along through a store's bytes and a replica's registers are what
/// [`EventStore::is_quarantined`] sees.
pub(crate) const QUARANTINE: &str = "es_quarantine";
/// A replica's alone: one row per file id, the version part of its unit —
/// tier, origin and version vector — as the bytes [`wire::put_version`]
/// writes, the same bytes that follow the record on the wire.
pub(crate) const VERSIONS: &str = "es_versions";

const TIER_KEY: &str = "tier";
const REPLICA_ID_KEY: &str = "replica.id";

// --- schemas ------------------------------------------------------------------

/// A schema of this layout: `columns`, keyed by `key`.
// Constant columns with distinct names and the key among them, and
// `fresh_tables_are_in_their_layout` builds all five schemas.
#[allow(clippy::expect_used)]
fn schema(columns: &[(&str, ValueType)], key: &str) -> Schema {
    let columns = columns.iter().map(|&(name, ty)| ColumnDef::new(name, ty)).collect();
    Schema::new(columns).and_then(|s| s.with_primary_key(key)).expect("a constant schema is valid")
}

/// Every table of this layout with its schema, and whether every store has
/// it (`es_versions` is a replica's alone).
fn layout() -> [(&'static str, Schema, bool); 5] {
    use ValueType::{Date, Int, Text};
    [
        (
            FILES,
            schema(
                &[
                    ("id", Int),
                    ("run_first", Int),
                    ("run_last", Int),
                    ("kind", Text),
                    ("version", Text),
                    ("site", Text),
                    ("registered", Date),
                    ("location", Text),
                    ("prov_hash", Text),
                ],
                "id",
            ),
            true,
        ),
        (
            GRADES,
            schema(
                &[
                    ("rowid", Int),
                    ("grade", Text),
                    ("snapshot_date", Date),
                    ("seq", Int),
                    ("run_first", Int),
                    ("run_last", Int),
                    ("kind", Text),
                    ("version", Text),
                ],
                "rowid",
            ),
            true,
        ),
        (META, schema(&[("key", Text), ("value", Text)], "key"), true),
        (
            QUARANTINE,
            schema(&[("id", Int), ("epoch", Int), ("flagged", Int), ("reason", Text)], "id"),
            true,
        ),
        (VERSIONS, versions_schema(), false),
    ]
}

fn versions_schema() -> Schema {
    schema(&[("id", ValueType::Int), ("version", ValueType::Blob)], "id")
}

// --- cells ------------------------------------------------------------------

fn corrupt(detail: String) -> EsError {
    EsError::Meta(MetaError::Corrupt { detail })
}

/// A row of `table` that does not hold what its layout says.
fn bad(table: &str, what: &str) -> EsError {
    corrupt(format!("`{table}` row: {what}"))
}

/// A row whose cells are not of its schema's types. [`EventStore::from_db`]
/// holds every table to its schema and the metastore each row to its
/// table's, so the rows are read by their cells' types, and this is the
/// typed refusal of a row that is not.
fn mistyped(table: &str) -> EsError {
    bad(table, "a cell of another type")
}

fn run(table: &str, column: &str, n: i64) -> EsResult<u32> {
    u32::try_from(n).map_err(|_| bad(table, &format!("`{column}` {n} is not a run number")))
}

fn date(table: &str, column: &str, key: u32) -> EsResult<CalDate> {
    date_of_key(key).ok_or_else(|| bad(table, &format!("`{column}` {key} is not a date")))
}

/// The date a `yyyymmdd` key names; `None` for a key no date has.
pub(crate) fn date_of_key(key: u32) -> Option<CalDate> {
    let year = u16::try_from(key / 10_000).ok()?;
    CalDate::new(year, (key / 100 % 100) as u8, (key % 100) as u8)
}

/// A digest spelled as [`Digest::to_hex`] spells it: 32 lower-case digits.
fn digest(hex: &str) -> Option<Digest> {
    let canonical = hex.len() == 32 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    Digest::from_hex(hex).filter(|_| canonical)
}

/// File ids and epochs are `u64`s held as the `i64` of the same bits.
fn key(id: u64) -> Value {
    Value::Int(id as i64)
}

// --- rows -------------------------------------------------------------------

/// An `es_files` row read in place: what a scan tests before it decodes the
/// whole record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileView<'a> {
    pub id: u64,
    pub runs: RunRange,
    pub kind: &'a str,
    pub version: &'a str,
    /// The registration date's `yyyymmdd` key.
    pub registered: u32,
    /// The cells only [`FileView::record`] reads: site, location and
    /// digest.
    rest: [&'a str; 3],
}

impl<'a> FileView<'a> {
    fn from_row(row: &'a [Value]) -> EsResult<FileView<'a>> {
        use Value::{Date, Int, Text};
        let [Int(id), Int(first), Int(last), Text(kind), Text(version), rest @ ..] = row else {
            return Err(mistyped(FILES));
        };
        let [Text(site), Date(registered), Text(location), Text(hash)] = rest else {
            return Err(mistyped(FILES));
        };
        Ok(FileView {
            id: *id as u64,
            runs: RunRange {
                first: run(FILES, "run_first", *first)?,
                last: run(FILES, "run_last", *last)?,
            },
            kind,
            version,
            registered: *registered,
            rest: [site, location, hash],
        })
    }

    /// The whole record.
    pub(crate) fn record(&self) -> EsResult<FileRecord> {
        let [site, location, hash] = self.rest;
        Ok(FileRecord {
            id: self.id,
            runs: self.runs,
            kind: self.kind.to_string(),
            version: self.version.to_string(),
            site: site.to_string(),
            registered: date(FILES, "registered", self.registered)?,
            location: location.to_string(),
            prov_digest: digest(hash)
                .ok_or_else(|| bad(FILES, &format!("`prov_hash` `{hash}` is not a digest")))?,
        })
    }
}

impl FileRecord {
    /// The `es_files` row of this record; its strings move into the row.
    fn into_row(self) -> Vec<Value> {
        vec![
            key(self.id),
            Value::Int(i64::from(self.runs.first)),
            Value::Int(i64::from(self.runs.last)),
            Value::Text(self.kind),
            Value::Text(self.version),
            Value::Text(self.site),
            Value::Date(self.registered.as_key()),
            Value::Text(self.location),
            Value::Text(self.prov_digest.to_hex()),
        ]
    }

    fn from_row(row: &[Value]) -> EsResult<FileRecord> {
        FileView::from_row(row)?.record()
    }
}

impl GradeRow {
    /// The date of the snapshot this row belongs to.
    pub(crate) fn on(&self) -> EsResult<CalDate> {
        date_of_key(self.date).ok_or_else(|| bad(GRADES, &format!("{} is not a date", self.date)))
    }
}

/// A row of `es_grade_entries`: the store's own rowid and the entry's place
/// in its snapshot around the content that replicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredGrade {
    pub rowid: i64,
    pub seq: i64,
    pub row: GradeRow,
}

impl StoredGrade {
    fn into_row(self) -> Vec<Value> {
        let StoredGrade { rowid, seq, row } = self;
        vec![
            Value::Int(rowid),
            Value::Text(row.grade),
            Value::Date(row.date),
            Value::Int(seq),
            Value::Int(i64::from(row.first)),
            Value::Int(i64::from(row.last)),
            Value::Text(row.kind),
            Value::Text(row.version),
        ]
    }

    fn from_row(row: &[Value]) -> EsResult<StoredGrade> {
        use Value::{Date, Int, Text};
        let [Int(rowid), Text(grade), Date(on), Int(seq), rest @ ..] = row else {
            return Err(mistyped(GRADES));
        };
        let [Int(first), Int(last), Text(kind), Text(version)] = rest else {
            return Err(mistyped(GRADES));
        };
        Ok(StoredGrade {
            rowid: *rowid,
            seq: *seq,
            row: GradeRow {
                grade: grade.clone(),
                date: date(GRADES, "snapshot_date", *on)?.as_key(),
                first: run(GRADES, "run_first", *first)?,
                last: run(GRADES, "run_last", *last)?,
                kind: kind.clone(),
                version: version.clone(),
            },
        })
    }
}

impl QState {
    /// The `es_quarantine` row of file `id`'s register; its reason moves
    /// into the row.
    fn into_row(self, id: u64) -> Vec<Value> {
        let flagged = Value::Int(self.flagged.into());
        vec![key(id), Value::Int(self.epoch as i64), flagged, Value::Text(self.reason)]
    }

    /// The file id and register an `es_quarantine` row holds.
    fn from_row(row: &[Value]) -> EsResult<(u64, QState)> {
        let [Value::Int(id), Value::Int(epoch), Value::Int(flagged), Value::Text(reason)] = row
        else {
            return Err(mistyped(QUARANTINE));
        };
        let q = QState { epoch: *epoch as u64, flagged: *flagged != 0, reason: reason.clone() };
        Ok((*id as u64, q))
    }
}

/// The `es_meta` row that holds `value` under `key`: the store's tier, or
/// a replica's id.
fn meta_row(key: &str, value: String) -> Vec<Value> {
    vec![Value::Text(key.into()), Value::Text(value)]
}

/// The value `es_meta` holds under `key`, if it holds one.
fn meta<'a>(db: &'a Database, key: &str) -> EsResult<Option<&'a str>> {
    match db.table(META)?.get_by_key(&Value::Text(key.into()))? {
        Some([_, Value::Text(value)]) => Ok(Some(value)),
        Some(_) => Err(mistyped(META)),
        None => Ok(None),
    }
}

fn tier_text(tier: StoreTier) -> &'static str {
    match tier {
        StoreTier::Personal => "personal",
        StoreTier::Group => "group",
        StoreTier::Collaboration => "collaboration",
    }
}

fn parse_tier(s: &str) -> Option<StoreTier> {
    match s {
        "personal" => Some(StoreTier::Personal),
        "group" => Some(StoreTier::Group),
        "collaboration" => Some(StoreTier::Collaboration),
        _ => None,
    }
}

/// The version of file `id` its `es_versions` row holds; a missing row, or
/// one that is not exactly a version's bytes, is a corrupt store.
fn version_of(id: u64, row: Option<&[Value]>) -> EsResult<(u8, StoreId, VersionVector)> {
    let mut r = Reader::new(match row {
        Some([_, Value::Blob(bytes)]) => bytes.as_slice(),
        _ => &[],
    });
    let version = wire::read_version(&mut r)
        .and_then(|version| r.done().map(|()| version).map_err(ReplicaError::from));
    version.map_err(|e| corrupt(format!("version row of file {id}: {e}")))
}

// --- the store's rows --------------------------------------------------------

impl EventStore {
    // A fresh database takes the constant layout, and
    // `fresh_tables_are_in_their_layout` builds one store of each tier.
    #[allow(clippy::expect_used)]
    pub fn new(tier: StoreTier) -> Self {
        let fresh = || -> MetaResult<Database> {
            let mut db = Database::new();
            for (name, schema, every_store) in layout() {
                if every_store {
                    db.create_table(name, schema)?;
                }
            }
            db.table_mut(FILES)?.create_index("kind")?;
            db.table_mut(GRADES)?.create_index("grade")?;
            db.table_mut(META)?.insert(meta_row(TIER_KEY, tier_text(tier).into()))?;
            Ok(db)
        };
        let db = fresh().expect("a fresh database takes the layout");
        EventStore { tier, db, next_grade_row: 0 }
    }

    /// Hold a loaded database to this layout before anything reads it:
    /// every table a store has, in its schema (a store written in an older
    /// layout, its quarantine registers in `es_meta` text, lacks
    /// `es_quarantine` and is refused rather than read without them), every
    /// version row a version, and a tier. The grade-rowid counter starts one
    /// past the table's largest rowid.
    pub(super) fn from_db(db: Database) -> EsResult<EventStore> {
        for (name, schema, every_store) in layout() {
            match db.table(name) {
                Ok(table) if table.schema() == &schema => {}
                Ok(_) => return Err(corrupt(format!("`{name}` has another layout"))),
                Err(_) if every_store => {
                    return Err(corrupt(format!("a store of an older layout: no `{name}`")))
                }
                Err(_) => {}
            }
        }
        if let Ok(versions) = db.table(VERSIONS) {
            for (_, row) in versions.scan() {
                let id = row.first().and_then(Value::as_int).unwrap_or_default() as u64;
                version_of(id, Some(row))?;
            }
        }
        let tier = meta(&db, TIER_KEY)?.ok_or_else(|| corrupt("missing tier".into()))?;
        let tier = parse_tier(tier).ok_or_else(|| corrupt(format!("unknown tier `{tier}`")))?;
        let mut last = None;
        for (_, row) in db.table(GRADES)?.scan() {
            let Some(&Value::Int(rowid)) = row.first() else { return Err(mistyped(GRADES)) };
            last = last.max(Some(rowid));
        }
        let next_grade_row = match last {
            Some(rowid) => rowid.checked_add(1).ok_or_else(|| bad(GRADES, "rowid overflows"))?,
            None => 0,
        };
        Ok(EventStore { tier, db, next_grade_row })
    }

    /// Serialize the store (used for disconnected personal stores).
    pub fn to_bytes(&self) -> Vec<u8> {
        persist::to_bytes(&self.db)
    }

    /// Write the store to `path` as a sealed, crash-consistent snapshot:
    /// the bytes go to a temp sibling, are synced, and atomically renamed
    /// into place, so an interrupted save leaves the previous snapshot
    /// intact (see [`sciflow_metastore::persist::save`]).
    pub fn save(&self, path: &Path) -> EsResult<()> {
        Ok(persist::save(&self.db, path)?)
    }

    /// The underlying metadata database, for tests that forge or inspect a
    /// snapshot.
    #[cfg(test)]
    pub(crate) fn database(&self) -> &Database {
        &self.db
    }

    // --- files

    /// Register a data file.
    pub fn register_file(&mut self, file: &FileRecord) -> EsResult<()> {
        match self.db.table_mut(FILES)?.insert(file.clone().into_row()) {
            Ok(_) => Ok(()),
            Err(MetaError::DuplicateKey { .. }) => Err(EsError::DuplicateFile { id: file.id }),
            Err(e) => Err(e.into()),
        }
    }

    pub fn file(&self, id: u64) -> EsResult<Option<FileRecord>> {
        self.db.table(FILES)?.get_by_key(&key(id))?.map(FileRecord::from_row).transpose()
    }

    /// Whether `id` is registered, read from the key map alone.
    pub(crate) fn has_file(&self, id: u64) -> EsResult<bool> {
        Ok(self.db.table(FILES)?.get_by_key(&key(id))?.is_some())
    }

    pub fn file_count(&self) -> usize {
        self.db.table(FILES).map_or(0, Table::len)
    }

    /// Every record, in table order.
    pub fn files(&self) -> EsResult<Vec<FileRecord>> {
        self.db.table(FILES)?.scan().map(|(_, row)| FileRecord::from_row(row)).collect()
    }

    /// Every file row read in place, in table order.
    pub(crate) fn file_views(&self) -> EsResult<impl Iterator<Item = EsResult<FileView<'_>>>> {
        Ok(self.db.table(FILES)?.scan().map(|(_, row)| FileView::from_row(row)))
    }

    /// The records of `kind` and `version` whose runs hold `run`, in table
    /// order. The run test comes first and reads the cells in place: it
    /// turns away nearly every row, with two integer compares rather than
    /// two string ones.
    pub(crate) fn files_holding(
        &self,
        run: u32,
        kind: &str,
        version: &str,
    ) -> EsResult<Vec<FileRecord>> {
        let mut files = Vec::new();
        for (_, row) in self.db.table(FILES)?.scan() {
            let [_, Value::Int(first), Value::Int(last), Value::Text(k), Value::Text(v), ..] = row
            else {
                return Err(mistyped(FILES));
            };
            if (*first..=*last).contains(&i64::from(run)) && k == kind && v == version {
                files.push(FileRecord::from_row(row)?);
            }
        }
        Ok(files)
    }

    // --- quarantine registers

    /// The quarantine register of file `id`, if it has one.
    pub(crate) fn qstate(&self, id: u64) -> EsResult<Option<QState>> {
        let row = self.db.table(QUARANTINE)?.get_by_key(&key(id))?;
        Ok(row.map(QState::from_row).transpose()?.map(|(_, q)| q))
    }

    /// Store `q` as the quarantine register of file `id`.
    pub(crate) fn put_qstate(&mut self, id: u64, q: QState) -> EsResult<()> {
        put_row(self.db.table_mut(QUARANTINE)?, q.into_row(id))
    }

    /// Delete file `id`'s register; deleting none is no error.
    pub(crate) fn drop_qstate(&mut self, id: u64) -> EsResult<()> {
        match self.db.table_mut(QUARANTINE)?.delete_by_key(&key(id)) {
            Ok(_) | Err(MetaError::RowNotFound { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Ids of the files whose register is flagged, in table order.
    pub(crate) fn flagged(&self) -> EsResult<Vec<u64>> {
        let mut ids = Vec::new();
        for (_, row) in self.db.table(QUARANTINE)?.scan() {
            let (id, q) = QState::from_row(row)?;
            if q.flagged {
                ids.push(id);
            }
        }
        Ok(ids)
    }

    // --- grade rows

    /// Every grade row, in table order.
    pub(crate) fn grades(&self) -> EsResult<Vec<StoredGrade>> {
        self.db.table(GRADES)?.scan().map(|(_, row)| StoredGrade::from_row(row)).collect()
    }

    /// Apply, as one transaction: insert `files`, delete the grade rows
    /// whose rowids are `drop`, and insert each `(seq, row)` of `grades`
    /// under the next rowid.
    pub(crate) fn write(
        &mut self,
        files: Vec<FileRecord>,
        drop: &[i64],
        grades: Vec<(i64, GradeRow)>,
    ) -> EsResult<()> {
        let mut txn = Transaction::new();
        for file in files {
            txn.insert(FILES, file.into_row());
        }
        for &rowid in drop {
            txn.delete(GRADES, Value::Int(rowid));
        }
        let mut rowid = self.next_grade_row;
        for (seq, row) in grades {
            txn.insert(GRADES, StoredGrade { rowid, seq, row }.into_row());
            rowid = rowid.checked_add(1).ok_or_else(|| bad(GRADES, "rowid overflows"))?;
        }
        self.db.execute(&txn)?;
        self.next_grade_row = rowid;
        Ok(())
    }

    // --- replica rows

    /// Record this store as replica `id`, give every file without a version
    /// row the version `first`, and create the version table if the store
    /// has none.
    pub(crate) fn adopt(&mut self, id: StoreId, first: &[u8]) -> EsResult<()> {
        put_row(self.db.table_mut(META)?, meta_row(REPLICA_ID_KEY, id.to_string()))?;
        if self.db.table(VERSIONS).is_err() {
            self.db.create_table(VERSIONS, versions_schema())?;
        }
        let mut txn = Transaction::new();
        let (files, versions) = (self.db.table(FILES)?, self.db.table(VERSIONS)?);
        for (_, row) in files.scan() {
            let id = FileView::from_row(row)?.id;
            if versions.get_by_key(&key(id))?.is_none() {
                txn.insert(VERSIONS, vec![key(id), Value::Blob(first.to_vec())]);
            }
        }
        Ok(self.db.execute(&txn)?)
    }

    /// The id this store holds as a replica's: `None` if it never was one.
    /// A store without version rows is refused as
    /// [`MetaError::UnknownTable`]: a plain store is adopted, never
    /// recovered.
    pub(crate) fn replica_id(&self) -> EsResult<Option<StoreId>> {
        self.db.table(VERSIONS)?;
        let Some(id) = meta(&self.db, REPLICA_ID_KEY)? else { return Ok(None) };
        id.parse().map(Some).map_err(|_| bad(META, &format!("replica id `{id}` is not a store id")))
    }

    /// The version of registered file `id`.
    pub(crate) fn version(&self, id: u64) -> EsResult<(u8, StoreId, VersionVector)> {
        version_of(id, self.db.table(VERSIONS)?.get_by_key(&key(id))?)
    }

    /// Store `record` and its version row: inserted if `fresh`, in place of
    /// the resident rows otherwise.
    pub(crate) fn put_unit(
        &mut self,
        record: FileRecord,
        version: Vec<u8>,
        fresh: bool,
    ) -> EsResult<()> {
        let id = key(record.id);
        let (file, version) = (record.into_row(), vec![id.clone(), Value::Blob(version)]);
        if fresh {
            self.db.table_mut(FILES)?.insert(file)?;
            self.db.table_mut(VERSIONS)?.insert(version)?;
        } else {
            self.db.table_mut(FILES)?.update_by_key(&id, file)?;
            self.db.table_mut(VERSIONS)?.update_by_key(&id, version)?;
        }
        Ok(())
    }
}

/// Insert `row` into `table`, or replace the row that holds its key (the
/// first column's value).
fn put_row(table: &mut Table, row: Vec<Value>) -> EsResult<()> {
    let Some(key) = row.first() else { return Err(bad(table.name(), "no key")) };
    if table.get_by_key(key)?.is_some() {
        let key = key.clone();
        table.update_by_key(&key, row)?;
    } else {
        table.insert(row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tables_are_in_their_layout() {
        for tier in [StoreTier::Personal, StoreTier::Group, StoreTier::Collaboration] {
            let mut store = EventStore::new(tier);
            store.adopt(7, &wire::version_bytes(0, 7, &VersionVector::first(7))).unwrap();
            let store = EventStore::from_db(store.db).unwrap();
            assert_eq!(store.tier, tier);
            assert_eq!(store.replica_id().unwrap(), Some(7));
            assert_eq!(store.next_grade_row, 0);
        }
    }

    #[test]
    fn date_keys_name_dates_or_nothing() {
        assert_eq!(date_of_key(20050601), CalDate::new(2005, 6, 1));
        for key in [0, 20050631, 20051301, 4_294_967_295, 700_000_101] {
            assert_eq!(date_of_key(key), None, "{key}");
        }
    }

    #[test]
    fn digests_are_read_as_they_are_written() {
        let d = sciflow_core::md5::md5(b"x");
        assert_eq!(digest(&d.to_hex()), Some(d));
        assert_eq!(digest(&d.to_hex().to_uppercase()), None);
        assert_eq!(digest("zz"), None);
    }
}
