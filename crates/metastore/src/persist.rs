//! Persistence: a self-describing binary snapshot of a [`Database`].
//!
//! The personal EventStore in the paper is "self-contained ... supporting
//! completely disconnected operation" — a user carries the store on a laptop
//! and later merges it back. That requires the metadata database to round-
//! trip through a file. The format here is deliberately simple: a magic
//! header, then length-prefixed tables, schemas, and tagged values.
//!
//! On disk the snapshot is **crash-consistent**. [`save`] closes the
//! payload with a [`sciflow_core::frame`] sealing trailer (magic, payload
//! length, FNV-1a checksum) and writes it through
//! [`frame::write_atomic`] — a crash at any byte leaves either the previous
//! snapshot or the complete new one, never a torn hybrid. [`load`] verifies
//! the seal before parsing a single byte of payload and rejects anything
//! torn, truncated, or bit-flipped with [`MetaError::CorruptSnapshot`].

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::path::Path;

use sciflow_core::frame::{self, put_f64, put_str, put_u32, put_u64, Reader};

use crate::db::Database;
use crate::error::{MetaError, MetaResult};
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::value::{Value, ValueType};

const MAGIC: &[u8; 8] = b"SFMETA1\n";

/// Magic of the sealing trailer appended to snapshot *files*.
const SEAL_MAGIC: &[u8; 8] = b"SFSEAL1\n";

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Real(r) => {
            out.push(2);
            put_f64(out, *r);
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Blob(b) => {
            out.push(4);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        Value::Date(d) => {
            out.push(5);
            put_u32(out, *d);
        }
    }
}

fn type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 1,
        ValueType::Real => 2,
        ValueType::Text => 3,
        ValueType::Blob => 4,
        ValueType::Date => 5,
    }
}

fn type_from_tag(tag: u8) -> MetaResult<ValueType> {
    Ok(match tag {
        1 => ValueType::Int,
        2 => ValueType::Real,
        3 => ValueType::Text,
        4 => ValueType::Blob,
        5 => ValueType::Date,
        other => return Err(MetaError::Corrupt { detail: format!("unknown type tag {other}") }),
    })
}

fn get_value(r: &mut Reader<'_>) -> MetaResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.u64()? as i64),
        2 => Value::Real(r.f64()?),
        3 => Value::Text(r.str()?),
        4 => {
            let len = r.len32()?;
            Value::Blob(r.take(len)?.to_vec())
        }
        5 => Value::Date(r.u32()?),
        other => return Err(MetaError::Corrupt { detail: format!("unknown value tag {other}") }),
    })
}

/// Serialize the whole database to bytes.
pub fn to_bytes(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let tables: Vec<&Table> = db.tables().collect();
    put_u32(&mut out, tables.len() as u32);
    for t in tables {
        put_str(&mut out, t.name());
        let schema = t.schema();
        put_u32(&mut out, schema.arity() as u32);
        for c in schema.columns() {
            put_str(&mut out, &c.name);
            out.push(type_tag(c.ty));
            out.push(c.nullable as u8);
        }
        match schema.primary_key() {
            Some(pk) => {
                out.push(1);
                put_u32(&mut out, pk as u32);
            }
            None => out.push(0),
        }
        // Secondary indexes by column position.
        let index_cols: Vec<u32> = (0..schema.arity())
            .filter(|&c| Some(c) != schema.primary_key() && t.has_index(c))
            .map(|c| c as u32)
            .collect();
        put_u32(&mut out, index_cols.len() as u32);
        for c in &index_cols {
            put_u32(&mut out, *c);
        }
        put_u64(&mut out, t.len() as u64);
        for (_, row) in t.scan() {
            for v in row {
                put_value(&mut out, v);
            }
        }
    }
    out
}

/// Reconstruct a database from bytes produced by [`to_bytes`]. Every count
/// is bounded by the bytes remaining before it drives a loop or an
/// allocation, so a forged count is a typed error, not an abort.
pub fn from_bytes(data: &[u8]) -> MetaResult<Database> {
    let mut r = Reader::new(data);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(MetaError::Corrupt { detail: "bad magic".into() });
    }
    let mut db = Database::new();
    let n_tables = r.len32()?;
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_cols = r.len32()?;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let cname = r.str()?;
            let ty = type_from_tag(r.u8()?)?;
            let nullable = r.u8()? != 0;
            let mut def = ColumnDef::new(cname, ty);
            if nullable {
                def = def.nullable();
            }
            cols.push(def);
        }
        let mut schema = Schema::new(cols)?;
        if r.u8()? == 1 {
            let pk = r.u32()? as usize;
            let Some(pk_col) = schema.columns().get(pk) else {
                return Err(MetaError::Corrupt { detail: "primary key out of range".into() });
            };
            let pk_name = pk_col.name.clone();
            schema = schema.with_primary_key(&pk_name)?;
        }
        let n_indexes = r.len32()?;
        let mut index_cols = Vec::with_capacity(n_indexes);
        for _ in 0..n_indexes {
            let c = r.u32()? as usize;
            let Some(col) = schema.columns().get(c) else {
                return Err(MetaError::Corrupt { detail: "index column out of range".into() });
            };
            index_cols.push(col.name.clone());
        }
        let arity = schema.arity();
        let table = db.create_table(name, schema)?;
        for col in &index_cols {
            table.create_index(col)?;
        }
        let n_rows = r.len()?;
        let mut read_row = || {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(get_value(&mut r)?);
            }
            Ok(row)
        };
        table.load((0..n_rows).map(|_| read_row()))?;
    }
    r.done()?;
    Ok(db)
}

/// Serialize the database and append the sealing trailer: exactly what
/// [`save`] puts on disk.
pub fn sealed_bytes(db: &Database) -> Vec<u8> {
    let mut out = to_bytes(db);
    frame::seal_trailer(&mut out, SEAL_MAGIC);
    out
}

/// Verify the sealing trailer and reconstruct the database. Every failure
/// mode of a half-written or damaged file — too short to hold a trailer,
/// wrong seal magic, payload length that doesn't match the file, checksum
/// mismatch — is [`MetaError::CorruptSnapshot`].
pub fn from_sealed_bytes(data: &[u8]) -> MetaResult<Database> {
    let payload = frame::open_trailer(data, SEAL_MAGIC)?;
    // The seal proves the payload arrived intact; payload-level parse
    // errors past this point would be a serializer bug, but surface them
    // as the same typed error rather than trusting the file.
    from_bytes(payload).map_err(|e| MetaError::CorruptSnapshot {
        detail: format!("sealed payload failed to parse: {e}"),
    })
}

/// Write a sealed snapshot to `path`, atomically (see
/// [`frame::write_atomic`]). A crash before the rename leaves the previous
/// snapshot untouched; a crash during the temp write leaves a torn `.tmp`
/// that [`load`] never looks at.
pub fn save(db: &Database, path: &Path) -> MetaResult<()> {
    Ok(frame::write_atomic(path, &sealed_bytes(db))?)
}

/// Load a sealed snapshot from `path`, rejecting torn or damaged files
/// with [`MetaError::CorruptSnapshot`].
pub fn load(path: &Path) -> MetaResult<Database> {
    from_sealed_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{select, AccessPath, Predicate, Query};

    fn sample_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("name", ValueType::Text),
            ColumnDef::new("score", ValueType::Real).nullable(),
            ColumnDef::new("payload", ValueType::Blob),
            ColumnDef::new("day", ValueType::Date),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let t = db.create_table("products", schema).unwrap();
        t.create_index("name").unwrap();
        for i in 0..50i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Text(format!("p{}", i % 5)),
                if i % 3 == 0 { Value::Null } else { Value::Real(i as f64 / 3.0) },
                Value::Blob(vec![i as u8; (i % 7) as usize]),
                Value::Date(20050100 + (i % 28) as u32 + 1),
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn roundtrip_preserves_rows_and_indexes() {
        let db = sample_db();
        let bytes = to_bytes(&db);
        let loaded = from_bytes(&bytes).unwrap();
        let orig = db.table("products").unwrap();
        let copy = loaded.table("products").unwrap();
        assert_eq!(orig.len(), copy.len());
        assert_eq!(orig.schema(), copy.schema());
        let rows_a: Vec<_> = orig.scan().map(|(_, r)| r.to_vec()).collect();
        let rows_b: Vec<_> = copy.scan().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(rows_a, rows_b);
        // Index survives: query planner still uses it.
        let q = Query::filter(Predicate::Eq(1, Value::Text("p2".into())));
        assert_eq!(select(copy, &q).unwrap().path, AccessPath::IndexEq);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let db = sample_db();
        let mut bytes = to_bytes(&db);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(from_bytes(&bad), Err(MetaError::Corrupt { .. })));
        // Truncation.
        bytes.truncate(bytes.len() / 2);
        assert!(from_bytes(&bytes).is_err());
        // Trailing garbage.
        let mut extended = to_bytes(&db);
        extended.push(0);
        assert!(matches!(from_bytes(&extended), Err(MetaError::Corrupt { .. })));
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let loaded = from_bytes(&to_bytes(&db)).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("sciflow-metastore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.sfm");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.table("products").unwrap().len(), 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sealed_roundtrip_and_shape() {
        let db = sample_db();
        let sealed = sealed_bytes(&db);
        assert_eq!(sealed.len(), to_bytes(&db).len() + SEAL_MAGIC.len() + 16);
        let loaded = from_sealed_bytes(&sealed).unwrap();
        assert_eq!(loaded.table("products").unwrap().len(), 50);
    }

    /// The format, byte for byte, computed at the commit before the port to
    /// `core::frame`. If this fails the on-disk format changed: do not
    /// update the literals; fix the code.
    #[test]
    fn byte_pin_sealed_snapshot() {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("name", ValueType::Text).nullable(),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let t = db.create_table("t", schema).unwrap();
        t.create_index("name").unwrap();
        t.insert(vec![Value::Int(7), Value::Text("x".into())]).unwrap();
        let want = [
            &b"SFMETA1\n"[..],
            &[1, 0, 0, 0], // one table
            &[1, 0, 0, 0],
            b"t",          // named "t"
            &[2, 0, 0, 0], // two columns
            &[2, 0, 0, 0],
            b"id",
            &[1, 0], // Int, not nullable
            &[4, 0, 0, 0],
            b"name",
            &[3, 1],                      // Text, nullable
            &[1, 0, 0, 0, 0],             // primary key: column 0
            &[1, 0, 0, 0, 1, 0, 0, 0],    // one secondary index, on column 1
            &[1, 0, 0, 0, 0, 0, 0, 0],    // one row
            &[1, 7, 0, 0, 0, 0, 0, 0, 0], // Int 7
            &[3, 1, 0, 0, 0],
            b"x", // Text "x"
            b"SFSEAL1\n",
            &[75, 0, 0, 0, 0, 0, 0, 0],               // payload length
            &[47, 249, 114, 112, 253, 251, 151, 220], // FNV-1a over the payload
        ]
        .concat();
        assert_eq!(sealed_bytes(&db), want);
        assert_eq!(from_sealed_bytes(&want).unwrap().table("t").unwrap().len(), 1);
    }

    /// A trailer whose length field is forged, to `u64::MAX` and to
    /// `len + 1`, is a typed error.
    #[test]
    fn forged_length_seal_trailer() {
        let sealed = sealed_bytes(&sample_db());
        let len_at = sealed.len() - 16;
        let payload_len = (len_at - SEAL_MAGIC.len()) as u64;
        for forged in [u64::MAX, payload_len + 1] {
            let mut bytes = sealed.clone();
            bytes[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
            let got = from_sealed_bytes(&bytes);
            assert!(matches!(got, Err(MetaError::CorruptSnapshot { .. })), "{forged}: {got:?}");
        }
    }

    /// A count read from the input must not size an allocation: this
    /// snapshot (magic, one table named "t") claims `u32::MAX` columns and
    /// used to abort the process inside `Vec::with_capacity`.
    #[test]
    fn forged_column_count_is_a_typed_error() {
        let bytes = [&b"SFMETA1\n"[..], &[1, 0, 0, 0], &[1, 0, 0, 0], b"t", &[0xFF; 4]].concat();
        assert!(matches!(from_bytes(&bytes), Err(MetaError::Corrupt { .. })));
    }

    /// The payload of `byte_pin_sealed_snapshot`'s table with `rows` in
    /// place of its one row, under a row count of `count`.
    fn forged_rows(count: u8, rows: &[&[u8]]) -> Vec<u8> {
        let head = [
            &b"SFMETA1\n"[..],
            &[1, 0, 0, 0, 1, 0, 0, 0],
            b"t",
            &[2, 0, 0, 0, 2, 0, 0, 0],
            b"id",
            &[1, 0, 4, 0, 0, 0],
            b"name",
            &[3, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
            &[count, 0, 0, 0, 0, 0, 0, 0],
        ];
        [&head[..], rows].concat().concat()
    }

    const ROW_7: &[u8] = &[1, 7, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 0, b'x'];
    const ROW_8: &[u8] = &[1, 8, 0, 0, 0, 0, 0, 0, 0, 0];
    /// A text id: the wrong type for column `id`.
    const ROW_TEXT_ID: &[u8] = &[3, 1, 0, 0, 0, b'9', 0];

    /// `from_bytes` on `payload` fails with `want`; sealed, it fails with
    /// `CorruptSnapshot`.
    fn assert_refused(payload: &[u8], want: MetaError) {
        assert_eq!(from_bytes(payload).err(), Some(want));
        let mut sealed = payload.to_vec();
        frame::seal_trailer(&mut sealed, SEAL_MAGIC);
        let got = from_sealed_bytes(&sealed);
        assert!(matches!(got, Err(MetaError::CorruptSnapshot { .. })), "{got:?}");
    }

    /// A repeated primary key is `DuplicateKey`, also when a later row is
    /// mistyped or cut short: the first fault in row order is reported.
    #[test]
    fn forged_duplicate_primary_key_is_a_typed_error() {
        assert_eq!(from_bytes(&forged_rows(2, &[ROW_7, ROW_8])).unwrap().len(), 1);
        let dup = MetaError::DuplicateKey { key: "7".into() };
        assert_refused(&forged_rows(3, &[ROW_7, ROW_8, ROW_7]), dup.clone());
        assert_refused(&forged_rows(3, &[ROW_7, ROW_7, ROW_TEXT_ID]), dup.clone());
        assert_refused(&forged_rows(3, &[ROW_7, ROW_7, &ROW_8[..4]]), dup);
    }

    /// A row of the wrong type is `TypeMismatch`, also when a later row
    /// repeats a key.
    #[test]
    fn forged_row_type_is_a_typed_error() {
        let mismatch = MetaError::TypeMismatch {
            column: "id".into(),
            expected: ValueType::Int,
            got: ValueType::Text,
        };
        assert_refused(&forged_rows(1, &[ROW_TEXT_ID]), mismatch.clone());
        assert_refused(&forged_rows(3, &[ROW_7, ROW_TEXT_ID, ROW_7]), mismatch);
    }

    /// The atomic-save contract: a crash that leaves a torn temp file (or
    /// dies before the rename) must leave the previous snapshot loadable.
    #[test]
    fn torn_save_leaves_the_previous_snapshot_intact() {
        let dir = std::env::temp_dir().join("sciflow-metastore-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.sfm");
        let v1 = sample_db();
        save(&v1, &path).unwrap();

        // Simulate a crash mid-save of v2: the temp sibling holds a torn
        // prefix and the rename never happened.
        let mut v2 = sample_db();
        v2.table_mut("products")
            .unwrap()
            .insert(vec![
                Value::Int(999),
                Value::Text("late".into()),
                Value::Null,
                Value::Blob(vec![]),
                Value::Date(20060101),
            ])
            .unwrap();
        let torn = &sealed_bytes(&v2)[..100];
        std::fs::write(frame::temp_sibling(&path), torn).unwrap();

        let recovered = load(&path).unwrap();
        assert_eq!(recovered.table("products").unwrap().len(), 50, "v1 must survive");
        // And a torn file at the *final* path is rejected, typed.
        std::fs::write(&path, torn).unwrap();
        assert!(matches!(load(&path), Err(MetaError::CorruptSnapshot { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_cleans_up_its_temp_file() {
        let dir = std::env::temp_dir().join("sciflow-metastore-noclobber-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.sfm");
        save(&sample_db(), &path).unwrap();
        assert!(!frame::temp_sibling(&path).exists(), "temp file must not linger after save");
        std::fs::remove_dir_all(&dir).ok();
    }
}
