//! Row storage with primary-key and secondary B-tree indexes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::error::{MetaError, MetaResult};
use crate::schema::Schema;
use crate::value::{IndexKey, OrdValue, Value};

/// Stable identifier of a row slot within a table. Deleted slots leave
/// tombstones so ids never move.
pub type RowId = usize;

#[derive(Debug, Clone)]
pub(crate) struct SecondaryIndex {
    pub column: usize,
    pub map: BTreeMap<OrdValue, Vec<RowId>>,
}

/// `key` as a borrowed search key for a map keyed by [`OrdValue`].
fn borrowed(key: &Value) -> &dyn IndexKey {
    key
}

impl SecondaryIndex {
    fn insert(&mut self, key: &Value, id: RowId) {
        match self.map.get_mut(borrowed(key)) {
            Some(ids) => ids.push(id),
            None => {
                self.map.insert(OrdValue(key.clone()), vec![id]);
            }
        }
    }

    fn remove(&mut self, key: &Value, id: RowId) {
        if let Some(ids) = self.map.get_mut(borrowed(key)) {
            ids.retain(|&x| x != id);
            if ids.is_empty() {
                self.map.remove(borrowed(key));
            }
        }
    }
}

/// A table: schema, rows, primary-key map, and secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Option<Vec<Value>>>,
    live: usize,
    pk_map: BTreeMap<OrdValue, RowId>,
    pub(crate) indexes: Vec<SecondaryIndex>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            live: 0,
            pk_map: BTreeMap::new(),
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Create a secondary index on `column`. Existing rows are indexed
    /// immediately; idempotent for an already-indexed column.
    pub fn create_index(&mut self, column: &str) -> MetaResult<()> {
        let col = self.schema.column_index(column)?;
        if self.indexes.iter().any(|i| i.column == col) {
            return Ok(());
        }
        let mut idx = SecondaryIndex { column: col, map: BTreeMap::new() };
        for (id, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                idx.insert(&row[col], id);
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    pub fn has_index(&self, col: usize) -> bool {
        self.indexes.iter().any(|i| i.column == col) || self.schema.primary_key() == Some(col)
    }

    /// Insert a row, enforcing schema and primary-key uniqueness.
    pub fn insert(&mut self, row: Vec<Value>) -> MetaResult<RowId> {
        self.schema.validate_row(&row)?;
        if let Some(pk) = self.schema.primary_key() {
            if self.pk_map.contains_key(borrowed(&row[pk])) {
                return Err(MetaError::DuplicateKey { key: row[pk].to_string() });
            }
        }
        let id = self.rows.len();
        if let Some(pk) = self.schema.primary_key() {
            self.pk_map.insert(OrdValue(row[pk].clone()), id);
        }
        for idx in &mut self.indexes {
            idx.insert(&row[idx.column], id);
        }
        self.rows.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Fill an empty table with `rows`, as one [`Table::insert`] each would,
    /// but build the key map and every index from one sort each instead of
    /// one search per row. The error is the one those inserts meet first:
    /// a row that fails to arrive or to validate is reported unless an
    /// earlier row repeats a primary key.
    pub(crate) fn load(
        &mut self,
        rows: impl Iterator<Item = MetaResult<Vec<Value>>>,
    ) -> MetaResult<()> {
        assert!(self.rows.is_empty(), "load fills an empty table");
        let mut failed = Ok(());
        for row in rows {
            match row.and_then(|row| self.schema.validate_row(&row).map(|()| row)) {
                Ok(row) => self.rows.push(Some(row)),
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            }
        }
        self.live = self.rows.len();
        // No tombstones yet, so a row's place in the flattened list is its id.
        let rows = &self.rows;
        let sorted_by = |col: usize| {
            let mut pairs: Vec<(&Value, RowId)> =
                rows.iter().flatten().enumerate().map(|(id, row)| (&row[col], id)).collect();
            pairs.sort_by(|a, b| a.0.total_cmp(b.0)); // stable: ids stay ascending
            pairs
        };
        let keys = self.schema.primary_key().map(sorted_by).unwrap_or_default();
        let repeat = keys
            .windows(2)
            .filter(|w| w[0].0.total_cmp(w[1].0) == Ordering::Equal)
            .min_by_key(|w| w[1].1);
        if let Some(w) = repeat {
            return Err(MetaError::DuplicateKey { key: w[1].0.to_string() });
        }
        failed?;
        self.pk_map = keys.into_iter().map(|(key, id)| (OrdValue(key.clone()), id)).collect();
        for idx in &mut self.indexes {
            let mut groups: Vec<(OrdValue, Vec<RowId>)> = Vec::new();
            for (value, id) in sorted_by(idx.column) {
                match groups.last_mut() {
                    Some((key, ids)) if key.0.total_cmp(value) == Ordering::Equal => ids.push(id),
                    _ => groups.push((OrdValue(value.clone()), vec![id])),
                }
            }
            idx.map = groups.into_iter().collect();
        }
        Ok(())
    }

    pub fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id).and_then(|r| r.as_deref())
    }

    /// Look up a row by primary key.
    pub fn get_by_key(&self, key: &Value) -> MetaResult<Option<&[Value]>> {
        if self.schema.primary_key().is_none() {
            return Err(MetaError::NoPrimaryKey { table: self.name.clone() });
        }
        Ok(self.pk_map.get(borrowed(key)).and_then(|&id| self.get(id)))
    }

    /// Replace the row with primary key `key`. The new row may change the
    /// key itself (uniqueness re-checked). Returns the old row. An index
    /// whose value the update leaves equal is not touched, so the row keeps
    /// its place among the ids of that value.
    pub fn update_by_key(&mut self, key: &Value, row: Vec<Value>) -> MetaResult<Vec<Value>> {
        let pk = self
            .schema
            .primary_key()
            .ok_or_else(|| MetaError::NoPrimaryKey { table: self.name.clone() })?;
        self.schema.validate_row(&row)?;
        let id = *self
            .pk_map
            .get(borrowed(key))
            .ok_or_else(|| MetaError::RowNotFound { key: key.to_string() })?;
        let new_key = &row[pk];
        let moved = new_key.total_cmp(key) != Ordering::Equal;
        if moved && self.pk_map.contains_key(borrowed(new_key)) {
            return Err(MetaError::DuplicateKey { key: new_key.to_string() });
        }
        let old = self.rows[id].take().expect("pk map points at live row");
        if moved {
            self.pk_map.remove(borrowed(key));
            self.pk_map.insert(OrdValue(new_key.clone()), id);
        }
        for idx in &mut self.indexes {
            let (was, now) = (&old[idx.column], &row[idx.column]);
            if was.total_cmp(now) != Ordering::Equal {
                idx.remove(was, id);
                idx.insert(now, id);
            }
        }
        self.rows[id] = Some(row);
        Ok(old)
    }

    /// Delete the row with primary key `key`, returning it.
    pub fn delete_by_key(&mut self, key: &Value) -> MetaResult<Vec<Value>> {
        if self.schema.primary_key().is_none() {
            return Err(MetaError::NoPrimaryKey { table: self.name.clone() });
        }
        let id = self
            .pk_map
            .remove(borrowed(key))
            .ok_or_else(|| MetaError::RowNotFound { key: key.to_string() })?;
        let old = self.rows[id].take().expect("pk map points at live row");
        for idx in &mut self.indexes {
            idx.remove(&old[idx.column], id);
        }
        self.live -= 1;
        Ok(old)
    }

    /// Iterate over live rows in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().enumerate().filter_map(|(id, r)| r.as_deref().map(|row| (id, row)))
    }

    /// Row ids whose indexed `col` equals `key`, if an index (or the primary
    /// key) covers it. `None` means no index available.
    pub(crate) fn index_eq(&self, col: usize, key: &Value) -> Option<Vec<RowId>> {
        if self.schema.primary_key() == Some(col) {
            return Some(self.pk_map.get(borrowed(key)).map(|&id| vec![id]).unwrap_or_default());
        }
        self.indexes
            .iter()
            .find(|i| i.column == col)
            .map(|i| i.map.get(borrowed(key)).cloned().unwrap_or_default())
    }

    /// Row ids whose indexed `col` lies in `[lo, hi]` (either bound may be
    /// open). `None` means no index available.
    pub(crate) fn index_range(
        &self,
        col: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<RowId>> {
        use std::ops::Bound;
        let bounds = (
            lo.map_or(Bound::Unbounded, |v| Bound::Included(borrowed(v))),
            hi.map_or(Bound::Unbounded, |v| Bound::Included(borrowed(v))),
        );
        if self.schema.primary_key() == Some(col) {
            return Some(self.pk_map.range::<dyn IndexKey, _>(bounds).map(|(_, &id)| id).collect());
        }
        self.indexes.iter().find(|i| i.column == col).map(|i| {
            i.map
                .range::<dyn IndexKey, _>(bounds)
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn runs_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("run", ValueType::Int),
            ColumnDef::new("events", ValueType::Int),
            ColumnDef::new("grade", ValueType::Text),
        ])
        .unwrap()
        .with_primary_key("run")
        .unwrap();
        Table::new("runs", schema)
    }

    fn row(run: i64, events: i64, grade: &str) -> Vec<Value> {
        vec![Value::Int(run), Value::Int(events), Value::Text(grade.into())]
    }

    #[test]
    fn insert_get_update_delete() {
        let mut t = runs_table();
        t.insert(row(1, 100_000, "physics")).unwrap();
        t.insert(row(2, 15_000, "raw")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_by_key(&Value::Int(2)).unwrap().unwrap()[1], Value::Int(15_000));
        let old = t.update_by_key(&Value::Int(2), row(2, 16_000, "physics")).unwrap();
        assert_eq!(old[1], Value::Int(15_000));
        let gone = t.delete_by_key(&Value::Int(1)).unwrap();
        assert_eq!(gone[2], Value::Text("physics".into()));
        assert_eq!(t.len(), 1);
        assert!(t.get_by_key(&Value::Int(1)).unwrap().is_none());
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = runs_table();
        t.insert(row(7, 1, "raw")).unwrap();
        assert!(matches!(t.insert(row(7, 2, "raw")), Err(MetaError::DuplicateKey { .. })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_missing_row_errors() {
        let mut t = runs_table();
        assert!(matches!(
            t.update_by_key(&Value::Int(9), row(9, 1, "raw")),
            Err(MetaError::RowNotFound { .. })
        ));
        assert!(matches!(t.delete_by_key(&Value::Int(9)), Err(MetaError::RowNotFound { .. })));
    }

    #[test]
    fn update_changing_key_checks_uniqueness() {
        let mut t = runs_table();
        t.insert(row(1, 1, "a")).unwrap();
        t.insert(row(2, 2, "b")).unwrap();
        assert!(matches!(
            t.update_by_key(&Value::Int(1), row(2, 1, "a")),
            Err(MetaError::DuplicateKey { .. })
        ));
        // Moving to a fresh key works and frees the old one.
        t.update_by_key(&Value::Int(1), row(3, 1, "a")).unwrap();
        assert!(t.get_by_key(&Value::Int(1)).unwrap().is_none());
        assert!(t.get_by_key(&Value::Int(3)).unwrap().is_some());
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut t = runs_table();
        t.create_index("grade").unwrap();
        t.insert(row(1, 1, "raw")).unwrap();
        t.insert(row(2, 2, "physics")).unwrap();
        t.insert(row(3, 3, "physics")).unwrap();
        let grade_col = t.schema().column_index("grade").unwrap();
        assert_eq!(t.index_eq(grade_col, &Value::Text("physics".into())).unwrap().len(), 2);
        t.delete_by_key(&Value::Int(2)).unwrap();
        assert_eq!(t.index_eq(grade_col, &Value::Text("physics".into())).unwrap().len(), 1);
        t.update_by_key(&Value::Int(3), row(3, 3, "raw")).unwrap();
        assert!(t.index_eq(grade_col, &Value::Text("physics".into())).unwrap().is_empty());
        assert_eq!(t.index_eq(grade_col, &Value::Text("raw".into())).unwrap().len(), 2);
    }

    #[test]
    fn an_update_moves_an_index_entry_only_when_its_value_changes() {
        let mut t = runs_table();
        t.create_index("grade").unwrap();
        for run in 1..=4 {
            t.insert(row(run, run, "raw")).unwrap();
        }
        let grade = t.schema().column_index("grade").unwrap();
        let ids = |t: &Table, g: &str| t.index_eq(grade, &Value::Text(g.into())).unwrap();
        // Run 2 (row id 1) keeps its grade: every id of "raw" stays in place.
        t.update_by_key(&Value::Int(2), row(2, 99, "raw")).unwrap();
        assert_eq!(ids(&t, "raw"), [0, 1, 2, 3]);
        // Run 2 changes grade: only its id leaves "raw".
        t.update_by_key(&Value::Int(2), row(2, 99, "physics")).unwrap();
        assert_eq!(ids(&t, "raw"), [0, 2, 3]);
        assert_eq!(ids(&t, "physics"), [1]);
    }

    /// `load` leaves the table, or fails with the error, that one `insert`
    /// per row up to the first failure gives, wherever repeated keys, a
    /// mistyped row and a row that fails to arrive fall.
    #[test]
    fn load_matches_one_insert_per_row() {
        sciflow_testkit::check("load_matches_one_insert_per_row", 64, |g| {
            let rows = g.vec(0..40, |g| {
                let run = g.range(0i64..60);
                match g.range(0u8..20) {
                    0 => Err(MetaError::Corrupt { detail: format!("run {run} cut short") }),
                    1 => Ok(vec![Value::Int(run), Value::Text("many".into()), Value::Null]),
                    _ => Ok(row(run, g.range(0i64..4), ["raw", "physics"][g.range(0usize..2)])),
                }
            });
            let fresh = || {
                let mut t = runs_table();
                t.create_index("grade").unwrap();
                t
            };
            let mut inserted = fresh();
            let want = rows.iter().cloned().try_for_each(|r| inserted.insert(r?).map(drop));
            let mut loaded = fresh();
            assert_eq!(loaded.load(rows.into_iter()), want);
            if want.is_err() {
                return;
            }
            assert!(loaded.scan().eq(inserted.scan()));
            assert_eq!(loaded.len(), inserted.len());
            let grade = loaded.schema().column_index("grade").unwrap();
            for key in [Value::Text("raw".into()), Value::Text("physics".into())] {
                assert_eq!(loaded.index_eq(grade, &key), inserted.index_eq(grade, &key));
            }
            assert_eq!(loaded.index_range(0, None, None), inserted.index_range(0, None, None));
        });
    }

    #[test]
    fn index_created_after_rows_exist() {
        let mut t = runs_table();
        t.insert(row(1, 10, "raw")).unwrap();
        t.insert(row(2, 20, "raw")).unwrap();
        t.create_index("events").unwrap();
        let col = t.schema().column_index("events").unwrap();
        assert_eq!(t.index_range(col, Some(&Value::Int(15)), None).unwrap(), vec![1]);
        // Idempotent.
        t.create_index("events").unwrap();
        assert_eq!(t.indexes.len(), 1);
    }

    #[test]
    fn pk_range_scan() {
        let mut t = runs_table();
        for i in 0..10 {
            t.insert(row(i, i * 10, "raw")).unwrap();
        }
        let ids = t.index_range(0, Some(&Value::Int(3)), Some(&Value::Int(5))).unwrap();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = runs_table();
        t.insert(row(1, 1, "a")).unwrap();
        t.insert(row(2, 2, "b")).unwrap();
        t.delete_by_key(&Value::Int(1)).unwrap();
        let rows: Vec<_> = t.scan().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Value::Int(2));
    }
}
