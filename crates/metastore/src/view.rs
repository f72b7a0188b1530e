//! Named views: stored subset definitions and their materializations.
//!
//! WebLab's access layer provides "a facility to extract subsets of the
//! collection and store them as database views, and tools for common
//! analyses of subsets". A [`ViewCatalog`] stores named queries against a
//! base table; [`ViewCatalog::materialize`] snapshots a view's current result set into a
//! standalone table that researchers can download and analyze offline
//! ("most researchers will download sets of partially analyzed data to
//! their own computers").

use std::collections::BTreeMap;

use crate::db::Database;
use crate::error::{MetaError, MetaResult};
use crate::query::{select, Query};
use crate::schema::Schema;

/// A named, stored subset definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    /// The base table the view selects from.
    pub base_table: String,
    pub query: Query,
    /// Free-text description for the catalog listing.
    pub description: String,
}

/// The catalog of registered views.
#[derive(Debug, Clone, Default)]
pub struct ViewCatalog {
    views: BTreeMap<String, ViewDef>,
}

impl ViewCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view; the name must be fresh.
    pub fn create_view(&mut self, def: ViewDef) -> MetaResult<()> {
        if self.views.contains_key(&def.name) {
            return Err(MetaError::DuplicateTable { name: def.name });
        }
        self.views.insert(def.name.clone(), def);
        Ok(())
    }

    pub fn view(&self, name: &str) -> MetaResult<&ViewDef> {
        self.views.get(name).ok_or_else(|| MetaError::UnknownTable { name: name.to_string() })
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Evaluate a view against the current database state (a *virtual*
    /// read: nothing is stored).
    pub fn evaluate(&self, db: &Database, name: &str) -> MetaResult<Vec<Vec<crate::Value>>> {
        let def = self.view(name)?;
        let table = db.table(&def.base_table)?;
        Ok(select(table, &def.query)?.rows)
    }

    /// Materialize a view into table `target` with the base table's schema
    /// (views with projections keep the projected columns).
    ///
    /// The snapshot is frozen: later changes to the base table do not affect
    /// it — exactly what a researcher needs for a reproducible extract.
    pub fn materialize(&self, db: &mut Database, name: &str, target: &str) -> MetaResult<usize> {
        let def = self.view(name)?.clone();
        let base_schema = db.table(&def.base_table)?.schema().clone();
        let schema = match &def.query.projection {
            None => base_schema,
            Some(cols) => {
                let defs: Vec<_> = cols.iter().map(|&c| base_schema.columns()[c].clone()).collect();
                // Projections may drop the key column; materialized extracts
                // are plain row sets with no primary key.
                Schema::new(defs)?
            }
        };
        let rows = self.evaluate(db, name)?;
        let n = rows.len();
        let table = db.create_table(target, schema)?;
        for row in rows {
            table.insert(row)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::schema::ColumnDef;
    use crate::value::{Value, ValueType};

    fn db_with_pages() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("domain", ValueType::Text),
            ColumnDef::new("size", ValueType::Int),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let t = db.create_table("pages", schema).unwrap();
        t.create_index("domain").unwrap();
        for i in 0..30i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Text(format!("site{}.org", i % 3)),
                Value::Int(i * 100),
            ])
            .unwrap();
        }
        db
    }

    fn edu_view() -> ViewDef {
        ViewDef {
            name: "site1-pages".into(),
            base_table: "pages".into(),
            query: Query::filter(Predicate::Eq(1, Value::Text("site1.org".into()))),
            description: "all captures from site1.org".into(),
        }
    }

    #[test]
    fn create_and_evaluate() {
        let db = db_with_pages();
        let mut cat = ViewCatalog::new();
        cat.create_view(edu_view()).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(matches!(cat.create_view(edu_view()), Err(MetaError::DuplicateTable { .. })));
        let rows = cat.evaluate(&db, "site1-pages").unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[1] == Value::Text("site1.org".into())));
        assert!(cat.evaluate(&db, "site2-pages").is_err());
    }

    #[test]
    fn materialized_views_are_frozen_snapshots() {
        let mut db = db_with_pages();
        let mut cat = ViewCatalog::new();
        cat.create_view(edu_view()).unwrap();
        let n = cat.materialize(&mut db, "site1-pages", "extract1").unwrap();
        assert_eq!(n, 10);
        assert_eq!(db.table("extract1").unwrap().len(), 10);

        // Mutate the base table; the extract must not move.
        db.table_mut("pages")
            .unwrap()
            .insert(vec![Value::Int(100), Value::Text("site1.org".into()), Value::Int(0)])
            .unwrap();
        assert_eq!(db.table("extract1").unwrap().len(), 10);
        // But a fresh evaluation sees the new row.
        assert_eq!(cat.evaluate(&db, "site1-pages").unwrap().len(), 11);
    }

    #[test]
    fn projected_views_materialize_projected_schema() {
        let mut db = db_with_pages();
        let mut cat = ViewCatalog::new();
        cat.create_view(ViewDef {
            name: "sizes".into(),
            base_table: "pages".into(),
            query: Query::all().project(vec![1, 2]),
            description: "domain/size pairs".into(),
        })
        .unwrap();
        cat.materialize(&mut db, "sizes", "sizes_snapshot").unwrap();
        let t = db.table("sizes_snapshot").unwrap();
        assert_eq!(t.schema().arity(), 2);
        assert_eq!(t.schema().columns()[0].name, "domain");
        assert_eq!(t.len(), 30);
    }

    #[test]
    fn unknown_base_table_fails_cleanly() {
        let mut db = db_with_pages();
        let mut cat = ViewCatalog::new();
        cat.create_view(ViewDef {
            name: "broken".into(),
            base_table: "nope".into(),
            query: Query::all(),
            description: String::new(),
        })
        .unwrap();
        assert!(cat.evaluate(&db, "broken").is_err());
        assert!(cat.materialize(&mut db, "broken", "x").is_err());
    }
}
