//! The database: a named collection of tables with atomic batch
//! transactions.
//!
//! The EventStore experience reported in the paper is the design driver:
//! "Rather than having long-running jobs hold lengthy open transactions on
//! the main data repository, it proved simpler to create a personal
//! EventStore for the operation, which is merged into the larger store upon
//! successful completion." Merging needs exactly one primitive from the
//! metadata store: an atomic, all-or-nothing batch apply — [`Transaction`].

use std::collections::BTreeMap;

use crate::error::{MetaError, MetaResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// One mutation within a transaction.
#[derive(Debug, Clone)]
pub enum Op {
    Insert { table: String, row: Vec<Value> },
    UpdateByKey { table: String, key: Value, row: Vec<Value> },
    DeleteByKey { table: String, key: Value },
}

/// An ordered batch of mutations applied atomically.
#[derive(Debug, Clone, Default)]
pub struct Transaction {
    ops: Vec<Op>,
}

impl Transaction {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, table: impl Into<String>, row: Vec<Value>) -> &mut Self {
        self.ops.push(Op::Insert { table: table.into(), row });
        self
    }

    pub fn update(&mut self, table: impl Into<String>, key: Value, row: Vec<Value>) -> &mut Self {
        self.ops.push(Op::UpdateByKey { table: table.into(), key, row });
        self
    }

    pub fn delete(&mut self, table: impl Into<String>, key: Value) -> &mut Self {
        self.ops.push(Op::DeleteByKey { table: table.into(), key });
        self
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Inverse operations recorded while a transaction applies, replayed in
/// reverse on failure.
enum Undo {
    DeleteInserted { table: String, key: Value },
    RestoreUpdated { table: String, key: Value, old: Vec<Value> },
    ReinsertDeleted { table: String, old: Vec<Value> },
}

/// A collection of tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> MetaResult<&mut Table> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(MetaError::DuplicateTable { name });
        }
        let table = Table::new(name.clone(), schema);
        Ok(self.tables.entry(name).or_insert(table))
    }

    pub fn table(&self, name: &str) -> MetaResult<&Table> {
        self.tables.get(name).ok_or_else(|| MetaError::UnknownTable { name: name.to_string() })
    }

    pub fn table_mut(&mut self, name: &str) -> MetaResult<&mut Table> {
        self.tables.get_mut(name).ok_or_else(|| MetaError::UnknownTable { name: name.to_string() })
    }

    pub(crate) fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Apply `txn` atomically: either every operation succeeds, or the
    /// database is left exactly as it was and the first failure is returned
    /// wrapped in [`MetaError::TxnAborted`].
    pub fn execute(&mut self, txn: &Transaction) -> MetaResult<()> {
        let mut undo: Vec<Undo> = Vec::with_capacity(txn.ops.len());
        for op in &txn.ops {
            let result = self.apply_one(op, &mut undo);
            if let Err(cause) = result {
                self.rollback(undo);
                return Err(MetaError::TxnAborted { cause: Box::new(cause) });
            }
        }
        Ok(())
    }

    fn apply_one(&mut self, op: &Op, undo: &mut Vec<Undo>) -> MetaResult<()> {
        match op {
            Op::Insert { table, row } => {
                let t = self.table_mut(table)?;
                let pk = t.schema().primary_key();
                t.insert(row.clone())?;
                if let Some(pk) = pk {
                    undo.push(Undo::DeleteInserted { table: table.clone(), key: row[pk].clone() });
                }
                Ok(())
            }
            Op::UpdateByKey { table, key, row } => {
                let t = self.table_mut(table)?;
                let pk = t
                    .schema()
                    .primary_key()
                    .ok_or_else(|| MetaError::NoPrimaryKey { table: table.clone() })?;
                let old = t.update_by_key(key, row.clone())?;
                undo.push(Undo::RestoreUpdated { table: table.clone(), key: row[pk].clone(), old });
                Ok(())
            }
            Op::DeleteByKey { table, key } => {
                let t = self.table_mut(table)?;
                let old = t.delete_by_key(key)?;
                undo.push(Undo::ReinsertDeleted { table: table.clone(), old });
                Ok(())
            }
        }
    }

    fn rollback(&mut self, undo: Vec<Undo>) {
        for action in undo.into_iter().rev() {
            // Undo actions operate on state this transaction created, so they
            // cannot fail unless the store is corrupted — treat that as a bug.
            match action {
                Undo::DeleteInserted { table, key } => {
                    self.table_mut(&table)
                        .and_then(|t| t.delete_by_key(&key))
                        .expect("rollback of insert cannot fail");
                }
                Undo::RestoreUpdated { table, key, old } => {
                    self.table_mut(&table)
                        .and_then(|t| t.update_by_key(&key, old))
                        .expect("rollback of update cannot fail");
                }
                Undo::ReinsertDeleted { table, old } => {
                    self.table_mut(&table)
                        .and_then(|t| t.insert(old))
                        .expect("rollback of delete cannot fail");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn db_with_runs() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("run", ValueType::Int),
            ColumnDef::new("events", ValueType::Int),
        ])
        .unwrap()
        .with_primary_key("run")
        .unwrap();
        db.create_table("runs", schema).unwrap();
        db
    }

    fn row(run: i64, events: i64) -> Vec<Value> {
        vec![Value::Int(run), Value::Int(events)]
    }

    #[test]
    fn create_refuses_a_duplicate_table() {
        let mut db = db_with_runs();
        assert!(db.table("runs").is_ok());
        assert!(matches!(
            db.create_table("runs", db.table("runs").unwrap().schema().clone()),
            Err(MetaError::DuplicateTable { .. })
        ));
        assert!(db.table("events").is_err());
    }

    #[test]
    fn successful_transaction_applies_all() {
        let mut db = db_with_runs();
        let mut txn = Transaction::new();
        txn.insert("runs", row(1, 100)).insert("runs", row(2, 200));
        db.execute(&txn).unwrap();
        assert_eq!(db.table("runs").unwrap().len(), 2);
    }

    #[test]
    fn failed_transaction_rolls_back_everything() {
        let mut db = db_with_runs();
        db.table_mut("runs").unwrap().insert(row(5, 50)).unwrap();

        let mut txn = Transaction::new();
        txn.insert("runs", row(1, 100))
            .update("runs", Value::Int(5), row(5, 55))
            .delete("runs", Value::Int(5))
            .insert("runs", row(1, 999)); // duplicate key → abort
        let err = db.execute(&txn).unwrap_err();
        assert!(matches!(err, MetaError::TxnAborted { .. }));

        // State exactly as before the transaction.
        let t = db.table("runs").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_by_key(&Value::Int(5)).unwrap().unwrap()[1], Value::Int(50));
        assert!(t.get_by_key(&Value::Int(1)).unwrap().is_none());
    }

    #[test]
    fn rollback_restores_updates_in_reverse_order() {
        let mut db = db_with_runs();
        db.table_mut("runs").unwrap().insert(row(1, 10)).unwrap();
        let mut txn = Transaction::new();
        txn.update("runs", Value::Int(1), row(1, 20))
            .update("runs", Value::Int(1), row(1, 30))
            .insert("runs", row(1, 40)); // fails
        assert!(db.execute(&txn).is_err());
        assert_eq!(
            db.table("runs").unwrap().get_by_key(&Value::Int(1)).unwrap().unwrap()[1],
            Value::Int(10)
        );
    }

    #[test]
    fn unknown_table_aborts() {
        let mut db = db_with_runs();
        let mut txn = Transaction::new();
        txn.insert("runs", row(1, 1)).insert("nope", row(2, 2));
        assert!(db.execute(&txn).is_err());
        assert_eq!(db.table("runs").unwrap().len(), 0);
    }

    #[test]
    fn empty_transaction_is_noop() {
        let mut db = db_with_runs();
        db.execute(&Transaction::new()).unwrap();
        assert_eq!(db.table("runs").unwrap().len(), 0);
    }
}
