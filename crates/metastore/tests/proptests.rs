//! Property-based tests: the table against a model, snapshot persistence,
//! and transaction atomicity under injected failures.

use std::collections::HashMap;

use sciflow_metastore::persist::{from_bytes, to_bytes};
use sciflow_metastore::prelude::*;
use sciflow_testkit::{check, Gen};

#[derive(Debug, Clone)]
enum Op1 {
    Insert(i64, i64),
    Update(i64, i64),
    Delete(i64),
    Get(i64),
}

fn op(g: &mut Gen) -> Op1 {
    g.one_of(&[
        |g| Op1::Insert(g.range(0..32), g.any()),
        |g| Op1::Update(g.range(0..32), g.any()),
        |g| Op1::Delete(g.range(0..32)),
        |g| Op1::Get(g.range(0..32)),
    ])
}

fn fresh_table() -> Table {
    let schema =
        Schema::new(vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Int)])
            .expect("valid schema")
            .with_primary_key("k")
            .expect("k exists");
    let mut t = Table::new("t", schema);
    t.create_index("v").expect("v exists");
    t
}

/// The table agrees with a HashMap model under arbitrary op sequences,
/// and its secondary index stays consistent with its contents.
#[test]
fn table_matches_model() {
    check("table_matches_model", 64, |g| {
        let ops = g.vec(0..200, op);
        let mut table = fresh_table();
        let mut model: HashMap<i64, i64> = HashMap::new();
        for op in ops {
            match op {
                Op1::Insert(k, v) => {
                    let r = table.insert(vec![Value::Int(k), Value::Int(v)]);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        let dup = matches!(r, Err(MetaError::DuplicateKey { .. }));
                        assert!(dup);
                    }
                }
                Op1::Update(k, v) => {
                    let r = table.update_by_key(&Value::Int(k), vec![Value::Int(k), Value::Int(v)]);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(k) {
                        assert!(r.is_ok());
                        e.insert(v);
                    } else {
                        let missing = matches!(r, Err(MetaError::RowNotFound { .. }));
                        assert!(missing);
                    }
                }
                Op1::Delete(k) => {
                    let r = table.delete_by_key(&Value::Int(k));
                    assert_eq!(r.is_ok(), model.remove(&k).is_some());
                }
                Op1::Get(k) => {
                    let got = table.get_by_key(&Value::Int(k)).expect("pk exists");
                    match model.get(&k) {
                        Some(&v) => {
                            assert_eq!(got.expect("present")[1].as_int(), Some(v));
                        }
                        None => assert!(got.is_none()),
                    }
                }
            }
        }
        assert_eq!(table.len(), model.len());
        // Index consistency: querying by every live value finds the rows.
        for (&k, &v) in &model {
            let got = select(&table, &Query::filter(Predicate::Eq(1, Value::Int(v))))
                .expect("select works");
            assert_eq!(got.path, AccessPath::IndexEq);
            assert!(got.rows.iter().any(|r| r[0].as_int() == Some(k)));
        }
    });
}

/// Any database state survives the binary snapshot round trip.
#[test]
fn persistence_roundtrip() {
    check("persistence_roundtrip", 64, |g| {
        let rows = g.vec(0..80, |g| (g.range(0i64..1000), g.any::<i64>()));
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("k", ValueType::Int),
            ColumnDef::new("v", ValueType::Int),
        ])
        .expect("valid")
        .with_primary_key("k")
        .expect("k exists");
        let t = db.create_table("t", schema).expect("fresh db");
        t.create_index("v").expect("v exists");
        let mut seen = std::collections::HashSet::new();
        for (k, v) in rows {
            if seen.insert(k) {
                t.insert(vec![Value::Int(k), Value::Int(v)]).expect("unique");
            }
        }
        let restored = from_bytes(&to_bytes(&db)).expect("roundtrip");
        let a: Vec<Vec<Value>> =
            db.table("t").expect("t").scan().map(|(_, r)| r.to_vec()).collect();
        let b: Vec<Vec<Value>> =
            restored.table("t").expect("t").scan().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(a, b);
    });
}

/// A transaction that fails anywhere leaves no trace, no matter where
/// the failure lands.
#[test]
fn failed_transactions_are_invisible() {
    check("failed_transactions_are_invisible", 64, |g| {
        let good = g.vec(1..30, |g| (g.range(0i64..40), g.any::<i64>()));
        let fail_at = g.range(0usize..30);
        let mut db = Database::new();
        let schema = Schema::new(vec![
            ColumnDef::new("k", ValueType::Int),
            ColumnDef::new("v", ValueType::Int),
        ])
        .expect("valid")
        .with_primary_key("k")
        .expect("k exists");
        db.create_table("t", schema).expect("fresh db");
        // Seed a row the transaction will collide with.
        db.table_mut("t").expect("t").insert(vec![Value::Int(-1), Value::Int(0)]).expect("fresh");
        let snapshot = to_bytes(&db);

        let mut txn = Transaction::new();
        let mut inserted = std::collections::HashSet::new();
        for (i, (k, v)) in good.iter().enumerate() {
            if i == fail_at % good.len() {
                txn.insert("t", vec![Value::Int(-1), Value::Int(*v)]); // duplicate → abort
            }
            if inserted.insert(*k) {
                txn.insert("t", vec![Value::Int(*k), Value::Int(*v)]);
            }
        }
        assert!(db.execute(&txn).is_err());
        assert_eq!(to_bytes(&db), snapshot, "state changed after aborted txn");
    });
}
