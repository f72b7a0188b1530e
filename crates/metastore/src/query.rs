//! Predicates, queries, and a small rule-based planner.
//!
//! The paper's metadata workloads are selections over indexed columns: "the
//! database ... currently supports interactive groupings of candidate
//! signals, tests for correlation or uniqueness of the candidates" (Arecibo),
//! EventStore grade lookups by run range, and WebLab subset extraction by
//! domain/date/type. [`Query`] supports exactly that shape: a boolean
//! predicate tree, projection, ordering and limit, with index-backed
//! evaluation whenever an `Eq`/`Range` conjunct touches an indexed column.

use crate::error::MetaResult;
use crate::table::{RowId, Table};
use crate::value::Value;

/// A boolean predicate over a row. Columns are referenced by index; use
/// [`crate::schema::Schema::column_index`] to resolve names.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// `row[col] == value` (null never equals anything).
    Eq(usize, Value),
    /// `lo <= row[col] <= hi`, either bound optional. Null never matches.
    Range {
        col: usize,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
}

impl Predicate {
    pub fn matches(&self, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(col, v) => {
                !row[*col].is_null()
                    && !v.is_null()
                    && row[*col].total_cmp(v) == std::cmp::Ordering::Equal
            }
            Predicate::Range { col, lo, hi } => {
                let val = &row[*col];
                if val.is_null() {
                    return false;
                }
                if let Some(lo) = lo {
                    if val.total_cmp(lo) == std::cmp::Ordering::Less {
                        return false;
                    }
                }
                if let Some(hi) = hi {
                    if val.total_cmp(hi) == std::cmp::Ordering::Greater {
                        return false;
                    }
                }
                true
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(row)),
            Predicate::Not(p) => !p.matches(row),
        }
    }

    /// Find an index-usable conjunct: the predicate itself, or a member of a
    /// top-level `And`, that is an `Eq` or `Range` on `table`-indexed column.
    fn index_candidates<'a>(&'a self, table: &Table) -> Option<&'a Predicate> {
        let usable = |p: &Predicate| match p {
            Predicate::Eq(col, _) | Predicate::Range { col, .. } => table.has_index(*col),
            _ => false,
        };
        if usable(self) {
            return Some(self);
        }
        if let Predicate::And(ps) = self {
            // Prefer Eq (most selective), then Range.
            if let Some(p) = ps.iter().find(|p| matches!(p, Predicate::Eq(..)) && usable(p)) {
                return Some(p);
            }
            if let Some(p) = ps.iter().find(|p| usable(p)) {
                return Some(p);
            }
        }
        None
    }
}

/// How a query was executed — exposed so tests and experiments can assert
/// that the planner chose an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    FullScan,
    IndexEq,
    IndexRange,
}

/// A select query: predicate, optional projection/order/limit.
#[derive(Debug, Clone)]
pub struct Query {
    pub predicate: Predicate,
    /// Columns to return; `None` returns the whole row.
    pub projection: Option<Vec<usize>>,
    /// Order by column; `desc` reverses.
    pub order_by: Option<(usize, bool)>,
    pub limit: Option<usize>,
}

impl Query {
    pub fn all() -> Self {
        Query { predicate: Predicate::True, projection: None, order_by: None, limit: None }
    }

    pub fn filter(predicate: Predicate) -> Self {
        Query { predicate, projection: None, order_by: None, limit: None }
    }

    pub fn project(mut self, cols: Vec<usize>) -> Self {
        self.projection = Some(cols);
        self
    }

    pub fn order_by(mut self, col: usize, desc: bool) -> Self {
        self.order_by = Some((col, desc));
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

/// Result of [`select`]: rows plus the access path the planner took.
#[derive(Debug, Clone)]
pub struct Selected {
    pub rows: Vec<Vec<Value>>,
    pub path: AccessPath,
    /// Rows examined before predicate filtering — the I/O proxy.
    pub examined: usize,
}

/// Execute `query` against `table`.
pub fn select(table: &Table, query: &Query) -> MetaResult<Selected> {
    // Plan: pick an indexed conjunct if there is one.
    let (candidate_ids, path): (Option<Vec<RowId>>, AccessPath) =
        match query.predicate.index_candidates(table) {
            Some(Predicate::Eq(col, v)) => (table.index_eq(*col, v), AccessPath::IndexEq),
            Some(Predicate::Range { col, lo, hi }) => {
                (table.index_range(*col, lo.as_ref(), hi.as_ref()), AccessPath::IndexRange)
            }
            _ => (None, AccessPath::FullScan),
        };

    let mut examined = 0usize;
    let mut matched: Vec<&[Value]> = Vec::new();
    match &candidate_ids {
        Some(ids) => {
            for &id in ids {
                if let Some(row) = table.get(id) {
                    examined += 1;
                    if query.predicate.matches(row) {
                        matched.push(row);
                    }
                }
            }
        }
        None => {
            for (_, row) in table.scan() {
                examined += 1;
                if query.predicate.matches(row) {
                    matched.push(row);
                }
            }
        }
    }
    let path = if candidate_ids.is_some() { path } else { AccessPath::FullScan };

    if let Some((col, desc)) = query.order_by {
        matched.sort_by(|a, b| {
            let ord = a[col].total_cmp(&b[col]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = query.limit {
        matched.truncate(n);
    }
    let rows = matched
        .into_iter()
        .map(|row| match &query.projection {
            Some(cols) => cols.iter().map(|&c| row[c].clone()).collect(),
            None => row.to_vec(),
        })
        .collect();
    Ok(Selected { rows, path, examined })
}

/// Count of live rows per distinct value of `col` — the GROUP BY shape used
/// by stratified sampling and candidate grouping.
pub fn group_count(table: &Table, col: usize) -> Vec<(Value, usize)> {
    use crate::value::OrdValue;
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<OrdValue, usize> = BTreeMap::new();
    for (_, row) in table.scan() {
        *counts.entry(OrdValue(row[col].clone())).or_default() += 1;
    }
    counts.into_iter().map(|(k, v)| (k.0, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::ValueType;

    fn candidates_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("dm", ValueType::Real),
            ColumnDef::new("beam", ValueType::Int),
            ColumnDef::new("class", ValueType::Text).nullable(),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let mut t = Table::new("candidates", schema);
        t.create_index("beam").unwrap();
        for i in 0..100i64 {
            t.insert(vec![
                Value::Int(i),
                Value::Real(i as f64 * 2.5),
                Value::Int(i % 7),
                if i % 10 == 0 { Value::Null } else { Value::Text(format!("c{}", i % 3)) },
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn eq_on_indexed_column_uses_index() {
        let t = candidates_table();
        let q = Query::filter(Predicate::Eq(2, Value::Int(3)));
        let r = select(&t, &q).unwrap();
        assert_eq!(r.path, AccessPath::IndexEq);
        assert_eq!(r.rows.len(), 100 / 7 + usize::from(3 < 100 % 7));
        assert!(r.examined < 100, "index should avoid full scan");
    }

    #[test]
    fn range_on_pk_uses_index() {
        let t = candidates_table();
        let q = Query::filter(Predicate::Range {
            col: 0,
            lo: Some(Value::Int(10)),
            hi: Some(Value::Int(19)),
        });
        let r = select(&t, &q).unwrap();
        assert_eq!(r.path, AccessPath::IndexRange);
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.examined, 10);
    }

    #[test]
    fn unindexed_predicate_full_scans() {
        let t = candidates_table();
        let q = Query::filter(Predicate::Range { col: 1, lo: Some(Value::Real(100.0)), hi: None });
        let r = select(&t, &q).unwrap();
        assert_eq!(r.path, AccessPath::FullScan);
        assert_eq!(r.examined, 100);
        assert_eq!(r.rows.len(), 60); // dm = 2.5 i >= 100  ⇔  i >= 40
    }

    #[test]
    fn and_picks_indexed_conjunct() {
        let t = candidates_table();
        let q = Query::filter(Predicate::And(vec![
            Predicate::Range { col: 1, lo: Some(Value::Real(50.0)), hi: None },
            Predicate::Eq(2, Value::Int(0)),
        ]));
        let r = select(&t, &q).unwrap();
        assert_eq!(r.path, AccessPath::IndexEq);
        for row in &r.rows {
            assert_eq!(row[2], Value::Int(0));
            assert!(row[1].total_cmp(&Value::Real(50.0)).is_ge());
        }
    }

    #[test]
    fn projection_order_limit() {
        let t = candidates_table();
        let q = Query::all().project(vec![0, 1]).order_by(0, true).limit(3);
        let r = select(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0], vec![Value::Int(99), Value::Real(247.5)]);
        assert_eq!(r.rows[0].len(), 2);
    }

    #[test]
    fn null_semantics() {
        let t = candidates_table();
        // Eq never matches null.
        let eq_null = select(&t, &Query::filter(Predicate::Eq(3, Value::Null))).unwrap();
        assert!(eq_null.rows.is_empty());
    }

    #[test]
    fn or_predicate() {
        let t = candidates_table();
        let q = Query::filter(Predicate::Or(vec![
            Predicate::Eq(0, Value::Int(1)),
            Predicate::Eq(0, Value::Int(2)),
        ]));
        let r = select(&t, &q).unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn group_counts() {
        let t = candidates_table();
        let groups = group_count(&t, 2);
        assert_eq!(groups.len(), 7);
        let total: usize = groups.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn eq_on_missing_key_examines_nothing() {
        let t = candidates_table();
        let q = Query::filter(Predicate::Eq(0, Value::Int(1_000_000)));
        let r = select(&t, &q).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.examined, 0);
    }
}
