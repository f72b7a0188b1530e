//! Stratified sampling of the archive.
//!
//! "For instance, it would be extremely difficult to extract a stratified
//! sample of Web pages from the Internet Archive" — i.e. from the flat
//! cluster layout. With the metadata in a relational store and a domain
//! index, it is a group-by plus per-stratum reservoir sampling. The cost
//! asymmetry is what experiment E11 quantifies.

use sciflow_core::rng::Rng;

use sciflow_metastore::prelude::*;

use crate::error::{WebError, WebResult};

/// The result of a stratified sample.
#[derive(Debug, Clone)]
pub struct StratifiedSample {
    /// (stratum value, sampled rows).
    pub strata: Vec<(Value, Vec<Vec<Value>>)>,
    /// Rows examined to produce the sample (the I/O cost proxy).
    pub rows_examined: usize,
}

impl StratifiedSample {
    pub fn total_sampled(&self) -> usize {
        self.strata.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// Draw up to `per_stratum` rows from each distinct value of `stratum_col`,
/// using the column's index for per-stratum access.
pub fn stratified_sample(
    table: &Table,
    stratum_col: usize,
    per_stratum: usize,
    rng: &mut Rng,
) -> WebResult<StratifiedSample> {
    if per_stratum == 0 {
        return Err(WebError::InvalidConfig { detail: "per_stratum must be positive".into() });
    }
    let groups = group_count(table, stratum_col);
    let mut strata = Vec::with_capacity(groups.len());
    let mut rows_examined = 0usize;
    for (value, _count) in groups {
        let selected = select(table, &Query::filter(Predicate::Eq(stratum_col, value.clone())))?;
        rows_examined += selected.examined;
        // Reservoir sample within the stratum.
        let mut reservoir: Vec<Vec<Value>> = Vec::with_capacity(per_stratum);
        for (i, row) in selected.rows.into_iter().enumerate() {
            if i < per_stratum {
                reservoir.push(row);
            } else {
                let j = rng.gen_range(0..=i);
                if j < per_stratum {
                    reservoir[j] = row;
                }
            }
        }
        strata.push((value, reservoir));
    }
    Ok(StratifiedSample { strata, rows_examined })
}

/// The flat-layout baseline: no index, no grouping — one full scan per
/// stratum discovered on the fly. Returns the same sample shape but reports
/// the (much larger) rows-examined cost a cluster of flat files would pay.
pub fn stratified_sample_flat(
    table: &Table,
    stratum_col: usize,
    per_stratum: usize,
    rng: &mut Rng,
) -> WebResult<StratifiedSample> {
    if per_stratum == 0 {
        return Err(WebError::InvalidConfig { detail: "per_stratum must be positive".into() });
    }
    // Pass 1: discover strata by scanning everything.
    let mut values: Vec<Value> = Vec::new();
    let mut rows_examined = 0usize;
    for (_, row) in table.scan() {
        rows_examined += 1;
        let v = row[stratum_col].clone();
        if !values.iter().any(|x| x.total_cmp(&v).is_eq()) {
            values.push(v);
        }
    }
    // Pass 2: one more full scan per stratum (the flat files are not
    // organised by stratum, so each extraction rereads the corpus).
    let mut strata = Vec::with_capacity(values.len());
    for value in values {
        let mut reservoir: Vec<Vec<Value>> = Vec::with_capacity(per_stratum);
        let mut seen = 0usize;
        for (_, row) in table.scan() {
            rows_examined += 1;
            if row[stratum_col].total_cmp(&value).is_eq() {
                if seen < per_stratum {
                    reservoir.push(row.to_vec());
                } else {
                    let j = rng.gen_range(0..=seen);
                    if j < per_stratum {
                        reservoir[j] = row.to_vec();
                    }
                }
                seen += 1;
            }
        }
        strata.push((value, reservoir));
    }
    Ok(StratifiedSample { strata, rows_examined })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages_table(n: usize, domains: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ValueType::Int),
            ColumnDef::new("domain", ValueType::Text),
        ])
        .unwrap()
        .with_primary_key("id")
        .unwrap();
        let mut t = Table::new("pages", schema);
        t.create_index("domain").unwrap();
        for i in 0..n {
            t.insert(vec![
                Value::Int(i as i64),
                Value::Text(format!("site{}.example.org", i % domains)),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn sample_covers_every_stratum() {
        let t = pages_table(200, 8);
        let mut rng = Rng::seed_from_u64(1);
        let s = stratified_sample(&t, 1, 5, &mut rng).unwrap();
        assert_eq!(s.strata.len(), 8);
        for (_, rows) in &s.strata {
            assert_eq!(rows.len(), 5);
        }
        assert_eq!(s.total_sampled(), 40);
    }

    #[test]
    fn small_strata_return_all_their_rows() {
        let t = pages_table(10, 8); // strata of 1–2 rows
        let mut rng = Rng::seed_from_u64(2);
        let s = stratified_sample(&t, 1, 5, &mut rng).unwrap();
        assert!(s.strata.iter().all(|(_, rows)| rows.len() <= 2));
        assert_eq!(s.total_sampled(), 10);
    }

    #[test]
    fn indexed_sampling_examines_far_fewer_rows_than_flat() {
        let t = pages_table(400, 10);
        let mut rng = Rng::seed_from_u64(3);
        let indexed = stratified_sample(&t, 1, 3, &mut rng).unwrap();
        let flat = stratified_sample_flat(&t, 1, 3, &mut rng).unwrap();
        assert_eq!(indexed.total_sampled(), flat.total_sampled());
        // Indexed: one pass total. Flat: discovery + one pass per stratum.
        assert_eq!(indexed.rows_examined, 400);
        assert_eq!(flat.rows_examined, 400 * 11);
    }

    #[test]
    fn samples_are_random_but_valid() {
        let t = pages_table(100, 2);
        let mut a_rng = Rng::seed_from_u64(4);
        let mut b_rng = Rng::seed_from_u64(5);
        let a = stratified_sample(&t, 1, 10, &mut a_rng).unwrap();
        let b = stratified_sample(&t, 1, 10, &mut b_rng).unwrap();
        // Different seeds, (almost surely) different samples.
        let ids = |s: &StratifiedSample| {
            s.strata
                .iter()
                .flat_map(|(_, rows)| rows.iter().map(|r| r[0].as_int().unwrap()))
                .collect::<Vec<i64>>()
        };
        assert_ne!(ids(&a), ids(&b));
        // Every sampled row belongs to its stratum.
        for (value, rows) in &a.strata {
            for r in rows {
                assert!(r[1].total_cmp(value).is_eq());
            }
        }
    }

    #[test]
    fn zero_per_stratum_rejected() {
        let t = pages_table(10, 2);
        let mut rng = Rng::seed_from_u64(6);
        assert!(stratified_sample(&t, 1, 0, &mut rng).is_err());
        assert!(stratified_sample_flat(&t, 1, 0, &mut rng).is_err());
    }
}
