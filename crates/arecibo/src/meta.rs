//! Meta-analysis across telescope pointings, and the candidate database.
//!
//! "To further refine pulsar candidate signals ... a meta-analysis is needed
//! to cull those candidates that appear in multiple directions on the sky."
//! A real pulsar lives at one sky position; a signal detected in many
//! pointings is terrestrial. The surviving candidates are loaded into the
//! relational database at the CTC, which "currently supports interactive
//! groupings of candidate signals, tests for correlation or uniqueness of
//! the candidates".

use sciflow_metastore::prelude::*;

use crate::search::{harmonically_related, Candidate};

/// A candidate tagged with the pointing that produced it.
#[derive(Debug, Clone)]
pub struct PointingCandidate {
    pub pointing: u32,
    pub candidate: Candidate,
}

/// The meta-analysis verdict for one distinct signal.
#[derive(Debug, Clone)]
pub struct SkyGroup {
    /// Strongest exemplar.
    pub best: PointingCandidate,
    /// Distinct pointings the signal appeared in.
    pub pointings: Vec<u32>,
    /// Signals in more than `max_pointings` directions are culled.
    pub culled: bool,
}

/// Group candidates by frequency (harmonic matching within `tol`) across
/// pointings and cull those appearing in more than `max_pointings`
/// directions on the sky.
pub fn sky_coincidence_cull(
    candidates: &[PointingCandidate],
    tol: f64,
    max_pointings: usize,
) -> Vec<SkyGroup> {
    let mut groups: Vec<SkyGroup> = Vec::new();
    for pc in candidates {
        match groups
            .iter_mut()
            .find(|g| harmonically_related(g.best.candidate.freq_hz, pc.candidate.freq_hz, tol))
        {
            Some(g) => {
                if !g.pointings.contains(&pc.pointing) {
                    g.pointings.push(pc.pointing);
                }
                if pc.candidate.snr > g.best.candidate.snr {
                    g.best = pc.clone();
                }
            }
            None => groups.push(SkyGroup {
                best: pc.clone(),
                pointings: vec![pc.pointing],
                culled: false,
            }),
        }
    }
    for g in &mut groups {
        g.culled = g.pointings.len() > max_pointings;
    }
    groups.sort_by(|a, b| b.best.candidate.snr.total_cmp(&a.best.candidate.snr));
    groups
}

/// Create the candidate table in a metadata database (the CTC's
/// "MS SQLServer database system", here the embedded store).
pub fn create_candidate_table(db: &mut Database) -> MetaResult<()> {
    let schema = Schema::new(vec![
        ColumnDef::new("id", ValueType::Int),
        ColumnDef::new("pointing", ValueType::Int),
        ColumnDef::new("beam", ValueType::Int),
        ColumnDef::new("dm", ValueType::Real),
        ColumnDef::new("freq_hz", ValueType::Real),
        ColumnDef::new("period_s", ValueType::Real),
        ColumnDef::new("snr", ValueType::Real),
        ColumnDef::new("harmonics", ValueType::Int),
        ColumnDef::new("class", ValueType::Text).nullable(),
    ])?
    .with_primary_key("id")?;
    let t = db.create_table("candidates", schema)?;
    t.create_index("pointing")?;
    t.create_index("class")?;
    Ok(())
}

/// Load candidates for one (pointing, beam) into the table. Returns the ids
/// assigned.
pub fn load_candidates(
    db: &mut Database,
    pointing: u32,
    beam: u32,
    candidates: &[Candidate],
    next_id: &mut i64,
) -> MetaResult<Vec<i64>> {
    let mut txn = Transaction::new();
    let mut ids = Vec::with_capacity(candidates.len());
    for c in candidates {
        let id = *next_id;
        *next_id += 1;
        ids.push(id);
        txn.insert(
            "candidates",
            vec![
                Value::Int(id),
                Value::Int(pointing as i64),
                Value::Int(beam as i64),
                Value::Real(c.dm.0),
                Value::Real(c.freq_hz),
                Value::Real(c.period_s),
                Value::Real(c.snr),
                Value::Int(c.harmonics as i64),
                Value::Null,
            ],
        );
    }
    db.execute(&txn)?;
    Ok(ids)
}

/// Record a classification verdict ("interactive groupings ... combination
/// of pattern recognition and statistical analysis").
pub fn classify_candidate(db: &mut Database, id: i64, class: &str) -> MetaResult<()> {
    let table = db.table_mut("candidates")?;
    let row = table
        .get_by_key(&Value::Int(id))?
        .ok_or_else(|| MetaError::RowNotFound { key: id.to_string() })?
        .to_vec();
    let mut updated = row;
    updated[8] = Value::Text(class.to_string());
    table.update_by_key(&Value::Int(id), updated)?;
    Ok(())
}

/// All candidates of a pointing above an SNR floor, using the pointing
/// index.
pub fn candidates_for_pointing(
    db: &Database,
    pointing: u32,
    min_snr: f64,
) -> MetaResult<Vec<Vec<Value>>> {
    let table = db.table("candidates")?;
    let q = Query::filter(Predicate::And(vec![
        Predicate::Eq(1, Value::Int(pointing as i64)),
        Predicate::Range { col: 6, lo: Some(Value::Real(min_snr)), hi: None },
    ]))
    .order_by(6, true);
    Ok(select(table, &q)?.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Dm;

    fn cand(freq: f64, snr: f64) -> Candidate {
        Candidate { dm: Dm(50.0), freq_hz: freq, period_s: 1.0 / freq, snr, harmonics: 1 }
    }

    fn pc(pointing: u32, freq: f64, snr: f64) -> PointingCandidate {
        PointingCandidate { pointing, candidate: cand(freq, snr) }
    }

    #[test]
    fn sky_wide_signal_is_culled() {
        let mut cands = Vec::new();
        // 60 Hz power-line harmonic in 12 pointings.
        for p in 0..12 {
            cands.push(pc(p, 60.0, 8.0 + p as f64 * 0.1));
        }
        // A genuine pulsar in exactly one pointing.
        cands.push(pc(4, 3.147, 15.0));
        let groups = sky_coincidence_cull(&cands, 0.01, 3);
        let power_line = groups
            .iter()
            .find(|g| harmonically_related(g.best.candidate.freq_hz, 60.0, 0.01))
            .unwrap();
        assert!(power_line.culled);
        assert_eq!(power_line.pointings.len(), 12);
        let pulsar = groups
            .iter()
            .find(|g| harmonically_related(g.best.candidate.freq_hz, 3.147, 0.01))
            .unwrap();
        assert!(!pulsar.culled);
        assert_eq!(pulsar.best.pointing, 4);
    }

    #[test]
    fn repeat_detections_in_same_pointing_do_not_cull() {
        // Confirmation re-observations of the same direction are fine.
        let cands = vec![pc(1, 5.0, 9.0), pc(1, 5.0, 10.0), pc(1, 5.0, 11.0)];
        let groups = sky_coincidence_cull(&cands, 0.01, 2);
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].culled);
        assert_eq!(groups[0].best.candidate.snr, 11.0);
    }

    #[test]
    fn candidate_database_roundtrip() {
        let mut db = Database::new();
        create_candidate_table(&mut db).unwrap();
        let mut next_id = 0i64;
        let ids =
            load_candidates(&mut db, 17, 3, &[cand(7.81, 12.0), cand(60.0, 8.0)], &mut next_id)
                .unwrap();
        assert_eq!(ids, vec![0, 1]);
        load_candidates(&mut db, 18, 0, &[cand(2.5, 6.5)], &mut next_id).unwrap();

        let rows = candidates_for_pointing(&db, 17, 7.0).unwrap();
        assert_eq!(rows.len(), 2);
        // Sorted by SNR descending.
        assert!(rows[0][6].total_cmp(&rows[1][6]).is_ge());

        classify_candidate(&mut db, 1, "interference").unwrap();
        let table = db.table("candidates").unwrap();
        let class_col = table.schema().column_index("class").unwrap();
        let q = Query::filter(Predicate::Eq(class_col, Value::Text("interference".into())));
        let flagged = select(table, &q).unwrap();
        assert_eq!(flagged.path, AccessPath::IndexEq);
        assert_eq!(flagged.rows.len(), 1);
        assert_eq!(flagged.rows[0][0], Value::Int(1));

        assert!(classify_candidate(&mut db, 999, "x").is_err());
    }
}
