//! Integration: the full Arecibo chain across crates — synthetic spectra →
//! pipeline → candidate database → EventStore registration of the data
//! products, with provenance digests carried in the file headers.

use sciflow_core::rng::Rng;

use sciflow_arecibo::meta::{create_candidate_table, load_candidates};
use sciflow_arecibo::pipeline::{process_pointing, PipelineConfig};
use sciflow_arecibo::search::harmonically_related;
use sciflow_arecibo::spectra::{DynamicSpectrum, ObsConfig, PulsarParams};
use sciflow_arecibo::units::Dm;
use sciflow_core::version::{CalDate, VersionId};
use sciflow_eventstore::{read_file, write_file, EventStore, FileRecord, RunRange, StoreTier};
use sciflow_metastore::prelude::*;

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).unwrap()
}

#[test]
fn pointing_products_flow_into_database_and_eventstore() {
    // --- Observe -----------------------------------------------------------
    let cfg = ObsConfig::test_scale();
    let mut rng = Rng::seed_from_u64(424242);
    let mut beams: Vec<DynamicSpectrum> =
        (0..7).map(|_| DynamicSpectrum::noise(cfg, &mut rng)).collect();
    let truth_period = 0.128;
    beams[1].inject_pulsar(&PulsarParams {
        dm: Dm(60.0),
        period_s: truth_period,
        width_s: 0.004,
        amplitude: 6.0,
        phase_s: 0.01,
    });

    // --- Process -----------------------------------------------------------
    let pipe = PipelineConfig { n_dm_trials: 12, dm_max: 150.0, ..PipelineConfig::default() };
    let version = VersionId::new("Dedisp", "IT_06", d("20060704"), "CTC");
    let out = process_pointing(7, &beams, &pipe, version.clone());
    assert!(
        out.confirmed.iter().any(|c| harmonically_related(
            c.candidate.freq_hz,
            1.0 / truth_period,
            0.02
        )),
        "pulsar not confirmed"
    );

    // --- Load candidates into the metadata DB -------------------------------
    let mut db = Database::new();
    create_candidate_table(&mut db).unwrap();
    let mut next_id = 0i64;
    for beam in &out.beams {
        load_candidates(&mut db, 7, beam.beam, &beam.periodic, &mut next_id).unwrap();
    }
    let table = db.table("candidates").unwrap();
    assert_eq!(table.len() as i64, next_id);
    // Query by pointing via the index.
    let pointing_col = table.schema().column_index("pointing").unwrap();
    let got = select(table, &Query::filter(Predicate::Eq(pointing_col, Value::Int(7)))).unwrap();
    assert_eq!(got.path, AccessPath::IndexEq);
    assert_eq!(got.rows.len() as i64, next_id);

    // --- Register the products in an EventStore, provenance attached --------
    let mut es = EventStore::new(StoreTier::Collaboration);
    es.register_file(&FileRecord {
        id: 1,
        runs: RunRange::single(7),
        kind: "candidates".into(),
        version: version.label(),
        site: "CTC".into(),
        registered: d("20060705"),
        location: "/palfa/pointing7/candidates".into(),
        prov_digest: out.provenance.digest(),
    })
    .unwrap();
    let stored = es.file(1).unwrap().unwrap();
    assert_eq!(stored.prov_digest, out.provenance.digest());

    // --- The data file itself carries the provenance header -----------------
    let payload = b"candidate list payload";
    let file_bytes = write_file(&out.provenance, payload);
    let (header, body) = read_file(&file_bytes).unwrap();
    assert_eq!(body, payload);
    assert_eq!(header.digest, stored.prov_digest);
    assert!(header.strings.iter().any(|s| s.contains("PulsarSearchPipeline")));
}

#[test]
fn reprocessing_with_new_parameters_changes_the_digest() {
    let cfg = ObsConfig::test_scale();
    let mut rng = Rng::seed_from_u64(5);
    let beams: Vec<DynamicSpectrum> =
        (0..2).map(|_| DynamicSpectrum::noise(cfg, &mut rng)).collect();
    let version = VersionId::new("Dedisp", "IT_06", d("20060704"), "CTC");
    let a = process_pointing(
        1,
        &beams,
        &PipelineConfig { n_dm_trials: 8, ..PipelineConfig::default() },
        version.clone(),
    );
    let b = process_pointing(
        1,
        &beams,
        &PipelineConfig { n_dm_trials: 12, ..PipelineConfig::default() },
        version,
    );
    // "Data products might be updated in the future, based on then available
    // better ... algorithms": the digests must distinguish the versions.
    assert_ne!(a.provenance.digest(), b.provenance.digest());
    assert!(a.provenance.explain_discrepancy(&b.provenance).unwrap().contains("n_dm_trials"));
}
