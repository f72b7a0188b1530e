//! Integration: the full CLEO chain — generation → detector → recon →
//! post-recon → ASUs → partitioned analysis under an EventStore consistent
//! view, plus the offsite-MC merge path.

use sciflow_core::rng::Rng;

use sciflow_cleo::analysis::{run_analysis, AnalysisJob};
use sciflow_cleo::asu::decompose;
use sciflow_cleo::detector::{simulate_event, DetectorConfig};
use sciflow_cleo::generator::{generate_run, GeneratorConfig};
use sciflow_cleo::montecarlo::{produce_mc_run, stage_into_personal_store};
use sciflow_cleo::partition::{default_tiering, PartitionedStore};
use sciflow_cleo::postrecon::compute_post_recon;
use sciflow_cleo::reconstruction::{reconstruct, ReconConfig};
use sciflow_core::md5::md5;
use sciflow_core::provenance::ProvenanceRecord;
use sciflow_core::version::{CalDate, VersionId};
use sciflow_eventstore::{merge_into, EventStore, FileRecord, GradeEntry, RunRange, StoreTier};

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).unwrap()
}

#[test]
fn run_processing_analysis_and_eventstore_agree() {
    let mut rng = Rng::seed_from_u64(2_001_388);
    let det = DetectorConfig::default();
    let run = generate_run(201_388, 150, &GeneratorConfig::default(), &mut rng);

    // Reconstruction and post-reconstruction.
    let mut recon = Vec::new();
    let mut raws = Vec::new();
    for ev in &run.events {
        let raw = simulate_event(ev, &det, &mut rng);
        recon.push(reconstruct(&raw, &det, &ReconConfig::default()));
        raws.push(raw);
    }
    let post = compute_post_recon(&recon);
    assert_eq!(post.per_event.len(), run.event_count());

    // Register recon data in the EventStore and bless it.
    let mut es = EventStore::new(StoreTier::Collaboration);
    es.register_file(&FileRecord {
        id: 10,
        runs: RunRange::single(run.number),
        kind: "recon".into(),
        version: "Recon IT_06".into(),
        site: "Cornell".into(),
        registered: d("20060701"),
        location: "/cleo/recon/201388".into(),
        prov_digest: md5(b"recon"),
    })
    .unwrap();
    es.declare_snapshot(
        "physics",
        d("20060702"),
        vec![GradeEntry {
            runs: RunRange::new(200_000, 210_000).unwrap(),
            kind: "recon".into(),
            version: "Recon IT_06".into(),
        }],
    )
    .unwrap();
    let view = es.resolve("physics", d("20060710")).unwrap();
    assert_eq!(view.version_for(run.number, "recon"), Some("Recon IT_06"));
    let files = es.files_for(&view, run.number, "recon").unwrap();
    assert_eq!(files.len(), 1);
    assert_eq!(files[0].location, "/cleo/recon/201388");

    // The analysis reads through the partitioned store under that view.
    let events: Vec<_> = raws
        .iter()
        .zip(&recon)
        .zip(&post.per_event)
        .map(|((raw, r), p)| decompose(raw, r, p))
        .collect();
    let total_bytes: u64 = events.iter().map(|e| e.total_bytes()).sum();
    let mut store = PartitionedStore::load(events, default_tiering);
    let result = run_analysis(
        &mut store,
        &recon,
        &post.per_event,
        &AnalysisJob { name: "it-skim".into(), min_tracks: 3, min_quality: 0.4 },
        VersionId::new("Skim", "IT_06", d("20060710"), "Cornell"),
        &ProvenanceRecord::new(),
    );
    assert!(!result.selected.is_empty());
    assert!(
        result.bytes_read < total_bytes / 2,
        "partitioned analysis read {} of {total_bytes}",
        result.bytes_read
    );
    // The analysis step is recorded with its cuts.
    assert!(result.provenance.canonical_strings().iter().any(|s| s.contains("min_tracks=3")));
}

#[test]
fn two_offsite_farms_merge_without_interference() {
    let gen = GeneratorConfig::default();
    let det = DetectorConfig::default();
    let mut collab = EventStore::new(StoreTier::Collaboration);

    // Farms produce MC for different runs, each on its own USB disk.
    for (farm, runs, base) in [("farm-a", 300u32..303, 1000u64), ("farm-b", 303..306, 2000)] {
        for run in runs {
            let sample = produce_mc_run(run, 20, &gen, &det, "MC IT_06", farm);
            let personal = stage_into_personal_store(&sample, d("20060715"), base).unwrap();
            let bytes = personal.to_bytes();
            let received = EventStore::from_bytes(&bytes).unwrap();
            let report = merge_into(&mut collab, &received).unwrap();
            assert_eq!(report.files_added, 1);
        }
    }
    assert_eq!(collab.file_count(), 6);
    // Every record is findable and attributed to its farm.
    let all = collab.files().unwrap();
    assert_eq!(all.iter().filter(|f| f.site == "farm-a").count(), 3);
    assert_eq!(all.iter().filter(|f| f.site == "farm-b").count(), 3);

    // Re-shipping the same disk is harmless (idempotent merge).
    let sample = produce_mc_run(300, 20, &gen, &det, "MC IT_06", "farm-a");
    let again = stage_into_personal_store(&sample, d("20060715"), 1000).unwrap();
    let report = merge_into(&mut collab, &again).unwrap();
    assert_eq!(report.files_added, 0);
    assert_eq!(report.files_skipped, 1);
}
