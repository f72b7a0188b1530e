//! Integration: EventStore consistency semantics combined with the
//! provenance system, across serialization boundaries — the full
//! "reproducibility" story of Section 3.

use sciflow_core::md5::md5;
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_eventstore::{
    merge_into, read_file, write_file, EventStore, FileRecord, GradeEntry, RunRange, StoreTier,
};

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).unwrap()
}

fn recon_provenance(release: &str, calib: &str) -> ProvenanceRecord {
    let mut rec = ProvenanceRecord::new();
    rec.push(
        ProvenanceStep::new(
            "ReconProd",
            VersionId::new("Recon", release, d("20040312"), "Cornell"),
        )
        .with_param("calibration", calib)
        .with_input("raw/run201388"),
    );
    rec
}

#[test]
fn a_physicists_analysis_is_reproducible_end_to_end() {
    // The collaboration reconstructs run 201388 twice over the years.
    let jan = recon_provenance("Jan04", "cal-2004-01");
    let jun = recon_provenance("Jun04", "cal-2004-05");

    let mut es = EventStore::new(StoreTier::Collaboration);
    es.register_file(&FileRecord {
        id: 1,
        runs: RunRange::single(201_388),
        kind: "recon".into(),
        version: "Recon Jan04".into(),
        site: "Cornell".into(),
        registered: d("20040115"),
        location: "/cleo/recon/jan/201388".into(),
        prov_digest: jan.digest(),
    })
    .unwrap();
    es.declare_snapshot(
        "physics",
        d("20040201"),
        vec![GradeEntry {
            runs: RunRange::new(200_000, 210_000).unwrap(),
            kind: "recon".into(),
            version: "Recon Jan04".into(),
        }],
    )
    .unwrap();
    es.register_file(&FileRecord {
        id: 2,
        runs: RunRange::single(201_388),
        kind: "recon".into(),
        version: "Recon Jun04".into(),
        site: "Cornell".into(),
        registered: d("20040615"),
        location: "/cleo/recon/jun/201388".into(),
        prov_digest: jun.digest(),
    })
    .unwrap();
    es.declare_snapshot(
        "physics",
        d("20040701"),
        vec![GradeEntry {
            runs: RunRange::new(200_000, 210_000).unwrap(),
            kind: "recon".into(),
            version: "Recon Jun04".into(),
        }],
    )
    .unwrap();

    // An analysis started in March is pinned to January data — across years
    // of later snapshots, re-resolving with the same timestamp returns the
    // same files ("can recover exactly the versions of the data used
    // previously").
    for _ in 0..3 {
        let view = es.resolve("physics", d("20040315")).unwrap();
        let files = es.files_for(&view, 201_388, "recon").unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].location, "/cleo/recon/jan/201388");
        assert_eq!(files[0].prov_digest, jan.digest());
    }

    // The data file on disk carries the same digest in its header; a file
    // produced by the *other* reconstruction is flagged by comparison.
    let jan_file = write_file(&jan, b"january recon payload");
    let (jan_header, _) = read_file(&jan_file).unwrap();
    assert_eq!(jan_header.digest, jan.digest());
    let jun_file = write_file(&jun, b"june recon payload");
    let (jun_header, _) = read_file(&jun_file).unwrap();
    assert_ne!(jan_header.digest, jun_header.digest);
    // And the physicist can see why.
    let why = jan.explain_discrepancy(&jun).unwrap();
    assert!(why.contains("Jan04") || why.contains("calibration"), "{why}");
}

#[test]
fn the_whole_store_round_trips_through_disconnected_operation() {
    // Build a personal store, serialize (laptop leaves the network), modify
    // the collaboration store meanwhile, then merge the personal results.
    let mut personal = EventStore::new(StoreTier::Personal);
    let analysis_prov = {
        let mut rec = recon_provenance("Jan04", "cal-2004-01");
        rec.push(
            ProvenanceStep::new(
                "MyAnalysis",
                VersionId::new("Skim", "IT_06", d("20060701"), "laptop"),
            )
            .with_param("cut", "pt>1.0"),
        );
        rec
    };
    personal
        .register_file(&FileRecord {
            id: 500,
            runs: RunRange::single(201_388),
            kind: "skim".into(),
            version: "Skim IT_06".into(),
            site: "laptop".into(),
            registered: d("20060702"),
            location: "laptop:/skims/201388".into(),
            prov_digest: analysis_prov.digest(),
        })
        .unwrap();
    let disk = personal.to_bytes();

    let mut collab = EventStore::new(StoreTier::Collaboration);
    collab
        .register_file(&FileRecord {
            id: 1,
            runs: RunRange::single(201_388),
            kind: "recon".into(),
            version: "Recon Jan04".into(),
            site: "Cornell".into(),
            registered: d("20040115"),
            location: "/cleo/recon/jan/201388".into(),
            prov_digest: md5(b"recon"),
        })
        .unwrap();

    let restored = EventStore::from_bytes(&disk).unwrap();
    assert_eq!(restored.tier(), StoreTier::Personal);
    let report = merge_into(&mut collab, &restored).unwrap();
    assert_eq!(report.files_added, 1);
    // The merged skim's provenance chain includes both the recon and the
    // analysis steps.
    let merged = collab.file(500).unwrap().unwrap();
    assert_eq!(merged.prov_digest, analysis_prov.digest());
    assert_eq!(analysis_prov.version_chain(), vec!["Recon Jan04", "Skim IT_06"]);
}
