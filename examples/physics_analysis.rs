//! The CLEO workload end to end: generate a run, reconstruct it, register
//! everything in an EventStore, and run a timestamp-pinned analysis over the
//! hot/warm/cold partitioned data. Offsite Monte-Carlo arrives on a USB disk
//! with a file whose provenance header is stale: it is quarantined, held
//! back by the merge, shipped again, re-verified, released and merged.
//!
//! ```text
//! cargo run -p sciflow-examples --release --bin physics_analysis
//! ```

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
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::version::{CalDate, VersionId};
use sciflow_eventstore::{
    merge_into, read_file, write_file, EventStore, FileRecord, GradeEntry, RunRange, StoreTier,
};

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).expect("valid date literal")
}

fn main() {
    let mut rng = Rng::seed_from_u64(1979); // CESR first collisions
    let det = DetectorConfig::default();
    let gen = GeneratorConfig::default();

    // --- 1. Take a run and reconstruct it --------------------------------
    let run = generate_run(201_388, 300, &gen, &mut rng);
    println!("run {}: {} events over {} minutes", run.number, run.event_count(), run.duration_mins);
    let mut recon = Vec::new();
    let mut raws = Vec::new();
    for ev in &run.events {
        let raw = simulate_event(ev, &det, &mut rng);
        recon.push(reconstruct(&raw, &det, &ReconConfig::default()));
        raws.push(raw);
    }
    let tracks: usize = recon.iter().map(|r| r.tracks.len()).sum();
    println!("reconstruction: {tracks} tracks found");

    // --- 2. Post-reconstruction (whole-run statistics) -------------------
    let post = compute_post_recon(&recon);
    println!(
        "post-recon calibration: mean pt {:.3} GeV, mean multiplicity {:.1}",
        post.calibration.mean_pt_gev, post.calibration.mean_multiplicity
    );

    // --- 3. Register in the collaboration EventStore ---------------------
    let mut es = EventStore::new(StoreTier::Collaboration);
    es.register_file(&FileRecord {
        id: 1,
        runs: RunRange::single(run.number),
        kind: "recon".into(),
        version: "Recon Feb13_04_P2".into(),
        site: "Cornell".into(),
        registered: d("20040315"),
        location: "/cleo/recon/201388".into(),
        prov_digest: md5(b"recon-201388"),
    })
    .expect("fresh store");
    es.declare_snapshot(
        "physics",
        d("20040401"),
        vec![GradeEntry {
            runs: RunRange::new(200_000, 210_000).expect("valid range"),
            kind: "recon".into(),
            version: "Recon Feb13_04_P2".into(),
        }],
    )
    .expect("first snapshot");
    let view = es.resolve("physics", d("20040501")).expect("snapshot in force");
    println!(
        "analysis view (physics @ 2004-05-01): run {} reads `{}`",
        run.number,
        view.version_for(run.number, "recon").unwrap_or("-")
    );

    // --- 4. Two-pass analysis over the partitioned store -----------------
    let events: Vec<_> = raws
        .iter()
        .zip(&recon)
        .zip(&post.per_event)
        .map(|((raw, r), p)| decompose(raw, r, p))
        .collect();
    let mut store = PartitionedStore::load(events, default_tiering);
    let result = run_analysis(
        &mut store,
        &recon,
        &post.per_event,
        &AnalysisJob { name: "multihadron-skim".into(), min_tracks: 4, min_quality: 0.5 },
        VersionId::new("Skim", "May01_04", d("20040501"), "Cornell"),
        &ProvenanceRecord::new(),
    );
    println!(
        "analysis `{}`: pass1 {} → selected {} events, {} read",
        result.job,
        result.pass1_selected.len(),
        result.selected.len(),
        sciflow_core::DataVolume::from_bytes(result.bytes_read)
    );
    println!("analysis provenance digest: {}", result.provenance.digest());

    // --- 5. Offsite Monte Carlo → USB disk → verify → merge --------------
    let mc = produce_mc_run(run.number, 100, &gen, &det, "MC Jul05", "offsite-farm");
    let personal = stage_into_personal_store(&mc, d("20050715"), 9_000).expect("staging works");
    let usb_disk = personal.to_bytes(); // what actually travels
    let mut received = EventStore::from_bytes(&usb_disk).expect("clean bytes");

    // The MC file travels with its provenance header, checked against the
    // provenance the farm declared for the run. The copy on the disk was
    // written by a job that was restarted partway, and its header still
    // names the events the first attempt produced: the check names the
    // stale line, the file is quarantined, and the merge holds it back.
    let mc_id = received.files().expect("scan")[0].id;
    let produced = |events: usize| {
        let version = VersionId::new("MC", "Jul05", d("20050715"), "offsite-farm");
        ProvenanceRecord::new().derive(
            ProvenanceStep::new("McProd", version)
                .with_param("run", mc.run_number.to_string())
                .with_param("events", events.to_string()),
        )
    };
    let declared = produced(mc.truth.len());
    let check = |file: &[u8]| read_file(file).and_then(|(h, _)| h.verify_detailed(&declared));
    let payload = format!("mc run {}", mc.run_number);
    let stale = write_file(&produced(mc.truth.len() / 2), payload.as_bytes());
    let mismatch = check(&stale).expect_err("a stale header fails the check");
    println!("MC file {mc_id} failed its provenance check: {mismatch}");
    received.quarantine_file(mc_id, &mismatch.to_string()).expect("registered file");
    let held = merge_into(&mut es, &received).expect("no conflicts");
    assert_eq!((held.files_added, held.files_quarantined), (0, 1));
    println!("first merge: {held}");

    // The farm ships the file again from the finished job. Only once that
    // copy verifies is the file released, and the merge takes it.
    check(&write_file(&declared, payload.as_bytes())).expect("the re-shipped copy verifies");
    received.release_file(mc_id).expect("registered file");
    let report = merge_into(&mut es, &received).expect("no conflicts");
    assert_eq!((report.files_added, report.files_quarantined), (1, 0));
    println!("after release: {report}");
    println!(
        "MC for run {}: {} simulated ({}), merged {} file record(s) into {}",
        mc.run_number,
        mc.truth.len(),
        sciflow_core::DataVolume::from_bytes(mc.raw_bytes()),
        report.files_added,
        es.module_name(),
    );
}
