//! Durable-run quickstart: kill a journaled run, resume it byte-identically.
//!
//! ```text
//! cargo run -p sciflow-examples --bin resume
//! ```
//!
//! The README's durable-runs snippet, runnable end to end in one process:
//! a faulted Arecibo-shaped flow runs with an append-only journal sealing
//! a snapshot every 50 events, gets killed mid-run (`run_for` stops it
//! halfway and dropping the simulator throws its in-flight state away, as
//! `kill -9` would), and a freshly built simulator resumes from the journal. The resumed report — and its
//! JSON rendering — must equal the run that was never interrupted, byte
//! for byte.
//!
//! For a *fresh-process* resume (what CI exercises), split the demo:
//!
//! ```text
//! cargo run -p sciflow-examples --bin resume -- crash  run.journal
//! cargo run -p sciflow-examples --bin resume -- resume run.journal
//! ```
//!
//! `crash` journals a run and dies halfway through; `resume` — a process
//! that never saw the first run's state — rebuilds the same configuration,
//! resumes from the journal, and byte-diffs the result against the
//! uninterrupted golden it computes independently.

use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::graph::FlowGraph;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::spec::{FlowSpec, ProcessSpec, SourceSpec, TransferSpec};
use sciflow_core::units::{DataRate, DataVolume, SimDuration};
use sciflow_core::SnapshotPolicy;

fn graph() -> FlowGraph {
    FlowSpec::new()
        .source("acquire", SourceSpec::new(DataVolume::tb(1), SimDuration::from_hours(12), 8))
        .process(
            "dedisperse",
            ProcessSpec::new(DataRate::mb_per_sec(4.0), "farm").chunk(DataVolume::gb(50)),
            &["acquire"],
        )
        .transfer(
            "ship",
            TransferSpec::new(DataRate::mb_per_sec(30.0)).latency(SimDuration::from_secs(2)),
            &["dedisperse"],
        )
        .archive("tape", &["ship"])
        .build()
        .expect("valid flow")
}

/// Same configuration every time — that is the resume contract: the
/// journal carries the *state*, the caller re-supplies the *spec*, and a
/// spec hash in the journal header proves they match.
fn build_sim() -> FlowSim {
    let profile = FaultProfile { drops_per_day: 1.0, stalls_per_day: 4.0, ..FaultProfile::flaky() };
    let plan = FaultPlan::generate(42, SimDuration::from_days(7), &profile);
    FlowSim::new(graph(), vec![CpuPool::new("farm", 16)])
        .expect("valid flow")
        .with_faults(plan, RetryPolicy::default())
}

/// Journal a run at a 50-event snapshot cadence and die halfway through.
fn crash(journal: &std::path::Path) {
    // A stepped probe of the same configuration finds the run's total
    // event count, so the kill provably lands mid-run.
    let mut probe = build_sim();
    probe.run_for(u64::MAX).expect("probe completes");
    let total = probe.events_handled();

    let mut sim = build_sim()
        .with_snapshot_policy(SnapshotPolicy::EveryEvents(50))
        .with_journal(journal)
        .expect("journal created");
    let more = sim.run_for(total / 2).expect("the first half runs");
    assert!(more, "the kill lands mid-run");
    println!("killed after {} of {total} events", sim.events_handled());
    // Dropping the simulator is the crash: only what the journal sealed
    // survives.
    drop(sim);
}

/// Rebuild the same configuration, resume from the journal, and byte-diff
/// the finished run against the uninterrupted golden.
fn resume(journal: &std::path::Path) {
    let golden = build_sim().run().expect("flow completes");
    let resumed = build_sim()
        .resume_from(journal)
        .expect("journal accepted")
        .run()
        .expect("resumed run completes");

    assert_eq!(resumed, golden, "resumed report must equal the uninterrupted one");
    assert_eq!(resumed.to_json(), golden.to_json(), "...down to the JSON bytes");
    println!(
        "resumed run matches the uninterrupted golden: {} delivered, done at {}",
        resumed.stage("tape").expect("tape stage").volume_in,
        resumed.finished_at,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            // The whole demo in one process.
            let journal = std::env::temp_dir().join("sciflow-resume-example.journal");
            crash(&journal);
            resume(&journal);
            let _ = std::fs::remove_file(&journal);
        }
        ["crash", path] => crash(std::path::Path::new(path)),
        ["resume", path] => resume(std::path::Path::new(path)),
        _ => {
            eprintln!("usage: resume [crash <journal> | resume <journal>]");
            std::process::exit(2);
        }
    }
}
