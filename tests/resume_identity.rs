//! The durable-run acceptance suite: kill a journaled run at an arbitrary
//! event, resume it in a rebuilt simulator, and require the result to be
//! *byte-identical* to the run that was never interrupted.
//!
//! Identity is checked at three strengths, over the workload zoo and the
//! three case-study flows:
//!
//! * **Report identity** — the resumed run's [`SimReport`] compares equal
//!   and its `to_json()` rendering matches byte for byte, in every run mode
//!   (clean, corrupt, corrupt-verified, crashy, traced).
//! * **Trace identity** — the killed run's JSONL trace is a strict prefix
//!   of the uninterrupted golden trace, and the resumed run's JSONL equals
//!   the golden's tail exactly: between the two recorders every line of the
//!   golden trace is accounted for, none twice.
//! * **Format robustness** — the sealed snapshot file survives the shared
//!   [`assert_sealed_roundtrip`] sweep (every truncation and bit flip is a
//!   typed error, a torn tail recovers), a journal whose *last* frame is
//!   damaged falls back to the previous sealed snapshot, and a torn journal
//!   tail is truncated and resumed past — never trusted.
//!
//! The zoo batteries honour `FAULT_MATRIX_SEED` like the rest of the suite,
//! so each CI matrix entry kills a disjoint slice of graph space at
//! different events.

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, wilson_crash_profile, CleoFlowParams, WILSON_POOL};
use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::fnv::{fnv1a, fnv1a_update, FNV_OFFSET};
use sciflow_core::frame;
use sciflow_core::genflow::{stress_flow, Archetype, StressParams, SEED_PAYLOAD_MASK};
use sciflow_core::graph::{FlowGraph, StageKind};
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::spec::{SourceSpec, TransferSpec};
use sciflow_core::trace::{
    FaultKind, FaultScope, ObserveConfig, Observer, TraceEvent, TraceRecorder,
};
use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};
use sciflow_core::{SloRule, SnapshotPolicy};
use sciflow_testkit::{
    assert_matches_golden, assert_sealed_roundtrip, check_generated, derive_seed, matrix_seed,
    GeneratedScenario, TailPolicy,
};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

/// Zoo graphs per archetype. Each graph is run ~4× per mode (golden, probe,
/// killed, resumed), so the batch is smaller than the invariant families'.
const SEEDS_PER_ARCHETYPE: u64 = 3;

fn zoo_seeds(family: &str, archetype: Archetype) -> Vec<u64> {
    let master = matrix_seed(42);
    (0..SEEDS_PER_ARCHETYPE)
        .map(|i| {
            derive_seed(master, &format!("zoo-{family}-{}-{i}", archetype.name()))
                & SEED_PAYLOAD_MASK
        })
        .collect()
}

/// Scratch path under the system temp dir, unique per test process.
fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sciflow-resume-{}-{name}.journal", std::process::id()))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{name}.txt"))
}

/// Run a fresh copy of the simulator to quiescence and count its events.
fn total_events(mut sim: FlowSim) -> u64 {
    let more = sim.run_for(u64::MAX).expect("probe run converges");
    assert!(!more, "probe must reach quiescence");
    sim.events_handled()
}

/// The core identity check: golden run, then a journaled run killed at a
/// seed-derived mid-run event, then a resumed run — whose report must equal
/// the golden's both structurally and as JSON bytes.
fn assert_resume_identity(label: &str, seed: u64, build: &dyn Fn() -> FlowSim) {
    let total = total_events(build());
    if total < 2 {
        return; // nothing mid-run to kill
    }
    let kill = 1 + derive_seed(seed, &format!("kill-{label}")) % (total - 1);
    let cadence = 1 + derive_seed(seed, &format!("cadence-{label}")) % kill.min(16);
    assert_resume_identity_at(label, seed, build, kill, cadence);
}

/// Journal `sim` with a snapshot every `cadence` events and kill it once
/// `kill` events are handled: `run_for(kill + 1)`, then the simulator is
/// dropped with its in-flight state, as `kill -9` drops a process. The
/// journal at `path` holds what was sealed by then.
fn kill_journaled(sim: FlowSim, path: &Path, cadence: u64, kill: u64) {
    let mut sim = sim
        .with_snapshot_policy(SnapshotPolicy::EveryEvents(cadence))
        .with_journal(path)
        .expect("journal created");
    sim.run_for(kill + 1).expect("the run advances to the kill");
}

/// [`assert_resume_identity`] with the kill point and snapshot cadence given.
fn assert_resume_identity_at(
    label: &str,
    seed: u64,
    build: &dyn Fn() -> FlowSim,
    kill: u64,
    cadence: u64,
) {
    let golden = build().run().expect("golden run converges");
    let path = tmp(&format!("{label}-{seed:x}"));
    kill_journaled(build(), &path, cadence, kill);
    let resumed = build()
        .resume_from(&path)
        .expect("journal accepted for resume")
        .run()
        .expect("resumed run converges");
    assert_eq!(resumed, golden, "{label} seed {seed:#x}: resumed report diverged");
    assert_eq!(
        resumed.to_json(),
        golden.to_json(),
        "{label} seed {seed:#x}: resumed report JSON bytes diverged"
    );
    let _ = fs::remove_file(&path);
}

/// Headline property: over zoo graphs in every run mode, a run killed at an
/// arbitrary event and resumed from its journal finishes byte-identically
/// to the run that was never interrupted.
#[test]
fn killed_zoo_runs_resume_byte_identically_in_every_mode() {
    for archetype in Archetype::ALL {
        check_generated(archetype, zoo_seeds("resume", archetype), |s| {
            let seed = s.flow.seed;
            assert_resume_identity("clean", seed, &|| s.sim_clean());
            assert_resume_identity("corrupt", seed, &|| s.sim_corrupt());
            assert_resume_identity("corrupt-verified", seed, &|| s.sim_corrupt_verified());
            if s.sim_crashy().is_some() {
                assert_resume_identity("crashy", seed, &|| {
                    s.sim_crashy().expect("crash profile exists")
                });
            }
        });
    }
}

/// Durability is measured, never simulated into the result: an attached
/// journal sealing a snapshot every 500 events leaves the report of a
/// (reduced) stress flow exactly what the bare run reports, and one sealing
/// every 16 does the same for the observed-slo mode of every archetype,
/// whose sampler, SLO rules and trace recorder are all in the snapshot.
#[test]
fn a_journaled_run_reports_identically_to_the_bare_run() {
    let (graph, pools) = stress_flow(&StressParams { chains: 4, depth: 25, blocks: 100 });
    let stress = || FlowSim::new(graph.clone(), pools.clone()).expect("stress flows are valid");
    let path = tmp("journaled-vs-bare");
    let assert_journal_inert = |label: &str, build: &dyn Fn() -> FlowSim, cadence: u64| {
        let bare = build().run().expect("bare run converges");
        let journaled = build()
            .with_snapshot_policy(SnapshotPolicy::EveryEvents(cadence))
            .with_journal(&path)
            .expect("journal created")
            .run()
            .expect("journaled run converges");
        assert_eq!(journaled, bare, "{label}");
    };
    assert_journal_inert("stress", &stress, 500);
    for archetype in Archetype::ALL {
        let s = GeneratedScenario::new(archetype, 3);
        let observed = || sim_observed_slo(&s).with_observer(TraceRecorder::new());
        assert_journal_inert(&format!("{archetype} observed-slo"), &observed, 16);
    }
    let _ = fs::remove_file(&path);
}

/// Attaching an observer leaves the journal as it was, to the byte: the
/// observed-slo mode of every archetype, sealing a snapshot every 7 events,
/// writes the same file with a trace recorder attached as without one.
#[test]
fn a_journaled_run_writes_the_same_journal_with_an_observer_attached() {
    let path = tmp("observer-journal");
    let journal = |sim: FlowSim| {
        sim.with_snapshot_policy(SnapshotPolicy::EveryEvents(7))
            .with_journal(&path)
            .expect("journal created")
            .run()
            .expect("journaled run converges");
        fs::read(&path).expect("journal readable")
    };
    for archetype in Archetype::ALL {
        let s = GeneratedScenario::new(archetype, 3);
        let bare = journal(sim_observed_slo(&s));
        let traced = journal(sim_observed_slo(&s).with_observer(TraceRecorder::new()));
        assert!(journal_frames(&bare).len() > 2, "{archetype}: the run seals snapshots");
        assert!(bare == traced, "{archetype}: the recorder changed the journal bytes");
    }
    let _ = fs::remove_file(&path);
}

/// Snapshot frames in the journal at `path`: its frames less the header.
fn snapshot_frames(path: &Path) -> (usize, u64) {
    let bytes = fs::read(path).expect("journal readable");
    (journal_frames(&bytes).len() - 1, bytes.len() as u64)
}

/// What a journaled run of the `(4, 25, 200)` stress flow writes, to the
/// byte: the journal is a pure function of the run, so this is the same
/// number on every machine, and a field that fattens the snapshot payload
/// fails here before it drifts a benchmark row.
#[test]
fn stress_journal_size_is_pinned() {
    let (graph, pools) = stress_flow(&StressParams { chains: 4, depth: 25, blocks: 200 });
    let path = tmp("stress-journal");
    let mut sim = FlowSim::new(graph, pools)
        .expect("stress flows are valid")
        .with_snapshot_policy(SnapshotPolicy::EveryEvents(1_000))
        .with_journal(&path)
        .expect("journal created");
    assert!(!sim.run_for(u64::MAX).expect("journaled run converges"));
    let events = sim.events_handled();
    let (frames, bytes) = snapshot_frames(&path);
    let _ = fs::remove_file(&path);
    assert_eq!((events, frames, bytes), (41_000, 41, 184_573), "events, snapshots, bytes");
}

/// The journal `sim-durable` writes, at its full shape: 1.5 M events of the
/// `(10, 100, 1000)` stress flow at a snapshot every 10 000, then a resume
/// from it run to the end, which must equal the run never journaled.
#[test]
#[ignore = "1.5 M journaled events; run with --release -- --ignored"]
fn full_shape_stress_journal_is_compact_and_resumes_to_the_bare_run() {
    let (graph, pools) = stress_flow(&StressParams { chains: 10, depth: 100, blocks: 1000 });
    let build = || {
        FlowSim::new(graph.clone(), pools.clone())
            .expect("stress flows are valid")
            .with_snapshot_policy(SnapshotPolicy::EveryEvents(10_000))
    };
    let bare = build().run().expect("bare run converges");
    let path = tmp("full-shape");
    let mut paused = build().with_journal(&path).expect("journal created");
    assert!(paused.run_for(1_500_000).expect("journaled run advances"), "1.5 M is mid-run");
    drop(paused);
    // The 150th snapshot is due at event 1 500 000, where the pause comes
    // first: 150 sealed frames with the header, the `paused_at / every`
    // the benchmark reports as `core.durable.frames`.
    let (frames, bytes) = snapshot_frames(&path);
    assert_eq!(frames + 1, 150, "the header and one snapshot per 10 000 events");
    assert!(bytes <= 7_000_000, "journal of {bytes} bytes");
    let resumed = build()
        .resume_from(&path)
        .expect("journal accepted for resume")
        .run()
        .expect("resumed run converges");
    let _ = fs::remove_file(&path);
    assert_eq!(resumed, bare, "resumed report diverged");
    assert_eq!(resumed.to_json(), bare.to_json(), "resumed report JSON bytes diverged");
}

/// Counts the resource crashes a run injects (each takes at least one unit
/// down until its repair).
struct CrashCounter(Rc<Cell<u64>>);

impl Observer for CrashCounter {
    fn record(&mut self, _at: SimTime, ev: &TraceEvent) {
        if is_resource_crash(ev) {
            self.0.set(self.0.get() + 1);
        }
    }
}

/// A run killed while a channel is down — at the event that took it down,
/// for a crash drawn from the seed, with a snapshot sealed at every event so
/// the resume starts from exactly that state: an inspection just killed and
/// requeued, or idle units confiscated with blocks still to arrive, and the
/// repair pending in the engine.
#[test]
fn zoo_runs_killed_in_the_middle_of_a_channel_outage_resume_byte_identically() {
    for archetype in [Archetype::StreamingIngest, Archetype::TieredDistribution] {
        check_generated(archetype, zoo_seeds("resume-outage", archetype), |s| {
            let seed = s.flow.seed;
            let build = || s.sim_channel_crashy().expect("zoo graphs move data over channels");
            let crashes = Rc::new(Cell::new(0));
            build().with_observer(CrashCounter(crashes.clone())).run().expect("probe converges");
            let target = 1 + derive_seed(seed, "outage") % crashes.get().max(1);
            crashes.set(0);
            let mut probe = build().with_observer(CrashCounter(crashes.clone()));
            while crashes.get() < target {
                assert!(probe.run_for(1).expect("probe advances"), "crash {target} never fired");
            }
            assert_resume_identity_at("channel-outage", seed, &build, probe.events_handled(), 1);
        });
    }
}

/// Trace identity across the kill: the killed recorder saw a strict prefix
/// of the golden JSONL, the resumed recorder's JSONL equals the golden's
/// tail byte for byte, and the resumed report still matches.
#[test]
fn traced_zoo_runs_resume_with_byte_identical_trace_suffixes() {
    for archetype in Archetype::ALL {
        check_generated(archetype, zoo_seeds("resume-trace", archetype), |s| {
            let seed = s.flow.seed;
            let golden_trace = TraceRecorder::new();
            let golden = s.sim_traced(golden_trace.clone()).run().expect("golden run converges");
            let golden_jsonl = golden_trace.snapshot().jsonl();
            let total = total_events(s.sim_traced(TraceRecorder::new()));
            if total < 2 {
                return;
            }
            let kill = 1 + derive_seed(seed, "kill-traced") % (total - 1);
            let cadence = 1 + derive_seed(seed, "cadence-traced") % kill.min(16);
            let path = tmp(&format!("traced-{seed:x}"));
            let killed_trace = TraceRecorder::new();
            kill_journaled(s.sim_traced(killed_trace.clone()), &path, cadence, kill);
            let killed_jsonl = killed_trace.snapshot().jsonl();
            assert!(
                golden_jsonl.starts_with(&killed_jsonl),
                "seed {seed:#x}: the killed trace must be a prefix of the golden trace"
            );
            let resumed_trace = TraceRecorder::new();
            let resumed = s
                .sim_traced(resumed_trace.clone())
                .resume_from(&path)
                .expect("journal accepted for resume")
                .run()
                .expect("resumed run converges");
            assert_eq!(resumed, golden, "seed {seed:#x}: resumed traced report diverged");
            let resumed_jsonl = resumed_trace.snapshot().jsonl();
            let golden_lines: Vec<&str> = golden_jsonl.lines().collect();
            let resumed_lines: Vec<&str> = resumed_jsonl.lines().collect();
            assert!(
                resumed_lines.len() <= golden_lines.len(),
                "seed {seed:#x}: resumed trace longer than the golden trace"
            );
            assert_eq!(
                &golden_lines[golden_lines.len() - resumed_lines.len()..],
                &resumed_lines[..],
                "seed {seed:#x}: resumed trace is not the golden trace's tail"
            );
            let _ = fs::remove_file(&path);
        });
    }
}

/// The bytes of a journal or snapshot file after its magic and its sealed
/// header frame: everything but the run's identity (format, build, spec
/// hash, fault seed). The header frame's length field follows the magic and
/// the frame's kind byte.
fn after_header(file: &[u8]) -> &[u8] {
    let len = u64::from_le_bytes(file[9..17].try_into().expect("eight bytes"));
    &file[8 + frame::OVERHEAD + len as usize..]
}

/// What a kill leaves on disk, to the byte: every archetype on fixed seeds
/// (not the matrix seed), clean and faulted, killed at the first event, at
/// a snapshot, one event past it, mid-run and at the very end, under two
/// cadences. All journals fold into one length and one FNV-1a, and their
/// bytes after the header frame into a second FNV-1a, which holds when only
/// the header's spec hash moves. If this fails, a killed run seals
/// different frames than before: do not update the literals; fix the code.
#[test]
fn killed_journals_are_pinned() {
    let (mut journals, mut bytes, mut hash, mut body) = (0u64, 0u64, FNV_OFFSET, FNV_OFFSET);
    let path = tmp("killed-pin");
    for archetype in Archetype::ALL {
        for seed in [3, 1001] {
            let s = GeneratedScenario::new(archetype, seed);
            let modes: [&dyn Fn() -> FlowSim; 2] = [&|| s.sim_clean(), &|| s.sim_corrupt()];
            for build in modes {
                let total = total_events(build());
                for cadence in [5, 64] {
                    let mut kills = vec![1, cadence, cadence + 1, total / 2, total];
                    kills.retain(|&k| k <= total);
                    kills.sort_unstable();
                    kills.dedup();
                    for kill in kills {
                        kill_journaled(build(), &path, cadence, kill);
                        let journal = fs::read(&path).expect("journal readable");
                        journals += 1;
                        bytes += journal.len() as u64;
                        hash = fnv1a_update(hash, &journal);
                        body = fnv1a_update(body, after_header(&journal));
                    }
                }
            }
        }
    }
    let _ = fs::remove_file(&path);
    assert_eq!(
        (journals, bytes, format!("{hash:016x}").as_str(), format!("{body:016x}").as_str()),
        (236, 2_031_906, "0af696ab1f751df9", "d3756fa8188afc83"),
        "journals, total bytes, FNV-1a of every journal in order and of every header-free tail"
    );
}

// --- Case-study flows vs their committed goldens ---------------------------

/// The same gentle Arecibo plan the golden suite uses (see
/// `golden_reports.rs`): drops about weekly against ~6.5-day shipments.
fn arecibo_faulted_sim() -> FlowSim {
    let profile = FaultProfile {
        drops_per_day: 0.15,
        stalls_per_day: 2.0,
        mean_stall: SimDuration::from_mins(30),
        corrupts_per_day: 0.05,
        degrades_per_day: 0.2,
        degrade_factor: 0.7,
        mean_degrade: SimDuration::from_hours(2),
        ..FaultProfile::clean()
    };
    let plan = FaultPlan::generate(42, SimDuration::from_days(90), &profile);
    let graph = arecibo_flow_graph(&AreciboFlowParams::default());
    let pools = vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)];
    FlowSim::new(graph, pools).expect("valid flow").with_faults(plan, RetryPolicy::default())
}

/// The checkpointed CLEO crash run from the golden suite: a squeezed Wilson
/// farm under ~daily crashes, 5-minute checkpoints on reconstruction.
fn cleo_crashed_checkpointed_sim() -> FlowSim {
    let profile = wilson_crash_profile(24.0, SimDuration::from_mins(20));
    let plan = FaultPlan::generate(42, SimDuration::from_days(14), &profile);
    let params = CleoFlowParams::default().with_recon_checkpoint(SimDuration::from_mins(5));
    FlowSim::new(cleo_flow_graph(&params), vec![CpuPool::new(WILSON_POOL, 4)])
        .expect("valid flow")
        .with_faults(plan, RetryPolicy::default())
}

/// The faulted WebLab run from the golden suite: the canonical flaky link.
fn weblab_faulted_sim() -> FlowSim {
    let plan = FaultPlan::generate(42, SimDuration::from_days(30), &FaultProfile::flaky());
    FlowSim::new(
        weblab_flow_graph(&WeblabFlowParams::default()),
        vec![CpuPool::new(WEBLAB_POOL, 16)],
    )
    .expect("valid flow")
    .with_faults(plan, RetryPolicy::default())
}

/// Pause a case-study run mid-makespan, snapshot it, and finish both the
/// paused original and a resumed rebuild — each must render to the exact
/// committed golden snapshot.
fn assert_case_study_resumes(name: &str, golden: &str, build: &dyn Fn() -> FlowSim) {
    let total = total_events(build());
    let mut paused = build();
    let more = paused.run_for(total / 2).expect("first half runs");
    assert!(more, "{name}: the pause point must be mid-run");
    let path = tmp(name);
    paused.snapshot_to(&path).expect("snapshot written");
    let finished = paused.run().expect("paused run finishes");
    assert_matches_golden(golden_path(golden), &finished);
    let resumed = build()
        .resume_from(&path)
        .expect("snapshot accepted for resume")
        .run()
        .expect("resumed run finishes");
    assert_matches_golden(golden_path(golden), &resumed);
    assert_eq!(finished.to_json(), resumed.to_json(), "{name}: resumed JSON bytes diverged");
    let _ = fs::remove_file(&path);
}

#[test]
fn arecibo_resumes_mid_makespan_to_the_committed_golden() {
    assert_case_study_resumes("arecibo", "arecibo_faulted", &arecibo_faulted_sim);
}

#[test]
fn cleo_crashed_checkpointed_resumes_mid_makespan_to_the_committed_golden() {
    assert_case_study_resumes("cleo", "cleo_crashed_checkpointed", &cleo_crashed_checkpointed_sim);
}

#[test]
fn weblab_resumes_mid_makespan_to_the_committed_golden() {
    assert_case_study_resumes("weblab", "weblab_faulted", &weblab_faulted_sim);
}

// --- Snapshot payload bytes -----------------------------------------------

/// The fifth pinned mode, less its trace recorder: the corrupt run with a
/// ten-minute sampler tick and two SLO rules (a one-byte backlog ceiling on
/// the first queueing stage, which fires and resolves as that queue fills
/// and drains, and a zero ceiling on escaped taint).
fn sim_observed_slo(s: &GeneratedScenario) -> FlowSim {
    let mut g = s.flow.graph.clone();
    let queueing = g
        .stage_ids()
        .map(|id| g.stage(id))
        .find(|st| !matches!(st.kind, StageKind::Source(_) | StageKind::Archive))
        .expect("every zoo graph has a stage between source and archive")
        .name
        .clone();
    g.set_observe(ObserveConfig::every(SimDuration::from_mins(10)));
    g.set_slos(vec![
        SloRule::queue_backlog("backlog", &queueing, DataVolume::from_bytes(1)),
        SloRule::escaped_taint("escapes", 0),
    ]);
    let plan = FaultPlan::generate(
        derive_seed(s.flow.seed, "zoo-corrupt"),
        s.flow.horizon,
        &s.flow.corrupt_profile(),
    );
    FlowSim::new(g, s.flow.pools.clone())
        .expect("generated graph is valid")
        .with_faults(plan, s.policy)
}

/// What the recorder of a traced mode had seen when a snapshot was taken.
struct PauseView {
    /// Time of the last trace event: a lower bound on the paused clock.
    last_at: SimTime,
    /// Resource crashes injected so far.
    crashes: usize,
    /// Whether some batcher's last queue-depth event shows buffered blocks.
    /// A batcher buffer below its batch size always has its linger timer
    /// scheduled, so this is also a live `flush`.
    batcher_buffering: bool,
}

fn is_resource_crash(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::FaultInjected { scope: FaultScope::Resource(_), kind: FaultKind::Crash, .. }
    )
}

fn crashes_in(events: &[(SimTime, TraceEvent)]) -> usize {
    events.iter().filter(|(_, ev)| is_resource_crash(ev)).count()
}

/// The fixed seeds (not the matrix seed) the snapshot pins run.
const PINNED_SEEDS: [u64; 5] = [1, 2, 3, 77, 1001];

/// Builds one mode's simulator; the traced modes attach the recorder.
type Build<'a> = Box<dyn Fn(TraceRecorder) -> Option<FlowSim> + 'a>;

/// The five pinned modes: name, whether the mode attaches its recorder,
/// and its builder (`None` where the graph has no crash profile).
fn pinned_modes(s: &GeneratedScenario) -> [(&'static str, bool, Build<'_>); 5] {
    [
        ("clean", false, Box::new(|_| Some(s.sim_clean()))),
        ("corrupt", false, Box::new(|_| Some(s.sim_corrupt()))),
        ("corrupt-verified", false, Box::new(|_| Some(s.sim_corrupt_verified()))),
        ("crashy", true, Box::new(|t| Some(s.sim_crashy()?.with_observer(t)))),
        ("observed-slo", true, Box::new(|t| Some(sim_observed_slo(s).with_observer(t)))),
    ]
}

/// Advance `sim`, a fresh run of `total` events, to 1/8, 3/8, 5/8 and 7/8
/// of them, writing a snapshot file to `path` and calling `at_point` at
/// each. A run too short for a point skips it.
fn pause_points(
    label: &str,
    sim: &mut FlowSim,
    total: u64,
    path: &Path,
    mut at_point: impl FnMut(),
) {
    let mut done = 0;
    for eighths in [1, 3, 5, 7] {
        let k = total * eighths / 8;
        if k == done {
            continue;
        }
        let more = sim.run_for(k - done).expect("run advances");
        assert!(more, "{label}: {k}/{total} must be mid-run");
        done = k;
        sim.snapshot_to(path).expect("snapshot written");
        at_point();
    }
}

/// The snapshot format, byte for byte: `snapshot_to` at 1/8, 3/8, 5/8 and
/// 7/8 of every zoo archetype's run under five modes, on fixed seeds (not
/// the matrix seed), folded into four literals. They are those of snapshot
/// format 3, re-pinned when the payload dropped the values no resume reads
/// (as they were for format 2, when its integers became LEB128), while
/// [`snapshot_points_resume_to_pinned_reports`] held every resume from
/// these files to what format 1 resumed to. The fourth folds each file's
/// bytes after its header frame, which holds when only the header's spec
/// hash moves. If this fails the on-disk format changed: do not update the
/// literals; fix the code.
///
/// The traced modes also prove the sweep is not vacuous, from the public
/// trace alone: some snapshot holds a crash event still pending in the
/// engine, some a batcher buffer with its linger flush scheduled, some a
/// completed alert window, some a sampler with two or more samples.
#[test]
fn byte_pin_snapshot_payloads() {
    const TICK: SimDuration = SimDuration::from_mins(10);
    let (mut files, mut bytes, mut fold, mut body) = (0u64, 0u64, 0u64, 0u64);
    let (mut pending_crash, mut live_flush, mut closed_alert, mut two_samples) =
        (false, false, false, false);
    let path = tmp("byte-pin");
    for archetype in Archetype::ALL {
        for seed in PINNED_SEEDS {
            let s = GeneratedScenario::new(archetype, seed);
            let batchers: Vec<_> = s
                .flow
                .graph
                .stage_ids()
                .filter(|&id| matches!(s.flow.graph.stage(id).kind, StageKind::Batcher(_)))
                .collect();
            for (mode, _, build) in &pinned_modes(&s) {
                let Some(probe) = build(TraceRecorder::new()) else { continue };
                let total = total_events(probe);
                let trace = TraceRecorder::new();
                let mut sim = build(trace.clone()).expect("the probe was built");
                let mut views = Vec::new();
                let label = format!("{archetype} {seed} {mode}");
                pause_points(&label, &mut sim, total, &path, || {
                    let file = fs::read(&path).expect("snapshot readable");
                    files += 1;
                    bytes += file.len() as u64;
                    fold = fold.rotate_left(7) ^ fnv1a(&file);
                    body = body.rotate_left(7) ^ fnv1a(after_header(&file));
                    let seen = trace.snapshot().events;
                    let mut buffered = vec![0usize; batchers.len()];
                    for (_, ev) in &seen {
                        if let TraceEvent::QueueDepthChange { stage, blocks, .. } = ev {
                            if let Some(i) = batchers.iter().position(|b| b == stage) {
                                buffered[i] = *blocks;
                            }
                        }
                    }
                    views.push(PauseView {
                        last_at: seen.last().map_or(SimTime::ZERO, |&(at, _)| at),
                        crashes: crashes_in(&seen),
                        batcher_buffering: buffered.iter().any(|&b| b > 0),
                    });
                });
                let report = sim.run().expect("paused run finishes");
                let crashes_at_end = crashes_in(&trace.snapshot().events);
                for v in &views {
                    // Crash events are scheduled once, when the run starts:
                    // one that fired after the pause was in the snapshot.
                    pending_crash |= crashes_at_end > v.crashes;
                    live_flush |= v.batcher_buffering;
                    // Ticks strictly before an event's time are sampled
                    // when it fires: past one tick, ticks 0 and 1 are in.
                    two_samples |= report.timeseries.is_some() && v.last_at > SimTime::ZERO + TICK;
                    closed_alert |= report
                        .alerts
                        .iter()
                        .flatten()
                        .any(|a| a.resolved_at.is_some_and(|resolved| resolved < v.last_at));
                }
            }
        }
    }
    let _ = fs::remove_file(&path);
    assert!(pending_crash, "no snapshot held a pending CrashResource event");
    assert!(live_flush, "no snapshot held a batcher buffer with a live flush");
    assert!(closed_alert, "no snapshot held a fired-and-resolved alert");
    assert!(two_samples, "no snapshot held a sampler with two or more samples");
    assert_eq!(
        (files, bytes, format!("{fold:016x}").as_str(), format!("{body:016x}").as_str()),
        (580, 2_205_795, "174c525542da1fce", "a84517c08f1ef0f2"),
        "snapshot files, total bytes, rotate-xor fold of FNV-1a(file) and of FNV-1a(tail after the header)"
    );
}

/// What the 580 snapshot points of [`byte_pin_snapshot_payloads`] resume
/// to, whatever bytes the files hold: at each point a freshly built
/// simulator resumes from the file and runs to the end. Folded are every
/// final report's JSON and, in the traced modes, the resumed recorder's
/// JSONL. The literals were computed before the snapshot format changed,
/// so they judge any re-pin of the file bytes. If this fails a resume
/// diverged: do not update the literals; fix the code.
#[test]
fn snapshot_points_resume_to_pinned_reports() {
    let (mut points, mut fold) = (0u64, 0u64);
    let path = tmp("resume-pin");
    for archetype in Archetype::ALL {
        for seed in PINNED_SEEDS {
            let s = GeneratedScenario::new(archetype, seed);
            for (mode, traced, build) in &pinned_modes(&s) {
                let Some(probe) = build(TraceRecorder::new()) else { continue };
                let total = total_events(probe);
                let mut sim = build(TraceRecorder::new()).expect("the probe was built");
                let label = format!("{archetype} {seed} {mode}");
                pause_points(&label, &mut sim, total, &path, || {
                    let trace = TraceRecorder::new();
                    let report = build(trace.clone())
                        .expect("the probe was built")
                        .resume_from(&path)
                        .unwrap_or_else(|e| panic!("{label}: snapshot refused: {e}"))
                        .run()
                        .expect("resumed run finishes");
                    points += 1;
                    fold = fold.rotate_left(7) ^ fnv1a(report.to_json().as_bytes());
                    if *traced {
                        fold = fold.rotate_left(7) ^ fnv1a(trace.snapshot().jsonl().as_bytes());
                    }
                });
            }
        }
    }
    let _ = fs::remove_file(&path);
    assert_eq!(
        (points, format!("{fold:016x}").as_str()),
        (580, "edf06e41c3a45230"),
        "snapshot points, rotate-xor fold of FNV-1a(report JSON, traced JSONL)"
    );
}

// --- Sealed-format robustness ---------------------------------------------

/// A deliberately small faulted flow, so the byte-level sweeps (one resume
/// attempt per truncation offset and per bit) stay fast.
fn tiny_sim() -> FlowSim {
    let mut g = FlowGraph::new();
    let src = g.add_stage(
        "acquire",
        StageKind::Source(SourceSpec {
            block: DataVolume::gb(2),
            interval: SimDuration::from_hours(1),
            blocks: 4,
        }),
    );
    let link = g.add_stage(
        "link",
        StageKind::Transfer(TransferSpec {
            rate: DataRate::mb_per_sec(50.0),
            latency: SimDuration::from_secs(1),
            channels: 1,
        }),
    );
    let sink = g.add_stage("archive", StageKind::Archive);
    g.connect(src, link).expect("stages exist");
    g.connect(link, sink).expect("stages exist");
    let plan = FaultPlan::generate(7, SimDuration::from_hours(8), &FaultProfile::flaky());
    FlowSim::new(g, vec![]).expect("valid flow").with_faults(plan, RetryPolicy::default())
}

/// The mid-run snapshot file holds the sealed contract the whole design
/// rests on: every truncation and every single-bit flip is a typed error —
/// never a silent resume — while a torn tail (bytes past the last sealed
/// frame) recovers by truncation, because that is exactly what a crash
/// mid-append leaves behind.
#[test]
fn snapshot_files_survive_the_sealed_corruption_sweep() {
    let mut sim = tiny_sim();
    let more = sim.run_for(6).expect("first events run");
    assert!(more, "the pause point must be mid-run");
    let path = tmp("sealed-sweep-src");
    sim.snapshot_to(&path).expect("snapshot written");
    let clean = fs::read(&path).expect("snapshot readable");
    let scratch = tmp("sealed-sweep-scratch");
    assert_sealed_roundtrip(
        &clean,
        |bytes| {
            fs::write(&scratch, bytes).expect("scratch writable");
            tiny_sim().resume_from(&scratch).map(|_| ())
        },
        TailPolicy::Recover,
    );
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&scratch);
}

/// Walk a journal's frames: `(kind, payload_offset, payload_len)` per
/// frame, after the 8-byte magic. Mirrors `sciflow_core::durable`'s layout:
/// `[kind u8][len u64 LE][payload][fnv u64 LE]`.
fn journal_frames(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut frames = Vec::new();
    let mut pos = 8;
    while pos + 9 <= bytes.len() {
        let kind = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        frames.push((kind, pos + 9, len));
        pos += 9 + len + 8;
    }
    frames
}

/// Produce a killed journaled run of the tiny flow with at least two sealed
/// snapshot frames, returning the journal path and the uninterrupted golden.
fn killed_tiny_journal(name: &str) -> (PathBuf, sciflow_core::metrics::SimReport) {
    let golden = tiny_sim().run().expect("golden run converges");
    let total = total_events(tiny_sim());
    let cadence = (total / 4).max(1);
    let path = tmp(name);
    kill_journaled(tiny_sim(), &path, cadence, total - 1);
    (path, golden)
}

/// A bit flip inside the *last* snapshot frame must not kill the journal:
/// recovery drops the damaged frame, falls back to the previous sealed
/// snapshot, and the resumed run still finishes identical to the golden.
#[test]
fn a_damaged_last_frame_falls_back_to_the_previous_sealed_snapshot() {
    let (path, golden) = killed_tiny_journal("frame-fallback");
    let mut bytes = fs::read(&path).expect("journal readable");
    let snaps: Vec<_> =
        journal_frames(&bytes).into_iter().filter(|&(kind, _, _)| kind == 2).collect();
    assert!(snaps.len() >= 2, "need at least two sealed snapshots, got {}", snaps.len());
    let (_, off, len) = *snaps.last().expect("snapshot frame exists");
    bytes[off + len / 2] ^= 0x40;
    fs::write(&path, &bytes).expect("journal writable");
    let resumed = tiny_sim()
        .resume_from(&path)
        .expect("fallback snapshot accepted")
        .run()
        .expect("resumed run converges");
    assert_eq!(resumed, golden, "fallback resume diverged from the golden");
    let _ = fs::remove_file(&path);
}

/// A torn tail — a partial frame a crash left mid-append — is truncated
/// back to the last sealed frame and the resume proceeds from there.
#[test]
fn a_torn_journal_tail_is_truncated_and_resumed_past() {
    let (path, golden) = killed_tiny_journal("torn-tail");
    let mut bytes = fs::read(&path).expect("journal readable");
    bytes.extend_from_slice(&[0x02, 0xFF, 0xFF, 0x00, 0x13, 0x37]); // half a frame header
    fs::write(&path, &bytes).expect("journal writable");
    let resumed = tiny_sim()
        .resume_from(&path)
        .expect("torn tail recovered")
        .run()
        .expect("resumed run converges");
    assert_eq!(resumed, golden, "torn-tail resume diverged from the golden");
    let _ = fs::remove_file(&path);
}
