//! Determinism and conservation contracts of the tracing layer.
//!
//! Two halves of one promise:
//!
//! * **Observation changes nothing.** A flow run with a no-op observer must
//!   match the committed golden snapshots byte for byte — the exact files
//!   captured before the observability layer existed.
//! * **Observation misses nothing.** The trace a [`TraceRecorder`] collects
//!   is itself deterministic (same seed, byte-identical JSONL) and agrees
//!   exactly with the aggregate report
//!   ([`sciflow_testkit::assert_trace_conservation`]).
//!
//! The default seed follows `FAULT_MATRIX_SEED`, so CI sweeps these tests
//! across the fault matrix; one test also pins the sweep seeds explicitly.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use sciflow_arecibo::flow::{arecibo_flow_graph, AreciboFlowParams, CTC_POOL};
use sciflow_cleo::flow::{cleo_flow_graph, CleoFlowParams, WILSON_POOL};
use sciflow_core::fault::RetryPolicy;
use sciflow_core::fnv::fnv1a;
use sciflow_core::genflow::{stress_flow, Archetype, StressParams, SEED_PAYLOAD_MASK};
use sciflow_core::graph::{FlowGraph, StageId, StageKind};
use sciflow_core::rng::Rng;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::trace::{
    NoopObserver, Observer, Span, TraceEvent, TraceMeta, TraceRecorder, TraceSnapshot,
};
use sciflow_core::units::{DataVolume, SimDuration, SimTime};
use sciflow_core::{critical_path, PathSegment};
use sciflow_testkit::{
    assert_matches_golden, assert_trace_conservation, derive_seed, matrix_seed, GeneratedScenario,
    TracedFlowScenario,
};
use sciflow_weblab::flow::{weblab_flow_graph, WeblabFlowParams, WEBLAB_POOL};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(format!("{name}.txt"))
}

/// Attaching an observer that discards everything must leave each case-study
/// flow's report byte-identical to the committed pre-observability goldens.
#[test]
fn noop_observer_leaves_every_golden_byte_identical() {
    let arecibo = FlowSim::new(
        arecibo_flow_graph(&AreciboFlowParams::default()),
        vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)],
    )
    .expect("valid flow")
    .with_observer(NoopObserver)
    .run()
    .expect("flow completes");
    assert_matches_golden(golden_path("arecibo_clean"), &arecibo);

    let cleo = FlowSim::new(
        cleo_flow_graph(&CleoFlowParams::default()),
        vec![CpuPool::new(WILSON_POOL, 32)],
    )
    .expect("valid flow")
    .with_observer(NoopObserver)
    .run()
    .expect("flow completes");
    assert_matches_golden(golden_path("cleo_clean"), &cleo);

    let weblab = FlowSim::new(
        weblab_flow_graph(&WeblabFlowParams::default()),
        vec![CpuPool::new(WEBLAB_POOL, 16)],
    )
    .expect("valid flow")
    .with_observer(NoopObserver)
    .run()
    .expect("flow completes");
    assert_matches_golden(golden_path("weblab_clean"), &weblab);
}

/// Same seed, same flow: the recorded trace must replay byte-identically —
/// JSONL and Chrome export both — and the reports must be equal.
#[test]
fn traced_runs_replay_byte_identically() {
    let s = TracedFlowScenario::new(matrix_seed(42));
    let (report_a, trace_a) = s.run();
    let (report_b, trace_b) = s.run();
    assert_eq!(report_a, report_b, "reports must replay identically under tracing");
    assert_eq!(trace_a.jsonl(), trace_b.jsonl(), "JSONL trace must be byte-identical");
    assert_eq!(trace_a.chrome_trace(), trace_b.chrome_trace());
    assert!(!trace_a.events.is_empty());
}

/// The trace and the report agree exactly under the matrix seed: every task
/// span closes, and per-stage span time sums to the reported busy time.
#[test]
fn traced_run_conserves_under_matrix_seed() {
    let (report, trace) = TracedFlowScenario::new(matrix_seed(42)).run();
    assert_trace_conservation(&report, &trace);
}

/// The full sweep, pinned: every fault-matrix seed replays byte-identically
/// and conserves, whatever `FAULT_MATRIX_SEED` the environment has.
#[test]
fn every_matrix_seed_is_deterministic_and_conserves() {
    for seed in [42u64, 7, 1234, 9001] {
        let s = TracedFlowScenario::new(seed);
        let (report, trace) = s.run();
        let (_, again) = s.run();
        assert_eq!(trace.jsonl(), again.jsonl(), "seed {seed}: trace not replay-stable");
        assert_trace_conservation(&report, &trace);
    }
}

/// The paper's capacity-planning answer, pinned as a regression: on the
/// default Arecibo survey flow the serial disk-shipping channel — not the
/// CPU farm — owns the makespan.
#[test]
fn arecibo_critical_path_names_ship_disks_dominant() {
    use sciflow_arecibo::flow::arecibo_observe_preset;
    let mut graph = arecibo_flow_graph(&AreciboFlowParams::default());
    graph.set_observe(arecibo_observe_preset());
    let trace = TraceRecorder::new();
    let report =
        FlowSim::new(graph, vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 150)])
            .expect("valid flow")
            .with_observer(trace.clone())
            .run()
            .expect("flow completes");
    let snapshot = trace.snapshot();
    assert_trace_conservation(&report, &snapshot);
    let cp = critical_path(&snapshot, report.finished_at);
    let dominant = cp.dominant().expect("a non-empty run has a dominant stage");
    assert_eq!(dominant.name, "ship-disks", "shipping must dominate: {cp}");
    assert!(
        dominant.share > 0.5,
        "shipping should own most of the makespan, got {}",
        dominant.share
    );
    // The chain plus waiting tiles the makespan exactly.
    let attributed: sciflow_core::units::SimDuration = cp.stages.iter().map(|b| b.attributed).sum();
    assert_eq!(
        (attributed + cp.unattributed).as_micros(),
        report.finished_at.as_micros(),
        "critical chain must tile the makespan"
    );
}

// --- the recorder's byte log against the store it replaced ---

/// The recorder's store as it was first written, kept as the reference: one
/// cloned `(SimTime, TraceEvent)` per event.
#[derive(Clone, Default)]
struct VecObserver {
    events: Rc<RefCell<Vec<(SimTime, TraceEvent)>>>,
}

impl Observer for VecObserver {
    fn begin(&mut self, _meta: &TraceMeta) {
        self.events.borrow_mut().clear();
    }

    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        self.events.borrow_mut().push((at, ev.clone()));
    }
}

/// Hands one run's stream to two observers.
struct Tee<A, B>(A, B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    fn begin(&mut self, meta: &TraceMeta) {
        self.0.begin(meta);
        self.1.begin(meta);
    }

    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        self.0.record(at, ev);
        self.1.record(at, ev);
    }
}

/// Position of the event's variant in `TraceEvent`'s declaration.
fn variant_index(ev: &TraceEvent) -> usize {
    match ev {
        TraceEvent::TaskStart { .. } => 0,
        TraceEvent::TaskEnd { .. } => 1,
        TraceEvent::TransferAttempt { .. } => 2,
        TraceEvent::TransferRetry { .. } => 3,
        TraceEvent::TransferAbandon { .. } => 4,
        TraceEvent::QueueDepthChange { .. } => 5,
        TraceEvent::FaultInjected { .. } => 6,
        TraceEvent::CheckpointWritten { .. } => 7,
        TraceEvent::VerifyCheck { .. } => 8,
        TraceEvent::BlockQuarantined { .. } => 9,
        TraceEvent::CrashKill { .. } => 10,
    }
}

/// Runs `sim` with a `TraceRecorder` and a `VecObserver` both attached and
/// asserts that the recorder decodes, event for event, to what the `Vec`
/// kept; returns the kept stream.
fn assert_recorder_keeps_what_a_vec_keeps(sim: FlowSim, what: &str) -> Vec<(SimTime, TraceEvent)> {
    let (recorder, vec) = (TraceRecorder::new(), VecObserver::default());
    sim.with_observer(Tee(recorder.clone(), vec.clone())).run().expect("flow converges");
    let kept = vec.events.take();
    assert_eq!(recorder.len(), kept.len(), "{what}");
    assert_eq!(recorder.snapshot().events, kept, "{what}");
    kept
}

/// Every zoo archetype, 16 graphs each off the matrix seed, clean and in all
/// three fault regimes: what a `TraceRecorder` decodes from its log is, event
/// for event, what the `Vec` store beside it kept — and the sweep saw every
/// variant, so no arm of the codec is compared vacuously. The default budget
/// of six retries never runs out on these graphs, so the corrupt regime runs
/// once more with no retries at all, for its abandoned blocks. Last, the
/// 75 200-event stress trace `trace-analyze` reads: a log long enough that
/// any layout that splits it into pieces splits it several times.
#[test]
fn recorder_log_decodes_to_what_a_vec_store_keeps() {
    let master = matrix_seed(42);
    let mut seen = [0usize; 11];
    for archetype in Archetype::ALL {
        for i in 0..16 {
            let seed = derive_seed(master, &format!("zoo-codec-{}-{i}", archetype.name()))
                & SEED_PAYLOAD_MASK;
            let s = GeneratedScenario::new(archetype, seed);
            let mut no_retries = s.clone();
            no_retries.policy = RetryPolicy::no_retries();
            let sims = [
                ("clean", Some(s.sim_clean())),
                ("corrupt", Some(s.sim_corrupt())),
                ("corrupt, no retries", Some(no_retries.sim_corrupt())),
                ("corrupt-verified", Some(s.sim_corrupt_verified())),
                ("crashy", s.sim_crashy()),
            ];
            for (mode, sim) in sims {
                let Some(sim) = sim else { continue };
                let what = format!("{mode} ({}, {seed:#x})", archetype.name());
                for (_, ev) in assert_recorder_keeps_what_a_vec_keeps(sim, &what) {
                    seen[variant_index(&ev)] += 1;
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "events compared, by variant: {seen:?}");
    let (graph, pools) = stress_flow(&StressParams { chains: 4, depth: 25, blocks: 200 });
    let sim = FlowSim::new(graph, pools).expect("valid flow");
    let kept = assert_recorder_keeps_what_a_vec_keeps(sim, "stress (4, 25, 200)");
    assert_eq!(kept.len(), 75_200);
}

// --- critical path: the one-pass walk against the walk it replaced ---

/// The last-responsible-activity walk as it was first written, kept as the
/// reference: at every point of the chain it rescans every span, so it is
/// quadratic, and so plainly the definition that it is what `critical_path`
/// is held to — same segments, same tie-breaks (the larger clamped end, then
/// the later start, then the lower stage id; spans equal in all three yield
/// the same segment whichever is taken).
fn quadratic_chain(spans: &[Span], makespan: SimTime) -> Vec<PathSegment> {
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut t = makespan;
    while t > SimTime::ZERO {
        let mut best: Option<(SimTime, usize)> = None; // (clamped end, span idx)
        for (i, s) in spans.iter().enumerate() {
            if s.start >= t {
                continue;
            }
            let key = s.end.min(t);
            let better = match best {
                None => true,
                Some((bk, bi)) => {
                    let b = &spans[bi];
                    key > bk
                        || (key == bk
                            && (s.start > b.start
                                || (s.start == b.start && s.stage.index() < b.stage.index())))
                }
            };
            if better {
                best = Some((key, i));
            }
        }
        let Some((key, i)) = best else {
            segments.push(PathSegment { stage: None, start: SimTime::ZERO, end: t });
            break;
        };
        if key < t {
            segments.push(PathSegment { stage: None, start: key, end: t });
        }
        let s = &spans[i];
        segments.push(PathSegment { stage: Some(s.stage), start: s.start, end: key });
        t = s.start;
    }
    segments.reverse();
    segments
}

/// `critical_path`'s chain equals the reference's at `makespan`; returns its
/// length.
fn assert_same_chain(snapshot: &TraceSnapshot, makespan: SimTime, what: &str) -> usize {
    let chain = critical_path(snapshot, makespan).segments;
    assert_eq!(chain, quadratic_chain(&snapshot.spans(), makespan), "{what} at {makespan}");
    chain.len()
}

fn half(t: SimTime) -> SimTime {
    SimTime::from_micros(t.as_micros() / 2)
}

/// Every zoo archetype, 32 graphs each off the matrix seed, traced clean and
/// under the corrupt profile (retries, abandoned blocks, reprocessing), with
/// the chain taken at the end of the run and from the middle of it.
#[test]
fn critical_path_equals_the_quadratic_walk_on_zoo_traces() {
    let master = matrix_seed(42);
    let mut segments = 0;
    for archetype in Archetype::ALL {
        for i in 0..32 {
            let seed = derive_seed(master, &format!("zoo-critical-{}-{i}", archetype.name()))
                & SEED_PAYLOAD_MASK;
            let s = GeneratedScenario::new(archetype, seed);
            let clean = TraceRecorder::new();
            let clean_report =
                s.sim_clean().with_observer(clean.clone()).run().expect("generated flow converges");
            let (faulted_report, faulted) = s.run_traced();
            for (mode, report, trace) in
                [("clean", clean_report, clean.snapshot()), ("faulted", faulted_report, faulted)]
            {
                let what = format!("{mode} ({}, {seed:#x})", archetype.name());
                segments += assert_same_chain(&trace, report.finished_at, &what);
                segments += assert_same_chain(&trace, half(report.finished_at), &what);
            }
        }
    }
    assert!(segments > 10_000, "the sweep compared only {segments} segments");
}

fn stress_recorder(chains: usize, depth: usize, blocks: u64) -> (SimTime, TraceRecorder) {
    let (graph, pools) = stress_flow(&StressParams { chains, depth, blocks });
    let trace = TraceRecorder::new();
    let report = FlowSim::new(graph, pools)
        .expect("valid flow")
        .with_observer(trace.clone())
        .run()
        .expect("flow completes");
    (report.finished_at, trace)
}

fn stress_trace(chains: usize, depth: usize, blocks: u64) -> (SimTime, TraceSnapshot) {
    let (finished_at, trace) = stress_recorder(chains, depth, blocks);
    (finished_at, trace.snapshot())
}

/// What the recorder holds for the trace `trace-analyze` reads, to the byte.
/// The log is a pure function of the event stream, so this is the same
/// number on every machine: a field or variant that fattens the log fails
/// here, before it drifts a benchmark's memory row.
#[test]
fn stress_trace_log_size_is_pinned() {
    let (_, trace) = stress_recorder(4, 25, 200);
    assert_eq!(trace.len(), 75_200);
    assert_eq!(trace.bytes_held(), 343_013);
}

/// The two exports of that trace, to the byte: length and FNV-1a of each,
/// and the span count the Chrome export renders a slice per. Pure functions
/// of the event stream, so a changed byte anywhere fails here on any
/// machine, not only in the benchmark's `result_digest`.
#[test]
fn trace_analyze_exports_are_pinned() {
    let (_, trace) = stress_recorder(4, 25, 200);
    let snapshot = trace.snapshot();
    let fnv = |text: &str| format!("{:016x}", fnv1a(text.as_bytes()));
    let jsonl = snapshot.jsonl();
    assert_eq!(
        (jsonl.len(), fnv(&jsonl).as_str()),
        (6_895_104, "934c040edbe0a9b1"),
        "JSONL: length, FNV-1a"
    );
    let chrome = snapshot.chrome_trace();
    assert_eq!(
        (chrome.len(), fnv(&chrome).as_str()),
        (5_445_882, "f50b2c0f6c6ee87a"),
        "Chrome: length, FNV-1a"
    );
    assert_eq!(snapshot.spans().len(), 20_000);
}

/// The trace the benchmark's `trace-analyze` workload reads: 20 000 spans,
/// a chain pinned at 5 199 segments.
#[test]
fn critical_path_equals_the_quadratic_walk_on_the_stress_trace() {
    let (finished_at, trace) = stress_trace(4, 25, 200);
    assert_eq!(assert_same_chain(&trace, finished_at, "stress (4,25,200)"), 5_199);
    assert_same_chain(&trace, half(finished_at), "stress (4,25,200)");
}

/// `n` stage ids. Only a graph hands them out.
fn stage_ids(n: usize) -> Vec<StageId> {
    let mut g = FlowGraph::new();
    (0..n).map(|i| g.add_stage(format!("s{i}"), StageKind::Archive)).collect()
}

/// A trace whose spans are exactly `spans`, as `(stage, start, end)` in
/// microseconds, in that order: one transfer attempt per span.
fn trace_of(spans: &[(usize, u64, u64)]) -> TraceSnapshot {
    let ids = stage_ids(spans.iter().map(|s| s.0 + 1).max().unwrap_or(0));
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, &(stage, start, end))| {
            (
                SimTime::from_micros(start),
                TraceEvent::TransferAttempt {
                    stage: ids[stage],
                    lineage: i as u64,
                    volume: DataVolume::ZERO,
                    attempt: i as u32,
                    duration: SimDuration::from_micros(end - start),
                },
            )
        })
        .collect();
    let stages = ids.iter().map(|id| format!("s{}", id.index())).collect();
    TraceSnapshot { meta: TraceMeta { stages, resources: vec![] }, events }
}

/// The chain at every makespan from zero to past the last span's end.
fn assert_same_chain_everywhere(spans: &[(usize, u64, u64)], what: &str) {
    let trace = trace_of(spans);
    let last = spans.iter().map(|s| s.2).max().unwrap_or(0);
    for makespan in 0..=last + 2 {
        assert_same_chain(&trace, SimTime::from_micros(makespan), what);
    }
}

/// The ties the walk's order exists to break, one trace each, with the
/// winner spelled out where it is not obvious.
#[test]
fn critical_path_breaks_ties_the_way_the_quadratic_walk_does() {
    let seg = |stage: Option<usize>, start: u64, end: u64, ids: &[StageId]| PathSegment {
        stage: stage.map(|s| ids[s]),
        start: SimTime::from_micros(start),
        end: SimTime::from_micros(end),
    };
    let ids = stage_ids(3);

    // Equal ends, nothing running at t: the later start wins, and so again
    // among the two still running where it started.
    let equal_ends = [(0, 0, 10), (1, 4, 10), (2, 2, 10)];
    assert_same_chain_everywhere(&equal_ends, "equal ends");
    assert_eq!(
        critical_path(&trace_of(&equal_ends), SimTime::from_micros(12)).segments,
        vec![
            seg(Some(0), 0, 2, &ids),
            seg(Some(2), 2, 4, &ids),
            seg(Some(1), 4, 10, &ids),
            seg(None, 10, 12, &ids)
        ]
    );

    // Equal starts on different stages, both running at t: the lower stage
    // id wins, whatever their ends and whichever was recorded first.
    let equal_starts = [(2, 3, 9), (1, 3, 20), (0, 0, 3)];
    assert_same_chain_everywhere(&equal_starts, "equal starts");
    assert_eq!(
        critical_path(&trace_of(&equal_starts), SimTime::from_micros(8)).segments,
        vec![seg(Some(0), 0, 3, &ids), seg(Some(1), 3, 8, &ids)]
    );

    // Duplicate spans: the interval is charged once, not once per copy.
    let duplicates = [(1, 2, 6), (1, 2, 6), (0, 0, 2), (0, 0, 2)];
    assert_same_chain_everywhere(&duplicates, "duplicate spans");
    assert_eq!(critical_path(&trace_of(&duplicates), SimTime::from_micros(6)).segments.len(), 2);

    // Zero-length spans: alone, at another span's start, at its end, and at
    // the makespan itself (where one has not started yet).
    assert_same_chain_everywhere(
        &[(0, 5, 5), (1, 5, 9), (2, 9, 9), (0, 0, 0), (1, 12, 12), (2, 12, 12)],
        "zero-length spans",
    );

    // A span straddling the makespan is clamped to it, and outlasts a span
    // that ends exactly there only through the later start.
    let straddling = [(0, 0, 8), (1, 3, 30), (2, 5, 8)];
    assert_same_chain_everywhere(&straddling, "straddling span");
    assert_eq!(
        critical_path(&trace_of(&straddling), SimTime::from_micros(8)).segments,
        vec![seg(Some(0), 0, 3, &ids), seg(Some(1), 3, 5, &ids), seg(Some(2), 5, 8, &ids)]
    );
}

/// Seeded small traces on a coarse grid, where every kind of tie above
/// happens by itself and in combination, at every makespan.
#[test]
fn critical_path_equals_the_quadratic_walk_on_dense_random_ties() {
    let mut rng = Rng::seed_from_u64(matrix_seed(42));
    for case in 0..400 {
        let n = rng.gen_range(0..12usize);
        let spans: Vec<(usize, u64, u64)> = (0..n)
            .map(|_| {
                let start = rng.gen_range(0..10u64);
                (rng.gen_range(0..3usize), start, start + rng.gen_range(0..6u64))
            })
            .collect();
        assert_same_chain_everywhere(&spans, &format!("random case {case}: {spans:?}"));
    }
}

/// The half-block stress shape the benchmark's `sim-observed` workload
/// records under seed 1, `(10, 100, 500)`, 1 875 000 trace events: the
/// analysis has to be runnable on the run it was written for, and the
/// recorder holds that run in exactly the pinned number of bytes, at most
/// 6 an event (the `(SimTime, TraceEvent)` it decodes to is 48). Release
/// mode only (`cargo test --release ... -- --ignored`); the quadratic walk
/// needed minutes here.
#[test]
#[ignore = "release-mode scale check, run by the trace-validate CI job"]
fn critical_path_of_a_full_observed_stress_run() {
    let (finished_at, recorder) = stress_recorder(10, 100, 500);
    assert_eq!(recorder.len(), 1_875_000);
    assert!(recorder.bytes_held() <= 6 * 1_875_000, "{} log bytes", recorder.bytes_held());
    assert_eq!(recorder.bytes_held(), 9_337_927);
    let trace = recorder.snapshot();
    assert_eq!(trace.events.len(), 1_875_000);
    let cp = critical_path(&trace, finished_at);
    assert_eq!(cp.segments.first().map(|s| s.start), Some(SimTime::ZERO));
    assert_eq!(cp.segments.last().map(|s| s.end), Some(finished_at));
    for pair in cp.segments.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "segments must tile the makespan");
    }
    let attributed: SimDuration = cp.stages.iter().map(|b| b.attributed).sum();
    assert_eq!((attributed + cp.unattributed).as_micros(), finished_at.as_micros());
}
