//! Crash-recovery integration suite: compute-node crashes, pool outages,
//! and checkpoint/restart, driven end to end through the public APIs.
//!
//! The paper's flows run for weeks on shared farms; nodes die. These tests
//! pin the recovery contract: a seeded crash timeline kills in-flight
//! tasks, the work is requeued and completes, checkpointing bounds the
//! loss, and every run replays byte-identically from its seed.
//!
//! The whole suite honours `FAULT_MATRIX_SEED` (see
//! [`sciflow_testkit::matrix_seed`]): CI sweeps it across fixed seeds.

use sciflow_arecibo::flow::{arecibo_flow_graph, ctc_crash_profile, AreciboFlowParams, CTC_POOL};
use sciflow_core::fault::{FaultKind, FaultPlan, RetryPolicy};
use sciflow_core::metrics::SimReport;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::units::{DataVolume, SimDuration};
use sciflow_testkit::{
    assert_checkpoint_bound, assert_crash_recovery, assert_deterministic, assert_monotone_sim_time,
    derive_seed, matrix_seed, CrashFlowScenario,
};

#[test]
fn crash_plans_replay_from_their_seed() {
    let seed = matrix_seed(42);
    let s = CrashFlowScenario::new(seed);
    let (a, b) = (s.plan(), s.plan());
    assert_eq!(a.events().len(), b.events().len());
    assert!(a.count(|k| matches!(k, FaultKind::NodeCrash { .. })) > 0, "plan must carry crashes");
    // A different seed yields a different timeline.
    let other = CrashFlowScenario::new(seed ^ 0xFFFF).plan();
    assert_ne!(
        a.events().iter().map(|e| e.at).collect::<Vec<_>>(),
        other.events().iter().map(|e| e.at).collect::<Vec<_>>(),
    );
}

/// The acceptance-bar scenario: a `Process` stage under a seeded NodeCrash
/// timeline loses in-flight work, requeues it, and still completes.
#[test]
fn process_stage_requeues_crashed_work_and_completes() {
    let seed = matrix_seed(42);
    let s = CrashFlowScenario::new(seed);
    let report = assert_deterministic(seed, |sd| CrashFlowScenario::new(sd).run());
    let m = report.stage(CrashFlowScenario::PROCESS).unwrap();
    assert!(m.crashes > 0, "seed {seed}: crashes must land on running tasks");
    assert!(m.work_lost > SimDuration::ZERO);
    assert_crash_recovery(&report, CrashFlowScenario::PROCESS);
    assert_monotone_sim_time(&report);
    assert_eq!(report.stage(CrashFlowScenario::ARCHIVE).unwrap().volume_in, s.total_volume());
}

/// With `CheckpointPolicy::interval(t)` the reported `work_lost` obeys the
/// per-crash salvage bound, is strictly below the uncheckpointed run
/// whenever that run lost more than the bound allows, both replay
/// byte-identically, and delivered bytes never decrease.
#[test]
fn checkpointing_strictly_reduces_work_lost_on_the_same_plan() {
    let seed = matrix_seed(42);
    let every = SimDuration::from_mins(30);
    let plain = assert_deterministic(seed, |sd| CrashFlowScenario::new(sd).run());
    let ckpt =
        assert_deterministic(seed, |sd| CrashFlowScenario::new(sd).checkpointed(every).run());
    let (p, c) = (
        plain.stage(CrashFlowScenario::PROCESS).unwrap(),
        ckpt.stage(CrashFlowScenario::PROCESS).unwrap(),
    );
    assert!(p.crashes > 0);
    assert_checkpoint_bound(&ckpt, CrashFlowScenario::PROCESS, c_policy(every));
    // Each crash can destroy at most one checkpoint interval; if the
    // uncheckpointed run lost more than that bound, checkpointing must
    // come out strictly ahead. (Seeds whose crashes all land inside the
    // first interval salvage nothing, so only `<=` holds there.)
    if p.work_lost > every * c.crashes {
        assert!(
            c.work_lost < p.work_lost,
            "seed {seed}: checkpointed loss {} must be strictly below uncheckpointed {}",
            c.work_lost,
            p.work_lost
        );
    }
    // Delivered bytes with checkpointing >= without, under the same plan.
    let delivered = |r: &SimReport| r.stage(CrashFlowScenario::ARCHIVE).unwrap().volume_in;
    assert!(delivered(&ckpt) >= delivered(&plain));
    assert_eq!(delivered(&ckpt), CrashFlowScenario::new(seed).total_volume());
}

fn c_policy(every: SimDuration) -> sciflow_core::graph::CheckpointPolicy {
    sciflow_core::graph::CheckpointPolicy::interval(every)
}

/// A whole-pool outage is survivable too: everything running dies at once,
/// is requeued, and the flow completes when the pool comes back.
#[test]
fn pool_outage_kills_everything_and_the_flow_recovers() {
    let seed = matrix_seed(42);
    let run = |sd: u64| {
        let mut s = CrashFlowScenario::new(sd);
        s.profile = s.profile.clone().with_outages(2.0, SimDuration::from_hours(1));
        s.checkpoint = c_policy(SimDuration::from_mins(30));
        (s.total_volume(), s.run())
    };
    let (total, report) = assert_deterministic(seed, run);
    let m = report.stage(CrashFlowScenario::PROCESS).unwrap();
    assert!(m.crashes > 0);
    assert_crash_recovery(&report, CrashFlowScenario::PROCESS);
    assert_eq!(report.stage(CrashFlowScenario::ARCHIVE).unwrap().volume_in, total);
}

/// The paper-scale version: Arecibo dedispersion on a crashing CTC farm,
/// checkpointed, replays byte-identically and delivers every byte the
/// uncheckpointed run does.
#[test]
fn arecibo_checkpointed_dedispersion_replays_byte_identically() {
    let seed = matrix_seed(42);
    let run = |sd: u64, checkpointed: bool| {
        let mut params = AreciboFlowParams { weeks: 1, ..AreciboFlowParams::default() };
        if checkpointed {
            params = params.with_dedisperse_checkpoint(SimDuration::from_hours(2));
        }
        let profile = ctc_crash_profile(4.0, SimDuration::from_hours(2));
        let plan = FaultPlan::generate(
            derive_seed(sd, "arecibo-crash"),
            SimDuration::from_days(30),
            &profile,
        );
        FlowSim::new(
            arecibo_flow_graph(&params),
            vec![CpuPool::new("observatory", 8), CpuPool::new(CTC_POOL, 100)],
        )
        .expect("valid flow")
        .with_faults(plan, RetryPolicy::default())
        .run()
        .expect("flow completes")
    };
    let ckpt = assert_deterministic(seed, |sd| run(sd, true));
    let plain = assert_deterministic(seed, |sd| run(sd, false));
    let dedisp = ckpt.stage("dedisperse").unwrap();
    assert!(dedisp.crashes > 0, "seed {seed}: crashes must hit dedispersion");
    assert!(dedisp.work_lost < plain.stage("dedisperse").unwrap().work_lost);
    assert_crash_recovery(&ckpt, "dedisperse");
    assert_checkpoint_bound(&ckpt, "dedisperse", c_policy(SimDuration::from_hours(2)));
    // Same plan, same data: checkpointing changes when work finishes, not
    // what is delivered.
    let delivered = |r: &SimReport| r.stage("ctc-database").unwrap().volume_in;
    assert!(delivered(&ckpt) >= delivered(&plain));
    assert_eq!(ckpt.stage("acquire").unwrap().volume_out, DataVolume::tb(14));
}

// --- Crashes of channel resources -------------------------------------------

mod channel_crash_pin {
    use std::fs;

    use sciflow_core::fault::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
    use sciflow_core::fnv::fnv1a;
    use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageId, StageKind};
    use sciflow_core::sim::FlowSim;
    use sciflow_core::spec::{DedupSpec, FilterSpec, SourceSpec};
    use sciflow_core::trace::{self, FaultScope, TraceEvent, TraceRecorder};
    use sciflow_core::units::{DataRate, DataVolume, SimDuration, SimTime};

    const TRIGGER: &str = "trigger";
    const DEDUP: &str = "dedup";

    /// Six 10 GB blocks, one every 100 s, through a checkpointed filter
    /// (50 s of inspection a block, a 1 s checkpoint every 10 s, half of it
    /// accepted) and a dedup (50 s a block, index warm after three blocks,
    /// 40% unique afterwards).
    fn graph() -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "detector",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(10),
                interval: SimDuration::from_secs(100),
                blocks: 6,
            }),
        );
        let f = g.add_stage(
            TRIGGER,
            StageKind::Filter(FilterSpec {
                rate: DataRate::mb_per_sec(200.0),
                accept_ratio: 0.5,
                checkpoint: CheckpointPolicy::Interval {
                    every: SimDuration::from_secs(10),
                    cost: SimDuration::from_secs(1),
                },
            }),
        );
        let d = g.add_stage(
            DEDUP,
            StageKind::Dedup(DedupSpec {
                rate: DataRate::mb_per_sec(100.0),
                unique_ratio: 0.4,
                window: 3,
            }),
        );
        let a = g.add_stage("tape", StageKind::Archive);
        g.connect(s, f).unwrap();
        g.connect(f, d).unwrap();
        g.connect(d, a).unwrap();
        g
    }

    /// The filter's channel dies at 125 s, 25 s into the second block's
    /// inspection (two checkpoints written, 3 s past the second lost), and
    /// is back at 185 s; the dedup's dies at 290 s, 19 s into its third
    /// inspection, and is back at 330 s.
    fn plan() -> FaultPlan {
        let crash = |at, stage: &str, repair| FaultEvent {
            at: SimTime::ZERO + SimDuration::from_secs(at),
            kind: FaultKind::NodeCrash {
                pool: format!("{stage}#channel"),
                cpus: 1,
                repair: SimDuration::from_secs(repair),
            },
        };
        FaultPlan::from_events(7, vec![crash(125, TRIGGER, 60), crash(290, DEDUP, 40)])
    }

    fn sim(trace: TraceRecorder) -> FlowSim {
        FlowSim::new(graph(), vec![])
            .expect("valid flow")
            .with_faults(plan(), RetryPolicy::default())
            .with_observer(trace)
    }

    fn kills_at(events: &[(SimTime, TraceEvent)], at: StageId) -> usize {
        let kill =
            |ev: &TraceEvent| matches!(ev, TraceEvent::CrashKill { stage, .. } if *stage == at);
        events.iter().filter(|(_, ev)| kill(ev)).count()
    }

    fn repairs(events: &[(SimTime, TraceEvent)]) -> usize {
        let repair = |ev: &TraceEvent| {
            matches!(
                ev,
                TraceEvent::FaultInjected {
                    scope: FaultScope::Resource(_),
                    kind: trace::FaultKind::Repair,
                    ..
                }
            )
        };
        events.iter().filter(|(_, ev)| repair(ev)).count()
    }

    /// The kill path of the channel-holding stages, byte for byte: literals
    /// computed at the commit before the task runner replaced the three
    /// copies of it. If this fails the behaviour of a crashed filter or
    /// dedup changed: do not update the literals; fix the code.
    #[test]
    fn byte_pin_channel_crash_report_and_trace() {
        let g = graph();
        let (trigger, dedup) = (g.find(TRIGGER).unwrap(), g.find(DEDUP).unwrap());
        let recorder = TraceRecorder::new();
        let report = sim(recorder.clone()).run().expect("flow completes");
        let snap = recorder.snapshot();
        let (json, jsonl) = (report.to_json(), snap.jsonl());

        // Not vacuous, from the trace alone: each stage lost a running
        // inspection, the filter's had banked two checkpoints...
        let events = &snap.events;
        assert_eq!((kills_at(events, trigger), kills_at(events, dedup)), (1, 1));
        assert_eq!(repairs(events), 2);
        let killed_task = events
            .iter()
            .find_map(|(_, ev)| match ev {
                TraceEvent::CrashKill { stage, task, .. } if *stage == trigger => Some(*task),
                _ => None,
            })
            .unwrap();
        let banked = events.iter().any(|(_, ev)| {
            matches!(ev, TraceEvent::CheckpointWritten { stage, task, count, .. }
                if *stage == trigger && *task == killed_task && *count == 2)
        });
        assert!(banked, "the killed filter task must have written its two checkpoints");
        let (t, d) = (report.stage(TRIGGER).unwrap(), report.stage(DEDUP).unwrap());
        assert_eq!((t.crashes, d.crashes), (1, 1));
        assert_eq!((t.work_lost, t.work_replayed), (SimDuration::from_secs(3), t.work_lost));
        assert_eq!((d.work_lost, d.work_replayed), (SimDuration::from_secs(19), d.work_lost));
        // ... and the dedup's killed third inspection did not warm the
        // index: rerun, it is still inside the window and forwards its whole
        // 5 GB; only the fourth block is reduced to its unique 40%.
        let forwarded: Vec<DataVolume> = events
            .iter()
            .filter_map(|(_, ev)| match ev {
                TraceEvent::TaskEnd { stage, volume, .. } if *stage == dedup => Some(*volume),
                _ => None,
            })
            .collect();
        let (whole, unique) = (DataVolume::gb(5), DataVolume::gb(2));
        assert_eq!(forwarded, [whole, whole, whole, unique, unique, unique]);
        assert_eq!((t.blocks_out, d.blocks_out), (6, 6));
        assert_eq!(report.stage("tape").unwrap().volume_in, DataVolume::gb(21));

        assert_eq!(
            (json.len(), format!("{:016x}", fnv1a(json.as_bytes())).as_str()),
            (2386, "61dd2af86f894440"),
            "report JSON: length, FNV-1a"
        );
        assert_eq!(
            (jsonl.len(), format!("{:016x}", fnv1a(jsonl.as_bytes())).as_str()),
            (5798, "c9568697ef77debf"),
            "trace JSONL: length, FNV-1a"
        );
        assert_eq!(report.finished_at, SimTime::ZERO + SimDuration::from_secs(604));
    }

    /// A snapshot taken while a channel is down — after each stage's kill,
    /// before the repair that follows it — resumes to the same report and
    /// to exactly the rest of the trace.
    #[test]
    fn snapshot_between_a_channel_crash_and_its_repair_resumes_identically() {
        let g = graph();
        let golden_trace = TraceRecorder::new();
        let golden = sim(golden_trace.clone()).run().expect("flow completes");
        let golden_jsonl = golden_trace.snapshot().jsonl();
        for (stage, repairs_before) in [(TRIGGER, 0), (DEDUP, 1)] {
            let id = g.find(stage).unwrap();
            let paused_trace = TraceRecorder::new();
            let mut paused = sim(paused_trace.clone());
            while kills_at(&paused_trace.snapshot().events, id) == 0 {
                assert!(paused.run_for(1).expect("run advances"), "{stage}: never killed");
            }
            assert_eq!(repairs(&paused_trace.snapshot().events), repairs_before, "{stage}");
            let path = std::env::temp_dir()
                .join(format!("sciflow-channel-crash-{}-{stage}.snap", std::process::id()));
            paused.snapshot_to(&path).expect("snapshot written");
            let prefix = paused_trace.snapshot().jsonl();
            let resumed_trace = TraceRecorder::new();
            let resumed = sim(resumed_trace.clone())
                .resume_from(&path)
                .expect("snapshot accepted for resume")
                .run()
                .expect("resumed run finishes");
            let _ = fs::remove_file(&path);
            assert_eq!(resumed, golden, "{stage}: resumed report diverged");
            assert_eq!(resumed.to_json(), golden.to_json(), "{stage}: resumed JSON diverged");
            assert_eq!(
                prefix + &resumed_trace.snapshot().jsonl(),
                golden_jsonl,
                "{stage}: killed prefix + resumed tail must be the uninterrupted trace"
            );
            assert_eq!(paused.run().expect("paused run finishes"), golden, "{stage}");
        }
    }
}
