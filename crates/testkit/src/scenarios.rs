//! Seeded scenario builders: the recurring fixtures of the fault-injection
//! suite, each fully determined by a single `u64` seed.

use sciflow_core::fault::{FaultPlan, FaultProfile, RetryPolicy};
use sciflow_core::graph::{CheckpointPolicy, FlowGraph, StageKind};
use sciflow_core::metrics::SimReport;
use sciflow_core::sim::{CpuPool, FlowSim};
use sciflow_core::spec::{ProcessSpec, SourceSpec, TransferSpec};
use sciflow_core::trace::{TraceRecorder, TraceSnapshot};
use sciflow_core::units::{DataRate, DataVolume, SimDuration};

use crate::rng::derive_seed;

/// An end-to-end flow (source → transfer → archive) executed under a seeded
/// fault plan: the fixture for whole-[`SimReport`] determinism and
/// conservation checks. Stage names are [`LossyFlowScenario::SOURCE`],
/// [`LossyFlowScenario::LINK`] and [`LossyFlowScenario::ARCHIVE`].
#[derive(Debug, Clone)]
pub struct LossyFlowScenario {
    pub seed: u64,
    pub block: DataVolume,
    pub interval: SimDuration,
    pub blocks: u64,
    pub rate: DataRate,
    pub latency: SimDuration,
    pub profile: FaultProfile,
    pub policy: RetryPolicy,
}

impl LossyFlowScenario {
    pub const SOURCE: &'static str = "acquire";
    pub const LINK: &'static str = "uplink";
    pub const ARCHIVE: &'static str = "archive";

    pub fn new(seed: u64) -> Self {
        LossyFlowScenario {
            seed,
            block: DataVolume::gb(36),
            interval: SimDuration::from_hours(3),
            blocks: 8,
            rate: DataRate::mbit_per_sec(100.0),
            latency: SimDuration::from_secs(5),
            profile: FaultProfile {
                drops_per_day: 12.0,
                stalls_per_day: 2.0,
                mean_stall: SimDuration::from_mins(10),
                corrupts_per_day: 1.0,
                degrades_per_day: 2.0,
                degrade_factor: 0.5,
                mean_degrade: SimDuration::from_hours(1),
                ..FaultProfile::clean()
            },
            policy: RetryPolicy::default(),
        }
    }

    pub fn plan(&self) -> FaultPlan {
        // Horizon comfortably past the source schedule so retries near the
        // end still see faults.
        let horizon = self.interval * (self.blocks + 8);
        FaultPlan::generate(derive_seed(self.seed, "lossy-flow"), horizon, &self.profile)
    }

    fn graph(&self) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            Self::SOURCE,
            StageKind::Source(SourceSpec {
                block: self.block,
                interval: self.interval,
                blocks: self.blocks,
            }),
        );
        let t = g.add_stage(
            Self::LINK,
            StageKind::Transfer(TransferSpec {
                rate: self.rate,
                latency: self.latency,
                channels: 1,
            }),
        );
        let a = g.add_stage(Self::ARCHIVE, StageKind::Archive);
        g.connect(s, t).expect("fresh graph");
        g.connect(t, a).expect("fresh graph");
        g
    }

    /// Build and run the flow under the seeded fault plan.
    pub fn run(&self) -> SimReport {
        FlowSim::new(self.graph(), vec![])
            .expect("scenario graph is valid")
            .with_faults(self.plan(), self.policy)
            .run()
            .expect("scenario flow converges")
    }
}

/// A compute-bound flow (source → `Process` on a crashing pool → archive):
/// the fixture for crash-recovery and checkpoint/restart properties. The
/// crash timeline repeatedly kills CPUs out of [`CrashFlowScenario::POOL`]
/// mid-task; the stage requeues the lost work and, when `checkpoint` is an
/// interval policy, restarts from the last checkpoint instead of scratch.
#[derive(Debug, Clone)]
pub struct CrashFlowScenario {
    pub seed: u64,
    pub block: DataVolume,
    pub interval: SimDuration,
    pub blocks: u64,
    /// Per-CPU processing rate (chosen so one block takes hours — long
    /// enough that the crash timeline reliably lands mid-task).
    pub rate: DataRate,
    pub cpus: u32,
    pub checkpoint: CheckpointPolicy,
    pub profile: FaultProfile,
    pub policy: RetryPolicy,
}

impl CrashFlowScenario {
    pub const SOURCE: &'static str = "acquire";
    pub const PROCESS: &'static str = "reduce";
    pub const ARCHIVE: &'static str = "archive";
    pub const POOL: &'static str = "farm";

    pub fn new(seed: u64) -> Self {
        CrashFlowScenario {
            seed,
            block: DataVolume::gb(72),
            interval: SimDuration::from_hours(2),
            blocks: 6,
            rate: DataRate::mb_per_sec(5.0), // 72 GB / 5 MB/s = 4 h per block
            // Two cpus against one 4-hour task every 2 hours: the pool runs
            // saturated, so a crash always lands on a busy cpu.
            cpus: 2,
            checkpoint: CheckpointPolicy::None,
            // Several crashes a day against 4-hour tasks: most crashes land
            // while a task is running.
            profile: FaultProfile::node_crashes(Self::POOL, 6.0, 1, SimDuration::from_mins(30)),
            policy: RetryPolicy::default(),
        }
    }

    /// Same scenario with per-stage checkpointing every `every` of work.
    pub fn checkpointed(mut self, every: SimDuration) -> Self {
        self.checkpoint = CheckpointPolicy::interval(every);
        self
    }

    /// Total volume the sources emit.
    pub fn total_volume(&self) -> DataVolume {
        self.block * self.blocks
    }

    pub fn plan(&self) -> FaultPlan {
        let horizon = self.interval * (self.blocks + 16);
        FaultPlan::generate(derive_seed(self.seed, "crash-flow"), horizon, &self.profile)
    }

    fn graph(&self) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            Self::SOURCE,
            StageKind::Source(SourceSpec {
                block: self.block,
                interval: self.interval,
                blocks: self.blocks,
            }),
        );
        let p = g.add_stage(
            Self::PROCESS,
            StageKind::Process(ProcessSpec {
                rate_per_cpu: self.rate,
                cpus_per_task: 1,
                chunk: None,
                output_ratio: 1.0,
                pool: Self::POOL.into(),
                workspace_ratio: 0.0,
                retain_input: false,
                checkpoint: self.checkpoint,
            }),
        );
        let a = g.add_stage(Self::ARCHIVE, StageKind::Archive);
        g.connect(s, p).expect("fresh graph");
        g.connect(p, a).expect("fresh graph");
        g
    }

    /// Build and run the flow under the seeded crash plan.
    pub fn run(&self) -> SimReport {
        FlowSim::new(self.graph(), vec![CpuPool::new(Self::POOL, self.cpus)])
            .expect("scenario graph is valid")
            .with_faults(self.plan(), self.policy)
            .run()
            .expect("scenario flow converges")
    }
}

/// A flow whose transfer link silently corrupts blocks (the attempts
/// *succeed*, the delivered data is bad): the fixture for integrity
/// verification, quarantine and lineage reprocessing. The layout is
/// source → transfer → process → archive, so detection at the sink has a
/// multi-hop lineage to walk back to the durable source. Run it
/// [`CorruptFlowScenario::unverified`] to measure escapes, or
/// [`CorruptFlowScenario::verified`] with digest checks at the process and
/// archive stages to catch everything.
#[derive(Debug, Clone)]
pub struct CorruptFlowScenario {
    pub seed: u64,
    pub block: DataVolume,
    pub interval: SimDuration,
    pub blocks: u64,
    pub rate: DataRate,
    /// MD5 throughput of the verification checks.
    pub verify_rate: DataRate,
    pub profile: FaultProfile,
    pub policy: RetryPolicy,
}

impl CorruptFlowScenario {
    pub const SOURCE: &'static str = "acquire";
    pub const LINK: &'static str = "uplink";
    pub const PROCESS: &'static str = "reduce";
    pub const ARCHIVE: &'static str = "archive";
    pub const POOL: &'static str = "farm";

    pub fn new(seed: u64) -> Self {
        CorruptFlowScenario {
            seed,
            block: DataVolume::gb(36),
            interval: SimDuration::from_hours(3),
            blocks: 8,
            rate: DataRate::mbit_per_sec(200.0),
            verify_rate: DataRate::mb_per_sec(300.0),
            // Corruption-dominated: transfers take ~40 min, so a taint event
            // every few hours reliably lands inside several attempts. A few
            // drops keep the retry path exercised alongside.
            profile: FaultProfile {
                drops_per_day: 2.0,
                silent_corrupts_per_day: 10.0,
                ..FaultProfile::clean()
            },
            policy: RetryPolicy::default(),
        }
    }

    pub fn plan(&self) -> FaultPlan {
        let horizon = self.interval * (self.blocks + 8);
        FaultPlan::generate(derive_seed(self.seed, "corrupt-flow"), horizon, &self.profile)
    }

    fn graph(&self, verify: Option<sciflow_core::graph::VerifyPolicy>) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            Self::SOURCE,
            StageKind::Source(SourceSpec {
                block: self.block,
                interval: self.interval,
                blocks: self.blocks,
            }),
        );
        let t = g.add_stage(
            Self::LINK,
            StageKind::Transfer(TransferSpec {
                rate: self.rate,
                latency: SimDuration::from_secs(5),
                channels: 1,
            }),
        );
        let p = g.add_stage(
            Self::PROCESS,
            StageKind::Process(ProcessSpec {
                rate_per_cpu: DataRate::mb_per_sec(50.0),
                cpus_per_task: 1,
                chunk: None,
                output_ratio: 0.5,
                pool: Self::POOL.into(),
                workspace_ratio: 0.0,
                retain_input: false,
                checkpoint: CheckpointPolicy::None,
            }),
        );
        let a = g.add_stage(Self::ARCHIVE, StageKind::Archive);
        g.connect(s, t).expect("fresh graph");
        g.connect(t, p).expect("fresh graph");
        g.connect(p, a).expect("fresh graph");
        if let Some(policy) = verify {
            g.set_verify(p, policy);
            g.set_verify(a, policy);
        }
        g
    }

    fn run_graph(&self, g: FlowGraph) -> SimReport {
        FlowSim::new(g, vec![CpuPool::new(Self::POOL, 4)])
            .expect("scenario graph is valid")
            .with_faults(self.plan(), self.policy)
            .run()
            .expect("scenario flow converges")
    }

    /// Run with no verification anywhere: taint flows to the archive.
    pub fn unverified(&self) -> SimReport {
        self.run_graph(self.graph(None))
    }

    /// Run with digest verification at every stage downstream of the link.
    pub fn verified(&self) -> SimReport {
        self.run_graph(
            self.graph(Some(sciflow_core::graph::VerifyPolicy::digest(self.verify_rate))),
        )
    }
}

/// A fault-rich flow run with a [`TraceRecorder`] attached: the fixture for
/// trace determinism and conservation. The layout is source → transfer →
/// process → verified archive, and the seeded plan mixes link drops, stalls,
/// silent corruption and node crashes, so one run emits every span-producing
/// event kind — task starts/ends, crash kills, transfer attempts and
/// retries, verification checks, quarantines — for
/// [`crate::invariants::assert_trace_conservation`] to audit.
#[derive(Debug, Clone)]
pub struct TracedFlowScenario {
    pub seed: u64,
    pub block: DataVolume,
    pub interval: SimDuration,
    pub blocks: u64,
    pub link_rate: DataRate,
    /// Per-CPU processing rate (slow enough that crashes land mid-task).
    pub process_rate: DataRate,
    pub cpus: u32,
    /// Digest throughput of the archive's verification pass.
    pub verify_rate: DataRate,
    pub profile: FaultProfile,
    pub policy: RetryPolicy,
}

impl TracedFlowScenario {
    pub const SOURCE: &'static str = "acquire";
    pub const LINK: &'static str = "uplink";
    pub const PROCESS: &'static str = "reduce";
    pub const ARCHIVE: &'static str = "archive";
    pub const POOL: &'static str = "farm";

    pub fn new(seed: u64) -> Self {
        TracedFlowScenario {
            seed,
            block: DataVolume::gb(36),
            interval: SimDuration::from_hours(2),
            blocks: 6,
            link_rate: DataRate::mbit_per_sec(200.0),
            process_rate: DataRate::mb_per_sec(5.0), // ~2 h per block per cpu
            cpus: 2,
            verify_rate: DataRate::mb_per_sec(300.0),
            // Every fault family at once: transfers drop and silently
            // corrupt, tasks stall, and the pool loses cpus mid-task.
            profile: FaultProfile {
                drops_per_day: 4.0,
                stalls_per_day: 2.0,
                mean_stall: SimDuration::from_mins(10),
                silent_corrupts_per_day: 2.0,
                ..FaultProfile::node_crashes(Self::POOL, 6.0, 1, SimDuration::from_mins(30))
            },
            policy: RetryPolicy::default(),
        }
    }

    pub fn plan(&self) -> FaultPlan {
        let horizon = self.interval * (self.blocks + 16);
        FaultPlan::generate(derive_seed(self.seed, "traced-flow"), horizon, &self.profile)
    }

    fn graph(&self) -> FlowGraph {
        use sciflow_core::graph::VerifyPolicy;
        use sciflow_core::spec::{FlowSpec, ProcessSpec, SourceSpec, TransferSpec};
        FlowSpec::new()
            .source(Self::SOURCE, SourceSpec::new(self.block, self.interval, self.blocks))
            .transfer(
                Self::LINK,
                TransferSpec::new(self.link_rate).latency(SimDuration::from_secs(5)),
                &[Self::SOURCE],
            )
            .process(Self::PROCESS, ProcessSpec::new(self.process_rate, Self::POOL), &[Self::LINK])
            .archive(Self::ARCHIVE, &[Self::PROCESS])
            .verify(Self::ARCHIVE, VerifyPolicy::digest(self.verify_rate))
            .build()
            .expect("traced scenario graph is valid")
    }

    /// Run the flow with a recorder attached; returns the report and the
    /// recorded trace.
    pub fn run(&self) -> (SimReport, TraceSnapshot) {
        let trace = TraceRecorder::new();
        let report = FlowSim::new(self.graph(), vec![CpuPool::new(Self::POOL, self.cpus)])
            .expect("scenario graph is valid")
            .with_faults(self.plan(), self.policy)
            .with_observer(trace.clone())
            .run()
            .expect("scenario flow converges");
        (report, trace.snapshot())
    }
}

/// Two identical `Process` stages contending for one shared CPU pool: the
/// fixture for scheduler-fairness properties. Both sides get the same work
/// (same volume, rate and chunking), so fair-share rotation finishes them
/// close together; a scheduler that let the head-of-queue stage monopolise
/// the pool would finish one side long before the other.
#[derive(Debug, Clone)]
pub struct SharedPoolScenario {
    pub seed: u64,
    /// Blocks each source emits (all near time zero, so queues build up).
    pub blocks: u64,
    /// Volume of one block.
    pub block: DataVolume,
    /// Per-CPU processing rate of both contending stages.
    pub rate: DataRate,
}

impl SharedPoolScenario {
    pub const POOL: &'static str = "shared-farm";
    pub const LEFT: &'static str = "proc-left";
    pub const RIGHT: &'static str = "proc-right";

    /// Tasks one block splits into (chunked so contention actually occurs).
    const CHUNKS_PER_BLOCK: u64 = 8;

    pub fn new(seed: u64) -> Self {
        use rand::Rng;
        let mut rng = crate::rng::seeded_rng(derive_seed(seed, "shared-pool"));
        SharedPoolScenario {
            seed,
            blocks: rng.gen_range(2..=4),
            block: DataVolume::gb(rng.gen_range(1..=8)),
            rate: DataRate::mb_per_sec(rng.gen_range(20.0..80.0)),
        }
    }

    /// Duration of one dispatched task — the natural unit for fairness gaps.
    pub fn task_duration(&self) -> SimDuration {
        (self.block / Self::CHUNKS_PER_BLOCK).time_at(self.rate).expect("scenario rate is nonzero")
    }

    fn graph(&self) -> FlowGraph {
        use sciflow_core::spec::{FlowSpec, ProcessSpec, SourceSpec};
        let chunk = self.block / Self::CHUNKS_PER_BLOCK;
        // Blocks land every second while tasks take minutes: both queues are
        // deep for essentially the whole run.
        let mut spec = FlowSpec::new();
        for side in ["left", "right"] {
            spec = spec
                .source(
                    format!("feed-{side}"),
                    SourceSpec::new(self.block, SimDuration::from_secs(1), self.blocks),
                )
                .process(
                    format!("proc-{side}"),
                    ProcessSpec::new(self.rate, Self::POOL).chunk(chunk),
                    &[&format!("feed-{side}")],
                )
                .archive(format!("sink-{side}"), &[&format!("proc-{side}")]);
        }
        spec.build().expect("shared-pool scenario graph is valid")
    }

    /// Run with a single-CPU pool.
    pub fn run(&self) -> SimReport {
        use sciflow_core::sim::CpuPool;
        FlowSim::new(self.graph(), vec![CpuPool::new(Self::POOL, 1)])
            .expect("scenario graph is valid")
            .run()
            .expect("scenario flow converges")
    }

    /// Gap between the two stages' last completions.
    pub fn completion_gap(report: &SimReport) -> SimDuration {
        let left = report.stage(Self::LEFT).expect("left stage in report").completed_at;
        let right = report.stage(Self::RIGHT).expect("right stage in report").completed_at;
        left.max(right).checked_sub(left.min(right)).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_finishes_the_contenders_together() {
        let s = SharedPoolScenario::new(7);
        let report = s.run();
        // Under rotation the last two tasks belong to different stages.
        let gap = SharedPoolScenario::completion_gap(&report);
        assert!(gap <= s.task_duration() * 2, "fair gap {gap}");
        // Every byte is processed.
        for stage in [SharedPoolScenario::LEFT, SharedPoolScenario::RIGHT] {
            let m = report.stage(stage).unwrap();
            assert_eq!(m.volume_out, m.volume_in);
            assert!(m.final_queue_volume.is_zero());
        }
    }

    #[test]
    fn scenarios_replay_identically() {
        let s = LossyFlowScenario::new(3);
        assert_eq!(s.run(), s.run());
    }

    #[test]
    fn corrupt_scenario_escapes_unverified_and_is_caught_verified() {
        let s = CorruptFlowScenario::new(9);
        let unverified = s.unverified();
        let verified = s.verified();
        assert!(unverified.total_corrupt_injected() > 0, "the plan must actually taint blocks");
        assert!(unverified.total_corrupt_escaped() > 0);
        assert_eq!(verified.total_corrupt_escaped(), 0, "digest checks catch every taint");
        assert!(verified.total_reprocessed_blocks() > 0, "quarantine triggers reprocessing");
        crate::invariants::assert_integrity_audit(&unverified);
        crate::invariants::assert_integrity_audit(&verified);
        // Replays are byte-identical, sampling RNG and all.
        assert_eq!(s.verified(), verified);
    }

    #[test]
    fn crash_scenario_kills_tasks_and_still_delivers_everything() {
        let s = CrashFlowScenario::new(42);
        let report = s.run();
        let m = report.stage(CrashFlowScenario::PROCESS).unwrap();
        assert!(m.crashes > 0, "the crash plan must land on running tasks");
        assert!(m.work_lost > SimDuration::ZERO);
        crate::invariants::assert_crash_recovery(&report, CrashFlowScenario::PROCESS);
        assert_eq!(report.stage(CrashFlowScenario::ARCHIVE).unwrap().volume_in, s.total_volume());
    }

    #[test]
    fn traced_scenario_emits_every_span_kind_and_conserves() {
        let s = TracedFlowScenario::new(42);
        let (report, snapshot) = s.run();
        assert!(!snapshot.events.is_empty(), "the recorder must see the run");
        let spans = snapshot.spans();
        assert!(spans.iter().any(|sp| sp.kind == "task"), "no task spans recorded");
        assert!(spans.iter().any(|sp| sp.kind == "attempt"), "no transfer attempts recorded");
        assert!(spans.iter().any(|sp| sp.killed), "the crash plan must kill a traced task");
        crate::invariants::assert_trace_conservation(&report, &snapshot);
        // The trace is as replay-stable as the report.
        let (report2, snapshot2) = s.run();
        assert_eq!(report, report2);
        assert_eq!(snapshot.jsonl(), snapshot2.jsonl());
    }

    #[test]
    fn checkpointing_salvages_work_lost_to_crashes() {
        let s = CrashFlowScenario::new(42);
        let every = SimDuration::from_mins(30);
        let c = s.clone().checkpointed(every);
        let (plain, ckpt) = (s.run(), c.run());
        let lost_plain = plain.stage(CrashFlowScenario::PROCESS).unwrap().work_lost;
        let m = ckpt.stage(CrashFlowScenario::PROCESS).unwrap();
        assert!(
            m.work_lost < lost_plain,
            "checkpointed loss {} must beat uncheckpointed {}",
            m.work_lost,
            lost_plain
        );
        crate::invariants::assert_checkpoint_bound(&ckpt, CrashFlowScenario::PROCESS, c.checkpoint);
        assert_eq!(ckpt.stage(CrashFlowScenario::ARCHIVE).unwrap().volume_in, s.total_volume());
    }
}
