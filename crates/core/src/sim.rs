//! Discrete-event simulation of a [`FlowGraph`].
//!
//! The paper's flow-level questions — "about 50 to 200 processors would be
//! needed to keep up with the flow of data", "a minimum of 30 Terabytes of
//! storage is required instantaneously", "tested at sustained rates of
//! approximately 1 TB per day" — are all statements about a stage graph under
//! resource contention. [`FlowSim`] answers them: it executes a graph in
//! simulated time against named CPU pools, tracking throughput, queue
//! backlogs, pool utilisation, and instantaneous storage.
//!
//! [`FlowSim`] itself is a thin orchestrator over three layers:
//!
//! * the **engine** ([`crate::engine`]) owns the clock, the deterministic
//!   event heap, and the run loop;
//! * **stage behaviors** ([`crate::behavior`]) give each
//!   [`crate::graph::StageKind`] its semantics — queues, task
//!   dispatch, fault retries — behind the [`StageBehavior`] trait;
//! * **resources** ([`crate::resource`]) count the contended capacity
//!   (shared CPU pools, transfer channels) and apply the scheduling policy.
//!
//! The orchestrator routes events to behaviors, runs deferred resource
//! drains, and keeps the flow-global bookkeeping (storage ledger,
//! end-of-input backlog snapshot). It never matches on stage kinds at run
//! time.

use crate::behavior::{
    ArchiveBehavior, BatcherBehavior, Completion, DedupBehavior, DeferredFx, FaultCtx,
    FilterBehavior, FlowEvent, ProcessBehavior, SourceBehavior, StageBehavior, StageCtx,
    TransferBehavior,
};
use crate::compiled::{compile, CompiledFlow};
use crate::durable::{self, RunJournal, SnapshotPolicy};
use crate::engine::{Engine, EventHandler, RunStats, Scheduler};
use crate::error::{CoreError, CoreResult};
use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
use crate::frame::{self, Reader, Wire};
use crate::graph::{FlowGraph, StageId, StageKind, VerifyPolicy};
use crate::metrics::{EngineStats, RunMetrics, SimReport, TimeSeries, TsSample};
#[cfg(test)]
use crate::obs::SloRule;
use crate::obs::{Alert, MetricsHub, SloKind, SloState};
use crate::resource::{ResourceId, ResourceSet, SchedPolicy, StorageLedger};
use crate::rng::Rng;
use crate::trace::{self, FaultScope, Observer, TraceCtx, TraceEvent, TraceMeta};
use crate::units::{DataVolume, SimDuration, SimTime};

use std::fmt::Write as _;
use std::path::Path;

/// Seed mixed into the verification-sampling RNG so sampled checks replay
/// identically for a given fault seed without correlating with backoff
/// jitter.
const VERIFY_RNG_SALT: u64 = 0x5EED_C8EC_D16E_0004;

/// How many lineage hops [`FlowSim`] walks looking for a durable ancestor
/// before giving a quarantined block up as unrecoverable.
const MAX_REPROCESS_DEPTH: usize = 8;

/// A named pool of interchangeable processors shared by `Process` stages.
#[derive(Debug, Clone)]
pub struct CpuPool {
    pub name: String,
    pub cpus: u32,
}

impl CpuPool {
    pub fn new(name: impl Into<String>, cpus: u32) -> Self {
        CpuPool { name: name.into(), cpus }
    }
}

/// What the orchestrator asks a behavior to do for one event.
enum Step {
    Arrive(DataVolume, u32, u64),
    Complete(Completion),
}

crate::wire_struct! {
    /// Time-series sampling state: ticks are consumed opportunistically as
    /// events advance the clock (sampling never schedules events of its own, so
    /// an observed run replays exactly like an unobserved one). The tick
    /// itself is configuration ([`RunConfig::tick`]).
    struct SamplerState {
        /// The next tick still to be sampled.
        next: SimTime,
        samples: Vec<TsSample>,
    }
}

/// What one SLO rule watches, resolved against the compiled flow so the
/// per-event evaluation path never touches a string.
enum SloTarget {
    /// Queued volume (bytes) of the stage at this index.
    Queue { stage: usize, ceiling: u64 },
    /// Total corrupt blocks escaped past every verifier.
    Escapes { ceiling: u64 },
    /// Simulated time since the last committed snapshot frame. Evaluated
    /// only while a journal is attached — an unjournaled run has no
    /// snapshot cadence to stall.
    SnapGap { max_gap: SimDuration },
}

/// One attached SLO rule: its name and its resolved target. Its fire/resolve
/// automaton is run state, at the same index of [`SloRun::monitors`].
struct SloMonitor {
    name: String,
    target: SloTarget,
}

crate::wire_struct! {
    /// What the attached SLO rules have seen so far.
    struct SloRun {
        /// When the last snapshot frame was committed (SnapGap anchor).
        last_snap_at: SimTime,
        /// One automaton per rule, accumulating the current violation window.
        monitors: Vec<SloState>,
        /// Completed alert windows, in resolution order.
        alerts: Vec<Alert>,
    }
}

/// How the run is configured beyond the flow itself. None of it changes
/// during the run or is written to a snapshot: the resuming caller rebuilds
/// it, and [`FlowSim::spec_hash`] proves the rebuild identical where that
/// matters to replay.
struct RunConfig {
    max_events: u64,
    /// When journaled runs commit snapshot frames: never, unless set with
    /// [`FlowSim::with_snapshot_policy`].
    snapshot_policy: SnapshotPolicy,
    /// Interval between time-series samples; read only when the graph was
    /// observed ([`FlowGraph::set_observe`]).
    tick: SimDuration,
    /// Pools sampled by the time series, in [`SimReport::pools`] order.
    sample_pools: Vec<ResourceId>,
    /// SLO rules resolved to id-indexed targets.
    slo: Vec<SloMonitor>,
}

/// Everything a snapshot contains, and nothing else: [`RunState::save`] and
/// [`RunState::load`] each destructure this struct without `..`, so a field
/// added here and not persisted does not compile. Members that mix
/// configuration with state (behaviors, resources, the fault context, the
/// trace context) sit here whole and write only their dynamic part.
struct RunState {
    /// The live engine once the run has started (via [`FlowSim::run`],
    /// [`FlowSim::run_for`], or [`FlowSim::resume_from`]); `None` before,
    /// and while `FlowSim::pump` steps it.
    engine: Option<Engine<FlowEvent>>,
    /// One behavior per stage; taken out while its hook runs.
    behaviors: Vec<Option<Box<dyn StageBehavior>>>,
    metrics: RunMetrics,
    resources: ResourceSet,
    ledger: StorageLedger,
    faults: Option<FaultCtx>,
    /// Draws which arrivals a [`VerifyPolicy::Sample`] stage actually checks.
    /// Untouched by runs without sampled stages, so adding the field changes
    /// no existing replay.
    verify_rng: Rng,
    /// Observer hookup and the lineage-id allocator. The allocator advances
    /// on every delivery whether or not an observer is attached, so attaching
    /// one can never perturb the flow being observed.
    trace: TraceCtx,
    /// Present iff the graph was observed ([`FlowGraph::set_observe`]).
    sampler: Option<SamplerState>,
    /// Number of source blocks still to be emitted.
    pending_emits: u64,
    /// Snapshot of total queued volume when the last source block was emitted.
    backlog_at_source_end: Option<DataVolume>,
    source_end: Option<SimTime>,
    /// Present iff the flow carries SLO rules.
    slo: Option<SloRun>,
}

impl RunState {
    /// The snapshot payload: each member's [`Wire`] bytes, in this order,
    /// appended to `out` (the journaling path reuses one buffer for all frames).
    fn save(&self, out: &mut Vec<u8>) {
        let RunState {
            engine,
            behaviors,
            metrics,
            resources,
            ledger,
            faults,
            verify_rng,
            trace,
            sampler,
            pending_emits,
            backlog_at_source_end,
            source_end,
            slo,
        } = self;
        engine.as_ref().expect("engine in place").save(out);
        // Per-stage behavior state, as length-prefixed blobs written in
        // place: the state bytes, then their LEB128 length appended and
        // rotated in front of them — the layout `Reader::blob` reads,
        // without a temporary per-stage buffer.
        for b in behaviors {
            let at = out.len();
            b.as_ref().expect("behavior in place").save_state(out);
            let state = out.len() - at;
            state.put(out);
            let prefix = out.len() - at - state;
            out[at..].rotate_right(prefix);
        }
        metrics.save(out);
        ledger.put(out);
        resources.save_dyn(out);
        faults.as_ref().map(|f| f.rng.clone()).put(out);
        verify_rng.put(out);
        trace.counters.put(out);
        sampler.put(out);
        pending_emits.put(out);
        backlog_at_source_end.put(out);
        source_end.put(out);
        slo.put(out);
    }

    /// Read what [`RunState::save`] wrote onto this freshly configured
    /// state. Whether the flow injects faults, samples or carries SLO rules
    /// is configuration; a snapshot that disagrees is another run's.
    fn load(&mut self, r: &mut Reader, flow: &CompiledFlow, max_events: u64) -> CoreResult<()> {
        let RunState {
            engine,
            behaviors,
            metrics,
            resources,
            ledger,
            faults,
            verify_rng,
            trace,
            sampler,
            pending_emits,
            backlog_at_source_end,
            source_end,
            slo,
        } = self;
        let mismatch = |what: &str| CoreError::ResumeMismatch {
            detail: format!("snapshot and simulator disagree about {what}"),
        };
        *engine = Some(Engine::load(r, max_events)?);
        for (id, b) in flow.stage_ids().zip(behaviors) {
            let mut blob = Reader::new(r.blob()?);
            let b = b.as_mut().expect("behavior in place");
            b.load_state(&mut blob).and_then(|()| blob.done()).map_err(|damage| {
                CoreError::CorruptJournal { detail: format!("stage `{}`: {damage}", flow.name(id)) }
            })?;
        }
        *metrics = RunMetrics::load(r, flow.len())?;
        *ledger = Wire::get(r)?;
        resources.load_dyn(r)?;
        match (Option::<Rng>::get(r)?, faults) {
            (Some(rng), Some(f)) => f.rng = rng,
            (None, None) => {}
            _ => return Err(mismatch("fault injection")),
        }
        *verify_rng = Wire::get(r)?;
        trace.counters = Wire::get(r)?;
        let was_sampling = sampler.is_some();
        *sampler = Wire::get(r)?;
        if sampler.is_some() != was_sampling {
            return Err(mismatch("observation"));
        }
        *pending_emits = Wire::get(r)?;
        *backlog_at_source_end = Wire::get(r)?;
        *source_end = Wire::get(r)?;
        let had_rules = slo.is_some();
        *slo = Wire::get(r)?;
        if slo.is_some() != had_rules {
            return Err(mismatch("SLO rules"));
        }
        Ok(())
    }

    /// Whether every index the loaded state holds fits the flow it was
    /// loaded onto. The seal is a checksum, not a signature, and the spec
    /// hash covers configuration, not state: bytes that verify can still
    /// name a slot, stage or resource that does not exist.
    fn check(&self, flow: &CompiledFlow, cfg: &RunConfig) -> CoreResult<()> {
        let engine = self.engine.as_ref().expect("engine in place");
        let stage_ok = |s: &StageId| s.index() < flow.len();
        let resource_ok = |r: &ResourceId| r.0 < self.resources.len();
        let event_ok = |ev: &FlowEvent| match ev {
            FlowEvent::Arrive { stage, from, .. } => stage_ok(stage) && from.iter().all(stage_ok),
            FlowEvent::Admit { stage, .. } | FlowEvent::Complete { stage, .. } => stage_ok(stage),
            FlowEvent::CrashResource { resource, .. }
            | FlowEvent::RepairResource { resource, .. } => resource_ok(resource),
        };
        let sample_ok = |s: &TsSample| {
            s.queued.len() == flow.len() && s.pool_in_use.len() == cfg.sample_pools.len()
        };
        let ensure = |ok: bool, what: &str| match ok {
            true => Ok(()),
            false => Err(CoreError::CorruptJournal { detail: format!("snapshot holds {what}") }),
        };
        ensure(engine.slots_in_range(), "a pending entry or free slot outside the slab")?;
        ensure(
            engine.pending_events().all(event_ok),
            "an event for a stage or resource outside the flow",
        )?;
        ensure(self.resources.dyn_in_range(), "resource occupancy or a waiter outside the flow")?;
        ensure(
            self.sampler.iter().flat_map(|s| &s.samples).all(sample_ok),
            "a time-series sample of another flow's width",
        )?;
        ensure(
            self.slo.iter().all(|s| s.monitors.len() == cfg.slo.len()),
            "SLO state for another rule count",
        )
    }
}

/// Discrete-event executor for a compiled flow ([`CompiledFlow`]). Every
/// field sits in exactly one of four groups.
pub struct FlowSim {
    // What the run is: everything `spec_hash` renders.
    /// The compiled IR: id-indexed stage/policy tables plus the name side
    /// tables resolved only when rendering reports and traces.
    flow: CompiledFlow,
    cfg: RunConfig,
    // What a snapshot contains.
    state: RunState,
    // Attachments (the observer, the third, hangs off `state.trace`).
    /// Attached run journal, if any ([`FlowSim::with_journal`]).
    journal: Option<RunJournal>,
    /// Metrics hub, if one was attached ([`FlowSim::with_metrics`]).
    /// Recording is strictly write-only from the simulation's point of
    /// view: nothing in the run loop ever reads a metric back, so the
    /// enabled path cannot perturb the run, and nothing is recorded per
    /// event, so neither path costs anything there.
    obs: Option<MetricsHub>,
    // Scratch: rebuilt from nothing by any process that picks the run up.
    /// Recycled [`DeferredFx`] buffers: every hook invocation needs one, and
    /// reusing them keeps the per-event path allocation-free.
    fx_pool: Vec<DeferredFx>,
    /// Reused snapshot encode buffer: journaled runs seal hundreds of
    /// frames, and retaining the capacity keeps the snapshot path from
    /// regrowing a multi-kilobyte buffer per frame.
    snap_buf: Vec<u8>,
    /// Events-handled count at which the next `EveryEvents` snapshot is due.
    next_snap_events: u64,
    /// Engine events already added to the hub's `sim_events_total`.
    events_counted: u64,
}

impl FlowSim {
    /// Build a simulator from an authoring-form graph: compiles it (which
    /// validates) and hands the IR to [`FlowSim::from_compiled`].
    pub fn new(graph: FlowGraph, pools: Vec<CpuPool>) -> CoreResult<Self> {
        Self::from_compiled(compile(&graph)?, pools)
    }

    /// Build a simulator from an already-compiled flow. Every refusal that
    /// depends on the graph alone was raised by [`FlowGraph::validate`] when
    /// the flow compiled; what is left depends on `pools`: each supplied
    /// once with non-zero cpus, every pool the flow references supplied,
    /// and no task wider than its pool.
    pub fn from_compiled(flow: CompiledFlow, pools: Vec<CpuPool>) -> CoreResult<Self> {
        let mut resources = ResourceSet::new(flow.len(), SchedPolicy::default());
        for p in pools {
            if p.cpus == 0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("pool `{}` has zero cpus", p.name),
                });
            }
            if resources.find(&p.name).is_some() {
                return Err(CoreError::InvalidConfig {
                    detail: format!("pool `{}` supplied more than once", p.name),
                });
            }
            resources.add_pool(p.name, p.cpus);
        }
        // Every pool the flow references must be supplied; of several
        // missing, the first by name is reported.
        let missing = flow
            .stage_ids()
            .filter_map(|id| match flow.kind(id) {
                StageKind::Process(p) => Some(p.pool.as_str()),
                _ => None,
            })
            .filter(|name| resources.find(name).is_none())
            .min();
        if let Some(name) = missing {
            return Err(CoreError::UnknownPool { name: name.to_string() });
        }
        // The only kind dispatch in the simulator: constructing each stage's
        // behavior (and its private channel resource where one is needed).
        let mut behaviors: Vec<Option<Box<dyn StageBehavior>>> = Vec::with_capacity(flow.len());
        for id in flow.stage_ids() {
            let channel = |resources: &mut ResourceSet, units| {
                resources.add_channel(format!("{}#channel", flow.name(id)), units)
            };
            let behavior: Box<dyn StageBehavior> = match flow.kind(id) {
                StageKind::Source(s) => Box::new(SourceBehavior::new(s)),
                StageKind::Process(p) => {
                    // Pools precede channels in the set, so this finds the pool.
                    let pool = resources.find(&p.pool).expect("pool checked above");
                    // A task wider than its whole pool would wait forever and
                    // silently stall the flow.
                    let total = resources.total(pool);
                    if p.cpus_per_task > total {
                        return Err(CoreError::InvalidConfig {
                            detail: format!(
                                "stage `{}` needs {} cpus per task but pool `{}` has only {}",
                                flow.name(id),
                                p.cpus_per_task,
                                p.pool,
                                total
                            ),
                        });
                    }
                    Box::new(ProcessBehavior::new(p, pool))
                }
                StageKind::Transfer(t) => {
                    Box::new(TransferBehavior::new(t, channel(&mut resources, t.channels)))
                }
                StageKind::Filter(f) => {
                    Box::new(FilterBehavior::new(f, channel(&mut resources, 1)))
                }
                StageKind::Batcher(b) => Box::new(BatcherBehavior::new(b)),
                StageKind::Dedup(d) => Box::new(DedupBehavior::new(d, channel(&mut resources, 1))),
                StageKind::Archive => Box::new(ArchiveBehavior),
            };
            behaviors.push(Some(behavior));
        }
        let (tick, sample_pools) = match flow.observe_config() {
            Some(cfg) => (Some(cfg.tick), resources.pool_ids()),
            None => (None, Vec::new()),
        };
        // Resolve SLO rules to id-indexed targets once, so evaluation (which
        // runs per event when rules are attached) never compares strings.
        // `compile` validated every rule against the graph.
        let slo: Vec<SloMonitor> = flow
            .slo_rules()
            .iter()
            .map(|rule| {
                let target = match &rule.kind {
                    SloKind::QueueBacklog { stage, max_volume } => {
                        let id = flow.stage_ids().find(|&id| flow.name(id) == stage);
                        let id = id.expect("validate refuses rules on undeclared stages");
                        SloTarget::Queue { stage: id.index(), ceiling: max_volume.bytes() }
                    }
                    SloKind::EscapedTaint { max } => SloTarget::Escapes { ceiling: *max },
                    SloKind::SnapshotGap { max_gap } => SloTarget::SnapGap { max_gap: *max_gap },
                    SloKind::ReplicationLag { .. } => {
                        unreachable!("validate refuses replication-lag rules on a flow")
                    }
                };
                SloMonitor { name: rule.name.clone(), target }
            })
            .collect();
        let state = RunState {
            engine: None,
            behaviors,
            metrics: RunMetrics::new(flow.len()),
            resources,
            ledger: StorageLedger::default(),
            faults: None,
            verify_rng: Rng::seed_from_u64(VERIFY_RNG_SALT),
            trace: TraceCtx::new(),
            sampler: tick.map(|_| SamplerState { next: SimTime::ZERO, samples: Vec::new() }),
            pending_emits: flow.pending_emits(),
            backlog_at_source_end: None,
            source_end: None,
            slo: (!slo.is_empty()).then(|| SloRun {
                last_snap_at: SimTime::ZERO,
                monitors: vec![SloState::default(); slo.len()],
                alerts: Vec::new(),
            }),
        };
        let cfg = RunConfig {
            max_events: 50_000_000,
            snapshot_policy: SnapshotPolicy::None,
            tick: tick.unwrap_or(SimDuration::ZERO),
            sample_pools,
            slo,
        };
        Ok(FlowSim {
            flow,
            cfg,
            state,
            journal: None,
            obs: None,
            fx_pool: Vec::new(),
            snap_buf: Vec::new(),
            next_snap_events: 0,
            events_counted: 0,
        })
    }

    /// Override the runaway-event safety cap (default fifty million).
    pub fn with_max_events(mut self, cap: u64) -> Self {
        self.cfg.max_events = cap;
        self
    }

    /// Inject a seeded fault timeline, with transfer retries governed by
    /// `policy`. Transfer stages ride out drops, stalls, corruption and rate
    /// degradation by retrying with exponential backoff; process stages are
    /// extended by stalls. Blocks whose retry budget runs out are counted as
    /// failed (see [`crate::metrics::StageMetrics::blocks_failed`]) and the
    /// flow continues — graceful degradation, not a crashed simulation.
    ///
    /// The backoff-jitter RNG is seeded from the plan's seed, so running the
    /// same plan and policy twice yields identical [`SimReport`]s.
    pub fn with_faults(mut self, plan: FaultPlan, policy: RetryPolicy) -> Self {
        let rng = Rng::seed_from_u64(plan.seed() ^ 0xBACC_0FF5_EED0_0002);
        self.state.verify_rng = Rng::seed_from_u64(plan.seed() ^ VERIFY_RNG_SALT);
        self.state.faults = Some(FaultCtx { plan, policy, rng });
        self
    }

    /// Attach an [`Observer`] that receives every typed trace event the run
    /// emits (task spans, transfer attempts, queue depths, faults,
    /// checkpoints, verification verdicts). Observation is strictly
    /// read-only: the same seed and graph produce byte-identical
    /// [`SimReport`]s with or without an observer attached.
    pub fn with_observer(mut self, observer: impl Observer + 'static) -> Self {
        self.state.trace.attach(Box::new(observer));
        self
    }

    /// Set when journaled runs commit snapshot frames (default: never) —
    /// the one place a run's cadence is set. Inert unless a journal is
    /// attached and never perturbs the simulation itself, so the journal's
    /// spec hash does not cover it.
    pub fn with_snapshot_policy(mut self, policy: SnapshotPolicy) -> Self {
        self.cfg.snapshot_policy = policy;
        self
    }

    /// Attach an append-only run journal at `path` (created, truncating any
    /// previous file). The header frame — format version, build, spec hash,
    /// fault seed — is written immediately; snapshot frames follow per the
    /// [`SnapshotPolicy`]. After a crash, rebuild the simulator with the
    /// same configuration and hand the journal to [`FlowSim::resume_from`].
    pub fn with_journal(mut self, path: impl AsRef<Path>) -> CoreResult<Self> {
        let journal = RunJournal::create(path.as_ref(), &self.run_header())?;
        self.journal = Some(journal);
        Ok(self)
    }

    /// Attach a [`MetricsHub`]: the run records event counts, engine
    /// high-water marks, and snapshot/journal sizes into it, and the caller
    /// renders the hub after the run. Recording is strictly one-way — the
    /// same seed and graph produce byte-identical [`SimReport`]s with or
    /// without a hub attached (pinned by `tests/obs_metrics.rs` against
    /// every committed golden). Attach before [`FlowSim::resume_from`] so
    /// recovery counters land in the hub.
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Run to completion and produce a report.
    pub fn run(mut self) -> CoreResult<SimReport> {
        if self.state.engine.is_none() {
            self.start()?;
        }
        self.pump(None)?;
        let stats = self.state.engine.as_ref().expect("engine in place").stats();
        Ok(self.report(stats))
    }

    /// Advance the run by at most `events` further events (starting it on
    /// the first call). Returns `Ok(true)` while events may remain and
    /// `Ok(false)` at quiescence. Pausing a run this way is how a live
    /// simulator is snapshotted mid-flight with [`FlowSim::snapshot_to`];
    /// calling [`FlowSim::run`] afterwards finishes the run normally.
    ///
    /// It is also how a run crashes: `run_for(k + 1)` and then dropping the
    /// simulator leaves the journal of a process that died once `k` events
    /// were handled. Every frame due by then is sealed and none after,
    /// because the loop checks the budget before it seals a frame.
    pub fn run_for(&mut self, events: u64) -> CoreResult<bool> {
        if self.state.engine.is_none() {
            self.start()?;
        }
        self.pump(Some(events))
    }

    /// Events dispatched so far — zero before the run starts, the run's
    /// total once [`FlowSim::run_for`] has returned `Ok(false)`. The
    /// resume-identity suites use this to aim kill points mid-run.
    pub fn events_handled(&self) -> u64 {
        self.state.engine.as_ref().map_or(0, |e| e.events_handled())
    }

    /// Start the run: create the engine, schedule the fault plan's crash
    /// timeline, hand the observer its name tables, and let every behavior
    /// seed its initial events. Exactly once per run — a resumed simulator
    /// restores all of this from the snapshot instead.
    fn start(&mut self) -> CoreResult<()> {
        let mut engine = Engine::new().with_max_events(self.cfg.max_events);
        // Crash timelines are flow-global, not stage-local, so the
        // orchestrator schedules them up front. Crashes aimed at pools this
        // flow doesn't use are silently irrelevant — same contract as link
        // faults on stages that never transfer.
        if let Some(f) = &self.state.faults {
            let crash = |pool: &str, units, repair| {
                let resource = self.state.resources.find(pool)?;
                Some(FlowEvent::CrashResource { resource, units, repair })
            };
            for e in f.plan.events() {
                let ev = match &e.kind {
                    FaultKind::NodeCrash { pool, cpus, repair } => {
                        crash(pool, Some((*cpus).max(1)), *repair)
                    }
                    FaultKind::PoolOutage { pool, repair } => crash(pool, None, *repair),
                    _ => None,
                };
                if let Some(ev) = ev {
                    engine.scheduler().schedule(e.at, ev);
                }
            }
        }
        // Hand the observer its name tables before the first event fires.
        if self.state.trace.enabled() {
            let meta = TraceMeta {
                stages: self.flow.names().to_vec(),
                resources: self.state.resources.names(),
            };
            self.state.trace.begin(&meta);
        }
        // Let every behavior seed its initial events, in stage order.
        for id in self.flow.stage_ids() {
            self.run_hook(id, engine.scheduler(), |b, ctx| b.seed(ctx));
        }
        if let SnapshotPolicy::EveryEvents(n) = self.cfg.snapshot_policy {
            self.next_snap_events = n;
        }
        self.state.engine = Some(engine);
        Ok(())
    }

    /// The inner loop: commit any due snapshot, then dispatch one event —
    /// at most `budget` times (`None` = until quiescence). Returns
    /// `Ok(true)` while events may remain. A stepped run is identical to
    /// the old single-call run loop, counters included. The budget is
    /// checked before the snapshot, which is what makes `run_for` + drop a
    /// faithful crash (see [`FlowSim::run_for`]).
    ///
    /// The engine steps out of its slot once, for the whole loop —
    /// `Engine::step` needs the simulator as the event handler, and
    /// shuffling the `Option` per event is measurable at stress scale.
    ///
    /// The hub's event counter is brought up to date here, on every way out
    /// (quiescence, an exhausted budget, an error), so a caller can
    /// never observe it behind `events_handled`.
    fn pump(&mut self, budget: Option<u64>) -> CoreResult<bool> {
        let mut engine = self.state.engine.take().expect("engine in place");
        let result = self.pump_engine(&mut engine, budget);
        if let Some(h) = &self.obs {
            let handled = engine.events_handled();
            if handled > self.events_counted {
                h.counter_add("sim_events_total", handled - self.events_counted);
                self.events_counted = handled;
            }
        }
        self.state.engine = Some(engine);
        result
    }

    fn pump_engine(
        &mut self,
        engine: &mut Engine<FlowEvent>,
        mut budget: Option<u64>,
    ) -> CoreResult<bool> {
        // The common case — no journal, no budget — is the bare dispatch
        // loop, with none of the per-event bookkeeping below.
        if self.journal.is_none() && budget.is_none() {
            while engine.step(self)? {}
            return Ok(false);
        }
        loop {
            if budget == Some(0) {
                return Ok(true);
            }
            self.maybe_snapshot(engine)?;
            if !engine.step(self)? {
                return Ok(false);
            }
            if let Some(b) = budget.as_mut() {
                *b -= 1;
            }
        }
    }

    /// Commit a snapshot frame to the journal if the policy says one is due.
    fn maybe_snapshot(&mut self, engine: &mut Engine<FlowEvent>) -> CoreResult<()> {
        if self.journal.is_none() {
            return Ok(());
        }
        let handled = engine.events_handled();
        let now = engine.sched().now();
        let SnapshotPolicy::EveryEvents(n) = self.cfg.snapshot_policy else { return Ok(()) };
        if n == 0 || handled < self.next_snap_events {
            return Ok(());
        }
        // Anchor the gap *before* encoding so the frame itself carries the
        // post-commit state: a run resumed from this snapshot and the
        // uninterrupted run agree on when the last snapshot happened.
        if let Some(slo) = &mut self.state.slo {
            slo.last_snap_at = now;
        }
        // The encode buffer swaps out of its field for the borrow's
        // duration and keeps its capacity across frames. The engine steps
        // back into its slot for the encode: the run state is saved whole.
        let mut buf = std::mem::take(&mut self.snap_buf);
        buf.clear();
        self.state.engine = Some(std::mem::take(engine));
        self.state.save(&mut buf);
        *engine = self.state.engine.take().expect("engine just seated");
        let sealed = self.journal.as_mut().expect("journal attached").append_snapshot(&buf);
        if let Some(h) = &self.obs {
            h.counter_add("snapshot_frames_total", 1);
            h.observe("snapshot_bytes", buf.len() as u64);
            h.observe("journal_frame_bytes", (buf.len() + frame::OVERHEAD) as u64);
            h.gauge_set("snapshot_last_at_us", now.as_micros());
        }
        self.snap_buf = buf;
        sealed?;
        self.next_snap_events = handled + n;
        Ok(())
    }

    /// Write the current mid-run state as a sealed single-snapshot journal
    /// at `path` — through a fsynced temp sibling and an atomic rename, so a
    /// crash during the write can never leave a torn file under the final
    /// name. The run must have started (advance it with [`FlowSim::run_for`]
    /// first); finishing it afterwards is unaffected.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> CoreResult<()> {
        self.state.engine.as_ref().ok_or_else(|| CoreError::InvalidConfig {
            detail: "snapshot_to before the run started; advance with run_for first".to_string(),
        })?;
        let mut payload = Vec::with_capacity(4096);
        self.state.save(&mut payload);
        durable::write_sealed_journal(path.as_ref(), &self.run_header(), &payload)
    }

    /// Resume this (not-yet-started) simulator from a journal or snapshot
    /// file. The simulator must be configured exactly as the journaled run
    /// was — same flow, pools, policies, fault plan, observer on or off —
    /// which the journal's spec hash proves; any divergence is a
    /// [`CoreError::ResumeMismatch`]. Damaged journals recover to their
    /// last sealed frame ([`crate::durable`]); a journal with no intact
    /// snapshot frame cannot be resumed, and one that is refused is left
    /// as it was. Running the resumed simulator to completion yields a
    /// report byte-identical to the uninterrupted run's.
    pub fn resume_from(mut self, path: impl AsRef<Path>) -> CoreResult<Self> {
        if self.state.engine.is_some() {
            return Err(CoreError::InvalidConfig {
                detail: "resume_from on an already-started simulator".to_string(),
            });
        }
        let journal = durable::open(path.as_ref())?;
        if journal.header.format != durable::SNAPSHOT_FORMAT {
            return Err(CoreError::ResumeMismatch {
                detail: format!(
                    "journal snapshot format v{} is not the supported v{}",
                    journal.header.format,
                    durable::SNAPSHOT_FORMAT
                ),
            });
        }
        let expect = self.spec_hash();
        if journal.header.spec_hash != expect {
            return Err(CoreError::ResumeMismatch {
                detail: format!(
                    "journal spec hash {:016x} does not match this simulator's {expect:016x}",
                    journal.header.spec_hash
                ),
            });
        }
        let rec = journal.recover()?;
        if rec.truncated.is_some() {
            if let Some(h) = &self.obs {
                h.counter_add("recovery_truncations_total", 1);
            }
        }
        let snap = rec.snapshot.ok_or_else(|| CoreError::ResumeMismatch {
            detail: "journal holds no intact snapshot frame to resume from".to_string(),
        })?;
        // Hand the observer its name tables, as `start` would have; the
        // trace counters themselves are restored from the snapshot.
        if self.state.trace.enabled() {
            let meta = TraceMeta {
                stages: self.flow.names().to_vec(),
                resources: self.state.resources.names(),
            };
            self.state.trace.begin(&meta);
        }
        self.apply_snapshot(&snap)?;
        Ok(self)
    }

    /// FNV-1a over a deterministic rendering of everything that shapes this
    /// run: the compiled stage tables, pools and resources, scheduling
    /// policy, the full fault timeline and retry policy, observation config,
    /// and the run caps. Two simulators with equal hashes replay the same
    /// event sequence from any common state, which is exactly the identity a
    /// resume needs — so this is what the journal header records.
    fn spec_hash(&self) -> u64 {
        let mut s = String::with_capacity(1024);
        for id in self.flow.stage_ids() {
            let _ = write!(
                s,
                "stage {}|{:?}|{:?}|{}|{:?}|{}|down",
                self.flow.name(id),
                self.flow.kind(id),
                self.flow.verify(id),
                self.flow.durable(id),
                self.flow.ratio(id),
                self.flow.sink(id),
            );
            for d in self.flow.downstream(id) {
                let _ = write!(s, " {}", d.index());
            }
            s.push(';');
        }
        let _ = write!(s, "emits {};", self.flow.pending_emits());
        let _ = write!(s, "observe {:?};", self.flow.observe_config());
        let _ = write!(s, "slos {:?};", self.flow.slo_rules());
        // Fair share is the only scheduler; the hash names it as it always has.
        s.push_str("policy FairShare;");
        for (i, name) in self.state.resources.names().iter().enumerate() {
            let _ = write!(s, "res {name} {};", self.state.resources.total(ResourceId(i)));
        }
        match &self.state.faults {
            Some(f) => {
                let _ = write!(s, "faults {} {:?}", f.plan.seed(), f.policy);
                for e in f.plan.events() {
                    let _ = write!(s, " {e:?}");
                }
                s.push(';');
            }
            None => s.push_str("faults none;"),
        }
        let _ = write!(s, "caps {} {MAX_REPROCESS_DEPTH}", self.cfg.max_events);
        crate::fnv::fnv1a(s.as_bytes())
    }

    fn run_header(&self) -> durable::RunHeader {
        durable::RunHeader {
            format: durable::SNAPSHOT_FORMAT,
            build: env!("CARGO_PKG_VERSION").to_string(),
            spec_hash: self.spec_hash(),
            fault_seed: self.state.faults.as_ref().map(|f| f.plan.seed()),
        }
    }

    /// Restore a snapshot payload onto this freshly configured simulator:
    /// load the run state, require the payload consumed exactly and every
    /// index in it to fit this flow, then re-anchor the scratch cursors.
    fn apply_snapshot(&mut self, bytes: &[u8]) -> CoreResult<()> {
        let mut r = Reader::new(bytes);
        self.state.load(&mut r, &self.flow, self.cfg.max_events)?;
        r.done()?;
        self.state.check(&self.flow, &self.cfg)?;
        let engine = self.state.engine.as_ref().expect("engine just loaded");
        let handled = engine.events_handled();
        // The hub counts what this process handles, not what the journaled
        // one did before it.
        self.events_counted = handled;
        if let SnapshotPolicy::EveryEvents(n) = self.cfg.snapshot_policy {
            self.next_snap_events = handled + n;
        }
        Ok(())
    }

    /// Drain `rid`'s waiter queue: keep asking the head stage to dispatch
    /// until the resource blocks or no stage has queued work. The scheduling
    /// policy decides whether a stage that dispatched rotates to the back
    /// (fair share) or keeps the head slot (FIFO).
    fn drain(&mut self, rid: ResourceId, sched: &mut Scheduler<FlowEvent>) {
        use crate::behavior::Dispatch;
        while let Some(head) = self.state.resources.front_waiter(rid) {
            match self.run_hook(head, sched, |b, ctx| b.try_dispatch(ctx)) {
                Dispatch::Blocked => break,
                Dispatch::Idle => self.state.resources.drop_front(rid),
                Dispatch::Started { more } => self.state.resources.after_dispatch(rid, more),
            }
        }
    }

    /// Take `units` of `rid` offline (all of them for a pool outage). Idle
    /// capacity is confiscated first; any shortfall is covered by killing
    /// running tasks, youngest first, via each stage's
    /// [`StageBehavior::on_crash`] hook. The units come back in one
    /// `RepairResource` event after `repair`.
    fn crash_resource(
        &mut self,
        rid: ResourceId,
        units: Option<u32>,
        repair: SimDuration,
        sched: &mut Scheduler<FlowEvent>,
    ) {
        let online = self.state.resources.online(rid);
        let take = units.unwrap_or(online).min(online);
        if take == 0 {
            return;
        }
        self.state.trace.emit(sched.now(), || TraceEvent::FaultInjected {
            scope: FaultScope::Resource(rid.0),
            kind: trace::FaultKind::Crash,
            count: take as u64,
        });
        let mut shortfall = self.state.resources.crash(rid, take);
        if shortfall > 0 {
            for id in self.flow.stage_ids() {
                self.run_hook(id, sched, |b, ctx| b.on_crash(ctx, rid, shortfall));
                // Killed tasks released their units back to the free count;
                // confiscate again until the crash is fully covered.
                shortfall = self.state.resources.crash(rid, shortfall);
                if shortfall == 0 {
                    break;
                }
            }
        }
        let taken = take - shortfall;
        if taken > 0 {
            sched.schedule(
                sched.now() + repair,
                FlowEvent::RepairResource { resource: rid, units: taken },
            );
        }
        // Killing a wide task can free more units than the crash consumed;
        // let queued work claim the surviving capacity right away.
        self.drain(rid, sched);
    }

    /// Walk the lineage of a quarantined block upstream from the stage that
    /// detected it, looking for the nearest durable ancestor, and re-enqueue
    /// the work the quarantined copy came from. `from` is the stage that
    /// delivered the bad block (the first hop); beyond it the walk follows
    /// each stage's first upstream edge, inverting volume transformations as
    /// it goes. Gives up — leaving the block quarantined with no replacement
    /// — when lineage runs out, a stage's transformation is not invertible
    /// (zero ratio), or the walk exceeds [`MAX_REPROCESS_DEPTH`] hops.
    fn reprocess(
        &mut self,
        stage: StageId,
        from: Option<StageId>,
        volume: DataVolume,
        lineage: u64,
        sched: &mut Scheduler<FlowEvent>,
    ) {
        let mut vol = volume;
        let mut cur = stage;
        let mut prev = from;
        for _ in 0..MAX_REPROCESS_DEPTH {
            let Some(u) = prev else { return };
            if self.flow.durable(u) {
                // `u` still holds (or can regenerate) a clean copy of what it
                // delivered to `cur`: replay that delivery. The replacement
                // keeps the quarantined block's lineage id — it is the same
                // logical block, re-materialised.
                self.state.metrics[cur].reprocessed_blocks += 1;
                sched.schedule(
                    sched.now(),
                    FlowEvent::Arrive { stage: cur, volume: vol, taint: 0, from: Some(u), lineage },
                );
                return;
            }
            let r = self.flow.ratio(u);
            if r <= 0.0 {
                return;
            }
            vol = vol.scale(1.0 / r);
            cur = u;
            prev = self.flow.upstream(u).first().copied();
        }
    }

    /// Run one behavior hook on stage `id`: take the behavior out of its
    /// slot, hand `hook` a [`StageCtx`] over the run state, put the behavior
    /// back, then apply what the hook deferred — source emissions, then
    /// resource drains — and recycle the buffer. Only `on_arrive` and
    /// `on_complete` defer anything; after the other hooks that step is
    /// empty.
    fn run_hook<R>(
        &mut self,
        id: StageId,
        sched: &mut Scheduler<FlowEvent>,
        hook: impl FnOnce(&mut dyn StageBehavior, &mut StageCtx) -> R,
    ) -> R {
        let mut behavior = self.state.behaviors[id.index()].take().expect("behavior in place");
        let mut fx = self.take_fx();
        let out = hook(
            behavior.as_mut(),
            &mut StageCtx::new(
                id,
                &self.flow,
                sched,
                &mut self.state.metrics,
                &mut self.state.ledger,
                &mut self.state.resources,
                &mut self.state.faults,
                &mut fx,
                &mut self.state.trace,
            ),
        );
        self.state.behaviors[id.index()] = Some(behavior);
        for _ in 0..fx.source_emits {
            self.state.pending_emits -= 1;
            if self.state.pending_emits == 0 {
                self.state.backlog_at_source_end = Some(self.total_queued());
                self.state.source_end = Some(sched.now());
            }
        }
        for i in 0..fx.drains.len() {
            let rid = fx.drains[i];
            self.drain(rid, sched);
        }
        self.recycle_fx(fx);
        out
    }

    /// Grab a cleared [`DeferredFx`] buffer, reusing a recycled one when
    /// available so steady-state event handling allocates nothing.
    fn take_fx(&mut self) -> DeferredFx {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Return a [`DeferredFx`] buffer to the pool once its effects have been
    /// applied.
    fn recycle_fx(&mut self, mut fx: DeferredFx) {
        fx.drains.clear();
        fx.source_emits = 0;
        self.fx_pool.push(fx);
    }

    fn total_queued(&self) -> DataVolume {
        self.state
            .behaviors
            .iter()
            .map(|b| b.as_ref().expect("behavior in place").queued_volume())
            .sum()
    }

    /// One time-series sample of the current state, recorded as of `at`.
    fn take_sample(&mut self, at: SimTime) {
        let queued: Vec<DataVolume> = self
            .state
            .behaviors
            .iter()
            .map(|b| b.as_ref().expect("behavior in place").queued_volume())
            .collect();
        let pool_in_use: Vec<u32> =
            self.cfg.sample_pools.iter().map(|&r| self.state.resources.in_use(r)).collect();
        let sink_volume = self
            .flow
            .stage_ids()
            .filter(|&id| self.flow.sink(id))
            .map(|id| self.state.metrics[id].volume_in)
            .sum();
        if let Some(s) = self.state.sampler.as_mut() {
            s.samples.push(TsSample { at, queued, pool_in_use, sink_volume });
        }
    }

    /// Record every pending tick strictly before `at`. Called at the top of
    /// each event, this sees the state after all events up to the previous
    /// event time — which is exactly the state at any tick in between, since
    /// no event fired there. Sampling schedules nothing, so the event heap
    /// (and therefore `finished_at`) is identical with observation off.
    fn sample_up_to(&mut self, at: SimTime) {
        loop {
            let Some(next) = self.state.sampler.as_ref().map(|s| s.next) else { return };
            if next >= at {
                return;
            }
            self.take_sample(next);
            let s = self.state.sampler.as_mut().expect("sampler checked above");
            s.next = next + self.cfg.tick;
        }
    }

    fn report(mut self, stats: RunStats) -> SimReport {
        let finished_at = stats.finished_at;
        // Close the time series with one final sample at the end of the run.
        if self.state.sampler.is_some() {
            self.sample_up_to(finished_at);
            self.take_sample(finished_at);
        }
        let mut stages = Vec::with_capacity(self.flow.len());
        for id in self.flow.stage_ids() {
            let mut m = self.state.metrics[id].clone();
            m.name = self.flow.name(id).to_string();
            m.final_queue_volume = self.state.behaviors[id.index()]
                .as_ref()
                .expect("behavior in place")
                .queued_volume();
            stages.push(m);
        }
        // One writer keeps the SLO's escape total in step with the
        // per-stage counters the report prints; a second one would show here.
        assert_eq!(
            self.state.metrics.escaped(),
            self.state.metrics.escaped_sum(),
            "corrupt_escaped was written around RunMetrics::note_escaped"
        );
        // End-of-run engine gauges; the event counter was brought up to date
        // as the pump returned. Nothing here feeds back into the report.
        if let Some(h) = &self.obs {
            h.gauge_set("engine_events_handled", stats.events_handled);
            h.gauge_set("engine_peak_pending", stats.peak_pending as u64);
            if let Some(e) = &self.state.engine {
                h.gauge_set("engine_slab_high_water", e.sched().slab_high_water() as u64);
                h.gauge_set("engine_slab_slots", e.sched().slab_slots() as u64);
            }
        }
        // Close any still-firing SLO windows as unresolved alerts. Flows
        // without rules report `None`, keeping their pre-SLO bytes.
        let alerts = self.state.slo.map(|slo| {
            let mut alerts = slo.alerts;
            let unresolved = self.cfg.slo.iter().zip(&slo.monitors);
            alerts.extend(unresolved.filter_map(|(mon, state)| state.finish(&mon.name)));
            alerts
        });
        let (timeseries, engine) = match self.state.sampler {
            Some(s) => {
                // Pool names are resolved only here, at the render edge: the
                // per-run sampler records ids and counts, never strings.
                let names = self.state.resources.names();
                let pools = self.cfg.sample_pools.iter().map(|&r| names[r.0].clone()).collect();
                (
                    Some(TimeSeries { tick: self.cfg.tick, pools, samples: s.samples }),
                    Some(EngineStats {
                        events_handled: stats.events_handled,
                        peak_pending: stats.peak_pending,
                    }),
                )
            }
            None => (None, None),
        };
        SimReport {
            finished_at,
            source_end: self.state.source_end,
            backlog_at_source_end: self.state.backlog_at_source_end,
            stages,
            pools: self.state.resources.pool_report(finished_at),
            peak_storage: self.state.ledger.peak(),
            retained_storage: self.state.ledger.retained(),
            ledger_underflows: self.state.ledger.underflow_events(),
            timeseries,
            engine,
            alerts,
        }
    }

    /// Evaluate every attached SLO rule at `now`. Runs once per event, and
    /// only when rules are attached; each rule reads one value the run
    /// already maintains, so an event costs O(rules) whatever the flow's
    /// size. Evaluation reads simulation state but never writes it, so rules
    /// cannot perturb the run they watch.
    fn eval_slos(&mut self, now: SimTime) {
        let Some(SloRun { last_snap_at, monitors, alerts }) = &mut self.state.slo else { return };
        for (mon, state) in self.cfg.slo.iter().zip(monitors) {
            let (value, ceiling) = match mon.target {
                SloTarget::Queue { stage, ceiling } => {
                    let behavior = self.state.behaviors[stage].as_ref().expect("behavior in place");
                    (behavior.queued_volume().bytes(), ceiling)
                }
                SloTarget::Escapes { ceiling } => (self.state.metrics.escaped(), ceiling),
                SloTarget::SnapGap { max_gap } => {
                    // An unjournaled run commits no snapshot frames; there
                    // is no write cadence to stall, so the rule is inert.
                    if self.journal.is_none() {
                        continue;
                    }
                    let gap = now.checked_sub(*last_snap_at).unwrap_or(SimDuration::ZERO);
                    (gap.as_micros(), max_gap.as_micros())
                }
            };
            if let Some(alert) = state.observe(&mon.name, now, value, ceiling) {
                alerts.push(alert);
            }
        }
    }
}

impl EventHandler for FlowSim {
    type Event = FlowEvent;

    fn handle(&mut self, ev: FlowEvent, sched: &mut Scheduler<FlowEvent>) {
        self.sample_up_to(sched.now());
        // SLO evaluation sees the state as of the previous event (nothing
        // fired in between), which keeps it a pure function of the event
        // sequence.
        if self.state.slo.is_some() {
            self.eval_slos(sched.now());
        }
        let (stage, step) = match ev {
            FlowEvent::Arrive { stage, volume, taint, from, lineage } => {
                // Arrival bookkeeping is common to every kind: the block now
                // occupies storage and counts as stage input.
                self.state.ledger.alloc(volume);
                let m = &mut self.state.metrics[stage];
                m.blocks_in += 1;
                m.volume_in += volume;
                // Arrival integrity check, per the stage's verify policy.
                // Digest checks every block; Sample draws a seeded fraction;
                // both spend `volume / rate` of compute before admission.
                let cost = match self.flow.verify(stage) {
                    VerifyPolicy::None => None,
                    VerifyPolicy::Digest { rate } => {
                        Some(volume.time_at(rate).unwrap_or(SimDuration::ZERO))
                    }
                    VerifyPolicy::Sample { fraction, rate } => {
                        if self.state.verify_rng.gen::<f64>() < fraction {
                            Some(volume.time_at(rate).unwrap_or(SimDuration::ZERO))
                        } else {
                            None
                        }
                    }
                };
                if let Some(cost) = cost {
                    let m = &mut self.state.metrics[stage];
                    m.verify_overhead += cost;
                    m.busy += cost;
                    let tainted = taint > 0;
                    self.state.trace.emit(sched.now(), || TraceEvent::VerifyCheck {
                        stage,
                        lineage,
                        volume,
                        cost,
                        tainted,
                    });
                    if taint > 0 {
                        // Caught: quarantine the block (its buffer is
                        // released, it never reaches the stage proper) and
                        // try to replay it from a durable ancestor.
                        let m = &mut self.state.metrics[stage];
                        m.corrupt_detected += taint as u64;
                        m.quarantined += 1;
                        self.state.trace.emit(sched.now(), || TraceEvent::BlockQuarantined {
                            stage,
                            lineage,
                            volume,
                            taint,
                        });
                        self.state.ledger.free(volume);
                        self.reprocess(stage, from, volume, lineage, sched);
                        return;
                    }
                    sched.schedule(
                        sched.now() + cost,
                        FlowEvent::Admit { stage, volume, taint, lineage },
                    );
                    return;
                }
                // Unchecked: taint reaching a terminal stage has escaped to
                // consumers; count it once here and hand the behavior a
                // clean block so it cannot be double-counted downstream.
                let taint = if taint > 0 && self.flow.sink(stage) {
                    self.state.metrics.note_escaped(stage, taint);
                    0
                } else {
                    taint
                };
                (stage, Step::Arrive(volume, taint, lineage))
            }
            FlowEvent::Admit { stage, volume, taint, lineage } => {
                // Post-verification admission: ledger and input counters were
                // charged at arrival; the block is clean by construction.
                (stage, Step::Arrive(volume, taint, lineage))
            }
            FlowEvent::Complete { stage, done } => (stage, Step::Complete(done)),
            FlowEvent::CrashResource { resource, units, repair } => {
                self.crash_resource(resource, units, repair, sched);
                return;
            }
            FlowEvent::RepairResource { resource, units } => {
                self.state.trace.emit(sched.now(), || TraceEvent::FaultInjected {
                    scope: FaultScope::Resource(resource.0),
                    kind: trace::FaultKind::Repair,
                    count: units as u64,
                });
                self.state.resources.repair(resource, units);
                self.drain(resource, sched);
                return;
            }
        };
        self.run_hook(stage, sched, |b, ctx| match step {
            Step::Arrive(volume, taint, lineage) => b.on_arrive(ctx, volume, taint, lineage),
            Step::Complete(done) => b.on_complete(ctx, done),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CheckpointPolicy, StageKind};
    use crate::spec::{DedupSpec, FilterSpec, ProcessSpec, SourceSpec, TransferSpec};
    use crate::units::{DataRate, SimDuration};

    fn simple_graph(cpus_rate_mb: f64, output_ratio: f64) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "acquire",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(36),
                interval: SimDuration::from_hours(1),
                blocks: 3,
            }),
        );
        let p = g.add_stage(
            "process",
            StageKind::Process(ProcessSpec {
                rate_per_cpu: DataRate::mb_per_sec(cpus_rate_mb),
                cpus_per_task: 1,
                chunk: None,
                output_ratio,
                pool: "pool".into(),
                workspace_ratio: 0.0,
                retain_input: false,
                checkpoint: CheckpointPolicy::None,
            }),
        );
        let a = g.add_stage("archive", StageKind::Archive);
        g.connect(s, p).unwrap();
        g.connect(p, a).unwrap();
        g
    }

    #[test]
    fn conservation_of_volume() {
        let g = simple_graph(100.0, 0.5);
        let report = FlowSim::new(g, vec![CpuPool::new("pool", 4)]).unwrap().run().unwrap();
        let src = report.stage("acquire").unwrap();
        let proc = report.stage("process").unwrap();
        let arch = report.stage("archive").unwrap();
        assert_eq!(src.volume_out, DataVolume::gb(108));
        assert_eq!(proc.volume_in, DataVolume::gb(108));
        assert_eq!(proc.volume_out, DataVolume::gb(54));
        assert_eq!(arch.volume_in, DataVolume::gb(54));
        assert_eq!(report.retained_storage, DataVolume::gb(54));
    }

    #[test]
    fn fast_processing_keeps_up_slow_processing_backlogs() {
        // 36 GB arrives hourly; one cpu at 100 MB/s handles it in 6 min.
        let fast = FlowSim::new(simple_graph(100.0, 0.5), vec![CpuPool::new("pool", 1)])
            .unwrap()
            .run()
            .unwrap();
        assert!(fast.drain_duration().unwrap() < SimDuration::from_mins(30));

        // At 1 MB/s each block takes 10 h: queue grows.
        let slow = FlowSim::new(simple_graph(1.0, 0.5), vec![CpuPool::new("pool", 1)])
            .unwrap()
            .run()
            .unwrap();
        assert!(slow.backlog_at_source_end.unwrap() > DataVolume::ZERO);
        assert!(slow.drain_duration().unwrap() > fast.drain_duration().unwrap());
    }

    #[test]
    fn pool_is_shared_and_utilization_reported() {
        let g = simple_graph(10.0, 1.0);
        let report = FlowSim::new(g, vec![CpuPool::new("pool", 2)]).unwrap().run().unwrap();
        let pool = &report.pools[0];
        assert_eq!(pool.cpus, 2);
        assert!(pool.peak_in_use >= 1);
        assert!(pool.utilization > 0.0 && pool.utilization <= 1.0);
    }

    #[test]
    fn missing_pool_is_an_error() {
        let g = simple_graph(10.0, 1.0);
        match FlowSim::new(g, vec![]) {
            Err(CoreError::UnknownPool { name }) => assert_eq!(name, "pool"),
            Err(other) => panic!("expected UnknownPool, got {other:?}"),
            Ok(_) => panic!("expected UnknownPool, got Ok"),
        }
    }

    #[test]
    fn oversized_task_is_rejected_at_build_time() {
        // A task needing more cpus than its whole pool would wait forever;
        // the sim used to end "successfully" with the block still queued.
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "src",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(1),
                interval: SimDuration::from_secs(1),
                blocks: 1,
            }),
        );
        let p = g.add_stage(
            "wide",
            StageKind::Process(ProcessSpec {
                rate_per_cpu: DataRate::mb_per_sec(10.0),
                cpus_per_task: 8,
                chunk: None,
                output_ratio: 1.0,
                pool: "pool".into(),
                workspace_ratio: 0.0,
                retain_input: false,
                checkpoint: CheckpointPolicy::None,
            }),
        );
        g.connect(s, p).unwrap();
        match FlowSim::new(g, vec![CpuPool::new("pool", 4)]) {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("wide"), "{detail}");
                assert!(detail.contains("8"), "{detail}");
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got Ok"),
        }
    }

    #[test]
    fn ledger_underflow_is_counted_not_asserted() {
        let mut ledger = StorageLedger::default();
        ledger.alloc(DataVolume::gb(1));
        ledger.free(DataVolume::gb(2));
        assert_eq!(ledger.underflow_events(), 1);
        assert_eq!(ledger.current(), DataVolume::ZERO);
        ledger.free(DataVolume::gb(1));
        assert_eq!(ledger.underflow_events(), 2);
    }

    #[test]
    fn clean_runs_report_zero_underflows() {
        let g = simple_graph(100.0, 0.5);
        let report = FlowSim::new(g, vec![CpuPool::new("pool", 4)]).unwrap().run().unwrap();
        assert_eq!(report.ledger_underflows, 0);
    }

    #[test]
    fn zero_cpu_pool_is_an_error() {
        let g = simple_graph(10.0, 1.0);
        assert!(matches!(
            FlowSim::new(g, vec![CpuPool::new("pool", 0)]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn duplicate_pool_is_an_error() {
        let g = simple_graph(10.0, 1.0);
        assert!(matches!(
            FlowSim::new(g, vec![CpuPool::new("pool", 2), CpuPool::new("pool", 4)]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    fn transfer_graph(channels: u32) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "src",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(1),
                interval: SimDuration::from_secs(1),
                blocks: 3,
            }),
        );
        let t = g.add_stage(
            "link",
            StageKind::Transfer(TransferSpec {
                rate: DataRate::mb_per_sec(100.0), // 10 s per block
                latency: SimDuration::from_secs(2),
                channels,
            }),
        );
        let a = g.add_stage("dst", StageKind::Archive);
        g.connect(s, t).unwrap();
        g.connect(t, a).unwrap();
        g
    }

    #[test]
    fn transfer_serializes_blocks() {
        let report = FlowSim::new(transfer_graph(1), vec![]).unwrap().run().unwrap();
        // Three serialized 12 s transfers: last completes at 36 s.
        assert!((report.finished_at.as_secs_f64() - 36.0).abs() < 1e-6);
        assert_eq!(report.stage("dst").unwrap().volume_in, DataVolume::gb(3));
    }

    #[test]
    fn multi_channel_transfer_overlaps_blocks() {
        // With three channels the blocks ship as they arrive (0 s, 1 s, 2 s)
        // and overlap: the last 12 s transfer starts at 2 s and ends at 14 s.
        let report = FlowSim::new(transfer_graph(3), vec![]).unwrap().run().unwrap();
        assert!((report.finished_at.as_secs_f64() - 14.0).abs() < 1e-6);
        assert_eq!(report.stage("dst").unwrap().volume_in, DataVolume::gb(3));
        assert_eq!(report.stage("link").unwrap().blocks_out, 3);
    }

    #[test]
    fn zero_channel_transfer_is_rejected() {
        assert!(matches!(
            FlowSim::new(transfer_graph(0), vec![]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    fn filter_graph(accept_ratio: f64) -> FlowGraph {
        inspecting_graph(StageKind::Filter(FilterSpec {
            rate: DataRate::mb_per_sec(200.0),
            accept_ratio,
            checkpoint: CheckpointPolicy::None,
        }))
    }

    /// detector → trigger → tape, four 10 GB blocks 100 s apart.
    fn inspecting_graph(trigger: StageKind) -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "detector",
            StageKind::Source(SourceSpec {
                block: DataVolume::gb(10),
                interval: SimDuration::from_secs(100),
                blocks: 4,
            }),
        );
        let f = g.add_stage("trigger", trigger);
        let a = g.add_stage("tape", StageKind::Archive);
        g.connect(s, f).unwrap();
        g.connect(f, a).unwrap();
        g
    }

    #[test]
    fn filter_forwards_only_the_accepted_fraction() {
        let report = FlowSim::new(filter_graph(0.05), vec![]).unwrap().run().unwrap();
        let trigger = report.stage("trigger").unwrap();
        let tape = report.stage("tape").unwrap();
        assert_eq!(trigger.volume_in, DataVolume::gb(40));
        assert_eq!(trigger.volume_out, DataVolume::gb(2)); // 5% of 40 GB
        assert_eq!(tape.volume_in, DataVolume::gb(2));
        assert_eq!(report.retained_storage, DataVolume::gb(2));
        // Rejected volume is derivable, not stored: in − out.
        assert_eq!(trigger.volume_in - trigger.volume_out, DataVolume::gb(38));
        assert_eq!(report.ledger_underflows, 0);
    }

    #[test]
    fn filter_inspects_in_real_time() {
        // 10 GB at 200 MB/s is 50 s per block, against a 100 s cadence: the
        // trigger keeps up and the flow ends 50 s after the last block.
        let report = FlowSim::new(filter_graph(0.05), vec![]).unwrap().run().unwrap();
        assert!((report.finished_at.as_secs_f64() - 350.0).abs() < 1e-6);
        assert_eq!(report.backlog_at_source_end, Some(DataVolume::ZERO));
    }

    #[test]
    fn filter_accept_ratio_must_be_a_fraction() {
        assert!(matches!(
            FlowSim::new(filter_graph(1.5), vec![]),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            FlowSim::new(filter_graph(-0.1), vec![]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn peak_storage_includes_working_space() {
        let mut g = FlowGraph::new();
        let s = g.add_stage(
            "src",
            StageKind::Source(SourceSpec {
                block: DataVolume::tb(14),
                interval: SimDuration::from_days(7),
                blocks: 1,
            }),
        );
        let p = g.add_stage(
            "dedisperse",
            StageKind::Process(ProcessSpec {
                rate_per_cpu: DataRate::mb_per_sec(500.0),
                cpus_per_task: 1,
                chunk: None,
                output_ratio: 1.0, // time series ≈ raw volume
                pool: "ctc".into(),
                workspace_ratio: 0.2,
                retain_input: true, // raw data kept for iterative reprocessing
                checkpoint: CheckpointPolicy::None,
            }),
        );
        let a = g.add_stage("archive", StageKind::Archive);
        g.connect(s, p).unwrap();
        g.connect(p, a).unwrap();
        let report = FlowSim::new(g, vec![CpuPool::new("ctc", 8)]).unwrap().run().unwrap();
        // Raw 14 TB + output 14 TB + 20% scratch > 30 TB instantaneous.
        assert!(report.peak_storage >= DataVolume::tb(30), "peak {}", report.peak_storage);
    }

    #[test]
    fn event_cap_detects_divergence() {
        let g = simple_graph(10.0, 1.0);
        let sim = FlowSim::new(g, vec![CpuPool::new("pool", 1)]).unwrap().with_max_events(2);
        assert!(matches!(sim.run(), Err(CoreError::InvalidConfig { .. })));
    }

    use crate::fault::{FaultEvent, FaultPlan, FaultProfile, RetryPolicy};
    use crate::graph::VerifyPolicy;

    /// src → link → dst, with one silent-corruption event timed to taint the
    /// first block's transfer attempt (blocks take 12 s on the link).
    fn corrupting_setup(verify: VerifyPolicy) -> (FlowGraph, FaultPlan) {
        let mut g = transfer_graph(1);
        let dst = g.find("dst").unwrap();
        g.set_verify(dst, verify);
        let plan = FaultPlan::from_events(
            7,
            vec![FaultEvent {
                at: SimTime::from_micros(5_000_000),
                kind: FaultKind::SilentCorrupt,
            }],
        );
        (g, plan)
    }

    #[test]
    fn digest_verification_quarantines_and_reprocesses() {
        let (g, plan) = corrupting_setup(VerifyPolicy::digest(DataRate::mb_per_sec(500.0)));
        let report = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .run()
            .unwrap();
        let link = report.stage("link").unwrap();
        let dst = report.stage("dst").unwrap();
        assert_eq!(link.corrupt_injected, 1);
        assert_eq!(dst.corrupt_detected, 1);
        assert_eq!(dst.quarantined, 1);
        assert_eq!(report.total_corrupt_escaped(), 0);
        // Lineage walk: dst ← link (not durable) ← src (source, durable), so
        // the block re-enters at the link and ships again, clean this time.
        assert_eq!(link.reprocessed_blocks, 1);
        assert_eq!(dst.volume_in, DataVolume::gb(4)); // 3 blocks + 1 replay
        assert_eq!(report.retained_storage, DataVolume::gb(3)); // quarantined copy not kept
        assert!(dst.verify_overhead > SimDuration::ZERO);
        assert_eq!(report.ledger_underflows, 0);
    }

    #[test]
    fn unverified_taint_escapes_at_the_sink() {
        let (g, plan) = corrupting_setup(VerifyPolicy::None);
        let report = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .run()
            .unwrap();
        let dst = report.stage("dst").unwrap();
        assert_eq!(report.total_corrupt_injected(), 1);
        assert_eq!(dst.corrupt_escaped, 1);
        assert_eq!(report.total_corrupt_detected(), 0);
        assert_eq!(report.total_reprocessed_blocks(), 0);
        assert_eq!(dst.verify_overhead, SimDuration::ZERO);
        // The corrupted block is archived like any other: same volume, bad data.
        assert_eq!(dst.volume_in, DataVolume::gb(3));
    }

    #[test]
    fn abandoned_corrupted_blocks_bill_their_final_attempt_once() {
        // A Corrupt event sits in every attempt window, so each block burns
        // its retry and is abandoned with Corrupted as the last failure.
        // Every attempt pushed the full payload across the wire before the
        // end-to-end check failed, so with max_retries = 1 each 1 GB block
        // bills exactly 2 GB of retransmission — the abandoned final attempt
        // counts once, not zero times and not twice.
        let events = (0..10_000u64)
            .map(|i| FaultEvent {
                at: SimTime::from_micros(i * 5_000_000),
                kind: FaultKind::Corrupt,
            })
            .collect();
        let plan = FaultPlan::from_events(13, events);
        let policy = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let report = FlowSim::new(transfer_graph(1), vec![])
            .unwrap()
            .with_faults(plan, policy)
            .run()
            .unwrap();
        let link = report.stage("link").unwrap();
        assert_eq!(link.blocks_failed, 3);
        assert_eq!(link.blocks_out, 0);
        assert_eq!(link.volume_lost, DataVolume::gb(3));
        assert_eq!(link.volume_retransmitted, DataVolume::gb(6));
        assert_eq!(link.retries, 3);
    }

    #[test]
    fn sampling_extremes_match_digest_and_none() {
        let (g, plan) = corrupting_setup(VerifyPolicy::sample(1.0, DataRate::mb_per_sec(500.0)));
        let all = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(all.total_corrupt_detected(), 1);
        assert_eq!(all.total_corrupt_escaped(), 0);

        let (g, plan) = corrupting_setup(VerifyPolicy::sample(0.0, DataRate::mb_per_sec(500.0)));
        let none = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(none.total_corrupt_escaped(), 1);
        assert_eq!(none.stage("dst").unwrap().verify_overhead, SimDuration::ZERO);
    }

    #[test]
    fn sampled_runs_conserve_taint_and_replay_identically() {
        // Dense enough that several transfer attempts overlap a corruption
        // event; a 36 s flow sees an event roughly every 4 s.
        let profile = FaultProfile::silent_corruption(20_000.0);
        let run = || {
            let mut g = transfer_graph(1);
            let dst = g.find("dst").unwrap();
            g.set_verify(dst, VerifyPolicy::sample(0.5, DataRate::mb_per_sec(500.0)));
            let plan = FaultPlan::generate(11, SimDuration::from_days(1), &profile);
            FlowSim::new(g, vec![])
                .unwrap()
                .with_faults(plan, RetryPolicy::default())
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "sampled verification must replay deterministically");
        assert!(a.total_corrupt_injected() > 0);
        assert_eq!(
            a.total_corrupt_injected(),
            a.total_corrupt_detected() + a.total_corrupt_escaped(),
            "taint is conserved"
        );
    }

    #[test]
    fn quarantined_blocks_past_the_reprocess_depth_are_given_up() {
        // src → link-0 → … → link-{n-1} → dst, the first link corrupting one
        // block: the source, the only durable stage, is n + 1 hops upstream
        // of the verifying archive.
        let run = |links: usize| {
            let mut g = FlowGraph::new();
            let mut prev = g.add_stage(
                "src",
                StageKind::Source(SourceSpec {
                    block: DataVolume::gb(1),
                    interval: SimDuration::from_secs(1),
                    blocks: 3,
                }),
            );
            for i in 0..links {
                let link = g.add_stage(
                    format!("link-{i}"),
                    StageKind::Transfer(TransferSpec {
                        rate: DataRate::mb_per_sec(100.0),
                        latency: SimDuration::from_secs(2),
                        channels: 1,
                    }),
                );
                g.connect(prev, link).unwrap();
                prev = link;
            }
            let dst = g.add_stage("dst", StageKind::Archive);
            g.connect(prev, dst).unwrap();
            g.set_verify(dst, VerifyPolicy::digest(DataRate::mb_per_sec(500.0)));
            let (_, plan) = corrupting_setup(VerifyPolicy::None);
            FlowSim::new(g, vec![])
                .unwrap()
                .with_faults(plan, RetryPolicy::default())
                .run()
                .unwrap()
        };
        // Eight hops up, the source is within reach: the block is replayed.
        let reached = run(MAX_REPROCESS_DEPTH - 1);
        assert_eq!(reached.stage("dst").unwrap().quarantined, 1);
        assert_eq!(reached.total_reprocessed_blocks(), 1);
        // Nine hops up, it is not: the block is given up.
        let report = run(MAX_REPROCESS_DEPTH);
        let dst = report.stage("dst").unwrap();
        assert_eq!(dst.quarantined, 1);
        assert_eq!(report.total_reprocessed_blocks(), 0);
        assert_eq!(dst.volume_in, DataVolume::gb(3)); // the bad block is simply gone
        assert_eq!(report.retained_storage, DataVolume::gb(2));
    }

    #[test]
    fn degenerate_verify_policies_are_rejected() {
        let mut g = transfer_graph(1);
        let dst = g.find("dst").unwrap();
        g.set_verify(dst, VerifyPolicy::digest(DataRate::mb_per_sec(0.0)));
        assert!(matches!(FlowSim::new(g, vec![]), Err(CoreError::InvalidConfig { .. })));

        let mut g = transfer_graph(1);
        let dst = g.find("dst").unwrap();
        g.set_verify(dst, VerifyPolicy::sample(1.5, DataRate::mb_per_sec(100.0)));
        assert!(matches!(FlowSim::new(g, vec![]), Err(CoreError::InvalidConfig { .. })));

        let mut g = transfer_graph(1);
        let src = g.find("src").unwrap();
        g.set_verify(src, VerifyPolicy::digest(DataRate::mb_per_sec(100.0)));
        assert!(matches!(FlowSim::new(g, vec![]), Err(CoreError::InvalidConfig { .. })));
    }

    // --- Arrivals while a channel is offline --------------------------------

    /// Run `g` with `units` of `stage`'s channel (`None`: all of them) down
    /// from `at` s for `repair` s, recording the trace.
    fn run_with_channel_down(
        g: FlowGraph,
        stage: &str,
        units: Option<u32>,
        at: u64,
        repair: u64,
    ) -> (SimReport, Vec<(SimTime, TraceEvent)>) {
        let (pool, repair) = (format!("{stage}#channel"), SimDuration::from_secs(repair));
        let kind = match units {
            Some(cpus) => FaultKind::NodeCrash { pool, cpus, repair },
            None => FaultKind::PoolOutage { pool, repair },
        };
        let at = SimTime::ZERO + SimDuration::from_secs(at);
        let plan = FaultPlan::from_events(7, vec![FaultEvent { at, kind }]);
        let trace = trace::TraceRecorder::new();
        let report = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .with_observer(trace.clone())
            .run()
            .unwrap();
        (report, trace.snapshot().events)
    }

    /// When each task or transfer attempt of the run started, in seconds.
    fn start_times(events: &[(SimTime, TraceEvent)]) -> Vec<f64> {
        let started = |ev: &TraceEvent| {
            matches!(ev, TraceEvent::TaskStart { .. } | TraceEvent::TransferAttempt { .. })
        };
        events.iter().filter(|(_, ev)| started(ev)).map(|(at, _)| at.as_secs_f64()).collect()
    }

    #[test]
    fn filter_block_arriving_during_an_outage_is_inspected_at_the_repair() {
        // Blocks at 0, 100, 200 and 300 s, 50 s of inspection each. The
        // channel is idle when it goes dark at 260 s, so nothing is killed
        // and nothing enlists the stage — until the fourth block arrives.
        let (report, events) =
            run_with_channel_down(filter_graph(0.05), "trigger", None, 260, 1000);
        let trigger = report.stage("trigger").unwrap();
        assert_eq!((trigger.blocks_in, trigger.blocks_out, trigger.crashes), (4, 4, 0));
        assert_eq!(report.stage("tape").unwrap().volume_in, DataVolume::gb(2));
        assert_eq!(start_times(&events), [0.0, 100.0, 200.0, 1260.0]);
        assert_eq!(report.finished_at, SimTime::ZERO + SimDuration::from_secs(1310));
    }

    #[test]
    fn dedup_block_arriving_during_an_outage_is_inspected_at_the_repair() {
        let g = inspecting_graph(StageKind::Dedup(DedupSpec {
            rate: DataRate::mb_per_sec(200.0),
            unique_ratio: 0.5,
            window: 3,
        }));
        let (report, events) = run_with_channel_down(g, "trigger", None, 260, 1000);
        let dedup = report.stage("trigger").unwrap();
        assert_eq!((dedup.blocks_in, dedup.blocks_out, dedup.crashes), (4, 4, 0));
        // Three whole blocks while the index warms up, half of the fourth.
        assert_eq!(report.stage("tape").unwrap().volume_in, DataVolume::gb(35));
        assert_eq!(start_times(&events), [0.0, 100.0, 200.0, 1260.0]);
        assert_eq!(report.finished_at, SimTime::ZERO + SimDuration::from_secs(1310));
    }

    #[test]
    fn transfer_blocks_arriving_during_an_outage_ship_after_the_repair() {
        // The link is down from the start; blocks arrive at 0, 1 and 2 s.
        let (report, events) = run_with_channel_down(transfer_graph(1), "link", None, 0, 100);
        assert_eq!(report.stage("link").unwrap().blocks_out, 3);
        assert_eq!(report.stage("dst").unwrap().volume_in, DataVolume::gb(3));
        assert_eq!(start_times(&events), [100.0, 112.0, 124.0]);
        assert_eq!(report.finished_at, SimTime::ZERO + SimDuration::from_secs(136));
    }

    #[test]
    fn a_partial_channel_crash_neither_strands_nor_double_dispatches() {
        // Two of three lanes are down from 0 to 20 s. The first block ships
        // on the survivor (0–12 s); the second arrives blocked, enlists, and
        // is started by the first's delivery, not by the repair; the repair
        // finds the stage still enlisted and starts the third at 20 s.
        let (report, events) = run_with_channel_down(transfer_graph(3), "link", Some(2), 0, 20);
        assert_eq!(report.stage("link").unwrap().blocks_out, 3);
        assert_eq!(report.stage("dst").unwrap().volume_in, DataVolume::gb(3));
        assert_eq!(start_times(&events), [0.0, 12.0, 20.0]);
        assert_eq!(report.finished_at, SimTime::ZERO + SimDuration::from_secs(32));
        // A repair that finds nothing queued drops the stale waiter entry.
        let (late, events) = run_with_channel_down(transfer_graph(3), "link", Some(2), 0, 100);
        assert_eq!(late.stage("dst").unwrap().volume_in, DataVolume::gb(3));
        assert_eq!(start_times(&events), [0.0, 12.0, 24.0]);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sciflow-sim-{}-{name}", std::process::id()));
        p
    }

    /// A faulted, verified transfer flow: drops drive the retry/jitter RNG,
    /// silent corruption drives the verify RNG and quarantine machinery —
    /// the state a snapshot most needs to get right.
    fn durable_setup() -> (FlowGraph, FaultPlan) {
        let (g, _) = corrupting_setup(VerifyPolicy::digest(DataRate::mb_per_sec(500.0)));
        let plan = FaultPlan::from_events(
            11,
            vec![
                FaultEvent { at: SimTime::from_micros(1_000_000), kind: FaultKind::Drop },
                FaultEvent { at: SimTime::from_micros(5_000_000), kind: FaultKind::SilentCorrupt },
                FaultEvent {
                    at: SimTime::from_micros(12_000_000),
                    kind: FaultKind::Stall { duration: SimDuration::from_secs(3) },
                },
            ],
        );
        (g, plan)
    }

    fn durable_sim(g: &FlowGraph, plan: &FaultPlan) -> FlowSim {
        FlowSim::new(g.clone(), vec![]).unwrap().with_faults(plan.clone(), RetryPolicy::default())
    }

    /// Journal the durable flow under `policy` at `path` and crash it once
    /// 13 events are handled: `run_for(14)`, then the simulator is dropped.
    fn crash_at_13(policy: SnapshotPolicy, path: &std::path::Path) {
        let (g, plan) = durable_setup();
        let mut sim =
            durable_sim(&g, &plan).with_snapshot_policy(policy).with_journal(path).unwrap();
        assert!(sim.run_for(14).unwrap(), "the crash lands mid-run");
    }

    #[test]
    fn snapshot_resume_reproduces_the_uninterrupted_report() {
        let (g, plan) = durable_setup();
        let golden = durable_sim(&g, &plan).run().unwrap().to_json();
        let path = tmp("mid");
        let mut paused = durable_sim(&g, &plan);
        assert!(paused.run_for(7).unwrap(), "flow should not be quiescent after 7 events");
        paused.snapshot_to(&path).unwrap();
        let resumed = durable_sim(&g, &plan).resume_from(&path).unwrap().run().unwrap().to_json();
        assert_eq!(resumed, golden, "resumed report must be byte-identical");
        // The paused original also finishes identically: pausing is inert.
        let continued = paused.run().unwrap().to_json();
        assert_eq!(continued, golden);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_pause_point_resumes_identically() {
        let (g, plan) = durable_setup();
        let golden = durable_sim(&g, &plan).run().unwrap().to_json();
        let total = {
            let mut sim = durable_sim(&g, &plan);
            let mut n = 0u64;
            while sim.run_for(1).unwrap() {
                n += 1;
            }
            n
        };
        let path = tmp("sweep");
        for k in 1..total {
            let mut paused = durable_sim(&g, &plan);
            paused.run_for(k).unwrap();
            paused.snapshot_to(&path).unwrap();
            let resumed =
                durable_sim(&g, &plan).resume_from(&path).unwrap().run().unwrap().to_json();
            assert_eq!(resumed, golden, "divergence resuming from event {k}/{total}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn killed_journaled_run_resumes_from_the_last_sealed_snapshot() {
        let (g, plan) = durable_setup();
        let golden = durable_sim(&g, &plan).run().unwrap().to_json();
        let path = tmp("journal");
        crash_at_13(SnapshotPolicy::EveryEvents(5), &path);
        let resumed = durable_sim(&g, &plan).resume_from(&path).unwrap().run().unwrap().to_json();
        assert_eq!(resumed, golden);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn observed_runs_snapshot_their_time_series_too() {
        let mut g = simple_graph(10.0, 0.5);
        g.set_observe(crate::trace::ObserveConfig::every(SimDuration::from_mins(30)));
        let pools = || vec![CpuPool::new("pool", 4)];
        let golden = FlowSim::new(g.clone(), pools()).unwrap().run().unwrap().to_json();
        let path = tmp("observed");
        let mut paused = FlowSim::new(g.clone(), pools()).unwrap();
        assert!(paused.run_for(5).unwrap());
        paused.snapshot_to(&path).unwrap();
        let resumed = FlowSim::new(g.clone(), pools())
            .unwrap()
            .resume_from(&path)
            .unwrap()
            .run()
            .unwrap()
            .to_json();
        assert_eq!(resumed, golden, "time series must survive the snapshot");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_against_a_different_run_is_refused() {
        let (g, plan) = durable_setup();
        let path = tmp("mismatch");
        let mut sim = durable_sim(&g, &plan);
        sim.run_for(5).unwrap();
        sim.snapshot_to(&path).unwrap();
        // Same flow, different fault seed: a different run.
        let reseeded = FaultPlan::from_events(99, plan.events().to_vec());
        let err = FlowSim::new(g.clone(), vec![])
            .unwrap()
            .with_faults(reseeded, RetryPolicy::default())
            .resume_from(&path)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::ResumeMismatch { .. }), "got {err:?}");
        // No fault plan at all: also a different run.
        let err =
            FlowSim::new(g.clone(), vec![]).unwrap().resume_from(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::ResumeMismatch { .. }), "got {err:?}");
        // A different graph entirely.
        let err = FlowSim::new(simple_graph(10.0, 0.5), vec![CpuPool::new("pool", 4)])
            .unwrap()
            .resume_from(&path)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::ResumeMismatch { .. }), "got {err:?}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Resume `sim` from a file holding `bytes`: the error it refuses them
    /// with, once the file is shown to be exactly as it was.
    fn refused_untouched(name: &str, bytes: &[u8], sim: FlowSim) -> CoreError {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let err = sim.resume_from(&path).map(|_| ()).unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name}: a refused journal is untouched");
        std::fs::remove_file(&path).unwrap();
        err
    }

    /// Another run's journal is refused before recovery touches it: its
    /// torn tail is that run's to recover.
    #[test]
    fn a_foreign_journal_with_a_torn_tail_is_refused_untouched() {
        let path = tmp("foreign");
        crash_at_13(SnapshotPolicy::EveryEvents(5), &path);
        let torn = [std::fs::read(&path).unwrap(), vec![durable::FRAME_SNAPSHOT, 9, 9, 9]].concat();
        std::fs::remove_file(&path).unwrap();
        let other = FlowSim::new(simple_graph(10.0, 0.5), vec![CpuPool::new("pool", 4)]).unwrap();
        let err = refused_untouched("foreign-torn", &torn, other);
        assert!(
            matches!(&err, CoreError::ResumeMismatch { detail } if detail.contains("spec hash")),
            "got {err:?}"
        );
    }

    /// A format-1 journal with a torn tail — the run-journal byte pin as
    /// format 1 wrote it: its header still decodes, and its format refuses
    /// it before recovery touches it.
    #[test]
    fn a_format_1_journal_with_a_torn_tail_is_refused_untouched() {
        let format_1 = [
            &b"SFJRNL1\n"[..],
            &[1, 33, 0, 0, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0], // format 1
            &[4, 0, 0, 0, 0, 0, 0, 0],
            b"test",
            &[0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0],
            &[1, 42, 0, 0, 0, 0, 0, 0, 0],
            &[227, 219, 116, 47, 255, 6, 200, 95],
            &[2, 4, 0, 0, 0, 0, 0, 0, 0],
            b"snap",
            &[65, 149, 158, 213, 129, 211, 173, 184],
            &[2, 9, 9, 9], // the torn tail
        ]
        .concat();
        let (g, plan) = durable_setup();
        let err = refused_untouched("format-1", &format_1, durable_sim(&g, &plan));
        assert!(
            matches!(&err, CoreError::ResumeMismatch { detail } if detail.contains("format v1")),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupted_snapshot_files_are_typed_errors_never_resumed() {
        let (g, plan) = durable_setup();
        let path = tmp("corrupt");
        let mut sim = durable_sim(&g, &plan);
        sim.run_for(5).unwrap();
        sim.snapshot_to(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Truncate at every offset: never a silent resume.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let err = durable_sim(&g, &plan).resume_from(&path).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CoreError::CorruptJournal { .. } | CoreError::ResumeMismatch { .. }),
                "truncation at {cut} gave {err:?}"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        durable_sim(&g, &plan).resume_from(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attaching_a_metrics_hub_never_perturbs_the_report() {
        let bare = FlowSim::new(simple_graph(1.0, 0.5), vec![CpuPool::new("pool", 1)])
            .unwrap()
            .run()
            .unwrap();
        let hub = MetricsHub::new();
        let observed = FlowSim::new(simple_graph(1.0, 0.5), vec![CpuPool::new("pool", 1)])
            .unwrap()
            .with_metrics(hub.clone())
            .run()
            .unwrap();
        assert_eq!(observed.to_json(), bare.to_json(), "hub must be invisible to the report");
        assert_eq!(
            hub.value("sim_events_total"),
            hub.value("engine_events_handled"),
            "per-event counter and end-of-run gauge must agree"
        );
        assert!(hub.value("engine_peak_pending").unwrap() > 0);
        assert!(hub.value("engine_slab_high_water").unwrap() > 0);
    }

    #[test]
    fn queue_backlog_slo_fires_peaks_and_resolves() {
        // At 1 MB/s each 36 GB block takes 10 h while blocks arrive hourly:
        // the process queue backlogs far past 1 GB, then drains.
        let mut g = simple_graph(1.0, 0.5);
        g.set_slos(vec![
            SloRule::queue_backlog("process-backlog", "process", DataVolume::gb(1)),
            SloRule::queue_backlog("never-fires", "archive", DataVolume::tb(999)),
        ]);
        let report = FlowSim::new(g, vec![CpuPool::new("pool", 1)]).unwrap().run().unwrap();
        let alerts = report.alerts.as_ref().expect("rules attached => Some");
        assert_eq!(alerts.len(), 1, "only the backlog rule fires: {alerts:?}");
        let a = &alerts[0];
        assert_eq!(a.rule, "process-backlog");
        assert!(a.peak > 1_000_000_000, "peak {} must exceed the 1 GB ceiling", a.peak);
        let resolved = a.resolved_at.expect("the queue drains before the run ends");
        assert!(a.fired_at < resolved);
        assert!(report.to_json().contains("\"alerts\": ["));
    }

    #[test]
    fn escaped_taint_slo_stays_unresolved() {
        // No verifier anywhere: the injected corruption escapes to the sink
        // and the escape count never comes back down.
        let (g, plan) = corrupting_setup(VerifyPolicy::None);
        let mut g = g;
        g.set_slos(vec![SloRule::escaped_taint("no-escapes", 0)]);
        let report = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan, RetryPolicy::default())
            .run()
            .unwrap();
        assert!(report.total_corrupt_escaped() > 0, "setup must actually leak taint");
        let alerts = report.alerts.as_ref().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "no-escapes");
        assert_eq!(alerts[0].resolved_at, None, "escapes cannot un-escape");
    }

    /// The per-event sum the SLO path used to take is the reference here:
    /// after every single event, and on a simulator restored from a snapshot
    /// taken after the escape, the maintained total equals it.
    #[test]
    fn escape_total_equals_the_per_stage_sum_after_every_event() {
        let (g, plan) = corrupting_setup(VerifyPolicy::None);
        let sim = || {
            FlowSim::new(g.clone(), vec![])
                .unwrap()
                .with_faults(plan.clone(), RetryPolicy::default())
        };
        let path = tmp("escape-total");
        let mut stepped = sim();
        let mut restored_after_escape = false;
        while stepped.run_for(1).unwrap() {
            assert_eq!(stepped.state.metrics.escaped(), stepped.state.metrics.escaped_sum());
            if stepped.state.metrics.escaped() > 0 && !restored_after_escape {
                stepped.snapshot_to(&path).unwrap();
                let resumed = sim().resume_from(&path).unwrap();
                assert_eq!(resumed.state.metrics.escaped(), stepped.state.metrics.escaped());
                restored_after_escape = true;
            }
        }
        assert!(restored_after_escape, "setup must actually leak taint");
        assert_eq!(stepped.state.metrics.escaped(), stepped.state.metrics.escaped_sum());
        std::fs::remove_file(&path).unwrap();
    }

    /// A write to the per-stage field that goes around `note_escaped` is
    /// what the end-of-run check exists to catch.
    #[test]
    #[should_panic(expected = "written around RunMetrics::note_escaped")]
    fn an_escape_counted_around_the_helper_fails_the_run() {
        let mut sim =
            FlowSim::new(simple_graph(100.0, 0.5), vec![CpuPool::new("pool", 4)]).unwrap();
        sim.run_for(1).unwrap();
        sim.state.metrics[StageId(0)].corrupt_escaped += 1;
        let _ = sim.run();
    }

    #[test]
    fn slo_rules_never_perturb_the_flow_itself() {
        let plain = FlowSim::new(simple_graph(1.0, 0.5), vec![CpuPool::new("pool", 1)])
            .unwrap()
            .run()
            .unwrap();
        let mut g = simple_graph(1.0, 0.5);
        g.set_slos(vec![SloRule::queue_backlog("b", "process", DataVolume::gb(1))]);
        let mut ruled = FlowSim::new(g, vec![CpuPool::new("pool", 1)]).unwrap().run().unwrap();
        assert!(ruled.alerts.take().is_some_and(|a| !a.is_empty()));
        ruled.alerts = None;
        assert_eq!(ruled.to_json(), plain.to_json(), "rules only add alerts, nothing else");
    }

    #[test]
    fn slo_state_survives_snapshot_and_resume() {
        let (base, plan) = durable_setup();
        let graph = || {
            let mut g = base.clone();
            g.set_slos(vec![
                SloRule::queue_backlog("link-backlog", "link", DataVolume::mb(500)),
                SloRule::escaped_taint("esc", 0),
            ]);
            g
        };
        let sim = |g: FlowGraph| {
            FlowSim::new(g, vec![]).unwrap().with_faults(plan.clone(), RetryPolicy::default())
        };
        let golden = sim(graph()).run().unwrap().to_json();
        assert!(golden.contains("\"alerts\""));
        let total = {
            let mut s = sim(graph());
            let mut n = 0u64;
            while s.run_for(1).unwrap() {
                n += 1;
            }
            n
        };
        let path = tmp("slo-sweep");
        for k in (1..total).step_by(3) {
            let mut paused = sim(graph());
            paused.run_for(k).unwrap();
            paused.snapshot_to(&path).unwrap();
            let resumed = sim(graph()).resume_from(&path).unwrap().run().unwrap().to_json();
            assert_eq!(resumed, golden, "alert divergence resuming from event {k}/{total}");
        }
        // A simulator without the rules refuses the ruled snapshot.
        let mut paused = sim(graph());
        paused.run_for(3).unwrap();
        paused.snapshot_to(&path).unwrap();
        let err = sim(base.clone()).resume_from(&path).map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::ResumeMismatch { .. }), "got {err:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_gap_slo_watches_journaled_runs_only() {
        let (base, plan) = durable_setup();
        let gap_rule = SloRule {
            name: "journal-stall".to_string(),
            kind: SloKind::SnapshotGap { max_gap: SimDuration::from_secs(2) },
        };
        let mut g = base.clone();
        g.set_slos(vec![gap_rule.clone()]);
        // Unjournaled: no snapshot cadence exists, the rule is inert.
        let report = FlowSim::new(g.clone(), vec![])
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.alerts.as_deref(), Some(&[][..]));
        // Journaled with a cadence far slower than the ceiling: it fires.
        let path = tmp("slo-gap");
        let report = FlowSim::new(g, vec![])
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy::default())
            .with_snapshot_policy(SnapshotPolicy::EveryEvents(10))
            .with_journal(&path)
            .unwrap()
            .run()
            .unwrap();
        let alerts = report.alerts.as_ref().unwrap();
        assert!(!alerts.is_empty(), "ten events between frames stall a 2 s ceiling");
        assert!(alerts.iter().all(|a| a.rule == "journal-stall"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journaled_run_records_snapshot_metrics() {
        let (g, plan) = durable_setup();
        let hub = MetricsHub::new();
        let path = tmp("obs-journal");
        let bare = durable_sim(&g, &plan).run().unwrap().to_json();
        let journaled = durable_sim(&g, &plan)
            .with_metrics(hub.clone())
            .with_snapshot_policy(SnapshotPolicy::EveryEvents(5))
            .with_journal(&path)
            .unwrap()
            .run()
            .unwrap()
            .to_json();
        assert_eq!(journaled, bare);
        let frames = hub.value("snapshot_frames_total").expect("snapshots committed");
        assert!(frames > 0);
        assert_eq!(hub.value("snapshot_bytes"), Some(frames));
        assert_eq!(
            hub.histogram_sum("journal_frame_bytes"),
            hub.histogram_sum("snapshot_bytes").map(|s| s + 17 * frames),
        );
        assert!(hub.value("snapshot_last_at_us").unwrap() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misdirected_slo_rules_are_rejected() {
        let mut g = simple_graph(10.0, 0.5);
        g.set_slos(vec![SloRule::queue_backlog("b", "no-such-stage", DataVolume::gb(1))]);
        let err = FlowSim::new(g, vec![CpuPool::new("pool", 1)]).map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "got {err:?}");

        let mut g = simple_graph(10.0, 0.5);
        g.set_slos(vec![SloRule::replication_lag("lag", 4)]);
        let err = FlowSim::new(g, vec![CpuPool::new("pool", 1)]).map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "got {err:?}");
    }

    // --- Snapshots whose seal verifies but whose indices do not -------------

    use crate::genflow::{generate, Archetype};

    /// A pool, a sampler, pending events and a crash timeline: one of
    /// everything a forged index can point outside of.
    fn forgeable_sim() -> FlowSim {
        let mut g = simple_graph(1.0, 0.5);
        g.set_observe(crate::trace::ObserveConfig::every(SimDuration::from_mins(30)));
        let crash = FaultEvent {
            at: SimTime::ZERO + SimDuration::from_days(2),
            kind: FaultKind::PoolOutage { pool: "pool".into(), repair: SimDuration::from_mins(5) },
        };
        FlowSim::new(g, vec![CpuPool::new("pool", 1)])
            .unwrap()
            .with_faults(FaultPlan::from_events(5, vec![crash]), RetryPolicy::default())
    }

    /// Decode a real mid-run payload into a fresh simulator's run state, let
    /// `forge` edit one value there, save it, seal it under the true header
    /// and resume from the file: the error a forged index must come back as.
    fn resume_forged(name: &str, forge: impl FnOnce(&mut RunState)) -> CoreResult<()> {
        let mut paused = forgeable_sim();
        assert!(paused.run_for(8).unwrap());
        let mut payload = Vec::new();
        paused.state.save(&mut payload);
        let mut decoded = forgeable_sim();
        let mut r = Reader::new(&payload);
        decoded.state.load(&mut r, &decoded.flow, decoded.cfg.max_events).unwrap();
        r.done().unwrap();
        forge(&mut decoded.state);
        let mut forged = Vec::new();
        decoded.state.save(&mut forged);
        let path = tmp(name);
        durable::write_sealed_journal(&path, &paused.run_header(), &forged).unwrap();
        let resumed = forgeable_sim().resume_from(&path).map(|_| ());
        std::fs::remove_file(&path).unwrap();
        resumed
    }

    fn assert_refused(resumed: CoreResult<()>, what: &str) {
        match resumed {
            Err(CoreError::CorruptJournal { detail }) => assert!(detail.contains(what), "{detail}"),
            other => panic!("expected a corrupt-journal error about {what}, got {other:?}"),
        }
    }

    #[test]
    fn forged_index_harness_resumes_what_it_did_not_forge() {
        resume_forged("forge-nothing", |_| {}).unwrap();
    }

    #[test]
    fn forged_index_pending_or_free_slot_outside_the_slab() {
        let slots = |state: &RunState| state.engine.as_ref().unwrap().sched().slab_slots() as u32;
        let pending = resume_forged("forge-pending", |state| {
            let outside = slots(state);
            state.engine.as_mut().unwrap().forge_pending_slot(outside);
        });
        assert_refused(pending, "outside the slab");
        let free = resume_forged("forge-free", |state| {
            let outside = slots(state);
            state.engine.as_mut().unwrap().forge_free_slot(outside);
        });
        assert_refused(free, "outside the slab");
    }

    #[test]
    fn forged_index_event_for_a_stage_or_resource_outside_the_flow() {
        let (stage, volume) = (StageId(3), DataVolume::gb(1));
        let resource = ResourceId(1);
        let events = [
            FlowEvent::Arrive { stage, volume, taint: 0, from: None, lineage: 1 },
            FlowEvent::Arrive {
                stage: StageId(2),
                volume,
                taint: 0,
                from: Some(stage),
                lineage: 1,
            },
            FlowEvent::Admit { stage, volume, taint: 0, lineage: 1 },
            FlowEvent::Complete { stage, done: Completion::Produced },
            FlowEvent::CrashResource { resource, units: None, repair: SimDuration::from_secs(1) },
            FlowEvent::RepairResource { resource, units: 1 },
        ];
        for (i, ev) in events.into_iter().enumerate() {
            let resumed = resume_forged(&format!("forge-event-{i}"), |state| {
                let sched = state.engine.as_mut().unwrap().scheduler();
                sched.schedule(sched.now(), ev);
            });
            assert_refused(resumed, "an event for a stage or resource outside the flow");
        }
    }

    #[test]
    fn forged_index_waiter_outside_the_flow_or_occupancy_past_the_total() {
        let pool = ResourceId(0);
        let waiter = resume_forged("forge-waiter", |state| {
            state.resources.forge_waiter(pool, StageId(3));
        });
        assert_refused(waiter, "a waiter outside the flow");
        let offline = resume_forged("forge-offline", |state| {
            state.resources.forge_offline(pool, 2);
        });
        assert_refused(offline, "resource occupancy");
    }

    #[test]
    fn forged_index_sample_of_another_width() {
        let queued = resume_forged("forge-queued", |state| {
            let samples = &mut state.sampler.as_mut().unwrap().samples;
            samples.last_mut().expect("sampled by now").queued.push(DataVolume::ZERO);
        });
        assert_refused(queued, "time-series sample");
        let pools = resume_forged("forge-pools", |state| {
            let samples = &mut state.sampler.as_mut().unwrap().samples;
            samples.last_mut().expect("sampled by now").pool_in_use.clear();
        });
        assert_refused(pools, "time-series sample");
    }

    /// The sweep the `forged_index_*` cases were drawn from: every nonzero
    /// byte of the first 6 000 of a half-run snapshot payload, of every
    /// crashy zoo graph at seed 3, mutated two ways and resealed, then
    /// resumed and run on for 2 000 events. No mutant may index out of
    /// bounds. Mutants that panic on *semantic* damage — a completion whose
    /// task is not running, or of a kind foreign to its stage — are counted
    /// and printed, not asserted (ROADMAP "A definition of a consistent run
    /// state").
    #[test]
    #[ignore = "13 874 resumes; run with --release -- --ignored --nocapture"]
    fn forged_snapshot_sweep_never_indexes_out_of_bounds() {
        use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
        let path = tmp("forged-sweep");
        let hook = take_hook();
        set_hook(Box::new(|_| {}));
        let (mut mutants, mut typed, mut ran) = (0u32, 0u32, 0u32);
        let mut panics = std::collections::BTreeMap::<String, u32>::new();
        for archetype in Archetype::ALL {
            let flow = generate(archetype, 3);
            let Some(profile) = flow.crash_profile() else { continue };
            let plan = FaultPlan::generate(3, flow.horizon, &profile);
            let build = || {
                FlowSim::new(flow.graph.clone(), flow.pools.clone())
                    .unwrap()
                    .with_faults(plan.clone(), RetryPolicy::default())
            };
            let total = {
                let mut probe = build();
                probe.run_for(u64::MAX).unwrap();
                probe.events_handled()
            };
            let mut paused = build();
            paused.run_for(total / 2).unwrap();
            paused.snapshot_to(&path).unwrap();
            let mut walk = frame::Walk::open(&path, &durable::JOURNAL_MAGIC).unwrap().unwrap();
            let mut next = || walk.next_frame().unwrap().expect("header, then snapshot").1.to_vec();
            let (header, payload) = (next(), next());
            for at in (0..payload.len().min(6000)).filter(|&at| payload[at] != 0) {
                for forged in [payload[at] ^ 1, payload[at].wrapping_add(37)] {
                    let mut mutant = payload.clone();
                    mutant[at] = forged;
                    let mut bytes = durable::JOURNAL_MAGIC.to_vec();
                    frame::seal_into(&mut bytes, durable::FRAME_HEADER, &header);
                    frame::seal_into(&mut bytes, durable::FRAME_SNAPSHOT, &mutant);
                    std::fs::write(&path, &bytes).unwrap();
                    mutants += 1;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        build().resume_from(&path).map(|mut sim| sim.run_for(2000).map(|_| ()))
                    }));
                    match outcome {
                        Ok(Err(_)) => typed += 1,
                        Ok(Ok(_)) => ran += 1,
                        Err(panic) => {
                            let message = panic
                                .downcast_ref::<String>()
                                .map(String::as_str)
                                .or_else(|| panic.downcast_ref::<&str>().copied())
                                .unwrap_or("(no message)");
                            let class =
                                ["index out of bounds", "tracked as running", "unreachable"]
                                    .into_iter()
                                    .find(|class| message.contains(class))
                                    .unwrap_or(message);
                            *panics.entry(class.to_string()).or_default() += 1;
                        }
                    }
                }
            }
        }
        set_hook(hook);
        let _ = std::fs::remove_file(&path);
        println!("{mutants} mutants: {typed} typed at resume, {ran} ran, panics {panics:?}");
        assert_eq!(panics.get("index out of bounds"), None, "{panics:?}");
    }
}
