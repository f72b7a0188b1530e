//! The stage-behavior layer: what each kind of stage *does*.
//!
//! The engine ([`crate::engine`]) moves events; the resource layer
//! ([`crate::resource`]) counts capacity; this layer holds the semantics in
//! between. Each [`StageKind`](crate::graph::StageKind) has one
//! [`StageBehavior`] implementation owning that stage's private state (its
//! queue, its transport parameters) and reacting to three hooks:
//!
//! * [`StageBehavior::on_arrive`] — a block reached the stage;
//! * [`StageBehavior::on_complete`] — work the stage scheduled finished
//!   (a task, a delivery, a retry timer, an inspection);
//! * [`StageBehavior::try_dispatch`] — the stage may start queued work if
//!   its resource has capacity.
//!
//! Adding a stage kind is adding one `StageBehavior` impl plus a
//! constructor arm in the simulator — the run loop never matches on kinds.
//! A kind that queues blocks and works on them while holding units of a
//! resource (process, filter, dedup) does it through the one `TaskRunner`.
//!
//! Fault injection and retry/backoff live entirely inside the behaviors
//! that are exposed to faults (`Transfer` rides out drops and stalls with
//! retries; `Process` tasks are stretched by stalls); the engine and the
//! orchestrator know nothing about faults.

use std::collections::VecDeque;

use crate::compiled::CompiledFlow;
use crate::engine::{EventId, Scheduler};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::frame::{Damage, Reader, Wire};
use crate::graph::{CheckpointPolicy, StageId};
use crate::metrics::{RunMetrics, StageMetrics};
use crate::resource::{ResourceId, ResourceSet, StorageLedger};
use crate::rng::Rng;
use crate::spec::{BatcherSpec, DedupSpec, FilterSpec, ProcessSpec, SourceSpec, TransferSpec};
use crate::trace::{FaultKind, FaultScope, TraceCtx, TraceEvent};
use crate::units::{DataRate, DataVolume, SimDuration, SimTime};

crate::wire_enum! {
    /// The one event type flowing through the engine. Everything the simulator
    /// does is either a block arriving somewhere or some scheduled work
    /// completing there. Every pending one must survive a snapshot byte-exactly.
    #[derive(Debug)]
    pub enum FlowEvent {
        /// A block of `volume` arrives at `stage`, carrying `taint` units of
        /// silent corruption (0 for a clean block). `from` names the stage that
        /// delivered it — the first hop of the block's lineage, which quarantine
        /// walks to find a durable ancestor. `lineage` is the trace lineage id of
        /// the source emission the block descends from.
        1 => Arrive {
            stage: StageId,
            volume: DataVolume,
            taint: u32,
            from: Option<StageId>,
            lineage: u64,
        },
        /// A block cleared (or skipped) its arrival integrity check and is
        /// admitted to the stage proper, `verify`-cost later than its arrival.
        /// Scheduled only by the orchestrator for stages with a
        /// [`VerifyPolicy`](crate::graph::VerifyPolicy) other than `None`.
        2 => Admit { stage: StageId, volume: DataVolume, taint: u32, lineage: u64 },
        /// Work previously scheduled by `stage` completes.
        3 => Complete { stage: StageId, done: Completion },
        /// `units` of `resource` die (`None` takes everything online down).
        /// Scheduled from the fault plan's crash timeline before the run starts.
        4 => CrashResource { resource: ResourceId, units: Option<u32>, repair: SimDuration },
        /// `units` of `resource` come back from repair.
        5 => RepairResource { resource: ResourceId, units: u32 },
    }
}

crate::wire_enum! {
    /// What kind of work completed at a stage.
    #[derive(Debug)]
    pub enum Completion {
        /// A source's next block is due.
        1 => Produced,
        /// A processing task finishes: `input` consumed, `held` working space to
        /// release, `cpus` to return to the pool. `id` ties the completion to the
        /// stage's in-flight bookkeeping (crash recovery cancels by id).
        2 => Task { id: u64, input: DataVolume, held: DataVolume, cpus: u32 },
        /// A transfer delivers `volume` downstream carrying `taint` units of
        /// silent corruption (incoming taint plus any injected in transit).
        3 => Delivered { volume: DataVolume, taint: u32, lineage: u64 },
        /// A retry of a faulted transfer begins (`attempt` is 0-based); `taint`
        /// is the taint the block arrived with (in-transit taint of failed
        /// attempts is moot — the payload is retransmitted).
        4 => Attempt { volume: DataVolume, attempt: u32, taint: u32, lineage: u64 },
        /// A transfer abandons `volume` after exhausting its retry budget.
        5 => Abandoned { volume: DataVolume, taint: u32, lineage: u64 },
        /// A filter finishes inspecting `volume`.
        6 => Inspected { id: u64, volume: DataVolume },
        /// A batcher's linger timer fires: flush the partial batch.
        7 => FlushDue,
    }
}

/// Outcome of a [`StageBehavior::try_dispatch`] call, driving the
/// orchestrator's resource drain loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// A task was started; `more` says whether work is still queued.
    Started { more: bool },
    /// Nothing queued to dispatch.
    Idle,
    /// Work is queued but the resource lacks capacity; retry after a release.
    Blocked,
}

/// Fault-injection state: the seeded timeline, the retry policy, and the
/// RNG that draws backoff jitter (seeded from the plan, so replays agree).
pub(crate) struct FaultCtx {
    pub(crate) plan: FaultPlan,
    pub(crate) policy: RetryPolicy,
    /// The only part a snapshot holds: the plan and policy are rebuilt by
    /// the resuming caller and proven identical by the spec hash.
    pub(crate) rng: Rng,
}

/// Deferred effects a hook hands back to the orchestrator: resource drains
/// must run after the current behavior is back in place (they may dispatch
/// *other* stages sharing the resource), and source-emission bookkeeping is
/// flow-global.
#[derive(Default)]
pub(crate) struct DeferredFx {
    pub(crate) drains: Vec<ResourceId>,
    pub(crate) source_emits: u64,
}

/// Everything a behavior may touch while handling a hook: the clock and
/// event queue, its own metrics, the storage ledger, the resource set, and
/// the fault state. Constructed by the simulator for each hook invocation.
pub struct StageCtx<'a> {
    stage: StageId,
    flow: &'a CompiledFlow,
    sched: &'a mut Scheduler<FlowEvent>,
    metrics: &'a mut RunMetrics,
    ledger: &'a mut StorageLedger,
    resources: &'a mut ResourceSet,
    faults: &'a mut Option<FaultCtx>,
    fx: &'a mut DeferredFx,
    trace: &'a mut TraceCtx,
}

impl<'a> StageCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stage: StageId,
        flow: &'a CompiledFlow,
        sched: &'a mut Scheduler<FlowEvent>,
        metrics: &'a mut RunMetrics,
        ledger: &'a mut StorageLedger,
        resources: &'a mut ResourceSet,
        faults: &'a mut Option<FaultCtx>,
        fx: &'a mut DeferredFx,
        trace: &'a mut TraceCtx,
    ) -> Self {
        StageCtx { stage, flow, sched, metrics, ledger, resources, faults, fx, trace }
    }

    /// The stage this context is scoped to.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Metrics of the current stage. Escaped taint is not counted through
    /// this: [`StageCtx::deliver_tainted`] does it, so the flow-wide total
    /// the SLO path reads stays in step.
    pub fn metrics(&mut self) -> &mut StageMetrics {
        &mut self.metrics[self.stage]
    }

    /// The flow-wide storage ledger.
    pub fn ledger(&mut self) -> &mut StorageLedger {
        self.ledger
    }

    /// The resource set (pools and channels).
    pub fn resources(&mut self) -> &mut ResourceSet {
        self.resources
    }

    /// Whether a fault plan is active for this run.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    pub(crate) fn faults(&mut self) -> Option<&mut FaultCtx> {
        self.faults.as_mut()
    }

    /// Schedule a [`Completion`] for the current stage at `at`. The returned
    /// [`EventId`] can cancel it (crash recovery kills in-flight tasks).
    pub fn complete_at(&mut self, at: SimTime, done: Completion) -> EventId {
        self.sched.schedule(at, FlowEvent::Complete { stage: self.stage, done })
    }

    /// Cancel a completion scheduled with [`StageCtx::complete_at`] before it
    /// fires. Returns `None` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> Option<FlowEvent> {
        self.sched.cancel(id)
    }

    /// Emit a trace event at the current time, if an observer is attached.
    /// The closure runs only when someone listens — capture the values it
    /// needs beforehand (it cannot borrow the context).
    #[inline]
    pub fn emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        self.trace.emit(self.sched.now(), ev);
    }

    /// Fan a freshly produced block out to every downstream stage, arriving
    /// now (each consumer receives the full block, as when raw data go both
    /// to archive and to processing). Allocates and returns a new lineage id
    /// rooted at this emission; the id is allocated whether or not anyone
    /// observes, so traced and untraced runs are identical.
    pub fn deliver(&mut self, volume: DataVolume) -> u64 {
        let lineage = self.trace.alloc_lineage();
        self.deliver_tainted(volume, 0, lineage);
        lineage
    }

    /// [`StageCtx::deliver`] for derived data: propagates the block's
    /// existing `lineage` and carries `taint` units of silent corruption.
    /// On fan-out the taint travels with the *first* downstream copy only —
    /// taint units are conserved flow-wide, never duplicated, so the
    /// integrity audit (injected = detected + escaped) stays exact. A
    /// terminal stage (no consumers) emitting taint counts it as escaped on
    /// the spot: the data left the modeled flow unchecked, and no Arrive
    /// will ever run the sink-side audit for it.
    pub fn deliver_tainted(&mut self, volume: DataVolume, taint: u32, lineage: u64) {
        let now = self.sched.now();
        let from = Some(self.stage);
        let downstream = self.flow.downstream(self.stage);
        if downstream.is_empty() {
            self.metrics.note_escaped(self.stage, taint);
            return;
        }
        for (i, &t) in downstream.iter().enumerate() {
            let carried = if i == 0 { taint } else { 0 };
            self.sched.schedule(
                now,
                FlowEvent::Arrive { stage: t, volume, taint: carried, from, lineage },
            );
        }
    }

    /// Ask the orchestrator to drain `rid`'s waiter queue once the current
    /// hook returns (dispatching may start tasks on *other* stages).
    pub fn request_drain(&mut self, rid: ResourceId) {
        self.fx.drains.push(rid);
    }

    /// Record that a source emitted a block (drives flow-global end-of-input
    /// bookkeeping in the orchestrator).
    pub fn note_source_emit(&mut self) {
        self.fx.source_emits += 1;
    }
}

/// Per-kind stage semantics. One implementation per
/// [`StageKind`](crate::graph::StageKind); instances own all per-stage
/// mutable state.
pub trait StageBehavior {
    /// Schedule any initial events (sources schedule their first block).
    fn seed(&mut self, _ctx: &mut StageCtx) {}

    /// A block of `volume` arrived carrying `taint` units of silent
    /// corruption (0 for a clean block — any arrival integrity check already
    /// ran) and descending from source emission `lineage`. The orchestrator
    /// has already allocated it in the ledger and counted it in the stage's
    /// input metrics.
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64);

    /// Work previously scheduled via [`StageCtx::complete_at`] finished.
    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion);

    /// Start queued work if resources allow. Called by the orchestrator's
    /// drain loop for stages waiting on a shared resource.
    fn try_dispatch(&mut self, _ctx: &mut StageCtx) -> Dispatch {
        Dispatch::Idle
    }

    /// A crash on `resource` still needs `needed` units after the idle ones
    /// died. Kill in-flight tasks (youngest first, so recovery order is
    /// deterministic) until `needed` units are reclaimed or nothing is left,
    /// releasing their units back to the resource; return the units freed.
    /// Stages that hold nothing on `resource` return 0 (the default).
    fn on_crash(&mut self, _ctx: &mut StageCtx, _resource: ResourceId, _needed: u32) -> u32 {
        0
    }

    /// Volume currently queued at this stage (for backlog accounting).
    fn queued_volume(&self) -> DataVolume {
        DataVolume::ZERO
    }

    /// Write this stage's mutable state for a snapshot: the
    /// [`Wire`] bytes of whatever the stage declares as its dynamic part.
    /// Configuration (rates, pools, policies) is *not* written — the
    /// resuming simulator rebuilds it from the same compiled flow, and the
    /// journal's spec hash proves it is the same. Stages whose only state
    /// lives in their metrics (sources, archives) write nothing.
    fn save_state(&self, _out: &mut Vec<u8>) {}

    /// Read back what [`StageBehavior::save_state`] wrote, from a reader
    /// over this stage's blob alone. The caller requires the blob to be
    /// consumed exactly, so the default, which reads nothing, still refuses
    /// bytes handed to a stateless stage.
    fn load_state(&mut self, _r: &mut Reader) -> Result<(), Damage> {
        Ok(())
    }
}

crate::wire_struct! {
    /// A queued unit of compute work, carrying checkpoint state across
    /// crash/requeue cycles.
    struct PendingTask {
        input: DataVolume,
        /// Silent-corruption taint the input block carried on arrival.
        taint: u32,
        /// Trace lineage id of the source emission the input descends from.
        lineage: u64,
        /// Work already banked by checkpoints from earlier (crashed) runs.
        banked: SimDuration,
        /// Work the last crash destroyed; counted as replayed when the task next
        /// dispatches and re-does it.
        replay: SimDuration,
    }
}

crate::wire_struct! {
    /// Bookkeeping for a compute task currently holding resource units.
    struct RunningTask {
        id: u64,
        event: EventId,
        input: DataVolume,
        /// Taint the input carried; outputs inherit it (processing a corrupted
        /// block yields a corrupted product).
        taint: u32,
        /// Lineage id the input carried; outputs inherit it.
        lineage: u64,
        held: DataVolume,
        units: u32,
        started_at: SimTime,
        ends_at: SimTime,
        /// Work banked before this run started.
        banked: SimDuration,
        /// Useful work this run must accomplish (total minus `banked`).
        payload: SimDuration,
        /// Checkpoint-write time scheduled on top of `payload`.
        overhead: SimDuration,
    }
}

crate::wire_struct! {
    /// The mutable core of the task-running behaviors (process, filter,
    /// dedup), and the whole of what a snapshot holds of them.
    #[derive(Default)]
    struct TaskState {
        queue: VecDeque<PendingTask>,
        queued_volume: DataVolume,
        running: Vec<RunningTask>,
        /// The id the next dispatched task takes.
        next_task: u64,
    }
}

/// Checkpoints written for a run of `payload` useful work: one per full
/// `every`, except that a checkpoint coinciding with task completion is
/// pointless and skipped.
fn checkpoints_for(payload: SimDuration, every: SimDuration) -> u32 {
    if every.is_zero() || payload.is_zero() {
        return 0;
    }
    ((payload.as_micros() - 1) / every.as_micros()) as u32
}

/// The arrival rule of the stages that dispatch themselves (transfer,
/// filter, dedup). While their channel is whole they need no waiter entry:
/// an arrival that finds it busy is started by the completion that frees a
/// unit. With units offline a repair is pending and may be the only event
/// left to start the block, and the repair-time drain serves enlisted
/// waiters only — so then, and only then, a blocked arrival enlists.
fn enlist_if_offline(ctx: &mut StageCtx, rid: ResourceId, outcome: Dispatch) {
    if outcome == Dispatch::Blocked && ctx.resources().online(rid) < ctx.resources().total(rid) {
        let stage = ctx.stage();
        ctx.resources().enlist(rid, stage);
    }
}

/// The task runner: the one implementation of "queue blocks, work on them
/// while holding units of a contended resource, requeue what a crash kills"
/// under the process, filter and dedup kinds. Its four steps —
/// [`enqueue`](Self::enqueue), [`start`](Self::start),
/// [`finish`](Self::finish), [`kill`](Self::kill) — are the only code that
/// mutates a [`TaskState`]; what a kind does differently it passes in.
struct TaskRunner {
    /// The pool or channel the tasks contend for.
    resource: ResourceId,
    /// Units of `resource` one running task holds.
    units: u32,
    /// What those units sustain together.
    rate: DataRate,
    /// The checkpoint policy: one written per `every` of useful work at
    /// `cost` apiece, none at all when `every` is zero.
    every: SimDuration,
    cost: SimDuration,
    state: TaskState,
}

impl TaskRunner {
    fn new(resource: ResourceId, units: u32, rate: DataRate, checkpoint: CheckpointPolicy) -> Self {
        let (every, cost) = match checkpoint {
            CheckpointPolicy::None => (SimDuration::ZERO, SimDuration::ZERO),
            CheckpointPolicy::Interval { every, cost } => (every, cost),
        };
        TaskRunner { resource, units, rate, every, cost, state: TaskState::default() }
    }

    fn emit_depth(&self, ctx: &mut StageCtx) {
        let (stage, blocks, volume) =
            (ctx.stage(), self.state.queue.len(), self.state.queued_volume);
        ctx.emit(|| TraceEvent::QueueDepthChange { stage, blocks, volume });
    }

    /// Enqueue: an arrived block joins the queue as one task per piece, all
    /// of its lineage. Its taint rides with the first piece only, keeping
    /// the flow-wide taint count conserved.
    fn enqueue(
        &mut self,
        ctx: &mut StageCtx,
        pieces: impl Iterator<Item = DataVolume>,
        mut taint: u32,
        lineage: u64,
    ) {
        for input in pieces {
            self.state.queue.push_back(PendingTask {
                input,
                taint: std::mem::take(&mut taint),
                lineage,
                banked: SimDuration::ZERO,
                replay: SimDuration::ZERO,
            });
            self.state.queued_volume += input;
        }
        ctx.metrics().note_queue(self.state.queue.len(), self.state.queued_volume);
        self.emit_depth(ctx);
    }

    /// Start the task at the head of the queue, if the resource has the
    /// units (it blocks head-of-line until they free up). The run lasts the
    /// work earlier, crashed runs did not bank plus the checkpoints it will
    /// write; `admit` is the kind's say on a run about to start — given the
    /// input and that duration it returns the duration to schedule, the
    /// stalls that stretched it and the working space to hold meanwhile —
    /// and `done` builds the completion from the task id, input and hold.
    fn start(
        &mut self,
        ctx: &mut StageCtx,
        admit: impl FnOnce(&mut StageCtx, DataVolume, SimDuration) -> (SimDuration, u32, DataVolume),
        done: impl FnOnce(u64, DataVolume, DataVolume) -> Completion,
    ) -> Dispatch {
        if ctx.resources().free(self.resource) < self.units {
            return Dispatch::Blocked;
        }
        let Some(task) = self.state.queue.pop_front() else { return Dispatch::Idle };
        let input = task.input;
        self.state.queued_volume -= input;
        ctx.resources().acquire(self.resource, self.units);
        let total = input.time_at(self.rate).unwrap_or(SimDuration::ZERO);
        let payload = total.saturating_sub(task.banked);
        let overhead = self.cost * checkpoints_for(payload, self.every) as u64;
        let (dur, stalls, held) = admit(ctx, input, payload + overhead);
        ctx.ledger().alloc(held);
        let now = ctx.now();
        let m = ctx.metrics();
        m.busy += dur;
        m.faults += stalls as u64;
        m.work_replayed += task.replay;
        let id = self.state.next_task;
        self.state.next_task += 1;
        let (stage, lineage, units) = (ctx.stage(), task.lineage, self.units);
        ctx.emit(|| TraceEvent::TaskStart { stage, task: id, lineage, volume: input, units });
        if stalls > 0 {
            ctx.emit(|| TraceEvent::FaultInjected {
                scope: FaultScope::Stage(stage),
                kind: FaultKind::Stall,
                count: stalls as u64,
            });
        }
        let event = ctx.complete_at(now + dur, done(id, input, held));
        self.state.running.push(RunningTask {
            id,
            event,
            input,
            taint: task.taint,
            lineage,
            held,
            units,
            started_at: now,
            ends_at: now + dur,
            banked: task.banked,
            payload,
            overhead,
        });
        Dispatch::Started { more: !self.state.queue.is_empty() }
    }

    /// Finish: the completion of task `id` fired. Its units go back, its
    /// checkpoints are accounted, and `output` flows on carrying the input's
    /// taint and lineage (a corrupted block yields a corrupted product).
    fn finish(&mut self, ctx: &mut StageCtx, id: u64, output: DataVolume) {
        let slot = self.state.running.iter().position(|r| r.id == id);
        let slot = slot.expect("completed task is tracked as running");
        let run = self.state.running.swap_remove(slot);
        ctx.resources().release(self.resource, run.units);
        let now = ctx.now();
        let m = ctx.metrics();
        m.blocks_out += 1;
        m.volume_out += output;
        m.completed_at = now;
        m.checkpoint_overhead += run.overhead;
        let (stage, lineage, taint) = (ctx.stage(), run.lineage, run.taint);
        ctx.emit(|| TraceEvent::TaskEnd { stage, task: id, lineage, volume: output });
        if !run.overhead.is_zero() {
            let (count, cost) = (checkpoints_for(run.payload, self.every), run.overhead);
            ctx.emit(|| TraceEvent::CheckpointWritten { stage, task: id, count, cost });
        }
        if !output.is_zero() {
            ctx.deliver_tainted(output, taint, lineage);
        } else if taint > 0 {
            // A tainted block reduced to nothing is contained here: the
            // corruption dies with the data, quarantined by loss.
            let m = ctx.metrics();
            m.corrupt_detected += taint as u64;
            m.quarantined += 1;
            ctx.emit(|| TraceEvent::BlockQuarantined { stage, lineage, volume: output, taint });
        }
    }

    /// How much of a killed run survives: checkpoints completed during `raw`
    /// useful work bank `every` of payload each and cost `every + cost` of
    /// work time apiece; everything past the last completed checkpoint is
    /// lost. Returns `(banked, written, lost)`.
    fn salvage(&self, raw: SimDuration, payload: SimDuration) -> (SimDuration, u32, SimDuration) {
        if self.every.is_zero() {
            return (SimDuration::ZERO, 0, raw);
        }
        let step = self.every + self.cost;
        let completed = (raw.as_micros() / step.as_micros()) as u32;
        let completed = completed.min(checkpoints_for(payload, self.every));
        (self.every * completed as u64, completed, raw.saturating_sub(step * completed as u64))
    }

    /// Kill: a crash on `resource` still needs `needed` units after the idle
    /// ones died (see [`StageBehavior::on_crash`]). `progress` says how much
    /// of the wall clock since a run's start was useful work; `refund` is
    /// handed the unit-seconds a killed run will never use.
    fn kill(
        &mut self,
        ctx: &mut StageCtx,
        resource: ResourceId,
        needed: u32,
        progress: impl Fn(&mut StageCtx, SimTime, SimDuration) -> SimDuration,
        refund: impl Fn(&mut StageCtx, f64),
    ) -> u32 {
        if resource != self.resource {
            return 0;
        }
        let mut reclaimed = 0u32;
        while reclaimed < needed {
            // Youngest first: the task started last dies first, so the
            // requeue order (front of the queue) replays deterministically.
            let Some(run) = self.state.running.pop() else { break };
            if ctx.cancel(run.event).is_none() {
                // Completion already fired this instant; nothing to kill.
                continue;
            }
            let now = ctx.now();
            let wall = now.checked_sub(run.started_at).unwrap_or(SimDuration::ZERO);
            let raw = progress(ctx, run.started_at, wall).min(run.payload + run.overhead);
            let (banked, count, lost) = self.salvage(raw, run.payload);
            let cost = self.cost * count as u64;
            let remaining = run.ends_at.checked_sub(now).unwrap_or(SimDuration::ZERO);
            refund(ctx, remaining.as_secs_f64() * run.units as f64);
            let m = ctx.metrics();
            m.busy = m.busy.saturating_sub(remaining);
            m.crashes += 1;
            m.work_lost += lost;
            m.checkpoint_overhead += cost;
            let (stage, id, lineage) = (ctx.stage(), run.id, run.lineage);
            ctx.emit(|| TraceEvent::CrashKill { stage, task: id, lineage, lost });
            if count > 0 {
                ctx.emit(|| TraceEvent::CheckpointWritten { stage, task: id, count, cost });
            }
            ctx.ledger().free(run.held);
            ctx.resources().release(self.resource, run.units);
            reclaimed += run.units;
            self.state.queued_volume += run.input;
            self.state.queue.push_front(PendingTask {
                input: run.input,
                taint: run.taint,
                lineage,
                banked: run.banked + banked,
                replay: lost,
            });
        }
        if !self.state.queue.is_empty() {
            // With the resource down the requeued work can only restart from
            // the repair-time drain, which serves enlisted waiters.
            let stage = ctx.stage();
            ctx.resources().enlist(self.resource, stage);
            ctx.metrics().note_queue(self.state.queue.len(), self.state.queued_volume);
            self.emit_depth(ctx);
        }
        reclaimed
    }
}

/// Emits `blocks` blocks of `block` bytes, one every `interval`.
pub struct SourceBehavior {
    block: DataVolume,
    interval: SimDuration,
    blocks: u64,
}

impl SourceBehavior {
    pub(crate) fn new(spec: &SourceSpec) -> Self {
        SourceBehavior { block: spec.block, interval: spec.interval, blocks: spec.blocks }
    }
}

impl StageBehavior for SourceBehavior {
    fn seed(&mut self, ctx: &mut StageCtx) {
        if self.blocks > 0 {
            ctx.complete_at(SimTime::ZERO, Completion::Produced);
        }
    }

    fn on_arrive(&mut self, _ctx: &mut StageCtx, _volume: DataVolume, _taint: u32, _lineage: u64) {
        unreachable!("validated graphs have no edges into sources")
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        match done {
            Completion::Produced => {}
            other => unreachable!("source completion must be Produced, got {other:?}"),
        }
        let m = ctx.metrics();
        m.blocks_out += 1;
        m.volume_out += self.block;
        let emitted = m.blocks_out;
        ctx.deliver(self.block);
        ctx.note_source_emit();
        if emitted < self.blocks {
            ctx.complete_at(SimTime::ZERO + self.interval * emitted, Completion::Produced);
        }
    }
}

/// Consumes blocks with CPUs from a shared pool, emitting scaled output.
pub struct ProcessBehavior {
    chunk: Option<DataVolume>,
    output_ratio: f64,
    workspace_ratio: f64,
    retain_input: bool,
    /// Tasks of `cpus_per_task` cpus of the pool each.
    tasks: TaskRunner,
}

impl ProcessBehavior {
    pub(crate) fn new(spec: &ProcessSpec, pool: ResourceId) -> Self {
        let rate = spec.rate_per_cpu * (spec.cpus_per_task as f64);
        ProcessBehavior {
            chunk: spec.chunk,
            output_ratio: spec.output_ratio,
            workspace_ratio: spec.workspace_ratio,
            retain_input: spec.retain_input,
            tasks: TaskRunner::new(pool, spec.cpus_per_task, rate, spec.checkpoint),
        }
    }
}

impl StageBehavior for ProcessBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64) {
        // Data-parallel stages split blocks into independent tasks of at
        // most `chunk` each.
        let chunk = self.chunk.filter(|c| !c.is_zero()).unwrap_or(volume);
        let mut left = Some(volume);
        let pieces = std::iter::from_fn(|| {
            let rest = left?;
            let piece = rest.min(chunk);
            left = (rest > piece).then(|| rest - piece);
            Some(piece)
        });
        self.tasks.enqueue(ctx, pieces, taint, lineage);
        // Pools are shared: the stage waits its turn in the pool's drain.
        let stage = ctx.stage();
        ctx.resources().enlist(self.tasks.resource, stage);
        ctx.request_drain(self.tasks.resource);
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        let Completion::Task { id, input, held, .. } = done else {
            unreachable!("process completion must be Task, got {done:?}")
        };
        ctx.ledger().free(held);
        if self.retain_input {
            ctx.ledger().retain(input);
        } else {
            ctx.ledger().free(input);
        }
        self.tasks.finish(ctx, id, input.scale(self.output_ratio));
        if !self.tasks.state.queue.is_empty() {
            let stage = ctx.stage();
            ctx.resources().enlist(self.tasks.resource, stage);
        }
        ctx.request_drain(self.tasks.resource);
    }

    /// One task per call: the pool's drain decides whose turn is next.
    fn try_dispatch(&mut self, ctx: &mut StageCtx) -> Dispatch {
        let (pool, cpus) = (self.tasks.resource, self.tasks.units);
        let (workspace, output) = (self.workspace_ratio, self.output_ratio);
        let outcome = self.tasks.start(
            ctx,
            |ctx, input, dur| {
                // Injected stalls freeze the task while its cpus stay held.
                let now = ctx.now();
                let (dur, stalls) =
                    ctx.faults().map_or((dur, 0), |f| f.plan.stalled_duration(now, dur));
                ctx.resources().note_busy(pool, dur.as_secs_f64() * cpus as f64);
                // Working space held during the task: scratch plus output
                // estimate.
                (dur, stalls, input.scale(workspace) + input.scale(output))
            },
            |id, input, held| Completion::Task { id, input, held, cpus },
        );
        if let Dispatch::Started { .. } = outcome {
            self.tasks.emit_depth(ctx);
        }
        outcome
    }

    fn on_crash(&mut self, ctx: &mut StageCtx, resource: ResourceId, needed: u32) -> u32 {
        self.tasks.kill(
            ctx,
            resource,
            needed,
            // Useful work accomplished so far: wall time minus stall freezes.
            |ctx, since, wall| {
                let now = ctx.now();
                ctx.faults().map_or(wall, |f| f.plan.progress_between(since, now))
            },
            // Refund the busy time the killed task will never use.
            |ctx, unit_secs| ctx.resources().note_busy(resource, -unit_secs),
        )
    }

    fn queued_volume(&self) -> DataVolume {
        self.tasks.state.queued_volume
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.tasks.state.put(out);
    }

    fn load_state(&mut self, r: &mut Reader) -> Result<(), Damage> {
        self.tasks.state = Wire::get(r)?;
        Ok(())
    }
}

/// Moves blocks across a channel resource, riding out injected faults with
/// bounded retries.
pub struct TransferBehavior {
    rate: DataRate,
    latency: SimDuration,
    channel: ResourceId,
    /// Queued blocks with the taint and lineage each arrived carrying.
    queue: VecDeque<(DataVolume, u32, u64)>,
    queued_volume: DataVolume,
}

impl TransferBehavior {
    pub(crate) fn new(spec: &TransferSpec, channel: ResourceId) -> Self {
        TransferBehavior {
            rate: spec.rate,
            latency: spec.latency,
            channel,
            queue: VecDeque::new(),
            queued_volume: DataVolume::ZERO,
        }
    }

    /// Run one attempt of an in-flight transfer against the fault plan (if
    /// any): on success schedule delivery, on a fault either back off and
    /// retry or — once the budget is spent — give the block up. `taint` is
    /// the taint the block arrived with; silent-corruption events overlapping
    /// a *successful* attempt add to it (the transfer "works" but delivers a
    /// bad block).
    fn begin_attempt(
        &mut self,
        ctx: &mut StageCtx,
        volume: DataVolume,
        taint: u32,
        lineage: u64,
        attempt: u32,
    ) {
        let (rate, latency) = (self.rate, self.latency);
        let now = ctx.now();
        let stage = ctx.stage();
        if !ctx.has_faults() {
            let dur = latency + volume.time_at(rate).unwrap_or(SimDuration::ZERO);
            ctx.metrics().busy += dur;
            ctx.emit(|| TraceEvent::TransferAttempt {
                stage,
                lineage,
                volume,
                attempt,
                duration: dur,
            });
            ctx.complete_at(now + dur, Completion::Delivered { volume, taint, lineage });
            return;
        }
        let f = ctx.faults().expect("fault plan present");
        let effective = rate * f.plan.degrade_factor_at(now);
        let degraded = effective.bytes_per_sec() < rate.bytes_per_sec();
        let base = latency + volume.time_at(effective).unwrap_or(SimDuration::ZERO);
        let outcome = f.plan.attempt_outcome(now, base, f.policy.attempt_timeout);
        let backoff = if outcome.failure.is_some() && attempt < f.policy.max_retries {
            Some(f.policy.backoff(attempt, &mut f.rng))
        } else {
            None
        };
        let m = ctx.metrics();
        let link_faults = outcome.faults_hit() + u64::from(degraded);
        m.faults += link_faults;
        let spent = outcome.ends_at.checked_sub(now).unwrap_or(SimDuration::ZERO);
        m.busy += spent;
        ctx.emit(|| TraceEvent::TransferAttempt {
            stage,
            lineage,
            volume,
            attempt,
            duration: spent,
        });
        if link_faults > 0 {
            ctx.emit(|| TraceEvent::FaultInjected {
                scope: FaultScope::Stage(stage),
                kind: FaultKind::Link,
                count: link_faults,
            });
        }
        match (outcome.failure, backoff) {
            (None, _) => {
                if outcome.silent_corrupts > 0 {
                    ctx.metrics().corrupt_injected += outcome.silent_corrupts as u64;
                    let count = outcome.silent_corrupts as u64;
                    ctx.emit(|| TraceEvent::FaultInjected {
                        scope: FaultScope::Stage(stage),
                        kind: FaultKind::SilentCorrupt,
                        count,
                    });
                }
                ctx.complete_at(
                    outcome.ends_at,
                    Completion::Delivered {
                        volume,
                        taint: taint + outcome.silent_corrupts,
                        lineage,
                    },
                );
            }
            (Some(_), Some(wait)) => {
                let m = ctx.metrics();
                m.retries += 1;
                m.volume_retransmitted += volume;
                ctx.emit(|| TraceEvent::TransferRetry {
                    stage,
                    lineage,
                    volume,
                    attempt: attempt + 1,
                    backoff: wait,
                });
                ctx.complete_at(
                    outcome.ends_at + wait,
                    Completion::Attempt { volume, attempt: attempt + 1, taint, lineage },
                );
            }
            (Some(failure), None) => {
                if failure == crate::fault::AttemptFailure::Corrupted {
                    // A corrupted final attempt still pushed the whole payload
                    // across the wire before the check failed — those bytes
                    // were (re)transmitted exactly once more.
                    ctx.metrics().volume_retransmitted += volume;
                }
                ctx.complete_at(outcome.ends_at, Completion::Abandoned { volume, taint, lineage });
            }
        }
    }
}

impl StageBehavior for TransferBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64) {
        self.queue.push_back((volume, taint, lineage));
        self.queued_volume += volume;
        let (blocks, qv) = (self.queue.len(), self.queued_volume);
        ctx.metrics().note_queue(blocks, qv);
        let stage = ctx.stage();
        ctx.emit(|| TraceEvent::QueueDepthChange { stage, blocks, volume: qv });
        let outcome = self.try_dispatch(ctx);
        enlist_if_offline(ctx, self.channel, outcome);
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        match done {
            Completion::Delivered { volume, taint, lineage } => {
                ctx.resources().release(self.channel, 1);
                let now = ctx.now();
                let m = ctx.metrics();
                m.blocks_out += 1;
                m.volume_out += volume;
                m.completed_at = now;
                ctx.ledger().free(volume); // handed to the consumer, who re-allocates
                ctx.deliver_tainted(volume, taint, lineage);
                self.try_dispatch(ctx);
            }
            Completion::Attempt { volume, attempt, taint, lineage } => {
                self.begin_attempt(ctx, volume, taint, lineage, attempt)
            }
            Completion::Abandoned { volume, taint, lineage } => {
                ctx.resources().release(self.channel, 1);
                let m = ctx.metrics();
                m.blocks_failed += 1;
                m.volume_lost += volume;
                let stage = ctx.stage();
                ctx.emit(|| TraceEvent::TransferAbandon { stage, lineage, volume });
                if taint > 0 {
                    // A tainted block abandoned in transit is quarantined by
                    // loss: the corruption never reaches a consumer.
                    let m = ctx.metrics();
                    m.corrupt_detected += taint as u64;
                    m.quarantined += 1;
                    ctx.emit(|| TraceEvent::BlockQuarantined { stage, lineage, volume, taint });
                }
                ctx.ledger().free(volume); // the abandoned block's buffer is released
                self.try_dispatch(ctx);
            }
            other => unreachable!(
                "transfer completion must be Delivered/Attempt/Abandoned, got {other:?}"
            ),
        }
    }

    fn try_dispatch(&mut self, ctx: &mut StageCtx) -> Dispatch {
        let mut started = false;
        while ctx.resources().free(self.channel) > 0 {
            let Some((volume, taint, lineage)) = self.queue.pop_front() else { break };
            self.queued_volume -= volume;
            ctx.resources().acquire(self.channel, 1);
            self.begin_attempt(ctx, volume, taint, lineage, 0);
            started = true;
        }
        if started {
            let stage = ctx.stage();
            let (blocks, qv) = (self.queue.len(), self.queued_volume);
            ctx.emit(|| TraceEvent::QueueDepthChange { stage, blocks, volume: qv });
            Dispatch::Started { more: !self.queue.is_empty() }
        } else if self.queue.is_empty() {
            Dispatch::Idle
        } else {
            Dispatch::Blocked
        }
    }

    fn queued_volume(&self) -> DataVolume {
        self.queued_volume
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.queue.put(out);
        self.queued_volume.put(out);
    }

    fn load_state(&mut self, r: &mut Reader) -> Result<(), Damage> {
        self.queue = Wire::get(r)?;
        self.queued_volume = Wire::get(r)?;
        Ok(())
    }
}

/// Inspects blocks in real time and forwards only the accepted fraction
/// (an online trigger, like the CMS first-level filter): one inspection per
/// unit of a private channel, nothing held, never stall-extended, and the
/// stage dispatches itself rather than waiting for a drain.
pub struct FilterBehavior {
    accept_ratio: f64,
    tasks: TaskRunner,
}

impl FilterBehavior {
    pub(crate) fn new(spec: &FilterSpec, channel: ResourceId) -> Self {
        let tasks = TaskRunner::new(channel, 1, spec.rate, spec.checkpoint);
        FilterBehavior { accept_ratio: spec.accept_ratio, tasks }
    }

    /// An inspection finished, forwarding the accepted fraction — or, with
    /// `filtering` off (a dedup whose index is still warming up), all of it.
    fn inspected(&mut self, ctx: &mut StageCtx, done: Completion, filtering: bool) {
        let Completion::Inspected { id, volume } = done else {
            unreachable!("an inspecting stage's completion must be Inspected, got {done:?}")
        };
        let forwarded = if filtering { volume.scale(self.accept_ratio) } else { volume };
        self.tasks.finish(ctx, id, forwarded);
        // The whole block's buffer is released; the forwarded fraction is
        // re-allocated by whoever receives it, the rest is gone.
        ctx.ledger().free(volume);
        self.try_dispatch(ctx);
    }
}

impl StageBehavior for FilterBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64) {
        self.tasks.enqueue(ctx, std::iter::once(volume), taint, lineage);
        let outcome = self.try_dispatch(ctx);
        enlist_if_offline(ctx, self.tasks.resource, outcome);
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        self.inspected(ctx, done, true);
    }

    fn try_dispatch(&mut self, ctx: &mut StageCtx) -> Dispatch {
        let mut started = false;
        while let Dispatch::Started { .. } = self.tasks.start(
            ctx,
            |_, _, dur| (dur, 0, DataVolume::ZERO),
            |id, volume, _| Completion::Inspected { id, volume },
        ) {
            started = true;
        }
        if started {
            self.tasks.emit_depth(ctx);
            Dispatch::Started { more: !self.tasks.state.queue.is_empty() }
        } else if self.tasks.state.queue.is_empty() {
            Dispatch::Idle
        } else {
            Dispatch::Blocked
        }
    }

    fn on_crash(&mut self, ctx: &mut StageCtx, resource: ResourceId, needed: u32) -> u32 {
        // Inspections run in real time, so all of the wall clock is useful
        // work; a channel keeps no busy account to refund.
        self.tasks.kill(ctx, resource, needed, |_, _, wall| wall, |_, _| {})
    }

    fn queued_volume(&self) -> DataVolume {
        self.tasks.state.queued_volume
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.tasks.state.put(out);
    }

    fn load_state(&mut self, r: &mut Reader) -> Result<(), Damage> {
        self.tasks.state = Wire::get(r)?;
        Ok(())
    }
}

/// Coalesces arriving blocks into one merged block (see
/// [`StageKind::Batcher`](crate::graph::StageKind)). A flush happens when
/// `batch` blocks have gathered or `linger` after the first buffered block,
/// whichever comes first; filling the batch cancels the pending linger
/// timer. The merge is instantaneous — a batcher holds storage, not
/// compute — so the stage reports no busy time and emits no task spans.
pub struct BatcherBehavior {
    batch: u64,
    linger: SimDuration,
    /// Buffered blocks with the taint and lineage each arrived carrying.
    buffer: Vec<(DataVolume, u32, u64)>,
    buffered_volume: DataVolume,
    /// The linger flush scheduled for the current buffer, if any.
    flush: Option<EventId>,
}

impl BatcherBehavior {
    pub(crate) fn new(spec: &BatcherSpec) -> Self {
        BatcherBehavior {
            batch: spec.batch,
            linger: spec.linger,
            buffer: Vec::new(),
            buffered_volume: DataVolume::ZERO,
            flush: None,
        }
    }

    /// Emit the buffered blocks as one merged block. Taints sum (corruption
    /// merged in stays in); the merged block keeps the lineage of the first
    /// buffered block — the batch is one logical unit downstream, and one
    /// root is enough for quarantine to walk.
    fn flush_now(&mut self, ctx: &mut StageCtx) {
        if let Some(ev) = self.flush.take() {
            ctx.cancel(ev);
        }
        if self.buffer.is_empty() {
            return;
        }
        let merged: DataVolume = self.buffer.iter().map(|&(v, _, _)| v).sum();
        let taint: u32 = self.buffer.iter().map(|&(_, t, _)| t).sum();
        let lineage = self.buffer[0].2;
        self.buffer.clear();
        self.buffered_volume = DataVolume::ZERO;
        let now = ctx.now();
        let m = ctx.metrics();
        m.blocks_out += 1;
        m.volume_out += merged;
        m.completed_at = now;
        let stage = ctx.stage();
        ctx.emit(|| TraceEvent::QueueDepthChange { stage, blocks: 0, volume: DataVolume::ZERO });
        // The inputs' buffers become the merged block, which the consumer
        // re-allocates on arrival.
        ctx.ledger().free(merged);
        ctx.deliver_tainted(merged, taint, lineage);
    }
}

impl StageBehavior for BatcherBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64) {
        self.buffer.push((volume, taint, lineage));
        self.buffered_volume += volume;
        let (blocks, qv) = (self.buffer.len(), self.buffered_volume);
        ctx.metrics().note_queue(blocks, qv);
        let stage = ctx.stage();
        ctx.emit(|| TraceEvent::QueueDepthChange { stage, blocks, volume: qv });
        if self.buffer.len() as u64 >= self.batch {
            self.flush_now(ctx);
        } else if self.flush.is_none() {
            let at = ctx.now() + self.linger;
            self.flush = Some(ctx.complete_at(at, Completion::FlushDue));
        }
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        match done {
            Completion::FlushDue => {
                self.flush = None;
                self.flush_now(ctx);
            }
            other => unreachable!("batcher completion must be FlushDue, got {other:?}"),
        }
    }

    fn queued_volume(&self) -> DataVolume {
        self.buffered_volume
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.buffer.put(out);
        self.buffered_volume.put(out);
        self.flush.put(out);
    }

    fn load_state(&mut self, r: &mut Reader) -> Result<(), Damage> {
        self.buffer = Wire::get(r)?;
        self.buffered_volume = Wire::get(r)?;
        self.flush = Wire::get(r)?;
        Ok(())
    }
}

/// Eliminates duplicate content (see
/// [`StageKind::Dedup`](crate::graph::StageKind)): a filter, inspecting
/// blocks serially at `rate`, that forwards each block's full volume while
/// the index is still warming up (the first `window` completed inspections)
/// and `unique_ratio` of it afterwards. No checkpoints: a killed inspection
/// restarts from zero.
pub struct DedupBehavior {
    window: u64,
    /// Blocks fully inspected so far — the size of the dedup index. Counted
    /// at completion, so a crashed inspection does not warm the index.
    seen: u64,
    /// Accepts `unique_ratio` once the index is warm.
    inspector: FilterBehavior,
}

impl DedupBehavior {
    pub(crate) fn new(spec: &DedupSpec, channel: ResourceId) -> Self {
        let inspector =
            FilterBehavior::new(&FilterSpec::new(spec.rate, spec.unique_ratio), channel);
        DedupBehavior { window: spec.window, seen: 0, inspector }
    }
}

impl StageBehavior for DedupBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, taint: u32, lineage: u64) {
        self.inspector.on_arrive(ctx, volume, taint, lineage);
    }

    fn on_complete(&mut self, ctx: &mut StageCtx, done: Completion) {
        let warm = self.seen >= self.window;
        self.seen += 1;
        self.inspector.inspected(ctx, done, warm);
    }

    fn try_dispatch(&mut self, ctx: &mut StageCtx) -> Dispatch {
        self.inspector.try_dispatch(ctx)
    }

    fn on_crash(&mut self, ctx: &mut StageCtx, resource: ResourceId, needed: u32) -> u32 {
        self.inspector.on_crash(ctx, resource, needed)
    }

    fn queued_volume(&self) -> DataVolume {
        self.inspector.queued_volume()
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.inspector.save_state(out);
        self.seen.put(out);
    }

    fn load_state(&mut self, r: &mut Reader) -> Result<(), Damage> {
        self.inspector.load_state(r)?;
        self.seen = Wire::get(r)?;
        Ok(())
    }
}

/// Terminal stage: accumulates and permanently retains everything.
pub struct ArchiveBehavior;

impl StageBehavior for ArchiveBehavior {
    fn on_arrive(&mut self, ctx: &mut StageCtx, volume: DataVolume, _taint: u32, _lineage: u64) {
        // Escaped taint is counted by the orchestrator before this hook; an
        // archive stores whatever it is handed.
        let now = ctx.now();
        let m = ctx.metrics();
        m.volume_out += volume;
        m.blocks_out += 1;
        m.completed_at = now;
        // Archive holds its contents; allocation is permanent.
        ctx.ledger().retain(volume);
    }

    fn on_complete(&mut self, _ctx: &mut StageCtx, done: Completion) {
        unreachable!("archives schedule no completions, got {done:?}")
    }
}
