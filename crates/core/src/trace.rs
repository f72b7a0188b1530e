//! Deterministic tracing: typed observation of every state change the
//! simulator makes.
//!
//! The paper's evaluation is a set of quantitative claims about where each
//! workflow's time and bytes go; [`crate::metrics::SimReport`] answers them
//! only in aggregate. This module records the *events themselves*: a
//! pluggable [`Observer`] receives every typed [`TraceEvent`] — task starts
//! and ends, transfer attempts and retries, queue-depth changes, faults,
//! checkpoints, verification checks, quarantines, crash kills — stamped with
//! the simulated time, the stage, and the block's lineage id.
//!
//! Determinism contract: the simulator's behavior is identical with and
//! without an observer attached. Emission never draws randomness, never
//! schedules events, and never touches metrics; the event stream is a pure
//! function of the run, so the same seed and flow yield byte-identical
//! traces ([`TraceRecorder::jsonl`]) across runs. With no observer attached
//! the only cost per would-be event is one `Option` check — the event value
//! itself is never constructed.
//!
//! [`TraceRecorder`] is the built-in observer: it collects the stream and
//! exports a Chrome `trace_event` JSON (loadable in Perfetto, one track per
//! stage plus one per resource) and a JSONL event log, and derives the
//! [`Span`]s that [`crate::critical`] walks for bottleneck attribution.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use crate::graph::StageId;
use crate::units::{DataVolume, SimDuration, SimTime};

/// Sampling configuration for the in-report telemetry
/// ([`crate::metrics::TimeSeries`]): queue depth, pool occupancy and
/// cumulative sink volume are recorded once per `tick`. Set it on a flow
/// with [`crate::spec::FlowSpec::observe`]; flows without it produce
/// byte-identical reports to the pre-observability simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Interval between telemetry samples.
    pub tick: SimDuration,
}

impl ObserveConfig {
    /// Sample the flow's state every `tick`.
    pub fn every(tick: SimDuration) -> Self {
        ObserveConfig { tick }
    }
}

/// Static context an [`Observer`] receives before the run starts: stage and
/// resource names, indexed by [`StageId::index`] and resource id. Events
/// carry indices; this is what resolves them to names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Stage names in stage-id order.
    pub stages: Vec<String>,
    /// Resource names in resource-id order (shared pools first, then the
    /// private per-stage channels, in registration order).
    pub resources: Vec<String>,
}

/// What an injected fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    Stage(StageId),
    /// A resource, by resource id (an index into [`TraceMeta::resources`]).
    Resource(usize),
    /// Neither; the exports render it as `"stage":null` on track 0.
    None,
}

/// The kind of an injected fault effect. The exports print
/// [`FaultKind::label`], so the labels are part of the trace format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A task stretched by a stall.
    Stall,
    /// A transfer attempt hit by a link fault (drop, stall, corruption,
    /// rate degradation).
    Link,
    /// A transfer delivered a silently corrupted block.
    SilentCorrupt,
    /// Resource units went offline.
    Crash,
    /// Resource units came back from repair.
    Repair,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Stall => "stall",
            FaultKind::Link => "link",
            FaultKind::SilentCorrupt => "silent-corrupt",
            FaultKind::Crash => "crash",
            FaultKind::Repair => "repair",
        }
    }
}

/// One typed observation. Every variant is stamped by the observer callback
/// with the simulated time it happened at; stages are identified by
/// [`StageId`], blocks by their *lineage id* — the id of the source emission
/// the data descends from, preserved across transfers, chunking, processing
/// and reprocessing, so a block's whole lifetime can be stitched together.
///
/// A [`TraceRecorder`] keeps one `(SimTime, TraceEvent)` per event, millions
/// on a stress run, so the size is pinned below: no variant may carry more
/// than four words.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A compute/filter task started: `units` resource units working on
    /// `volume` of input descended from `lineage`.
    TaskStart { stage: StageId, task: u64, lineage: u64, volume: DataVolume, units: u32 },
    /// The task completed, emitting `volume` of output.
    TaskEnd { stage: StageId, task: u64, lineage: u64, volume: DataVolume },
    /// A transfer attempt (0-based `attempt`) began; it will occupy the
    /// channel for `duration` (known at start — attempts are never killed).
    TransferAttempt {
        stage: StageId,
        lineage: u64,
        volume: DataVolume,
        attempt: u32,
        duration: SimDuration,
    },
    /// A faulted attempt scheduled its retry, `backoff` after the failure.
    TransferRetry {
        stage: StageId,
        lineage: u64,
        volume: DataVolume,
        attempt: u32,
        backoff: SimDuration,
    },
    /// The retry budget ran out; the block is abandoned.
    TransferAbandon { stage: StageId, lineage: u64, volume: DataVolume },
    /// The stage's input queue changed to `blocks` entries / `volume` bytes.
    QueueDepthChange { stage: StageId, blocks: usize, volume: DataVolume },
    /// `count` injected fault effects of `kind` hit `scope`.
    FaultInjected { scope: FaultScope, kind: FaultKind, count: u64 },
    /// A task banked `count` checkpoints costing `cost` of extra runtime.
    CheckpointWritten { stage: StageId, task: u64, count: u32, cost: SimDuration },
    /// An arrival integrity check ran, spending `cost`; `tainted` says
    /// whether it caught silent corruption.
    VerifyCheck {
        stage: StageId,
        lineage: u64,
        volume: DataVolume,
        cost: SimDuration,
        tainted: bool,
    },
    /// A block was quarantined here instead of flowing on.
    BlockQuarantined { stage: StageId, lineage: u64, volume: DataVolume, taint: u32 },
    /// A crash killed a running task, destroying `lost` of useful work.
    CrashKill { stage: StageId, task: u64, lineage: u64, lost: SimDuration },
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 40);

impl TraceEvent {
    /// The stage the event is scoped to, if any (resource-level faults have
    /// none).
    pub fn stage(&self) -> Option<StageId> {
        match self {
            TraceEvent::TaskStart { stage, .. }
            | TraceEvent::TaskEnd { stage, .. }
            | TraceEvent::TransferAttempt { stage, .. }
            | TraceEvent::TransferRetry { stage, .. }
            | TraceEvent::TransferAbandon { stage, .. }
            | TraceEvent::QueueDepthChange { stage, .. }
            | TraceEvent::CheckpointWritten { stage, .. }
            | TraceEvent::VerifyCheck { stage, .. }
            | TraceEvent::BlockQuarantined { stage, .. }
            | TraceEvent::CrashKill { stage, .. } => Some(*stage),
            TraceEvent::FaultInjected { scope: FaultScope::Stage(stage), .. } => Some(*stage),
            TraceEvent::FaultInjected { .. } => None,
        }
    }
}

/// Receives the trace stream of one simulation run. Implementations must be
/// passive: recording only, no feedback into the simulation (the simulator
/// guarantees the stream is identical whether or not anyone listens).
pub trait Observer {
    /// Called once before the run starts, with the name tables.
    fn begin(&mut self, _meta: &TraceMeta) {}

    /// Called for every event, in simulation order, stamped with the
    /// simulated time it happened at.
    fn record(&mut self, at: SimTime, ev: &TraceEvent);
}

/// An observer that discards everything. Attaching it must leave every
/// report byte-identical to an unobserved run — the observability layer's
/// core regression contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn record(&mut self, _at: SimTime, _ev: &TraceEvent) {}
}

/// The simulator's trace state: the optional observer plus the lineage-id
/// allocator. The allocator always runs (ids are handed out whether or not
/// anyone records them) so traces never depend on being observed.
pub(crate) struct TraceCtx {
    observer: Option<Box<dyn Observer>>,
    next_lineage: u64,
    /// Events handed to the observer so far. Snapshots record this so a
    /// resumed run's trace can be spliced onto the killed run's prefix at
    /// exactly the right event boundary.
    emitted: u64,
}

impl TraceCtx {
    pub(crate) fn new() -> Self {
        TraceCtx { observer: None, next_lineage: 0, emitted: 0 }
    }

    pub(crate) fn attach(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    pub(crate) fn enabled(&self) -> bool {
        self.observer.is_some()
    }

    pub(crate) fn alloc_lineage(&mut self) -> u64 {
        self.next_lineage += 1;
        self.next_lineage
    }

    /// The lineage-allocator position, for snapshots.
    pub(crate) fn next_lineage(&self) -> u64 {
        self.next_lineage
    }

    /// Count of events emitted to the observer so far, for snapshots.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Restore allocator + emit-counter state from a snapshot.
    pub(crate) fn restore(&mut self, next_lineage: u64, emitted: u64) {
        self.next_lineage = next_lineage;
        self.emitted = emitted;
    }

    pub(crate) fn begin(&mut self, meta: &TraceMeta) {
        if let Some(o) = self.observer.as_mut() {
            o.begin(meta);
        }
    }

    /// Emit an event if an observer is attached. The closure runs only when
    /// someone listens, so disabled tracing never constructs event values.
    /// The emit counter advances only on observed runs — it measures the
    /// observer's stream, which is empty when no one listens.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, ev: impl FnOnce() -> TraceEvent) {
        if let Some(o) = self.observer.as_mut() {
            o.record(at, &ev());
            self.emitted += 1;
        }
    }
}

/// An immutable copy of a recorded trace: the name tables plus the event
/// stream in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    pub meta: TraceMeta,
    pub events: Vec<(SimTime, TraceEvent)>,
}

/// A closed interval of stage activity derived from the trace: a compute /
/// filter task (`TaskStart` → `TaskEnd` or `CrashKill`) or one transfer
/// attempt ([`TraceEvent::TransferAttempt`] with its known duration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub stage: StageId,
    /// Task id for task spans; attempt number for transfer attempts.
    pub task: u64,
    pub lineage: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// `"task"` or `"attempt"`.
    pub kind: &'static str,
    /// True when the span was closed by a [`TraceEvent::CrashKill`].
    pub killed: bool,
}

impl Span {
    pub fn duration(&self) -> SimDuration {
        self.end.checked_sub(self.start).unwrap_or(SimDuration::ZERO)
    }
}

impl TraceSnapshot {
    /// Resolve a stage id to its name (falls back to the raw index for
    /// events outside the name table).
    pub fn stage_name(&self, id: StageId) -> &str {
        self.meta.stages.get(id.index()).map(String::as_str).unwrap_or("?")
    }

    /// Derive activity spans by pairing `TaskStart` with `TaskEnd` /
    /// `CrashKill` (by stage and task id) and materialising each
    /// `TransferAttempt` over its known duration. Unmatched starts (a trace
    /// cut short) are dropped; [`TraceSnapshot::open_tasks`] counts them.
    pub fn spans(&self) -> Vec<Span> {
        let mut open: Vec<(StageId, u64, u64, SimTime, DataVolume)> = Vec::new();
        let mut spans = Vec::new();
        for (at, ev) in &self.events {
            match ev {
                TraceEvent::TaskStart { stage, task, lineage, volume, .. } => {
                    open.push((*stage, *task, *lineage, *at, *volume));
                }
                TraceEvent::TaskEnd { stage, task, lineage, .. } => {
                    if let Some(i) = open.iter().position(|o| o.0 == *stage && o.1 == *task) {
                        let o = open.swap_remove(i);
                        spans.push(Span {
                            stage: *stage,
                            task: *task,
                            lineage: *lineage,
                            start: o.3,
                            end: *at,
                            kind: "task",
                            killed: false,
                        });
                    }
                }
                TraceEvent::CrashKill { stage, task, lineage, .. } => {
                    if let Some(i) = open.iter().position(|o| o.0 == *stage && o.1 == *task) {
                        let o = open.swap_remove(i);
                        spans.push(Span {
                            stage: *stage,
                            task: *task,
                            lineage: *lineage,
                            start: o.3,
                            end: *at,
                            kind: "task",
                            killed: true,
                        });
                    }
                }
                TraceEvent::TransferAttempt { stage, lineage, attempt, duration, .. } => {
                    spans.push(Span {
                        stage: *stage,
                        task: *attempt as u64,
                        lineage: *lineage,
                        start: *at,
                        end: *at + *duration,
                        kind: "attempt",
                        killed: false,
                    });
                }
                _ => {}
            }
        }
        spans
    }

    /// `TaskStart`s with no matching `TaskEnd`/`CrashKill` — always zero for
    /// a run that went to quiescence.
    pub fn open_tasks(&self) -> usize {
        let mut open: Vec<(StageId, u64)> = Vec::new();
        for (_, ev) in &self.events {
            match ev {
                TraceEvent::TaskStart { stage, task, .. } => open.push((*stage, *task)),
                TraceEvent::TaskEnd { stage, task, .. }
                | TraceEvent::CrashKill { stage, task, .. } => {
                    if let Some(i) = open.iter().position(|o| *o == (*stage, *task)) {
                        open.swap_remove(i);
                    }
                }
                _ => {}
            }
        }
        open.len()
    }

    /// Render the trace as a JSONL event log: one JSON object per line, in
    /// emission order, with a fixed key order per event type. Byte-identical
    /// across replays of the same seeded flow.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out).expect("writing to a String cannot fail");
        out
    }

    fn write_jsonl(&self, out: &mut String) -> fmt::Result {
        let names = EscapedNames::of(&self.meta);
        for (at, ev) in &self.events {
            let t = at.as_micros();
            match ev {
                TraceEvent::TaskStart { stage, task, lineage, volume, units } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"task_start\",\"stage\":\"{}\",\"task\":{task},\"lineage\":{lineage},\"volume\":{},\"units\":{units}}}",
                    names.stage(*stage),
                    volume.bytes(),
                )?,
                TraceEvent::TaskEnd { stage, task, lineage, volume } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"task_end\",\"stage\":\"{}\",\"task\":{task},\"lineage\":{lineage},\"volume\":{}}}",
                    names.stage(*stage),
                    volume.bytes(),
                )?,
                TraceEvent::TransferAttempt { stage, lineage, volume, attempt, duration } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"transfer_attempt\",\"stage\":\"{}\",\"lineage\":{lineage},\"volume\":{},\"attempt\":{attempt},\"duration\":{}}}",
                    names.stage(*stage),
                    volume.bytes(),
                    duration.as_micros(),
                )?,
                TraceEvent::TransferRetry { stage, lineage, volume, attempt, backoff } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"transfer_retry\",\"stage\":\"{}\",\"lineage\":{lineage},\"volume\":{},\"attempt\":{attempt},\"backoff\":{}}}",
                    names.stage(*stage),
                    volume.bytes(),
                    backoff.as_micros(),
                )?,
                TraceEvent::TransferAbandon { stage, lineage, volume } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"transfer_abandon\",\"stage\":\"{}\",\"lineage\":{lineage},\"volume\":{}}}",
                    names.stage(*stage),
                    volume.bytes(),
                )?,
                TraceEvent::QueueDepthChange { stage, blocks, volume } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"queue_depth\",\"stage\":\"{}\",\"blocks\":{blocks},\"volume\":{}}}",
                    names.stage(*stage),
                    volume.bytes(),
                )?,
                TraceEvent::FaultInjected { scope, kind, count } => {
                    write!(out, "{{\"t\":{t},\"ev\":\"fault\",")?;
                    match scope {
                        FaultScope::Stage(s) => write!(out, "\"stage\":\"{}\"", names.stage(*s))?,
                        FaultScope::Resource(r) => {
                            write!(out, "\"resource\":\"{}\"", names.resource(*r))?
                        }
                        FaultScope::None => out.push_str("\"stage\":null"),
                    }
                    writeln!(out, ",\"kind\":\"{}\",\"count\":{count}}}", kind.label())?
                }
                TraceEvent::CheckpointWritten { stage, task, count, cost } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"checkpoint\",\"stage\":\"{}\",\"task\":{task},\"count\":{count},\"cost\":{}}}",
                    names.stage(*stage),
                    cost.as_micros(),
                )?,
                TraceEvent::VerifyCheck { stage, lineage, volume, cost, tainted } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"verify\",\"stage\":\"{}\",\"lineage\":{lineage},\"volume\":{},\"cost\":{},\"tainted\":{tainted}}}",
                    names.stage(*stage),
                    volume.bytes(),
                    cost.as_micros(),
                )?,
                TraceEvent::BlockQuarantined { stage, lineage, volume, taint } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"quarantine\",\"stage\":\"{}\",\"lineage\":{lineage},\"volume\":{},\"taint\":{taint}}}",
                    names.stage(*stage),
                    volume.bytes(),
                )?,
                TraceEvent::CrashKill { stage, task, lineage, lost } => writeln!(
                    out,
                    "{{\"t\":{t},\"ev\":\"crash_kill\",\"stage\":\"{}\",\"task\":{task},\"lineage\":{lineage},\"lost\":{}}}",
                    names.stage(*stage),
                    lost.as_micros(),
                )?,
            }
        }
        Ok(())
    }

    /// Export the trace in Chrome `trace_event` JSON (the format Perfetto
    /// and `chrome://tracing` load). Tasks and transfer attempts become
    /// complete (`"X"`) slices, one track (`tid`) per stage plus one per
    /// resource; queue depths become counter (`"C"`) tracks; faults,
    /// quarantines and crash kills become instant (`"i"`) markers.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::new();
        self.write_chrome(&mut out).expect("writing to a String cannot fail");
        out
    }

    fn write_chrome(&self, out: &mut String) -> fmt::Result {
        let names = EscapedNames::of(&self.meta);
        let pid = 1;
        // The process-name record is always first, so every later record
        // opens with the separating comma.
        write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"sciflow\"}}}}"
        )?;
        for (i, name) in names.stages.iter().enumerate() {
            write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{i},\"args\":{{\"name\":\"stage: {name}\"}}}}",
            )?;
        }
        let rbase = names.stages.len();
        for (i, name) in names.resources.iter().enumerate() {
            write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"resource: {name}\"}}}}",
                rbase + i,
            )?;
        }
        for span in self.spans() {
            write!(
                out,
                ",{{\"name\":\"{} {}{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"lineage\":{}}}}}",
                span.kind,
                span.task,
                if span.killed { " (killed)" } else { "" },
                span.kind,
                span.start.as_micros(),
                span.duration().as_micros(),
                span.stage.index(),
                span.lineage,
            )?;
        }
        for (at, ev) in &self.events {
            let ts = at.as_micros();
            match ev {
                TraceEvent::QueueDepthChange { stage, blocks, .. } => write!(
                    out,
                    ",{{\"name\":\"queue: {}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"args\":{{\"blocks\":{blocks}}}}}",
                    names.stage(*stage),
                )?,
                TraceEvent::FaultInjected { scope, kind, count } => {
                    let tid = match scope {
                        FaultScope::Stage(s) => s.index(),
                        FaultScope::Resource(r) => rbase + r,
                        FaultScope::None => 0,
                    };
                    write!(
                        out,
                        ",{{\"name\":\"fault: {} x{count}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}}}",
                        kind.label(),
                    )?
                }
                TraceEvent::BlockQuarantined { stage, lineage, .. } => write!(
                    out,
                    ",{{\"name\":\"quarantine lineage {lineage}\",\"cat\":\"integrity\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{}}}",
                    stage.index(),
                )?,
                TraceEvent::CrashKill { stage, task, .. } => write!(
                    out,
                    ",{{\"name\":\"crash kill task {task}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{}}}",
                    stage.index(),
                )?,
                _ => {}
            }
        }
        out.push_str("]}");
        Ok(())
    }
}

/// The name tables as they appear inside JSON string literals, escaped once
/// per export. An id outside its table renders as `?`.
struct EscapedNames {
    stages: Vec<String>,
    resources: Vec<String>,
}

impl EscapedNames {
    fn of(meta: &TraceMeta) -> Self {
        EscapedNames {
            stages: meta.stages.iter().map(|n| esc(n)).collect(),
            resources: meta.resources.iter().map(|n| esc(n)).collect(),
        }
    }

    fn stage(&self, id: StageId) -> &str {
        self.stages.get(id.index()).map_or("?", String::as_str)
    }

    fn resource(&self, id: usize) -> &str {
        self.resources.get(id).map_or("?", String::as_str)
    }
}

/// Shared buffer behind cloned [`TraceRecorder`] handles.
#[derive(Debug, Default)]
struct TraceBuf {
    meta: TraceMeta,
    events: Vec<(SimTime, TraceEvent)>,
}

/// The built-in [`Observer`]: records the full stream into a shared buffer.
/// Clone it, hand one clone to [`crate::sim::FlowSim::with_observer`], and
/// read the trace from the other after the run:
///
/// ```
/// use sciflow_core::sim::{CpuPool, FlowSim};
/// use sciflow_core::spec::{FlowSpec, SourceSpec, TransferSpec};
/// use sciflow_core::trace::TraceRecorder;
/// use sciflow_core::units::{DataRate, DataVolume, SimDuration};
///
/// let graph = FlowSpec::new()
///     .source("acquire", SourceSpec::new(DataVolume::gb(1), SimDuration::from_secs(10), 2))
///     .transfer("link", TransferSpec::new(DataRate::mb_per_sec(100.0)), &["acquire"])
///     .archive("store", &["link"])
///     .build()
///     .unwrap();
/// let trace = TraceRecorder::new();
/// let pools: Vec<CpuPool> = vec![];
/// FlowSim::new(graph, pools).unwrap().with_observer(trace.clone()).run().unwrap();
/// assert!(!trace.is_empty());
/// let snapshot = trace.snapshot();
/// assert_eq!(snapshot.spans().len(), 2); // one attempt per block
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    buf: Rc<RefCell<TraceBuf>>,
}

impl TraceRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.buf.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out the recorded trace (meta plus events, in emission order).
    pub fn snapshot(&self) -> TraceSnapshot {
        let buf = self.buf.borrow();
        TraceSnapshot { meta: buf.meta.clone(), events: buf.events.clone() }
    }

    /// Shorthand for [`TraceSnapshot::spans`] on the current contents.
    pub fn spans(&self) -> Vec<Span> {
        self.snapshot().spans()
    }

    /// Shorthand for [`TraceSnapshot::jsonl`] on the current contents.
    pub fn jsonl(&self) -> String {
        self.snapshot().jsonl()
    }

    /// Shorthand for [`TraceSnapshot::chrome_trace`] on the current contents.
    pub fn chrome_trace(&self) -> String {
        self.snapshot().chrome_trace()
    }
}

impl Observer for TraceRecorder {
    fn begin(&mut self, meta: &TraceMeta) {
        let mut buf = self.buf.borrow_mut();
        buf.meta = meta.clone();
        buf.events.clear();
    }

    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        self.buf.borrow_mut().events.push((at, ev.clone()));
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta { stages: vec!["src".into(), "work".into()], resources: vec!["pool".into()] }
    }

    fn snap(events: Vec<(SimTime, TraceEvent)>) -> TraceSnapshot {
        TraceSnapshot { meta: meta(), events }
    }

    #[test]
    fn spans_pair_starts_with_ends_and_kills() {
        let s = StageId(1);
        let t = SimTime::from_micros;
        let snapshot = snap(vec![
            (
                t(10),
                TraceEvent::TaskStart {
                    stage: s,
                    task: 0,
                    lineage: 1,
                    volume: DataVolume::gb(1),
                    units: 1,
                },
            ),
            (
                t(15),
                TraceEvent::TaskStart {
                    stage: s,
                    task: 1,
                    lineage: 2,
                    volume: DataVolume::gb(1),
                    units: 1,
                },
            ),
            (
                t(20),
                TraceEvent::TaskEnd { stage: s, task: 0, lineage: 1, volume: DataVolume::gb(1) },
            ),
            (
                t(25),
                TraceEvent::CrashKill { stage: s, task: 1, lineage: 2, lost: SimDuration::ZERO },
            ),
        ]);
        let spans = snapshot.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].duration(), SimDuration::from_micros(10));
        assert!(!spans[0].killed);
        assert!(spans[1].killed);
        assert_eq!(snapshot.open_tasks(), 0);
    }

    #[test]
    fn attempts_become_spans_with_known_duration() {
        let s = StageId(0);
        let snapshot = snap(vec![(
            SimTime::from_micros(5),
            TraceEvent::TransferAttempt {
                stage: s,
                lineage: 3,
                volume: DataVolume::gb(1),
                attempt: 0,
                duration: SimDuration::from_micros(7),
            },
        )]);
        let spans = snapshot.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end, SimTime::from_micros(12));
        assert_eq!(spans[0].kind, "attempt");
    }

    #[test]
    fn unmatched_starts_are_counted_open() {
        let s = StageId(0);
        let snapshot = snap(vec![(
            SimTime::from_micros(1),
            TraceEvent::TaskStart {
                stage: s,
                task: 7,
                lineage: 1,
                volume: DataVolume::ZERO,
                units: 1,
            },
        )]);
        assert_eq!(snapshot.spans().len(), 0);
        assert_eq!(snapshot.open_tasks(), 1);
    }

    #[test]
    fn jsonl_lines_are_stable_and_name_resolved() {
        let snapshot = snap(vec![(
            SimTime::from_micros(9),
            TraceEvent::QueueDepthChange {
                stage: StageId(1),
                blocks: 2,
                volume: DataVolume::from_bytes(64),
            },
        )]);
        assert_eq!(
            snapshot.jsonl(),
            "{\"t\":9,\"ev\":\"queue_depth\",\"stage\":\"work\",\"blocks\":2,\"volume\":64}\n"
        );
        assert_eq!(snapshot.jsonl(), snapshot.jsonl());
    }

    #[test]
    fn chrome_trace_has_tracks_and_balanced_braces() {
        let s = StageId(0);
        let snapshot = snap(vec![
            (
                SimTime::from_micros(5),
                TraceEvent::TransferAttempt {
                    stage: s,
                    lineage: 1,
                    volume: DataVolume::gb(1),
                    attempt: 0,
                    duration: SimDuration::from_micros(7),
                },
            ),
            (
                SimTime::from_micros(12),
                TraceEvent::FaultInjected {
                    scope: FaultScope::Resource(0),
                    kind: FaultKind::Crash,
                    count: 2,
                },
            ),
        ]);
        let json = snapshot.chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("stage: src"));
        assert!(json.contains("resource: pool"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("fault: crash x2"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    /// The fault lines of both exports, byte for byte as they were when
    /// `FaultInjected` carried two `Option`s and a string: one line per
    /// kind label and per scope arm.
    #[test]
    fn fault_lines_keep_their_bytes() {
        let fault = |scope, kind, count| TraceEvent::FaultInjected { scope, kind, count };
        let cases = [
            (
                fault(FaultScope::Stage(StageId(1)), FaultKind::Stall, 2),
                "{\"t\":7,\"ev\":\"fault\",\"stage\":\"work\",\"kind\":\"stall\",\"count\":2}\n",
                "{\"name\":\"fault: stall x2\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":1}",
            ),
            (
                fault(FaultScope::Stage(StageId(0)), FaultKind::Link, 1),
                "{\"t\":7,\"ev\":\"fault\",\"stage\":\"src\",\"kind\":\"link\",\"count\":1}\n",
                "{\"name\":\"fault: link x1\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":0}",
            ),
            (
                fault(FaultScope::Stage(StageId(9)), FaultKind::SilentCorrupt, 3),
                "{\"t\":7,\"ev\":\"fault\",\"stage\":\"?\",\"kind\":\"silent-corrupt\",\"count\":3}\n",
                "{\"name\":\"fault: silent-corrupt x3\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":9}",
            ),
            (
                fault(FaultScope::Resource(0), FaultKind::Crash, 4),
                "{\"t\":7,\"ev\":\"fault\",\"resource\":\"pool\",\"kind\":\"crash\",\"count\":4}\n",
                "{\"name\":\"fault: crash x4\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":2}",
            ),
            (
                fault(FaultScope::Resource(5), FaultKind::Repair, 4),
                "{\"t\":7,\"ev\":\"fault\",\"resource\":\"?\",\"kind\":\"repair\",\"count\":4}\n",
                "{\"name\":\"fault: repair x4\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":7}",
            ),
            (
                fault(FaultScope::None, FaultKind::Crash, 1),
                "{\"t\":7,\"ev\":\"fault\",\"stage\":null,\"kind\":\"crash\",\"count\":1}\n",
                "{\"name\":\"fault: crash x1\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7,\"pid\":1,\"tid\":0}",
            ),
        ];
        for (ev, jsonl, chrome) in cases {
            let stage = ev.stage();
            let snapshot = snap(vec![(SimTime::from_micros(7), ev)]);
            assert_eq!(snapshot.jsonl(), jsonl);
            let exported = snapshot.chrome_trace();
            assert!(exported.ends_with(&format!(",{chrome}]}}")), "{exported}");
            assert_eq!(stage.is_some(), jsonl.contains("\"stage\":\""));
        }
    }

    /// The other ten variants: one JSONL line each, and every Chrome form —
    /// the track records, `X` for a task, a killed task and an attempt, `C`,
    /// the quarantine and crash-kill `i` markers — byte for byte as
    /// `writeln!` with `Display` arguments produced them. Integers run from
    /// 0 to `u64::MAX`; a variant with no Chrome record exports the tracks
    /// alone.
    #[test]
    fn every_variant_keeps_its_export_bytes() {
        const TRACKS: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"sciflow\"}},\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"stage: src\"}},\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"stage: work\"}},\
            {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"resource: pool\"}}";
        let t = SimTime::from_micros;
        let us = SimDuration::from_micros;
        let b = DataVolume::from_bytes;
        let (src, work) = (StageId(0), StageId(1));
        let cases: [(Vec<(SimTime, TraceEvent)>, &str, &str); 10] = [
            (
                vec![
                    (
                        t(10),
                        TraceEvent::TaskStart {
                            stage: work,
                            task: 3,
                            lineage: 12,
                            volume: b(1_000_000_000),
                            units: 4,
                        },
                    ),
                    (
                        t(1_000_010),
                        TraceEvent::TaskEnd { stage: work, task: 3, lineage: 12, volume: b(250) },
                    ),
                ],
                "{\"t\":10,\"ev\":\"task_start\",\"stage\":\"work\",\"task\":3,\"lineage\":12,\"volume\":1000000000,\"units\":4}\n\
                 {\"t\":1000010,\"ev\":\"task_end\",\"stage\":\"work\",\"task\":3,\"lineage\":12,\"volume\":250}\n",
                ",{\"name\":\"task 3\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":10,\"dur\":1000000,\"pid\":1,\"tid\":1,\"args\":{\"lineage\":12}}",
            ),
            (
                vec![
                    (
                        t(0),
                        TraceEvent::TaskStart {
                            stage: src,
                            task: 0,
                            lineage: 1,
                            volume: b(0),
                            units: 1,
                        },
                    ),
                    (
                        t(20),
                        TraceEvent::CrashKill { stage: src, task: 0, lineage: 1, lost: us(123_456) },
                    ),
                ],
                "{\"t\":0,\"ev\":\"task_start\",\"stage\":\"src\",\"task\":0,\"lineage\":1,\"volume\":0,\"units\":1}\n\
                 {\"t\":20,\"ev\":\"crash_kill\",\"stage\":\"src\",\"task\":0,\"lineage\":1,\"lost\":123456}\n",
                ",{\"name\":\"task 0 (killed)\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":0,\"dur\":20,\"pid\":1,\"tid\":0,\"args\":{\"lineage\":1}}\
                 ,{\"name\":\"crash kill task 0\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":20,\"pid\":1,\"tid\":0}",
            ),
            (
                vec![(
                    t(5),
                    TraceEvent::TransferAttempt {
                        stage: src,
                        lineage: u64::MAX,
                        volume: b(4096),
                        attempt: 2,
                        duration: us(7),
                    },
                )],
                "{\"t\":5,\"ev\":\"transfer_attempt\",\"stage\":\"src\",\"lineage\":18446744073709551615,\"volume\":4096,\"attempt\":2,\"duration\":7}\n",
                ",{\"name\":\"attempt 2\",\"cat\":\"attempt\",\"ph\":\"X\",\"ts\":5,\"dur\":7,\"pid\":1,\"tid\":0,\"args\":{\"lineage\":18446744073709551615}}",
            ),
            (
                vec![(
                    t(5),
                    TraceEvent::TransferRetry {
                        stage: work,
                        lineage: 9,
                        volume: b(4096),
                        attempt: u32::MAX,
                        backoff: us(30_000_000),
                    },
                )],
                "{\"t\":5,\"ev\":\"transfer_retry\",\"stage\":\"work\",\"lineage\":9,\"volume\":4096,\"attempt\":4294967295,\"backoff\":30000000}\n",
                "",
            ),
            (
                vec![(
                    t(u64::MAX),
                    TraceEvent::TransferAbandon { stage: StageId(9), lineage: 9, volume: b(4096) },
                )],
                "{\"t\":18446744073709551615,\"ev\":\"transfer_abandon\",\"stage\":\"?\",\"lineage\":9,\"volume\":4096}\n",
                "",
            ),
            (
                vec![(
                    t(9),
                    TraceEvent::QueueDepthChange { stage: work, blocks: 17, volume: b(69_632) },
                )],
                "{\"t\":9,\"ev\":\"queue_depth\",\"stage\":\"work\",\"blocks\":17,\"volume\":69632}\n",
                ",{\"name\":\"queue: work\",\"ph\":\"C\",\"ts\":9,\"pid\":1,\"args\":{\"blocks\":17}}",
            ),
            (
                vec![(
                    t(9),
                    TraceEvent::CheckpointWritten {
                        stage: work,
                        task: 3,
                        count: 2,
                        cost: us(1_500_000),
                    },
                )],
                "{\"t\":9,\"ev\":\"checkpoint\",\"stage\":\"work\",\"task\":3,\"count\":2,\"cost\":1500000}\n",
                "",
            ),
            (
                vec![(
                    t(9),
                    TraceEvent::VerifyCheck {
                        stage: src,
                        lineage: 12,
                        volume: b(8),
                        cost: us(40),
                        tainted: true,
                    },
                )],
                "{\"t\":9,\"ev\":\"verify\",\"stage\":\"src\",\"lineage\":12,\"volume\":8,\"cost\":40,\"tainted\":true}\n",
                "",
            ),
            (
                vec![(
                    t(9),
                    TraceEvent::VerifyCheck {
                        stage: src,
                        lineage: 13,
                        volume: b(8),
                        cost: us(0),
                        tainted: false,
                    },
                )],
                "{\"t\":9,\"ev\":\"verify\",\"stage\":\"src\",\"lineage\":13,\"volume\":8,\"cost\":0,\"tainted\":false}\n",
                "",
            ),
            (
                vec![(
                    t(9),
                    TraceEvent::BlockQuarantined {
                        stage: work,
                        lineage: 12,
                        volume: b(8),
                        taint: 3,
                    },
                )],
                "{\"t\":9,\"ev\":\"quarantine\",\"stage\":\"work\",\"lineage\":12,\"volume\":8,\"taint\":3}\n",
                ",{\"name\":\"quarantine lineage 12\",\"cat\":\"integrity\",\"ph\":\"i\",\"s\":\"t\",\"ts\":9,\"pid\":1,\"tid\":1}",
            ),
        ];
        for (events, jsonl, chrome) in cases {
            let snapshot = snap(events);
            assert_eq!(snapshot.jsonl(), jsonl);
            assert_eq!(snapshot.chrome_trace(), format!("{TRACKS}{chrome}]}}"));
        }
    }

    /// Names are escaped once per export; the bytes are those of escaping
    /// them at every use.
    #[test]
    fn exports_escape_names_the_way_esc_does() {
        let snapshot = TraceSnapshot {
            meta: TraceMeta { stages: vec!["a\"b\\c".into()], resources: vec!["p\n1".into()] },
            events: vec![
                (
                    SimTime::from_micros(1),
                    TraceEvent::QueueDepthChange {
                        stage: StageId(0),
                        blocks: 1,
                        volume: DataVolume::from_bytes(8),
                    },
                ),
                (
                    SimTime::from_micros(2),
                    TraceEvent::FaultInjected {
                        scope: FaultScope::Resource(0),
                        kind: FaultKind::Repair,
                        count: 1,
                    },
                ),
            ],
        };
        assert_eq!(
            snapshot.jsonl(),
            "{\"t\":1,\"ev\":\"queue_depth\",\"stage\":\"a\\\"b\\\\c\",\"blocks\":1,\"volume\":8}\n\
             {\"t\":2,\"ev\":\"fault\",\"resource\":\"p\\n1\",\"kind\":\"repair\",\"count\":1}\n"
        );
        let chrome = snapshot.chrome_trace();
        assert!(chrome.contains("\"name\":\"stage: a\\\"b\\\\c\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"resource: p\\n1\""), "{chrome}");
        assert!(chrome.contains("\"name\":\"queue: a\\\"b\\\\c\""), "{chrome}");
    }

    #[test]
    fn recorder_collects_through_clones() {
        let rec = TraceRecorder::new();
        let mut handle = rec.clone();
        handle.begin(&meta());
        handle.record(
            SimTime::from_micros(1),
            &TraceEvent::QueueDepthChange {
                stage: StageId(0),
                blocks: 1,
                volume: DataVolume::from_bytes(8),
            },
        );
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.snapshot().meta.stages, vec!["src", "work"]);
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
