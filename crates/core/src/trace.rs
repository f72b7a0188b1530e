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
//! traces ([`TraceSnapshot::jsonl`]) across runs. With no observer attached
//! the only cost per would-be event is one `Option` check — the event value
//! itself is never constructed.
//!
//! [`TraceRecorder`] is the built-in observer: it keeps the stream as a
//! compact byte log (about five bytes an event, each record coded against
//! the one before it, in segments that are never reallocated; the format is
//! described above `MAX_RECORD`) and decodes it on
//! [`TraceRecorder::snapshot`] into a
//! [`TraceSnapshot`], which exports a Chrome `trace_event` JSON (loadable in
//! Perfetto, one track per stage plus one per resource) and a JSONL event
//! log, and derives the [`Span`]s that [`crate::critical`] walks for
//! bottleneck attribution.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::graph::StageId;
use crate::units::{DataVolume, SimDuration, SimTime};

/// Sampling configuration for the in-report telemetry
/// ([`crate::metrics::TimeSeries`]): queue depth, pool occupancy and
/// cumulative sink volume are recorded once per `tick`. Set it on a flow
/// with [`crate::graph::FlowGraph::set_observe`]; flows without it produce
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
/// A [`TraceSnapshot`] holds one `(SimTime, TraceEvent)` per event, millions
/// on a stress run, and every analysis walks them, so the size of that
/// decoded view is pinned below: no variant may carry more than four words.
/// (A [`TraceRecorder`] stores its own, smaller encoding of each event.)
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
    /// The last lineage id handed out: the part a snapshot holds, since the
    /// observer is re-attached by the caller.
    pub(crate) next_lineage: u64,
}

impl TraceCtx {
    pub(crate) fn new() -> Self {
        TraceCtx { observer: None, next_lineage: 0 }
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

    pub(crate) fn begin(&mut self, meta: &TraceMeta) {
        if let Some(o) = self.observer.as_mut() {
            o.begin(meta);
        }
    }

    /// Emit an event if an observer is attached. The closure runs only when
    /// someone listens, so disabled tracing never constructs event values.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, ev: impl FnOnce() -> TraceEvent) {
        if let Some(o) = self.observer.as_mut() {
            o.record(at, &ev());
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
    /// cut short) are dropped.
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

    /// Render the trace as a JSONL event log: one JSON object per line, in
    /// emission order, with a fixed key order per event type. Byte-identical
    /// across replays of the same seeded flow.
    pub fn jsonl(&self) -> String {
        let mut out = JsonWriter::default();
        self.write_jsonl(&mut out);
        out.finish()
    }

    fn write_jsonl(&self, out: &mut JsonWriter) {
        let names = EscapedNames::of(&self.meta);
        for (at, ev) in &self.events {
            out.int(b"{\"t\":", at.as_micros());
            match ev {
                TraceEvent::TaskStart { stage, task, lineage, volume, units } => {
                    out.ev(b"task_start", names.stage(*stage));
                    out.int(b",\"task\":", *task);
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                    out.int(b",\"units\":", u64::from(*units));
                }
                TraceEvent::TaskEnd { stage, task, lineage, volume } => {
                    out.ev(b"task_end", names.stage(*stage));
                    out.int(b",\"task\":", *task);
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                }
                TraceEvent::TransferAttempt { stage, lineage, volume, attempt, duration } => {
                    out.ev(b"transfer_attempt", names.stage(*stage));
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                    out.int(b",\"attempt\":", u64::from(*attempt));
                    out.int(b",\"duration\":", duration.as_micros());
                }
                TraceEvent::TransferRetry { stage, lineage, volume, attempt, backoff } => {
                    out.ev(b"transfer_retry", names.stage(*stage));
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                    out.int(b",\"attempt\":", u64::from(*attempt));
                    out.int(b",\"backoff\":", backoff.as_micros());
                }
                TraceEvent::TransferAbandon { stage, lineage, volume } => {
                    out.ev(b"transfer_abandon", names.stage(*stage));
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                }
                TraceEvent::QueueDepthChange { stage, blocks, volume } => {
                    out.ev(b"queue_depth", names.stage(*stage));
                    out.int(b",\"blocks\":", *blocks as u64);
                    out.int(b",\"volume\":", volume.bytes());
                }
                TraceEvent::FaultInjected { scope, kind, count } => {
                    out.lit(b",\"ev\":\"fault\",");
                    match scope {
                        FaultScope::Stage(s) => out.quoted(b"\"stage\":\"", names.stage(*s)),
                        FaultScope::Resource(r) => {
                            out.quoted(b"\"resource\":\"", names.resource(*r))
                        }
                        FaultScope::None => out.lit(b"\"stage\":null"),
                    }
                    out.quoted(b",\"kind\":\"", kind.label().as_bytes());
                    out.int(b",\"count\":", *count);
                }
                TraceEvent::CheckpointWritten { stage, task, count, cost } => {
                    out.ev(b"checkpoint", names.stage(*stage));
                    out.int(b",\"task\":", *task);
                    out.int(b",\"count\":", u64::from(*count));
                    out.int(b",\"cost\":", cost.as_micros());
                }
                TraceEvent::VerifyCheck { stage, lineage, volume, cost, tainted } => {
                    out.ev(b"verify", names.stage(*stage));
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                    out.int(b",\"cost\":", cost.as_micros());
                    out.lit(if *tainted { b",\"tainted\":true" } else { b",\"tainted\":false" });
                }
                TraceEvent::BlockQuarantined { stage, lineage, volume, taint } => {
                    out.ev(b"quarantine", names.stage(*stage));
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"volume\":", volume.bytes());
                    out.int(b",\"taint\":", u64::from(*taint));
                }
                TraceEvent::CrashKill { stage, task, lineage, lost } => {
                    out.ev(b"crash_kill", names.stage(*stage));
                    out.int(b",\"task\":", *task);
                    out.int(b",\"lineage\":", *lineage);
                    out.int(b",\"lost\":", lost.as_micros());
                }
            }
            out.lit(b"}\n");
        }
    }

    /// Export the trace in Chrome `trace_event` JSON (the format Perfetto
    /// and `chrome://tracing` load). Tasks and transfer attempts become
    /// complete (`"X"`) slices, one track (`tid`) per stage plus one per
    /// resource; queue depths become counter (`"C"`) tracks; faults,
    /// quarantines and crash kills become instant (`"i"`) markers.
    pub fn chrome_trace(&self) -> String {
        let mut out = JsonWriter::default();
        self.write_chrome(&mut out);
        out.finish()
    }

    fn write_chrome(&self, out: &mut JsonWriter) {
        let names = EscapedNames::of(&self.meta);
        // The process-name record is always first, so every later record
        // opens with the separating comma.
        out.lit(
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"sciflow\"}}",
        );
        let rbase = names.stages.len();
        let tracks = names.stages.iter().map(|n| (b"stage: ".as_slice(), n));
        for (tid, (what, name)) in
            tracks.chain(names.resources.iter().map(|n| (b"resource: ".as_slice(), n))).enumerate()
        {
            out.int(b",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":", tid as u64);
            out.lit(b",\"args\":{\"name\":\"");
            out.quoted(what, name.as_bytes());
            out.lit(b"}}");
        }
        for span in self.spans() {
            out.lit(b",{\"name\":\"");
            out.lit(span.kind.as_bytes());
            out.lit(b" ");
            out.uint(span.task);
            if span.killed {
                out.lit(b" (killed)");
            }
            out.quoted(b"\",\"cat\":\"", span.kind.as_bytes());
            out.int(b",\"ph\":\"X\",\"ts\":", span.start.as_micros());
            out.int(b",\"dur\":", span.duration().as_micros());
            out.int(b",\"pid\":1,\"tid\":", span.stage.index() as u64);
            out.int(b",\"args\":{\"lineage\":", span.lineage);
            out.lit(b"}}");
        }
        for (at, ev) in &self.events {
            let ts = at.as_micros();
            match ev {
                TraceEvent::QueueDepthChange { stage, blocks, .. } => {
                    out.quoted(b",{\"name\":\"queue: ", names.stage(*stage));
                    out.int(b",\"ph\":\"C\",\"ts\":", ts);
                    out.int(b",\"pid\":1,\"args\":{\"blocks\":", *blocks as u64);
                    out.lit(b"}}");
                }
                TraceEvent::FaultInjected { scope, kind, count } => {
                    let tid = match scope {
                        FaultScope::Stage(s) => s.index(),
                        FaultScope::Resource(r) => rbase + r,
                        FaultScope::None => 0,
                    };
                    out.lit(b",{\"name\":\"fault: ");
                    out.lit(kind.label().as_bytes());
                    out.int(b" x", *count);
                    out.instant(b"fault", ts, tid);
                }
                TraceEvent::BlockQuarantined { stage, lineage, .. } => {
                    out.int(b",{\"name\":\"quarantine lineage ", *lineage);
                    out.instant(b"integrity", ts, stage.index());
                }
                TraceEvent::CrashKill { stage, task, .. } => {
                    out.int(b",{\"name\":\"crash kill task ", *task);
                    out.instant(b"fault", ts, stage.index());
                }
                _ => {}
            }
        }
        out.lit(b"]}");
    }
}

/// The two digits of every number below 100, `"00"` to `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut n = 0;
    while n < 100 {
        pairs[2 * n] = b'0' + (n / 10) as u8;
        pairs[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    pairs
};

/// The exports' output. Their lines are built from literals, integers and
/// escaped names only, so they are appended as bytes, with no `fmt` and no
/// UTF-8 check per piece: [`JsonWriter::finish`] checks the whole export
/// once. The literal methods are forced inline so that each literal piece
/// is copied with a length known at compile time, not through a call.
#[derive(Default)]
struct JsonWriter {
    buf: Vec<u8>,
}

impl JsonWriter {
    /// Append a literal piece.
    #[inline(always)]
    fn lit(&mut self, piece: &'static [u8]) {
        self.buf.extend_from_slice(piece);
    }

    /// Append `v` in decimal, two digits at a time from [`DIGIT_PAIRS`].
    fn uint(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + v as u8;
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    /// Append `lead`, then `v` in decimal.
    #[inline(always)]
    fn int(&mut self, lead: &'static [u8], v: u64) {
        self.lit(lead);
        self.uint(v);
    }

    /// Append `lead`, `text` and a closing quote.
    #[inline(always)]
    fn quoted(&mut self, lead: &'static [u8], text: &[u8]) {
        self.lit(lead);
        self.buf.extend_from_slice(text);
        self.lit(b"\"");
    }

    /// The `ev` and `stage` members every JSONL line but a fault's opens
    /// with.
    #[inline(always)]
    fn ev(&mut self, ev: &'static [u8], stage: &[u8]) {
        self.quoted(b",\"ev\":\"", ev);
        self.quoted(b",\"stage\":\"", stage);
    }

    /// Close a Chrome record's name and finish it as an instant marker.
    #[inline(always)]
    fn instant(&mut self, cat: &'static [u8], ts: u64, tid: usize) {
        self.quoted(b"\",\"cat\":\"", cat);
        self.int(b",\"ph\":\"i\",\"s\":\"t\",\"ts\":", ts);
        self.int(b",\"pid\":1,\"tid\":", tid as u64);
        self.lit(b"}");
    }

    /// The export as text. Every piece was ASCII or a whole name, so this
    /// one check over the finished bytes cannot fail.
    fn finish(self) -> String {
        String::from_utf8(self.buf).expect("the exports append whole UTF-8 strings only")
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

    fn stage(&self, id: StageId) -> &[u8] {
        self.stages.get(id.index()).map_or(b"?", |n| n.as_bytes())
    }

    fn resource(&self, id: usize) -> &[u8] {
        self.resources.get(id).map_or(b"?", |n| n.as_bytes())
    }
}

// The recorder's store is an append-only byte log, one record per event:
//
//   tag     one byte: the variant's number in the low four bits; in the high
//           four, the flags `SAME_TIME`, `SAME_STAGE`, `SAME_LINEAGE` and
//           `SAME_VOLUME`, each saying that this event's value of that name
//           equals the context's and is not written
//   time    unless flagged, LEB128 of the event's time minus the context's,
//           wrapping, so an out-of-order time still decodes
//   fields  the variant's fields in declaration order, each the LEB128 of
//           its value as a `u64` — except `bool`, `FaultKind` and the
//           `FaultScope` arm, one byte each (a scope's id follows its arm) —
//           leaving out a flagged `stage`, `lineage` or `volume`
//
// The context is the last time, stage, lineage and volume any record held
// (all zero before the first); a variant without the field leaves it as it
// was. Most events of a run share their predecessor's time, and a block's
// events follow each other through a stage, so a record averages about five
// bytes where the `(SimTime, TraceEvent)` it decodes to is 48.
//
// The log is kept in segments: the first `FIRST_SEGMENT` bytes, each later
// one twice the last, up to `LAST_SEGMENT`. A segment is allocated once at
// that capacity and never grown: a record starts in the last segment only if
// `MAX_RECORD` bytes are left there, and in the next one otherwise, so no
// record straddles two and the log is never reallocated or copied. The log
// never leaves this module and only `encode` writes it, so `decode` returns
// no `Result`: a malformed log is a bug here, and panics.

/// The longest record: tag, time and five fields at ten LEB128 bytes each.
/// `encode` writes each record over this many zero bytes at the end of the
/// last segment and truncates to the record's end. Writing it into a stack
/// array and appending that instead doubled the cost of logging an event
/// (5.9 to 12 ns on the 75 200-event stress trace, 2-core Xeon VM): the
/// append is a copy of varying length, which the compiler leaves as a call.
const MAX_RECORD: usize = 61;

/// Capacity of the log's first segment.
const FIRST_SEGMENT: usize = 4 << 10;

/// Capacity no segment grows past.
const LAST_SEGMENT: usize = 1 << 20;

/// The tag's variant number.
const VARIANT: u8 = 0x0f;
/// Flags of the tag: the field of that name is the context's.
const SAME_TIME: u8 = 0x10;
const SAME_STAGE: u8 = 0x20;
const SAME_LINEAGE: u8 = 0x40;
const SAME_VOLUME: u8 = 0x80;

/// The values a record's flags refer to: each the last one a record held.
#[derive(Debug, Clone, Copy)]
struct Context {
    time: u64,
    stage: StageId,
    lineage: u64,
    volume: DataVolume,
}

impl Default for Context {
    fn default() -> Self {
        Context { time: 0, stage: StageId(0), lineage: 0, volume: DataVolume::ZERO }
    }
}

/// The context slot and tag flag of a field that is context-coded, which a
/// field opts into by its name; `None` for every other field.
macro_rules! context_slot {
    ($ctx:ident, stage) => {
        Some((&mut $ctx.stage, SAME_STAGE))
    };
    ($ctx:ident, lineage) => {
        Some((&mut $ctx.lineage, SAME_LINEAGE))
    };
    ($ctx:ident, volume) => {
        Some((&mut $ctx.volume, SAME_VOLUME))
    };
    ($ctx:ident, $field:ident) => {
        None
    };
}

/// A record being written over the `MAX_RECORD` zero bytes `encode` put at
/// the end of the log: one capacity check per record, not one per byte.
///
/// Inlining on this, on [`LogReader`] and on [`Field`]'s impls is forced
/// because it is not otherwise dependable: left to the inliner, or given
/// the plain hint, some builds keep a call per field, and an event then
/// costs 17 ns to log instead of 12 and 22 ns to decode instead of 10.
struct RecordWriter<'a> {
    room: &'a mut [u8],
    len: usize,
}

impl RecordWriter<'_> {
    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.room[self.len] = b;
        self.len += 1;
    }

    #[inline(always)]
    fn leb(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    /// Write `v`, or, for a context-coded field whose slot already holds
    /// it, set the slot's flag on the tag instead; the slot then holds `v`.
    #[inline(always)]
    fn field<F: Field>(&mut self, v: F, slot: Option<(&mut F, u8)>) {
        match slot {
            Some((last, flag)) if *last == v => self.room[0] |= flag,
            Some((last, _)) => {
                *last = v;
                v.put(self)
            }
            None => v.put(self),
        }
    }
}

/// A read position in one segment of the log.
struct LogReader<'a> {
    log: &'a [u8],
    at: usize,
}

impl LogReader<'_> {
    #[inline(always)]
    fn byte(&mut self) -> u8 {
        let b = self.log[self.at];
        self.at += 1;
        b
    }

    #[inline(always)]
    fn leb(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// Read a field, or, for a context-coded one whose flag is set in
    /// `tag`, take its slot's value; the slot then holds what was read.
    #[inline(always)]
    fn field<F: Field>(&mut self, tag: u8, slot: Option<(&mut F, u8)>) -> F {
        match slot {
            Some((last, flag)) => {
                if tag & flag == 0 {
                    *last = F::get(self);
                }
                *last
            }
            None => F::get(self),
        }
    }
}

/// A field type of [`TraceEvent`] as the log holds it. [`log_format!`] names
/// fields only; each field's type picks its encoding here, once for both
/// directions.
trait Field: Copy + PartialEq {
    fn put(self, w: &mut RecordWriter<'_>);
    fn get(r: &mut LogReader<'_>) -> Self;
}

/// Types logged as the LEB128 of their value widened to `u64`; `get` narrows
/// back what `put` widened.
macro_rules! leb_fields {
    ($($ty:ty: $widen:expr, $narrow:expr;)*) => {$(
        impl Field for $ty {
            #[inline(always)]
            fn put(self, w: &mut RecordWriter<'_>) {
                w.leb($widen(self))
            }

            #[inline(always)]
            fn get(r: &mut LogReader<'_>) -> Self {
                $narrow(r.leb())
            }
        }
    )*};
}

leb_fields! {
    u64: |v| v, |v| v;
    u32: u64::from, |v| v as u32;
    usize: |v| v as u64, |v| v as usize;
    StageId: |s: StageId| s.0 as u64, |v| StageId(v as usize);
    DataVolume: DataVolume::bytes, DataVolume::from_bytes;
    SimDuration: SimDuration::as_micros, SimDuration::from_micros;
    // One byte each, being under 128.
    bool: u64::from, |v| v != 0;
    FaultKind: |k| k as u64, |v| FAULT_KINDS[v as usize];
}

/// `FaultKind`s by their log value, which is the discriminant.
const FAULT_KINDS: [FaultKind; 5] = [
    FaultKind::Stall,
    FaultKind::Link,
    FaultKind::SilentCorrupt,
    FaultKind::Crash,
    FaultKind::Repair,
];

impl Field for FaultScope {
    #[inline(always)]
    fn put(self, w: &mut RecordWriter<'_>) {
        match self {
            FaultScope::Stage(stage) => {
                w.byte(0);
                stage.put(w)
            }
            FaultScope::Resource(resource) => {
                w.byte(1);
                resource.put(w)
            }
            FaultScope::None => w.byte(2),
        }
    }

    #[inline(always)]
    fn get(r: &mut LogReader<'_>) -> Self {
        match r.byte() {
            0 => FaultScope::Stage(Field::get(r)),
            1 => FaultScope::Resource(Field::get(r)),
            2 => FaultScope::None,
            arm => unreachable!("fault scope arm {arm} in the trace log"),
        }
    }
}

/// The record formats, one row per variant: its number, then its fields in
/// the order they are written and read, which is declaration order. A field
/// is context-coded if its name is `stage`, `lineage` or `volume`
/// ([`context_slot!`]). `encode` and `decode` are both generated from the
/// rows, so they cannot disagree, and a variant or a field the rows leave
/// out does not compile.
macro_rules! log_format {
    ($($tag:literal $variant:ident { $($field:ident),* })*) => {
        /// Append `ev`, at time `t`, to `segment` as a record coded against
        /// `ctx`, which then holds the event's values. `segment` has room
        /// for `MAX_RECORD` bytes, so it is not grown.
        #[inline(always)]
        fn encode(ctx: &mut Context, t: u64, ev: &TraceEvent, segment: &mut Vec<u8>) {
            let start = segment.len();
            segment.resize(start + MAX_RECORD, 0);
            let mut w = RecordWriter { room: &mut segment[start..], len: 0 };
            match *ev {
                $(TraceEvent::$variant { $($field),* } => {
                    w.byte($tag);
                    if t == ctx.time {
                        w.room[0] |= SAME_TIME;
                    } else {
                        w.leb(t.wrapping_sub(ctx.time));
                        ctx.time = t;
                    }
                    $(w.field($field, context_slot!(ctx, $field));)*
                })*
            }
            let end = start + w.len;
            segment.truncate(end);
        }

        /// The `events` records of the log in `segments`, decoded.
        fn decode(segments: &[Vec<u8>], events: usize) -> Vec<(SimTime, TraceEvent)> {
            let mut ctx = Context::default();
            let mut out = Vec::with_capacity(events);
            for segment in segments {
                let mut r = LogReader { log: segment, at: 0 };
                while r.at < segment.len() {
                    let tag = r.byte();
                    if tag & SAME_TIME == 0 {
                        ctx.time = ctx.time.wrapping_add(r.leb());
                    }
                    let ev = match tag & VARIANT {
                        $($tag => TraceEvent::$variant {
                            $($field: r.field(tag, context_slot!(ctx, $field))),*
                        },)*
                        variant => unreachable!("variant {variant} in the trace log"),
                    };
                    out.push((SimTime::from_micros(ctx.time), ev));
                }
            }
            debug_assert_eq!(out.len(), events);
            out
        }
    };
}

log_format! {
    0 TaskStart { stage, task, lineage, volume, units }
    1 TaskEnd { stage, task, lineage, volume }
    2 TransferAttempt { stage, lineage, volume, attempt, duration }
    3 TransferRetry { stage, lineage, volume, attempt, backoff }
    4 TransferAbandon { stage, lineage, volume }
    5 QueueDepthChange { stage, blocks, volume }
    6 FaultInjected { scope, kind, count }
    7 CheckpointWritten { stage, task, count, cost }
    8 VerifyCheck { stage, lineage, volume, cost, tainted }
    9 BlockQuarantined { stage, lineage, volume, taint }
    10 CrashKill { stage, task, lineage, lost }
}

/// Shared buffer behind cloned [`TraceRecorder`] handles.
#[derive(Debug, Default)]
struct TraceBuf {
    meta: TraceMeta,
    /// The log, in segments that are never grown: see above `MAX_RECORD`.
    segments: Vec<Vec<u8>>,
    /// Records in `segments`.
    events: usize,
    /// What the next record is coded against.
    ctx: Context,
}

/// The last of `segments`, after starting a new one, twice as large up to
/// `LAST_SEGMENT`, if the last has less than `MAX_RECORD` bytes of room.
fn segment_with_room(segments: &mut Vec<Vec<u8>>) -> &mut Vec<u8> {
    let last = segments.last();
    if last.is_none_or(|s| s.capacity() - s.len() < MAX_RECORD) {
        let capacity = last.map_or(FIRST_SEGMENT, |s| (2 * s.capacity()).min(LAST_SEGMENT));
        segments.push(Vec::with_capacity(capacity));
    }
    segments.last_mut().expect("a segment with room was just ensured")
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
        self.buf.borrow().events
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of records held for the events recorded so far — what the
    /// recording costs in memory, next to the name tables and the unwritten
    /// end of the log's last segment. A pure function of the event stream,
    /// so the same run reads the same on any machine.
    pub fn bytes_held(&self) -> usize {
        self.buf.borrow().segments.iter().map(Vec::len).sum()
    }

    /// Decode the recorded trace (meta plus events, in emission order). The
    /// snapshot is 48 bytes per event where the log behind it is about five,
    /// and each call decodes the whole log: take one snapshot and read
    /// spans and exports from it.
    pub fn snapshot(&self) -> TraceSnapshot {
        let buf = self.buf.borrow();
        TraceSnapshot { meta: buf.meta.clone(), events: decode(&buf.segments, buf.events) }
    }
}

impl Observer for TraceRecorder {
    fn begin(&mut self, meta: &TraceMeta) {
        *self.buf.borrow_mut() = TraceBuf { meta: meta.clone(), ..TraceBuf::default() };
    }

    fn record(&mut self, at: SimTime, ev: &TraceEvent) {
        let buf = &mut *self.buf.borrow_mut();
        encode(&mut buf.ctx, at.as_micros(), ev, segment_with_room(&mut buf.segments));
        buf.events += 1;
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
        let cases = [
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

    /// The integer values a LEB128 changes length at, and the ends of every
    /// field's range.
    const EDGES: [u64; 8] = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];

    /// Variant `variant` (declaration order, faults aside) with its integer
    /// fields, in declaration order, taken from `f`: a value past a narrower
    /// field's range becomes that field's maximum.
    fn event_of(variant: usize, f: [u64; 5], tainted: bool) -> TraceEvent {
        let stage = |v: u64| StageId(usize::try_from(v).unwrap_or(usize::MAX));
        let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let (vol, dur) = (DataVolume::from_bytes, SimDuration::from_micros);
        match variant {
            0 => TraceEvent::TaskStart {
                stage: stage(f[0]),
                task: f[1],
                lineage: f[2],
                volume: vol(f[3]),
                units: narrow(f[4]),
            },
            1 => TraceEvent::TaskEnd {
                stage: stage(f[0]),
                task: f[1],
                lineage: f[2],
                volume: vol(f[3]),
            },
            2 => TraceEvent::TransferAttempt {
                stage: stage(f[0]),
                lineage: f[1],
                volume: vol(f[2]),
                attempt: narrow(f[3]),
                duration: dur(f[4]),
            },
            3 => TraceEvent::TransferRetry {
                stage: stage(f[0]),
                lineage: f[1],
                volume: vol(f[2]),
                attempt: narrow(f[3]),
                backoff: dur(f[4]),
            },
            4 => {
                TraceEvent::TransferAbandon { stage: stage(f[0]), lineage: f[1], volume: vol(f[2]) }
            }
            5 => TraceEvent::QueueDepthChange {
                stage: stage(f[0]),
                blocks: usize::try_from(f[1]).unwrap_or(usize::MAX),
                volume: vol(f[2]),
            },
            6 => TraceEvent::CheckpointWritten {
                stage: stage(f[0]),
                task: f[1],
                count: narrow(f[2]),
                cost: dur(f[3]),
            },
            7 => TraceEvent::VerifyCheck {
                stage: stage(f[0]),
                lineage: f[1],
                volume: vol(f[2]),
                cost: dur(f[3]),
                tainted,
            },
            8 => TraceEvent::BlockQuarantined {
                stage: stage(f[0]),
                lineage: f[1],
                volume: vol(f[2]),
                taint: narrow(f[3]),
            },
            9 => TraceEvent::CrashKill {
                stage: stage(f[0]),
                task: f[1],
                lineage: f[2],
                lost: dur(f[3]),
            },
            _ => unreachable!(),
        }
    }

    /// Every variant, each integer field in turn at every edge while its
    /// neighbours hold distinct values (so a field dropped, narrowed or read
    /// out of order on either side changes the event); every fault scope arm
    /// and kind; `tainted` both ways. The times repeat, rise, fall and reach
    /// `u64::MAX`, as a hand-driven `record` may make them.
    fn extreme_events() -> Vec<(SimTime, TraceEvent)> {
        let mut events = Vec::new();
        for variant in 0..10 {
            for field in 0..5 {
                for (i, edge) in EDGES.into_iter().enumerate() {
                    let mut f = [3, 5, 7, 11, 13];
                    f[field] = edge;
                    events.push(event_of(variant, f, i % 2 == 0));
                }
            }
        }
        for (i, edge) in EDGES.into_iter().enumerate() {
            let id = usize::try_from(edge).unwrap_or(usize::MAX);
            for scope in
                [FaultScope::Stage(StageId(id)), FaultScope::Resource(id), FaultScope::None]
            {
                for (k, kind) in FAULT_KINDS.into_iter().enumerate() {
                    let count = EDGES[(i + k) % EDGES.len()];
                    events.push(TraceEvent::FaultInjected { scope, kind, count });
                }
            }
        }
        let times = [0, 0, 5, 5, 1_000_000, 999_999, u64::MAX, u64::MAX, 0, 128, 127, u64::MAX - 1];
        events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| (SimTime::from_micros(times[i % times.len()]), ev))
            .collect()
    }

    fn record_all(rec: &TraceRecorder, meta: &TraceMeta, events: &[(SimTime, TraceEvent)]) {
        let mut handle = rec.clone();
        handle.begin(meta);
        for (at, ev) in events {
            handle.record(*at, ev);
        }
    }

    #[test]
    fn log_round_trips_every_variant_at_the_extremes() {
        let events = extreme_events();
        let rec = TraceRecorder::new();
        record_all(&rec, &meta(), &events);
        assert_eq!(rec.len(), events.len());
        assert_eq!(rec.snapshot(), snap(events));
    }

    /// The format by example: tag, time delta, fields; then the same event
    /// again, one flagged record: its tag says the time, stage and volume
    /// are the first's, and only `blocks` is written.
    #[test]
    fn log_bytes_of_a_repeated_event() {
        let ev = TraceEvent::QueueDepthChange {
            stage: StageId(1),
            blocks: 2,
            volume: DataVolume::from_bytes(300),
        };
        let at = SimTime::from_micros(200);
        let rec = TraceRecorder::new();
        record_all(&rec, &meta(), &[(at, ev.clone()), (at, ev)]);
        let log = rec.buf.borrow().segments.concat();
        let flagged = 5 | SAME_TIME | SAME_STAGE | SAME_VOLUME;
        assert_eq!(flagged, 0xb5);
        assert_eq!(log, [5, 0xc8, 0x01, 1, 2, 0xac, 0x02, flagged, 2]);
        assert_eq!(rec.bytes_held(), log.len());
    }

    /// The log's segments run 4 KiB, 8 KiB, … 1 MiB, 1 MiB, and each keeps
    /// the allocation it was made with while later records are appended.
    /// The room a recorder reserves beyond its records is at most its last
    /// segment, plus under `MAX_RECORD` at the end of each full one; and
    /// the records read back across every boundary.
    #[test]
    fn segments_double_to_their_cap_and_are_never_grown() {
        let events = extreme_events();
        let rec = TraceRecorder::new();
        let mut handle = rec.clone();
        handle.begin(&meta());
        let mut made: Vec<(*const u8, usize)> = Vec::new();
        let mut rounds = 0;
        while made.len() < 11 {
            for (at, ev) in &events {
                handle.record(*at, ev);
            }
            rounds += 1;
            let buf = rec.buf.borrow();
            let now: Vec<_> = buf.segments.iter().map(|s| (s.as_ptr(), s.capacity())).collect();
            assert_eq!(now[..made.len()], made[..], "a segment moved or grew");
            made = now;
        }
        let capacities: Vec<usize> = made.iter().map(|&(_, capacity)| capacity).collect();
        let kib = |k: usize| k << 10;
        let doubling = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024].map(kib);
        assert_eq!(capacities, doubling);
        let buf = rec.buf.borrow();
        let (last, full) = buf.segments.split_last().expect("segments were made");
        for segment in full {
            assert!(segment.capacity() - segment.len() < MAX_RECORD);
        }
        let reserved = capacities.iter().sum::<usize>() - rec.bytes_held();
        assert!(reserved <= last.capacity() + full.len() * (MAX_RECORD - 1), "{reserved}");
        drop(buf);
        let recorded: Vec<_> = (0..rounds).flat_map(|_| events.iter().cloned()).collect();
        assert_eq!(rec.snapshot(), snap(recorded));
    }

    #[test]
    fn an_empty_log_decodes_to_no_events() {
        let rec = TraceRecorder::new();
        assert_eq!((rec.len(), rec.bytes_held()), (0, 0));
        assert_eq!(rec.snapshot(), TraceSnapshot::default());
        record_all(&rec, &meta(), &[]);
        assert!(rec.is_empty());
        assert_eq!(rec.snapshot(), snap(vec![]));
    }

    /// A second run through the same recorder starts from nothing: count,
    /// bytes and the time base of the first delta are all reset.
    #[test]
    fn begin_resets_a_used_recorder() {
        let events = extreme_events();
        let (first, second) = events.split_at(events.len() / 2);
        assert_ne!(first.last().map(|e| e.0), Some(SimTime::ZERO), "a time base to forget");
        let reused = TraceRecorder::new();
        record_all(&reused, &TraceMeta::default(), first);
        record_all(&reused, &meta(), second);
        let fresh = TraceRecorder::new();
        record_all(&fresh, &meta(), second);
        assert_eq!(reused.len(), fresh.len());
        assert_eq!(reused.bytes_held(), fresh.bytes_held());
        assert_eq!(reused.snapshot(), fresh.snapshot());
        assert_eq!(reused.snapshot(), snap(second.to_vec()));
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
